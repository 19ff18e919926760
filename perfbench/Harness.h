//===- perfbench/Harness.h - Shared benchmark machinery --------*- C++ -*-===//
///
/// \file
/// What every workload of the benchmark shares: the command line, the
/// clock, order statistics, the in-memory span tracer of the traced run,
/// accounting of the native backend's host-cc build directories, and the
/// result line the benchmark ends with.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Parsed command line: --workload W --seed N --seconds S --trace 0|1.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20.0;
  bool Trace = false;
};

/// Monotonic clock in seconds / nanoseconds.
double nowSec();
uint64_t nowNs();

/// Order statistics over a sample (copies and sorts; empty -> 0).
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);
/// The latency percentile to report as "p95": p95 when the sample holds
/// at least 200 values, otherwise the highest percentile with at least
/// ten samples beyond it (the method of the choosing-metrics guide).
/// \p Pct receives the percentile used; 0 when no such percentile
/// exists (fewer than 11 samples), in which case the maximum is given.
double tailLatency(const std::vector<double> &V, double &Pct);

/// Peak resident set size of this process, MiB.
double peakRssMb();

/// One named metric of the result line.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Collects metrics and checks; prints the human-readable report and the
/// final JSON result line.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// A failed output check or anti-hollow guard: the run is reported
  /// incorrect and the benchmark exits nonzero.
  void fail(const std::string &What);
  void note(const std::string &Line) { Notes.push_back(Line); }
  bool correct() const { return Failures.empty(); }

  int64_t Attempted = 0;
  int64_t Failed = 0;

  /// Prints notes, a metric table, and the result line (last line of
  /// stdout). Returns the process exit code.
  int finish() const;

private:
  std::vector<Metric> Metrics;
  std::vector<std::string> Failures;
  std::vector<std::string> Notes;
};

/// The per-layer metrics of the traced run, in BENCHMARK.json order.
/// Every workload reports every one; a layer that is not on a
/// workload's path reads 0 (perfbench/layers.json lists which).
class Layers {
public:
  Layers();
  /// Sets a metric; an unknown name is a benchmark bug and aborts.
  void set(const std::string &Name, double Value);
  void emit(Report &R) const;

private:
  std::vector<Metric> Table;
};

/// The traced run's span recorder. Spans are kept in memory and written
/// out once, when the run ends. A span is named "<layer>.<what>"; its
/// parent is the innermost open span of the same thread, and Group ties
/// together the spans of one chain or request.
class Tracer {
public:
  struct SpanRec {
    std::string Name;
    uint64_t Start = 0, End = 0;
    int64_t Id = 0, Parent = -1;
    uint64_t Group = 0;
  };

  static Tracer &get();
  void enable() { On = true; }
  bool on() const { return On; }

  /// Opens a span on the calling thread (no-op when off).
  void open(const std::string &Name, uint64_t Group);
  /// Closes the innermost open span of the calling thread.
  void close();
  /// Records a span whose interval the caller measured (for work timed
  /// by a callback, such as the gap between two draws of a chain).
  void add(const std::string &Name, uint64_t Start, uint64_t End,
           int64_t Parent, uint64_t Group);

  /// Self time per layer, ms: each span's duration minus the part of its
  /// interval covered by its children, summed by layer.
  std::map<std::string, double> selfMsByLayer() const;
  size_t size() const;
  /// Writes the spans as JSON lines to \p Path; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  std::atomic<bool> On{false};
  mutable std::mutex Mu; ///< guards Spans and NextId
  std::vector<SpanRec> Spans;
  int64_t NextId = 0;
};

/// RAII span (no-op when tracing is off).
class Span {
public:
  Span(const std::string &Name, uint64_t Group = 0)
      : Live(Tracer::get().on()) {
    if (Live)
      Tracer::get().open(Name, Group);
  }
  ~Span() {
    if (Live)
      Tracer::get().close();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  bool Live;
};

/// Innermost open span id of the calling thread (-1 when none).
int64_t currentSpan();

/// Accounts for the host-cc build directories the native backend creates
/// (cgen/Native.cpp makes one /tmp/augur_native_* directory per compiled
/// procedure and never removes it). Watches /tmp with inotify, so
/// directories a program removes itself still count as builds; removes
/// exactly the directories created while it watched.
class NativeDirs {
public:
  NativeDirs();
  ~NativeDirs();
  NativeDirs(const NativeDirs &) = delete;
  NativeDirs &operator=(const NativeDirs &) = delete;

  /// Drains pending events; returns build directories created so far.
  uint64_t created();
  /// Of the directories created so far, those still on disk.
  uint64_t leaked();
  /// Removes every directory created since construction.
  void cleanup();

private:
  void drain();
  int Fd = -1;
  int Wd = -1;
  std::set<std::string> Before; ///< snapshot for the no-inotify fallback
  std::set<std::string> Seen;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
