//===- telemetry/Telemetry.h - Unified inference telemetry -----*- C++ -*-===//
///
/// \file
/// The telemetry subsystem: one low-overhead, thread-safe sink for the
/// metrics every layer of the pipeline emits — compiler phase spans
/// (frontend → Density IL → Kernel IL → Low++ → cgen), per-update MCMC
/// statistics (wall time, acceptance, slice shrinks, divergences,
/// gradient norms, per-sweep log-joint), and execution-engine counters
/// (parallel-loop occupancy of interpreted and emitted-C pooled loops,
/// both run on the host pool), so a composed kernel `k1 (*) k2` can be
/// debugged per sub-procedure (see DESIGN.md "Telemetry").
///
/// Design: a Recorder holds named monotonic counters, summary
/// histograms, and trace spans. Every writing thread owns a private
/// shard (registered on first use, merged at read time), so recording
/// never contends across pool workers or chains. When the recorder is
/// disabled every record call is a single relaxed atomic load and an
/// early return — no allocation, no clock read — which keeps the
/// NumThreads == 1 legacy path bit-identical and effectively free.
///
/// Export: writeTraceJson produces Chrome trace-event JSON (open in
/// Perfetto / chrome://tracing; spans are laid out per shard-thread,
/// gauges such as the running log-joint become counter tracks), and
/// writeMetricsJson a flat machine-readable summary with a stable
/// schema shared by the interpreter and emitted-C backends.
///
/// Wiring: CompileOptions::Telemetry or the env var AUGUR_TELEMETRY=1
/// enables the process-wide Recorder::global() (with AUGUR_TELEMETRY_DIR
/// choosing where the atexit flush writes trace.json / metrics.json).
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_TELEMETRY_TELEMETRY_H
#define AUGUR_TELEMETRY_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/Result.h"

namespace augur {

/// Telemetry configuration (surfaced on CompileOptions and through the
/// AUGUR_TELEMETRY environment variable).
struct TelemetryConfig {
  /// Master switch. Disabled recorders are inert: no shard is ever
  /// registered and record calls return immediately.
  bool Enabled = false;
  /// Directory flushFiles() writes trace.json / metrics.json into.
  std::string OutDir = ".";
  /// Evaluate and record the model log-joint once per MCMC sweep
  /// (one extra likelihood procedure run; never consumes RNG).
  bool SweepLogJoint = true;
  /// Write trace.json / metrics.json from the global recorder at
  /// process exit (set by fromEnv so AUGUR_TELEMETRY=1 needs no code).
  bool FlushAtExit = false;

  /// Reads AUGUR_TELEMETRY ("", "0" → disabled; anything else enables
  /// with FlushAtExit) and AUGUR_TELEMETRY_DIR (OutDir override).
  static TelemetryConfig fromEnv();
};

/// Summary statistics of a named histogram: the v1 Count/Sum/Min/Max
/// summary plus log-spaced magnitude buckets for quantile estimation
/// (schema "augur-telemetry-v2").
///
/// Bucket scheme: SubBucketsPerOctave buckets per power of two over
/// magnitudes [2^BucketMinLog2, 2^BucketMaxLog2) — bucket widths of
/// 2^(1/8) ≈ 9%, so a quantile reported at the geometric bucket
/// midpoint is within ~4.4% of the true value. Negative observations
/// mirror into a second bucket array; exact zeros (and magnitudes
/// below the smallest bucket) count separately. Bucket arrays are
/// allocated lazily on the first signed observation, so histograms
/// cost four scalars until actually used.
struct HistogramStats {
  uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;

  static constexpr int SubBucketsPerOctave = 8;
  static constexpr int BucketMinLog2 = -20; ///< ~1e-6, below -> zero bucket
  static constexpr int BucketMaxLog2 = 44;  ///< ~1.8e13, above -> top bucket
  static constexpr int NumBuckets =
      (BucketMaxLog2 - BucketMinLog2) * SubBucketsPerOctave; // 512 per sign

  uint64_t ZeroCount = 0;     ///< zeros + magnitudes under 2^BucketMinLog2
  std::vector<uint64_t> Pos;  ///< empty or NumBuckets counts
  std::vector<uint64_t> Neg;  ///< mirrored magnitudes of negative values

  double mean() const { return Count ? Sum / double(Count) : 0.0; }

  void observe(double V);
  void merge(const HistogramStats &O);

  /// Bucket index for a positive magnitude (clamped to the range).
  static int bucketIndex(double Mag);
  /// Lower edge / geometric midpoint of bucket \p I.
  static double bucketLo(int I);
  static double bucketMid(int I);

  /// Estimated \p Q quantile (Q in [0,1]) from the buckets, clamped to
  /// the exact [Min, Max] envelope. 0 when nothing was bucketed.
  double quantile(double Q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
};

/// One recorded trace event. Phase 'X' is a complete span
/// [StartNanos, StartNanos + DurNanos); phase 'C' is a counter sample
/// (a time series point, e.g. the per-sweep log-joint).
struct TraceEvent {
  std::string Name;
  std::string Cat;
  uint64_t StartNanos = 0;
  uint64_t DurNanos = 0;
  int Tid = 0;
  char Ph = 'X';
  std::vector<std::pair<std::string, double>> Args;
};

/// The telemetry sink. Thread-safe; see the file comment for the
/// sharding scheme. All names are flat slash-separated keys, e.g.
/// "chain0/update/Gibbs(z)/accepted".
class Recorder {
public:
  Recorder();
  ~Recorder();
  Recorder(const Recorder &) = delete;
  Recorder &operator=(const Recorder &) = delete;

  /// Trace events kept per shard. Later span() and gauge() events are
  /// dropped (gauge last-values still update) and counted in the
  /// "telemetry/trace_events_dropped" counter, so a long-running daemon
  /// holds a bounded trace.
  static constexpr size_t MaxTraceEventsPerShard = 4096;

  /// The process-wide recorder (the sink Compiler::compile wires the
  /// pipeline to). Starts disabled.
  static Recorder &global();

  /// Applies \p C; enables or disables recording accordingly. Enabling
  /// an already-enabled recorder only updates the config.
  void configure(const TelemetryConfig &C);
  const TelemetryConfig &config() const { return Cfg; }

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Fork hygiene for sandbox workers: turns recording off with a
  /// single lock-free store, without touching Mu (another daemon thread
  /// may have held it at the fork instant) or the inherited shards.
  /// Every record call then no-ops on its relaxed Enabled load. The
  /// parent daemon republishes worker metrics from the status record a
  /// worker streams back, so nothing is lost.
  void disableInForkedChild() {
    Enabled.store(false, std::memory_order_relaxed);
  }

  /// Monotonic nanosecond clock shared by all span instrumentation.
  static uint64_t nowNanos();

  //===--------------------------------------------------------------===//
  // Recording (no-ops while disabled)
  //===--------------------------------------------------------------===//

  /// Adds \p Delta to the named monotonic counter.
  void count(const std::string &Name, uint64_t Delta = 1);

  /// Records one observation of the named histogram.
  void observe(const std::string &Name, double V);

  /// Records a completed span (caller supplies the timestamps, taken
  /// from nowNanos()).
  void span(const std::string &Name, const char *Cat, uint64_t StartNanos,
            uint64_t EndNanos,
            std::vector<std::pair<std::string, double>> Args = {});

  /// Records a counter-track sample (a Perfetto time series point) and
  /// updates the gauge's last value (the current-state view gauges()
  /// reads and the /metrics scrape endpoint publishes).
  void gauge(const std::string &Name, double V);

  //===--------------------------------------------------------------===//
  // Reading (merges all shards; safe while writers are active)
  //===--------------------------------------------------------------===//

  std::map<std::string, uint64_t> counters() const;
  std::map<std::string, HistogramStats> histograms() const;
  /// Last value of every gauge (the most recent gauge() call per name
  /// across all shards, by record timestamp).
  std::map<std::string, double> gauges() const;
  std::vector<TraceEvent> traceEvents() const;

  /// Merged value of one counter (0 when absent).
  uint64_t counterValue(const std::string &Name) const;

  /// Clears all recorded data (shards survive, so cached thread-local
  /// bindings stay valid). Does not change the enabled state.
  void reset();

  /// Number of registered shards; a disabled recorder must stay at 0
  /// (the zero-allocation contract the tests assert).
  size_t debugShardCount() const;

  //===--------------------------------------------------------------===//
  // Export
  //===--------------------------------------------------------------===//

  /// Flat metrics summary (schema "augur-telemetry-v2"): counters,
  /// derived */accept_rate entries for every */proposed-/accepted pair,
  /// gauge last-values, and histogram summaries with p50/p95/p99 and
  /// sparse log-spaced bucket arrays. Every v1 field is preserved
  /// verbatim, so v1 readers keep working.
  Status writeMetricsJson(const std::string &Path) const;

  /// Chrome trace-event JSON, loadable in Perfetto.
  Status writeTraceJson(const std::string &Path) const;

  /// Writes trace.json and metrics.json into config().OutDir.
  Status flushFiles() const;

private:
  struct Shard;
  Shard &localShard();
  /// Appends \p E to \p S under its lock, within the per-shard cap.
  static void appendEvent(Shard &S, TraceEvent &&E);

  std::atomic<bool> Enabled{false};
  TelemetryConfig Cfg;
  uint64_t InstanceId; ///< validates thread-local shard bindings

  mutable std::mutex Mu; ///< guards Shards (vector growth) and Cfg
  std::vector<std::unique_ptr<Shard>> Shards;
};

/// RAII span: captures the start time on construction (when \p R is
/// enabled) and records on destruction. The name is only materialized
/// while enabled, so disabled spans do not allocate.
class ScopedSpan {
public:
  ScopedSpan(Recorder &R, const char *Name, const char *Cat)
      : Rec(R.enabled() ? &R : nullptr), Cat(Cat) {
    if (Rec) {
      Name_ = Name;
      Start = Recorder::nowNanos();
    }
  }
  ScopedSpan(Recorder &R, std::string Name, const char *Cat)
      : Rec(R.enabled() ? &R : nullptr), Cat(Cat) {
    if (Rec) {
      Name_ = std::move(Name);
      Start = Recorder::nowNanos();
    }
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  ~ScopedSpan() {
    if (Rec)
      Rec->span(Name_, Cat, Start, Recorder::nowNanos(), std::move(Args));
  }

  /// Attaches a numeric argument shown in the trace viewer.
  void arg(const char *Key, double V) {
    if (Rec)
      Args.emplace_back(Key, V);
  }

private:
  Recorder *Rec;
  const char *Cat;
  std::string Name_;
  uint64_t Start = 0;
  std::vector<std::pair<std::string, double>> Args;
};

/// Enables the global recorder for \p Requested merged with the
/// AUGUR_TELEMETRY environment (env enables even when the options do
/// not). Called by Compiler::compile; idempotent.
void ensureGlobalTelemetry(const TelemetryConfig &Requested);

} // namespace augur

#endif // AUGUR_TELEMETRY_TELEMETRY_H
