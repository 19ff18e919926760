//===- perfbench/Harness.cpp ----------------------------------*- C++ -*-===//

#include "Harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include <dirent.h>
#include <sys/inotify.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;

namespace {

constexpr const char *TmpDir = "/tmp";
constexpr const char *NativePrefix = "augur_native_";

bool isNativeDir(const std::string &Name) {
  return Name.rfind(NativePrefix, 0) == 0;
}

std::set<std::string> listNativeDirs() {
  std::set<std::string> Out;
  if (DIR *D = opendir(TmpDir)) {
    while (dirent *E = readdir(D))
      if (isNativeDir(E->d_name))
        Out.insert(E->d_name);
    closedir(D);
  }
  return Out;
}

/// Open spans of the calling thread, innermost last.
thread_local std::vector<Tracer::SpanRec> OpenStack;

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

double perfbench::nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t perfbench::nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - double(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double perfbench::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

double perfbench::tailLatency(const std::vector<double> &V, double &Pct) {
  size_t N = V.size();
  if (N >= 200) {
    Pct = 95.0;
    return quantile(V, 0.95);
  }
  if (N < 11) {
    Pct = 0.0;
    return N ? *std::max_element(V.begin(), V.end()) : 0.0;
  }
  double Q = 1.0 - 10.0 / double(N);
  Pct = 100.0 * Q;
  return quantile(V, Q);
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::fail(const std::string &What) {
  Failures.push_back(What);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", What.c_str());
}

int Report::finish() const {
  for (const auto &N : Notes)
    std::printf("  %s\n", N.c_str());
  std::printf("\n  %-34s %18s  %s\n", "metric", "value", "unit");
  for (const auto &M : Metrics)
    std::printf("  %-34s %18.6g  %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  bool Ok = correct();
  for (const auto &M : Metrics)
    if (!std::isfinite(M.Value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   M.Name.c_str());
      Ok = false;
    }
  std::string Line = "{\"correct\": ";
  Line += Ok ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Attempted);
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Line += (I ? ", " : "") + jsonStr(M.Name) + ": {\"value\": " + Buf +
            ", \"unit\": " + jsonStr(M.Unit) + "}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return Ok ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Layers
//===----------------------------------------------------------------------===//

Layers::Layers()
    : Table({{"lang.frontend_ms", 0, "ms"},
             {"density.lower_ms", 0, "ms"},
             {"kernel.schedule_ms", 0, "ms"},
             {"lowpp.procgen_ms", 0, "ms"},
             {"compile.total_ms", 0, "ms"},
             {"compile.programs", 0, "count"},
             {"cgen.cc_builds", 0, "count"},
             {"cgen.cc_ms", 0, "ms"},
             {"cgen.native_proc_share", 0, "ratio"},
             {"cgen.leaked_dirs", 0, "count"},
             {"mcmc.update_ms.theta", 0, "ms"},
             {"mcmc.update_ms.phi", 0, "ms"},
             {"mcmc.update_ms.z", 0, "ms"},
             {"mcmc.update_ms.hmc", 0, "ms"},
             {"exec.ns_per_elem.theta", 0, "ns"},
             {"exec.ns_per_elem.phi", 0, "ns"},
             {"exec.ns_per_elem.z", 0, "ns"},
             {"exec.ns_per_elem.hmc", 0, "ns"},
             {"exec.vector_plan_share", 0, "ratio"},
             {"exec.floor_ratio", 0, "ratio"},
             {"exec.fc_logjoint_us", 0, "us"},
             {"exec.fc_hit_ratio", 0, "ratio"},
             {"diag.observe_us", 0, "us"},
             {"parallel.chain_imbalance", 0, "ratio"},
             {"mcmc.accept_rate", 0, "ratio"},
             {"mcmc.grad_evals_per_sweep", 0, "count"},
             {"serve.queue_transport_ms", 0, "ms"},
             {"serve.lock_wait_ms", 0, "ms"},
             {"serve.sandbox_ms", 0, "ms"},
             {"serve.frame_encode_us", 0, "us"},
             {"serve.forks_per_request", 0, "count"},
             {"serve.cache_hit_ratio", 0, "ratio"},
             {"serve.retries", 0, "count"},
             {"serve.hedges", 0, "count"},
             {"trace.overhead_pct", 0, "%"}}) {}

void Layers::set(const std::string &Name, double Value) {
  for (auto &M : Table)
    if (M.Name == Name) {
      M.Value = Value;
      return;
    }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
               Name.c_str());
  std::abort();
}

void Layers::emit(Report &R) const {
  for (const auto &M : Table)
    R.add(M.Name, M.Value, M.Unit);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

void Tracer::open(const std::string &Name, uint64_t Group) {
  if (!On)
    return;
  SpanRec S;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    S.Id = NextId++;
  }
  S.Name = Name;
  S.Group = Group;
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back().Id;
  S.Start = nowNs();
  OpenStack.push_back(std::move(S));
}

void Tracer::close() {
  if (!On || OpenStack.empty())
    return;
  SpanRec R = std::move(OpenStack.back());
  OpenStack.pop_back();
  R.End = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(std::move(R));
}

void Tracer::add(const std::string &Name, uint64_t Start, uint64_t End,
                 int64_t Parent, uint64_t Group) {
  if (!On)
    return;
  SpanRec R;
  R.Name = Name;
  R.Start = Start;
  R.End = End;
  R.Parent = Parent;
  R.Group = Group;
  std::lock_guard<std::mutex> Lock(Mu);
  R.Id = NextId++;
  Spans.push_back(std::move(R));
}

int64_t perfbench::currentSpan() {
  return OpenStack.empty() ? -1 : OpenStack.back().Id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans.size();
}

std::map<std::string, double> Tracer::selfMsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::unordered_map<int64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      Children;
  for (const auto &S : Spans)
    if (S.Parent >= 0)
      Children[S.Parent].push_back({S.Start, S.End});
  std::map<std::string, double> Out;
  for (const auto &S : Spans) {
    uint64_t Covered = 0;
    auto It = Children.find(S.Id);
    if (It != Children.end()) {
      // Union of the children's intervals, clipped to the parent's:
      // concurrent children (pooled chains) must not count twice.
      auto Iv = It->second;
      std::sort(Iv.begin(), Iv.end());
      uint64_t CurLo = 0, CurHi = 0;
      bool Have = false;
      for (auto [Lo, Hi] : Iv) {
        Lo = std::max(Lo, S.Start);
        Hi = std::min(Hi, S.End);
        if (Hi <= Lo)
          continue;
        if (Have && Lo <= CurHi) {
          CurHi = std::max(CurHi, Hi);
          continue;
        }
        if (Have)
          Covered += CurHi - CurLo;
        CurLo = Lo;
        CurHi = Hi;
        Have = true;
      }
      if (Have)
        Covered += CurHi - CurLo;
    }
    uint64_t Dur = S.End > S.Start ? S.End - S.Start : 0;
    std::string Layer = S.Name.substr(0, S.Name.find('.'));
    Out[Layer] += double(Dur - std::min(Dur, Covered)) / 1e6;
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ofstream Out(Path);
  for (const auto &S : Spans)
    Out << "{\"name\": " << jsonStr(S.Name) << ", \"id\": " << S.Id
        << ", \"parent\": " << S.Parent << ", \"group\": " << S.Group
        << ", \"start_ns\": " << S.Start << ", \"end_ns\": " << S.End
        << "}\n";
  return bool(Out);
}

//===----------------------------------------------------------------------===//
// NativeDirs
//===----------------------------------------------------------------------===//

NativeDirs::NativeDirs() : Before(listNativeDirs()) {
  Fd = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  if (Fd >= 0)
    Wd = inotify_add_watch(Fd, TmpDir, IN_CREATE);
}

NativeDirs::~NativeDirs() {
  if (Fd >= 0)
    ::close(Fd);
}

void NativeDirs::drain() {
  if (Fd >= 0 && Wd >= 0) {
    alignas(inotify_event) char Buf[16384];
    for (;;) {
      ssize_t N = ::read(Fd, Buf, sizeof(Buf));
      if (N <= 0)
        break;
      for (ssize_t Off = 0; Off < N;) {
        auto *E = reinterpret_cast<inotify_event *>(Buf + Off);
        if ((E->mask & IN_ISDIR) && E->len && isNativeDir(E->name))
          Seen.insert(E->name);
        Off += ssize_t(sizeof(inotify_event) + E->len);
      }
    }
  }
  // A snapshot diff covers a missing inotify and a queue overflow; it
  // cannot see a directory that was created and removed in between.
  for (const auto &Name : listNativeDirs())
    if (!Before.count(Name))
      Seen.insert(Name);
}

uint64_t NativeDirs::created() {
  drain();
  return Seen.size();
}

uint64_t NativeDirs::leaked() {
  drain();
  uint64_t N = 0;
  for (const auto &Name : Seen)
    if (std::filesystem::exists(std::string(TmpDir) + "/" + Name))
      ++N;
  return N;
}

void NativeDirs::cleanup() {
  drain();
  for (const auto &Name : Seen) {
    std::error_code EC;
    std::filesystem::remove_all(std::string(TmpDir) + "/" + Name, EC);
  }
}
