//===- telemetry/Telemetry.cpp --------------------------------*- C++ -*-===//

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "support/AtomicFile.h"
#include "support/Format.h"

using namespace augur;

//===----------------------------------------------------------------------===//
// HistogramStats
//===----------------------------------------------------------------------===//

int HistogramStats::bucketIndex(double Mag) {
  int I = int(std::floor((std::log2(Mag) - double(BucketMinLog2)) *
                         double(SubBucketsPerOctave)));
  return I < 0 ? -1 : (I >= NumBuckets ? NumBuckets - 1 : I);
}

double HistogramStats::bucketLo(int I) {
  return std::exp2(double(BucketMinLog2) +
                   double(I) / double(SubBucketsPerOctave));
}

double HistogramStats::bucketMid(int I) {
  return std::exp2(double(BucketMinLog2) +
                   (double(I) + 0.5) / double(SubBucketsPerOctave));
}

void HistogramStats::observe(double V) {
  if (Count == 0) {
    Min = Max = V;
  } else {
    if (V < Min)
      Min = V;
    if (V > Max)
      Max = V;
  }
  ++Count;
  Sum += V;

  if (std::isnan(V))
    return; // keep v1 NaN poisoning semantics, but never bucket NaN
  double Mag = std::fabs(V);
  int I = std::isinf(Mag) ? NumBuckets - 1 : bucketIndex(Mag);
  if (V == 0.0 || I < 0) {
    ++ZeroCount;
    return;
  }
  std::vector<uint64_t> &B = V > 0.0 ? Pos : Neg;
  if (B.empty())
    B.assign(size_t(NumBuckets), 0);
  ++B[size_t(I)];
}

void HistogramStats::merge(const HistogramStats &O) {
  if (O.Count == 0)
    return;
  if (Count == 0) {
    *this = O;
    return;
  }
  Count += O.Count;
  Sum += O.Sum;
  if (O.Min < Min)
    Min = O.Min;
  if (O.Max > Max)
    Max = O.Max;
  ZeroCount += O.ZeroCount;
  for (int Sign = 0; Sign < 2; ++Sign) {
    std::vector<uint64_t> &Dst = Sign ? Neg : Pos;
    const std::vector<uint64_t> &Src = Sign ? O.Neg : O.Pos;
    if (Src.empty())
      continue;
    if (Dst.empty())
      Dst.assign(size_t(NumBuckets), 0);
    for (size_t I = 0; I < Src.size(); ++I)
      Dst[I] += Src[I];
  }
}

double HistogramStats::quantile(double Q) const {
  uint64_t Total = ZeroCount;
  for (uint64_t C : Pos)
    Total += C;
  for (uint64_t C : Neg)
    Total += C;
  if (Total == 0)
    return 0.0;
  Q = std::min(std::max(Q, 0.0), 1.0);
  uint64_t Target = uint64_t(std::ceil(Q * double(Total)));
  if (Target == 0)
    Target = 1;

  double Est = 0.0;
  uint64_t Seen = 0;
  bool Found = false;
  // Ascending walk: most-negative magnitudes first, then zero, then
  // positives.
  for (size_t I = Neg.size(); I-- > 0 && !Found;) {
    Seen += Neg[I];
    if (Seen >= Target) {
      Est = -bucketMid(int(I));
      Found = true;
    }
  }
  if (!Found) {
    Seen += ZeroCount;
    if (Seen >= Target)
      Found = true; // Est = 0
  }
  for (size_t I = 0; I < Pos.size() && !Found; ++I) {
    Seen += Pos[I];
    if (Seen >= Target) {
      Est = bucketMid(int(I));
      Found = true;
    }
  }
  // The exact envelope always brackets the estimate.
  return std::min(std::max(Est, Min), Max);
}

TelemetryConfig TelemetryConfig::fromEnv() {
  TelemetryConfig C;
  const char *V = std::getenv("AUGUR_TELEMETRY");
  if (V && *V && std::string(V) != "0") {
    C.Enabled = true;
    C.FlushAtExit = true;
  }
  if (const char *Dir = std::getenv("AUGUR_TELEMETRY_DIR"))
    if (*Dir)
      C.OutDir = Dir;
  return C;
}

//===----------------------------------------------------------------------===//
// Shards
//===----------------------------------------------------------------------===//

struct Recorder::Shard {
  std::mutex M; ///< owner writes, readers merge; uncontended in steady state
  int Tid = 0;
  std::unordered_map<std::string, uint64_t> Counters;
  std::unordered_map<std::string, HistogramStats> Hists;
  /// Last gauge value per name with its record timestamp; the merged
  /// gauges() view keeps the newest across shards.
  std::unordered_map<std::string, std::pair<uint64_t, double>> Gauges;
  std::vector<TraceEvent> Events;
};

namespace {

std::atomic<uint64_t> NextRecorderId{1};

/// Thread-local shard bindings, validated by recorder instance id so a
/// recorder reallocated at the same address never matches a stale
/// entry. The shard pointer is type-erased because Shard is a private
/// member type of Recorder.
struct ShardBinding {
  uint64_t RecorderId;
  void *S;
};
thread_local std::vector<ShardBinding> TlBindings;

} // namespace

Recorder::Recorder() : InstanceId(NextRecorderId.fetch_add(1)) {}
Recorder::~Recorder() = default;

Recorder &Recorder::global() {
  static Recorder R;
  return R;
}

uint64_t Recorder::nowNanos() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

void Recorder::configure(const TelemetryConfig &C) {
  {
    std::lock_guard<std::mutex> L(Mu);
    Cfg = C;
  }
  Enabled.store(C.Enabled, std::memory_order_relaxed);
}

Recorder::Shard &Recorder::localShard() {
  for (const ShardBinding &B : TlBindings)
    if (B.RecorderId == InstanceId)
      return *static_cast<Shard *>(B.S);
  std::lock_guard<std::mutex> L(Mu);
  Shards.push_back(std::make_unique<Shard>());
  Shard *S = Shards.back().get();
  S->Tid = int(Shards.size()) - 1;
  TlBindings.push_back({InstanceId, S});
  return *S;
}

//===----------------------------------------------------------------------===//
// Recording
//===----------------------------------------------------------------------===//

void Recorder::count(const std::string &Name, uint64_t Delta) {
  if (!enabled())
    return;
  Shard &S = localShard();
  std::lock_guard<std::mutex> L(S.M);
  S.Counters[Name] += Delta;
}

void Recorder::observe(const std::string &Name, double V) {
  if (!enabled())
    return;
  Shard &S = localShard();
  std::lock_guard<std::mutex> L(S.M);
  S.Hists[Name].observe(V);
}

void Recorder::appendEvent(Shard &S, TraceEvent &&E) {
  // Keeps the earliest events: compile spans come first and must
  // survive a long-running daemon's per-sweep gauges.
  if (S.Events.size() < MaxTraceEventsPerShard)
    S.Events.push_back(std::move(E));
  else
    ++S.Counters["telemetry/trace_events_dropped"];
}

void Recorder::span(const std::string &Name, const char *Cat,
                    uint64_t StartNanos, uint64_t EndNanos,
                    std::vector<std::pair<std::string, double>> Args) {
  if (!enabled())
    return;
  Shard &S = localShard();
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.StartNanos = StartNanos;
  E.DurNanos = EndNanos > StartNanos ? EndNanos - StartNanos : 0;
  E.Tid = S.Tid;
  E.Ph = 'X';
  E.Args = std::move(Args);
  std::lock_guard<std::mutex> L(S.M);
  appendEvent(S, std::move(E));
}

void Recorder::gauge(const std::string &Name, double V) {
  if (!enabled())
    return;
  Shard &S = localShard();
  TraceEvent E;
  E.Name = Name;
  E.Cat = "gauge";
  E.StartNanos = nowNanos();
  E.Tid = S.Tid;
  E.Ph = 'C';
  E.Args.emplace_back("value", V);
  std::lock_guard<std::mutex> L(S.M);
  S.Gauges[Name] = {E.StartNanos, V};
  appendEvent(S, std::move(E));
}

//===----------------------------------------------------------------------===//
// Reading
//===----------------------------------------------------------------------===//

std::map<std::string, uint64_t> Recorder::counters() const {
  std::map<std::string, uint64_t> Out;
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> SL(S->M);
    for (const auto &KV : S->Counters)
      Out[KV.first] += KV.second;
  }
  return Out;
}

std::map<std::string, HistogramStats> Recorder::histograms() const {
  std::map<std::string, HistogramStats> Out;
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> SL(S->M);
    for (const auto &KV : S->Hists)
      Out[KV.first].merge(KV.second);
  }
  return Out;
}

std::map<std::string, double> Recorder::gauges() const {
  std::map<std::string, std::pair<uint64_t, double>> Latest;
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> SL(S->M);
    for (const auto &KV : S->Gauges) {
      auto It = Latest.find(KV.first);
      if (It == Latest.end() || KV.second.first >= It->second.first)
        Latest[KV.first] = KV.second;
    }
  }
  std::map<std::string, double> Out;
  for (const auto &KV : Latest)
    Out[KV.first] = KV.second.second;
  return Out;
}

std::vector<TraceEvent> Recorder::traceEvents() const {
  std::vector<TraceEvent> Out;
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> SL(S->M);
    Out.insert(Out.end(), S->Events.begin(), S->Events.end());
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     return A.StartNanos < B.StartNanos;
                   });
  return Out;
}

uint64_t Recorder::counterValue(const std::string &Name) const {
  uint64_t Total = 0;
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> SL(S->M);
    auto It = S->Counters.find(Name);
    if (It != S->Counters.end())
      Total += It->second;
  }
  return Total;
}

void Recorder::reset() {
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> SL(S->M);
    S->Counters.clear();
    S->Hists.clear();
    S->Gauges.clear();
    S->Events.clear();
  }
}

size_t Recorder::debugShardCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return Shards.size();
}

//===----------------------------------------------------------------------===//
// Export
//===----------------------------------------------------------------------===//

namespace {

/// Minimal JSON string escaping (keys are controlled identifiers, but
/// stay correct on arbitrary input).
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += strFormat("\\u%04x", C);
      else
        Out.push_back(C);
    }
  }
  return Out;
}

std::string jsonNumber(double V) {
  if (V != V)
    return "null"; // NaN is not representable in JSON
  if (V == 1.0 / 0.0)
    return "1e308";
  if (V == -1.0 / 0.0)
    return "-1e308";
  return strFormat("%.17g", V);
}

} // namespace

namespace {

/// Sparse "[ [index, count], ... ]" encoding of one bucket array.
std::string bucketArrayJson(const std::vector<uint64_t> &B) {
  std::string Out = "[";
  bool First = true;
  for (size_t I = 0; I < B.size(); ++I) {
    if (!B[I])
      continue;
    Out += strFormat("%s[%zu, %llu]", First ? "" : ", ", I,
                     (unsigned long long)B[I]);
    First = false;
  }
  Out += "]";
  return Out;
}

} // namespace

Status Recorder::writeMetricsJson(const std::string &Path) const {
  std::map<std::string, uint64_t> Cnt = counters();
  std::map<std::string, HistogramStats> Hist = histograms();
  std::map<std::string, double> Gauge = gauges();

  // v2 = v1 plus "gauges", per-histogram quantiles + sparse bucket
  // arrays, and the bucket-scheme constants. Every v1 field keeps its
  // exact name and place so v1 readers parse v2 files unchanged.
  std::string Out;
  Out += "{\n  \"schema\": \"augur-telemetry-v2\",\n";
  Out += strFormat("  \"buckets_per_octave\": %d,\n",
                   HistogramStats::SubBucketsPerOctave);
  Out += strFormat("  \"bucket_min_log2\": %d,\n",
                   HistogramStats::BucketMinLog2);

  Out += "  \"counters\": {";
  bool First = true;
  for (const auto &KV : Cnt) {
    Out += strFormat("%s\n    \"%s\": %llu", First ? "" : ",",
                     jsonEscape(KV.first).c_str(),
                     (unsigned long long)KV.second);
    First = false;
  }
  Out += strFormat("%s  },\n", First ? "" : "\n");

  // Derived acceptance rates: every "<base>/proposed" with a sibling
  // "<base>/accepted" yields "<base>/accept_rate". This is the
  // per-update acceptance-rate schema both backends share.
  Out += "  \"rates\": {";
  First = true;
  for (const auto &KV : Cnt) {
    const std::string Suffix = "/proposed";
    if (KV.first.size() <= Suffix.size() ||
        KV.first.compare(KV.first.size() - Suffix.size(), Suffix.size(),
                         Suffix) != 0)
      continue;
    std::string Base = KV.first.substr(0, KV.first.size() - Suffix.size());
    auto AIt = Cnt.find(Base + "/accepted");
    if (AIt == Cnt.end() || KV.second == 0)
      continue;
    double Rate = double(AIt->second) / double(KV.second);
    Out += strFormat("%s\n    \"%s\": %s", First ? "" : ",",
                     jsonEscape(Base + "/accept_rate").c_str(),
                     jsonNumber(Rate).c_str());
    First = false;
  }
  Out += strFormat("%s  },\n", First ? "" : "\n");

  Out += "  \"gauges\": {";
  First = true;
  for (const auto &KV : Gauge) {
    Out += strFormat("%s\n    \"%s\": %s", First ? "" : ",",
                     jsonEscape(KV.first).c_str(),
                     jsonNumber(KV.second).c_str());
    First = false;
  }
  Out += strFormat("%s  },\n", First ? "" : "\n");

  Out += "  \"histograms\": {";
  First = true;
  for (const auto &KV : Hist) {
    const HistogramStats &H = KV.second;
    Out += strFormat("%s\n    \"%s\": {\"count\": %llu, \"sum\": %s, "
                     "\"min\": %s, \"max\": %s, \"mean\": %s, "
                     "\"p50\": %s, \"p95\": %s, \"p99\": %s, "
                     "\"zero\": %llu, \"pos\": %s, \"neg\": %s}",
                     First ? "" : ",", jsonEscape(KV.first).c_str(),
                     (unsigned long long)H.Count, jsonNumber(H.Sum).c_str(),
                     jsonNumber(H.Min).c_str(), jsonNumber(H.Max).c_str(),
                     jsonNumber(H.mean()).c_str(), jsonNumber(H.p50()).c_str(),
                     jsonNumber(H.p95()).c_str(), jsonNumber(H.p99()).c_str(),
                     (unsigned long long)H.ZeroCount,
                     bucketArrayJson(H.Pos).c_str(),
                     bucketArrayJson(H.Neg).c_str());
    First = false;
  }
  Out += strFormat("%s  }\n}\n", First ? "" : "\n");
  return atomicWriteFile(Path, Out);
}

Status Recorder::writeTraceJson(const std::string &Path) const {
  std::vector<TraceEvent> Events = traceEvents();
  uint64_t Base = Events.empty() ? 0 : Events.front().StartNanos;
  for (const TraceEvent &E : Events)
    Base = std::min(Base, E.StartNanos);

  std::string Out;
  Out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";

  // Process/thread naming metadata so Perfetto labels the tracks.
  Out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"augur\"}}";
  int MaxTid = 0;
  for (const TraceEvent &E : Events)
    MaxTid = std::max(MaxTid, E.Tid);
  for (int T = 0; T <= MaxTid; ++T)
    Out += strFormat(",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": "
                     "\"thread_name\", \"args\": {\"name\": \"shard%d\"}}",
                     T, T);

  for (const TraceEvent &E : Events) {
    double TsUs = double(E.StartNanos - Base) / 1e3;
    Out += strFormat(",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", "
                     "\"pid\": 1, \"tid\": %d, \"ts\": %.3f",
                     jsonEscape(E.Name).c_str(), jsonEscape(E.Cat).c_str(),
                     E.Ph, E.Tid, TsUs);
    if (E.Ph == 'X')
      Out += strFormat(", \"dur\": %.3f", double(E.DurNanos) / 1e3);
    if (!E.Args.empty()) {
      Out += ", \"args\": {";
      for (size_t I = 0; I < E.Args.size(); ++I)
        Out += strFormat("%s\"%s\": %s", I ? ", " : "",
                         jsonEscape(E.Args[I].first).c_str(),
                         jsonNumber(E.Args[I].second).c_str());
      Out += "}";
    }
    Out += "}";
  }
  Out += "\n]}\n";
  return atomicWriteFile(Path, Out);
}

Status Recorder::flushFiles() const {
  std::string Dir;
  {
    std::lock_guard<std::mutex> L(Mu);
    Dir = Cfg.OutDir;
  }
  if (Dir.empty())
    Dir = ".";
  AUGUR_RETURN_IF_ERROR(writeTraceJson(Dir + "/trace.json"));
  return writeMetricsJson(Dir + "/metrics.json");
}

//===----------------------------------------------------------------------===//
// Global wiring
//===----------------------------------------------------------------------===//

namespace {

void flushGlobalAtExit() {
  Recorder &R = Recorder::global();
  if (R.enabled())
    (void)R.flushFiles();
}

} // namespace

void augur::ensureGlobalTelemetry(const TelemetryConfig &Requested) {
  // Serialized: two concurrent first compiles (the serving daemon's
  // workers) must not both observe "disabled" and race configure().
  static std::mutex EnsureMu;
  std::lock_guard<std::mutex> Lock(EnsureMu);
  Recorder &R = Recorder::global();
  if (R.enabled())
    return;
  TelemetryConfig C = Requested;
  TelemetryConfig EnvC = TelemetryConfig::fromEnv();
  if (EnvC.Enabled)
    C = EnvC; // the environment force-enables and picks the out dir
  if (!C.Enabled)
    return;
  R.configure(C);
  if (C.FlushAtExit) {
    static bool Registered = [] {
      std::atexit(flushGlobalAtExit);
      return true;
    }();
    (void)Registered;
  }
}
