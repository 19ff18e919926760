//===- tests/telemetry_test.cpp - Unified inference telemetry -*- C++ -*-===//
//
// Covers the telemetry subsystem (DESIGN.md "Telemetry"): counter /
// histogram / span correctness when many pool workers record at once,
// the disabled-mode zero-allocation contract, the stable metrics.json
// schema ("augur-telemetry-v2") and trace.json well-formedness, and the
// cross-backend guarantee that an interpreter run and an emitted-C run
// of the same model surface the same metric keys. Suites are named
// Telemetry* so the `telemetry` ctest label can target them.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "api/Diagnostics.h"
#include "api/Infer.h"
#include "cgen/Native.h"
#include "models/PaperModels.h"
#include "parallel/ThreadPool.h"
#include "telemetry/Telemetry.h"

using namespace augur;

namespace {

Recorder &makeEnabled(Recorder &R) {
  TelemetryConfig TC;
  TC.Enabled = true;
  R.configure(TC);
  return R;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Ss;
  Ss << In.rdbuf();
  return Ss.str();
}

/// Synthetic 2-D GMM data with well-separated clusters.
Env gmmData(int64_t N, RNG &Rng) {
  BlockedReal X = BlockedReal::rect(N, 2, 0.0);
  for (int64_t I = 0; I < N; ++I) {
    int C = static_cast<int>(Rng.uniformInt(2));
    double Cx = C == 0 ? 4.0 : -4.0;
    X.at(I, 0) = Rng.gauss(Cx, 1.0);
    X.at(I, 1) = Rng.gauss(Cx, 1.0);
  }
  Env Data;
  Data["x"] = Value::realVec(std::move(X),
                             Type::vec(Type::vec(Type::realTy())));
  return Data;
}

std::vector<Value> gmmArgs(int64_t K, int64_t N) {
  return {Value::intScalar(K),
          Value::intScalar(N),
          Value::realVec(BlockedReal::flat(2, 0.0)),
          Value::matrix(Matrix::diagonal({25.0, 25.0})),
          Value::realVec(BlockedReal::flat(K, 1.0 / double(K))),
          Value::matrix(Matrix::diagonal({1.0, 1.0}))};
}

/// Synthetic logistic-regression data for models::HLR (the model whose
/// likelihood and gradient procedures the emitted-C backend compiles
/// natively, so the cross-backend parity test genuinely exercises both
/// execution paths).
Env hlrData(int64_t N, int64_t Kf, RNG &Rng, BlockedReal &XOut) {
  std::vector<double> Theta = {2.0, -2.0, 1.0};
  XOut = BlockedReal::rect(N, Kf, 0.0);
  BlockedInt Y = BlockedInt::flat(N, 0);
  for (int64_t I = 0; I < N; ++I) {
    double Dot = 0.5;
    for (int64_t J = 0; J < Kf; ++J) {
      XOut.at(I, J) = Rng.gauss();
      Dot += XOut.at(I, J) * Theta[static_cast<size_t>(J) % 3];
    }
    Y.at(I) = Rng.uniform() < 1.0 / (1.0 + std::exp(-Dot)) ? 1 : 0;
  }
  Env Data;
  Data["y"] = Value::intVec(std::move(Y));
  return Data;
}

/// Runs a short HLR inference (HMC schedule) against the global
/// recorder and returns the merged counter + histogram key set,
/// restricted to runtime keys ("chain0/..."). Compile-phase spans are
/// trace events and the cgen spans legitimately differ per backend, so
/// key parity is asserted on the chain-scoped metric namespace both
/// backends share. \p WentNative reports whether the engine really
/// executed emitted C (guards against a silently-trivial test).
std::set<std::string> runtimeKeySet(bool NativeCpu, uint64_t Seed,
                                    bool *WentNative = nullptr) {
  Recorder &R = Recorder::global();
  makeEnabled(R);
  R.reset();

  const int64_t N = 120, Kf = 3;
  Infer Aug(models::HLR);
  CompileOptions O;
  O.Seed = Seed;
  O.NativeCpu = NativeCpu;
  O.Telemetry.Enabled = true;
  O.Hmc.StepSize = 0.02;
  O.Hmc.LeapfrogSteps = 5;
  Aug.setCompileOpt(O);
  RNG DataRng(89);
  BlockedReal X;
  Env Data = hlrData(N, Kf, DataRng, X);
  EXPECT_TRUE(
      Aug.compile({Value::realScalar(1.0), Value::intScalar(N),
                   Value::intScalar(Kf),
                   Value::realVec(X, Type::vec(Type::vec(Type::realTy())))},
                  Data)
          .ok());
  auto S = Aug.sample(8);
  EXPECT_TRUE(S.ok()) << S.message();

  if (WentNative) {
    *WentNative = false;
    if (auto *NE = dynamic_cast<NativeEngine *>(&Aug.program().engine()))
      for (const auto &CU : Aug.program().updates())
        if (!CU.LLProc.empty() && NE->isNative(CU.LLProc))
          *WentNative = true;
  }

  std::set<std::string> Keys;
  for (const auto &KV : R.counters())
    if (KV.first.rfind("chain0/", 0) == 0)
      Keys.insert(KV.first);
  for (const auto &KV : R.histograms())
    if (KV.first.rfind("chain0/", 0) == 0)
      Keys.insert(KV.first);
  R.reset();
  return Keys;
}

/// Restores the global recorder to its default (disabled, empty) state
/// so telemetry tests leave nothing behind for other suites.
void disableGlobal() {
  Recorder &R = Recorder::global();
  R.reset();
  TelemetryConfig Off;
  R.configure(Off);
}

} // namespace

TEST(Telemetry, CountersAccumulateAcrossPoolWorkers) {
  Recorder Rec;
  makeEnabled(Rec);
  ThreadPool Pool(4);
  const int64_t N = 10000;
  Pool.parallelFor(0, N, /*Grain=*/64, [&](int64_t Lo, int64_t Hi, int) {
    for (int64_t I = Lo; I < Hi; ++I)
      Rec.count("t/iters");
    Rec.count("t/chunks");
  });
  Rec.count("t/loops");
  EXPECT_EQ(Rec.counterValue("t/iters"), uint64_t(N));
  EXPECT_GE(Rec.counterValue("t/chunks"), uint64_t(N / 64));
  EXPECT_EQ(Rec.counterValue("t/loops"), 1u);
  EXPECT_EQ(Rec.counterValue("t/absent"), 0u);
  // Each recording thread registered at most one shard.
  EXPECT_GE(Rec.debugShardCount(), 1u);
  EXPECT_LE(Rec.debugShardCount(), 5u);
}

TEST(Telemetry, HistogramsMergeAcrossPoolWorkers) {
  Recorder Rec;
  makeEnabled(Rec);
  ThreadPool Pool(4);
  const int64_t N = 1000;
  Pool.parallelFor(0, N, /*Grain=*/16, [&](int64_t Lo, int64_t Hi, int) {
    for (int64_t I = Lo; I < Hi; ++I)
      Rec.observe("t/values", double(I));
  });
  auto Hists = Rec.histograms();
  ASSERT_EQ(Hists.count("t/values"), 1u);
  const HistogramStats &H = Hists.at("t/values");
  EXPECT_EQ(H.Count, uint64_t(N));
  EXPECT_DOUBLE_EQ(H.Min, 0.0);
  EXPECT_DOUBLE_EQ(H.Max, double(N - 1));
  EXPECT_DOUBLE_EQ(H.Sum, double(N) * double(N - 1) / 2.0);
  EXPECT_NEAR(H.mean(), double(N - 1) / 2.0, 1e-9);
}

TEST(Telemetry, SpansCaptureDurationAndArgs) {
  Recorder Rec;
  makeEnabled(Rec);
  {
    ScopedSpan Sp(Rec, "t/work", "test");
    Sp.arg("items", 42.0);
    // Make the span measurably non-empty on coarse clocks.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Rec.gauge("t/level", 3.5);
  auto Events = Rec.traceEvents();
  ASSERT_EQ(Events.size(), 2u);
  const TraceEvent *Span = nullptr, *Gauge = nullptr;
  for (const auto &E : Events)
    (E.Ph == 'X' ? Span : Gauge) = &E;
  ASSERT_NE(Span, nullptr);
  ASSERT_NE(Gauge, nullptr);
  EXPECT_EQ(Span->Name, "t/work");
  EXPECT_EQ(Span->Cat, "test");
  EXPECT_GT(Span->DurNanos, 1000000u); // slept >= 2ms
  ASSERT_EQ(Span->Args.size(), 1u);
  EXPECT_EQ(Span->Args[0].first, "items");
  EXPECT_DOUBLE_EQ(Span->Args[0].second, 42.0);
  EXPECT_EQ(Gauge->Name, "t/level");
  EXPECT_EQ(Gauge->Ph, 'C');
}

TEST(Telemetry, TraceEventLogIsBoundedPerShard) {
  // A long-running daemon publishes gauges every sweep; the trace keeps
  // the earliest events (compile spans first) and counts the rest.
  Recorder Rec;
  makeEnabled(Rec);
  const size_t Cap = Recorder::MaxTraceEventsPerShard;
  Rec.span("t/first", "test", 0, 10);
  for (size_t I = 1; I < Cap + 150; ++I) {
    if (I % 2)
      Rec.gauge("t/level", double(I));
    else
      Rec.span("t/work", "test", I, I + 1);
  }
  auto Events = Rec.traceEvents();
  ASSERT_EQ(Events.size(), Cap);
  EXPECT_EQ(Events.front().Name, "t/first");
  EXPECT_EQ(Rec.counterValue("telemetry/trace_events_dropped"), 150u);
  // Gauge last-values keep updating past the cap.
  EXPECT_EQ(Rec.gauges().at("t/level"), double(Cap + 149));
  Rec.reset();
  Rec.gauge("t/level", 1.0);
  EXPECT_EQ(Rec.traceEvents().size(), 1u);
  EXPECT_EQ(Rec.counterValue("telemetry/trace_events_dropped"), 0u);
}

TEST(Telemetry, DisabledRecorderAllocatesNothing) {
  Recorder Rec; // never enabled
  Rec.count("t/counter", 7);
  Rec.observe("t/hist", 1.0);
  Rec.gauge("t/gauge", 2.0);
  Rec.span("t/span", "test", 0, 100);
  {
    ScopedSpan Sp(Rec, "t/scoped", "test");
    Sp.arg("k", 1.0);
  }
  // The zero-allocation contract: a disabled recorder never registers a
  // shard, so every record call above was a load + early return.
  EXPECT_EQ(Rec.debugShardCount(), 0u);
  EXPECT_TRUE(Rec.counters().empty());
  EXPECT_TRUE(Rec.histograms().empty());
  EXPECT_TRUE(Rec.traceEvents().empty());
}

TEST(Telemetry, ResetClearsDataButKeepsShards) {
  Recorder Rec;
  makeEnabled(Rec);
  Rec.count("t/a");
  Rec.observe("t/b", 1.0);
  Rec.span("t/c", "test", 0, 10);
  size_t Shards = Rec.debugShardCount();
  EXPECT_GE(Shards, 1u);
  Rec.reset();
  EXPECT_EQ(Rec.debugShardCount(), Shards);
  EXPECT_TRUE(Rec.counters().empty());
  EXPECT_TRUE(Rec.histograms().empty());
  EXPECT_TRUE(Rec.traceEvents().empty());
  EXPECT_TRUE(Rec.enabled());
  // Cached thread-local bindings stay valid after reset.
  Rec.count("t/a", 3);
  EXPECT_EQ(Rec.counterValue("t/a"), 3u);
}

TEST(Telemetry, MetricsJsonSchemaRoundTrip) {
  Recorder Rec;
  makeEnabled(Rec);
  Rec.count("chain0/update/MH(mu)/proposed", 100);
  Rec.count("chain0/update/MH(mu)/accepted", 25);
  Rec.count("chain0/sweep/count", 10);
  Rec.observe("chain0/sweep/log_joint", -120.5);
  Rec.observe("chain0/sweep/log_joint", -100.5);

  std::string Path = testing::TempDir() + "/augur_metrics_test.json";
  ASSERT_TRUE(Rec.writeMetricsJson(Path).ok());
  std::string J = slurp(Path);

  EXPECT_NE(J.find("\"schema\": \"augur-telemetry-v2\""), std::string::npos)
      << J;
  // Every v1 field survives verbatim in v2 (v1-reader compatibility).
  EXPECT_NE(J.find("\"counters\""), std::string::npos);
  EXPECT_NE(J.find("\"rates\""), std::string::npos);
  EXPECT_NE(J.find("\"histograms\""), std::string::npos);
  EXPECT_NE(J.find("\"chain0/update/MH(mu)/proposed\": 100"),
            std::string::npos)
      << J;
  // The derived acceptance rate: accepted / proposed = 0.25.
  EXPECT_NE(J.find("chain0/update/MH(mu)/accept_rate"), std::string::npos)
      << J;
  EXPECT_NE(J.find("0.25"), std::string::npos) << J;
  // Histogram summary carries count/sum/min/max/mean.
  EXPECT_NE(J.find("chain0/sweep/log_joint"), std::string::npos);
  EXPECT_NE(J.find("\"count\""), std::string::npos);
  EXPECT_NE(J.find("\"mean\""), std::string::npos);
  // v2 additions: gauges section, quantiles and sparse log-spaced
  // bucket arrays per histogram, bucket-scheme constants.
  EXPECT_NE(J.find("\"gauges\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"p50\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"p99\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"pos\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"buckets_per_octave\""), std::string::npos) << J;
}

TEST(Telemetry, TraceJsonIsWellFormedChromeTrace) {
  Recorder Rec;
  makeEnabled(Rec);
  uint64_t T0 = Recorder::nowNanos();
  Rec.span("compile/total", "compile", T0, T0 + 5000000);
  Rec.gauge("chain0/sweep/log_joint", -42.0);

  std::string Path = testing::TempDir() + "/augur_trace_test.json";
  ASSERT_TRUE(Rec.writeTraceJson(Path).ok());
  std::string J = slurp(Path);

  EXPECT_NE(J.find("\"displayTimeUnit\": \"ms\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  // Metadata names the process; spans and gauges carry their phases.
  EXPECT_NE(J.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(J.find("compile/total"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness proxy).
  long Braces = 0, Brackets = 0;
  for (char C : J) {
    Braces += C == '{' ? 1 : C == '}' ? -1 : 0;
    Brackets += C == '[' ? 1 : C == ']' ? -1 : 0;
  }
  EXPECT_EQ(Braces, 0);
  EXPECT_EQ(Brackets, 0);
}

TEST(Telemetry, FlushFilesWritesBothExports) {
  Recorder Rec;
  TelemetryConfig TC;
  TC.Enabled = true;
  TC.OutDir = testing::TempDir();
  Rec.configure(TC);
  Rec.count("t/x", 1);
  ASSERT_TRUE(Rec.flushFiles().ok());
  EXPECT_FALSE(slurp(testing::TempDir() + "/metrics.json").empty());
  EXPECT_FALSE(slurp(testing::TempDir() + "/trace.json").empty());
}

TEST(Telemetry, ConfigFromEnvRespectsVariables) {
  const char *Old = std::getenv("AUGUR_TELEMETRY");
  std::string OldVal = Old ? Old : "";
  bool HadOld = Old != nullptr;

  unsetenv("AUGUR_TELEMETRY");
  EXPECT_FALSE(TelemetryConfig::fromEnv().Enabled);
  setenv("AUGUR_TELEMETRY", "0", 1);
  EXPECT_FALSE(TelemetryConfig::fromEnv().Enabled);
  setenv("AUGUR_TELEMETRY", "1", 1);
  TelemetryConfig On = TelemetryConfig::fromEnv();
  EXPECT_TRUE(On.Enabled);
  EXPECT_TRUE(On.FlushAtExit);

  if (HadOld)
    setenv("AUGUR_TELEMETRY", OldVal.c_str(), 1);
  else
    unsetenv("AUGUR_TELEMETRY");
}

//===----------------------------------------------------------------------===//
// Integration: telemetry through the full pipeline
//===----------------------------------------------------------------------===//

TEST(TelemetryIntegration, InterpreterAndEmittedCShareMetricKeys) {
  std::set<std::string> InterpKeys =
      runtimeKeySet(/*NativeCpu=*/false, /*Seed=*/0xBEEF);
  bool WentNative = false;
  std::set<std::string> NativeKeys =
      runtimeKeySet(/*NativeCpu=*/true, /*Seed=*/0xBEEF, &WentNative);
  disableGlobal();

  // The native run must have actually executed emitted C for at least
  // the likelihood procedure, or this parity check proves nothing.
  EXPECT_TRUE(WentNative);
  EXPECT_FALSE(InterpKeys.empty());
  // The per-update and per-sweep schema is identical across backends:
  // same update names, same proposed/accepted/time_ns keys, same sweep
  // log-joint histogram.
  EXPECT_EQ(InterpKeys, NativeKeys);
  EXPECT_TRUE(InterpKeys.count("chain0/sweep/count"));
  EXPECT_TRUE(InterpKeys.count("chain0/sweep/log_joint"));
  bool SawProposed = false, SawTime = false;
  for (const auto &K : InterpKeys) {
    SawProposed |= K.find("/proposed") != std::string::npos;
    SawTime |= K.find("/time_ns") != std::string::npos;
  }
  EXPECT_TRUE(SawProposed);
  EXPECT_TRUE(SawTime);
}

TEST(TelemetryIntegration, CompilerPhasesAreTraced) {
  Recorder &R = Recorder::global();
  makeEnabled(R);
  R.reset();

  Infer Aug(models::GMM);
  CompileOptions O;
  O.Telemetry.Enabled = true;
  Aug.setCompileOpt(O);
  RNG DataRng(71);
  ASSERT_TRUE(Aug.compile(gmmArgs(2, 40), gmmData(40, DataRng)).ok());

  std::set<std::string> SpanNames;
  for (const auto &E : R.traceEvents())
    if (E.Ph == 'X')
      SpanNames.insert(E.Name);
  for (const char *Phase : {"compile/total", "compile/frontend",
                            "compile/density", "compile/kernel",
                            "compile/lowpp"})
    EXPECT_TRUE(SpanNames.count(Phase)) << "missing span " << Phase;
  // IR size counters from the phase spans.
  EXPECT_GT(R.counterValue("compile/ir/decls"), 0u);
  EXPECT_GT(R.counterValue("compile/ir/updates"), 0u);
  EXPECT_GT(R.counterValue("compile/ir/procs"), 0u);
  disableGlobal();
}

TEST(TelemetryIntegration, EnabledTelemetryKeepsSamplesBitIdentical) {
  auto Run = [](bool Telemetry) {
    Infer Aug(models::GMM);
    CompileOptions O;
    O.Seed = 0x5151;
    O.Telemetry.Enabled = Telemetry;
    Aug.setCompileOpt(O);
    RNG DataRng(67);
    EXPECT_TRUE(Aug.compile(gmmArgs(2, 50), gmmData(50, DataRng)).ok());
    auto S = Aug.sample(15);
    EXPECT_TRUE(S.ok()) << S.message();
    std::vector<double> Trace;
    for (const auto &Draw : S->Draws.at("mu"))
      for (double V : Draw.realVec().flat())
        Trace.push_back(V);
    return Trace;
  };
  std::vector<double> Plain = Run(false);
  std::vector<double> Instrumented = Run(true);
  disableGlobal();
  ASSERT_EQ(Plain.size(), Instrumented.size());
  for (size_t I = 0; I < Plain.size(); ++I)
    EXPECT_EQ(Plain[I], Instrumented[I]) << "draw element " << I;
}

TEST(TelemetryIntegration, MultiChainSurfacesPerChainStats) {
  CompileOptions O;
  O.Seed = 0x77;
  RNG DataRng(67);
  SampleOptions SO;
  SO.NumSamples = 12;
  SO.TrackLogJoint = true;
  auto R = runChains(models::GMM, O, gmmArgs(2, 40), gmmData(40, DataRng),
                     SO, /*NumChains=*/2);
  ASSERT_TRUE(R.ok()) << R.message();
  ASSERT_EQ(R->Chains.size(), 2u);
  for (int C = 0; C < 2; ++C) {
    EXPECT_EQ(R->Chains[size_t(C)].ChainId, C);
    // Every update reports an acceptance rate; the GMM schedule is all
    // Gibbs, which accepts unconditionally.
    ASSERT_FALSE(R->acceptRates(C).empty());
    for (const auto &KV : R->acceptRates(C)) {
      EXPECT_DOUBLE_EQ(KV.second, 1.0) << KV.first;
      EXPECT_DOUBLE_EQ(R->acceptRate(C, KV.first), KV.second);
    }
    EXPECT_EQ(R->logJoint(C).size(), size_t(SO.NumSamples));
  }
  // Distinct chains draw from split RNG streams.
  EXPECT_NE(R->logJoint(0), R->logJoint(1));
}
