//===- tests/diag_test.cpp - Observability plane tests ---------*- C++ -*-===//
//
// Covers the live-inference observability plane (DESIGN.md section 14):
//
//  * streaming split-R-hat / ESS against the two-pass batch references
//    on synthetic AR(1) chains (agreement within 1e-6, including
//    non-power-of-two lengths),
//  * the estimators' diagnostic power: ESS collapses under
//    autocorrelation, R-hat flags a mean-shifted chain,
//  * ChainDiag key schema (chain<k>/diag/rhat|ess/<var>) and its
//    interp-vs-native identity on a real model,
//  * bit-transparency: sampled streams identical with the plane on or
//    off, on both backends,
//  * quantile histograms (log-spaced buckets, p50/p95/p99, merge), and
//  * the Prometheus text exposition renderer, held to an
//    exposition-format validator.
//
// Suites are named Diag* so the `diag` ctest label can target them.
//
//===----------------------------------------------------------------------===//

#include <cctype>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "api/Infer.h"
#include "cgen/Native.h"
#include "diag/ChainDiag.h"
#include "diag/Streaming.h"
#include "models/PaperModels.h"
#include "serve/Prometheus.h"
#include "telemetry/Telemetry.h"

using namespace augur;
using namespace augur::diag;

namespace {

/// AR(1) chain x_t = Phi x_{t-1} + e_t with N(0,1) innovations,
/// optional mean shift at \p ShiftAt.
std::vector<double> ar1Chain(size_t N, double Phi, uint64_t Seed,
                             size_t ShiftAt = size_t(-1),
                             double Shift = 0.0) {
  RNG Rng(Seed);
  std::vector<double> X(N);
  double Prev = Rng.gauss();
  for (size_t I = 0; I < N; ++I) {
    Prev = Phi * Prev + Rng.gauss();
    X[I] = Prev + (I >= ShiftAt ? Shift : 0.0);
  }
  return X;
}

/// Pushes a whole chain through a StreamingDiag.
StreamingDiag streamOf(const std::vector<double> &Chain,
                       int MaxSegments = 32, int MaxLag = 64) {
  StreamingDiag D(MaxSegments, MaxLag);
  for (double X : Chain)
    D.push(X);
  return D;
}

bool bitEqDouble(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool bitEqValue(const Value &A, const Value &B) {
  if (A.isRealScalar() && B.isRealScalar())
    return bitEqDouble(A.asReal(), B.asReal());
  if (A.isRealVec() && B.isRealVec()) {
    const auto &FA = A.realVec().flat(), &FB = B.realVec().flat();
    return FA.size() == FB.size() &&
           (FA.empty() || std::memcmp(FA.data(), FB.data(),
                                      FA.size() * sizeof(double)) == 0);
  }
  return A == B;
}

/// Synthetic 2-D GMM data with well-separated clusters.
Env gmmData(int64_t N, uint64_t Seed) {
  RNG Rng(Seed);
  BlockedReal X = BlockedReal::rect(N, 2, 0.0);
  for (int64_t I = 0; I < N; ++I) {
    double Cx = Rng.uniformInt(2) == 0 ? 4.0 : -4.0;
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

/// Synthetic logistic-regression data for models::HLR — the model whose
/// likelihood/gradient the emitted-C backend compiles natively, so the
/// cross-backend parity test genuinely exercises both execution paths.
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

} // namespace

//===----------------------------------------------------------------------===//
// Streaming estimators vs batch references
//===----------------------------------------------------------------------===//

TEST(DiagStreaming, WelfordMatchesDirectMoments) {
  RNG Rng(7);
  std::vector<double> X(257);
  for (double &V : X)
    V = Rng.gauss(3.0, 2.0);

  Welford W;
  for (double V : X)
    W.add(V);

  double Mean = 0.0;
  for (double V : X)
    Mean += V;
  Mean /= double(X.size());
  double M2 = 0.0;
  for (double V : X)
    M2 += (V - Mean) * (V - Mean);

  EXPECT_NEAR(W.Mean, Mean, 1e-10);
  EXPECT_NEAR(W.variance(), M2 / double(X.size() - 1), 1e-9);

  // Pairwise merge equals the concatenated stream.
  Welford A, B, AB;
  for (size_t I = 0; I < X.size(); ++I)
    (I < 100 ? A : B).add(X[I]);
  AB = A;
  AB.merge(B);
  EXPECT_EQ(AB.N, W.N);
  EXPECT_NEAR(AB.Mean, W.Mean, 1e-12);
  EXPECT_NEAR(AB.M2, W.M2, 1e-8);
}

TEST(DiagStreaming, RhatMatchesBatchReferenceOnAR1) {
  // Includes non-power-of-two lengths, so the segment ring has partial
  // final segments and the split point is genuinely data-dependent.
  const size_t Lens[] = {16, 100, 256, 1000, 1037};
  const double Phis[] = {0.0, 0.5, 0.9};
  for (size_t N : Lens)
    for (double Phi : Phis) {
      std::vector<double> Chain = ar1Chain(N, Phi, 0xABC0 + N);
      StreamingDiag D = streamOf(Chain);
      double Batch = batchRhat(Chain, D.splitPoint());
      double Stream = D.rhat();
      ASSERT_TRUE(std::isfinite(Stream))
          << "N=" << N << " phi=" << Phi;
      EXPECT_NEAR(Stream, Batch, 1e-6) << "N=" << N << " phi=" << Phi;
      // A stationary well-mixed chain scores near 1.
      if (Phi <= 0.5 && N >= 256) {
        EXPECT_LT(Stream, 1.2) << "N=" << N << " phi=" << Phi;
      }
    }
}

TEST(DiagStreaming, EssMatchesBatchReferenceOnAR1) {
  const size_t Lens[] = {16, 100, 256, 1000, 1037};
  const double Phis[] = {0.0, 0.5, 0.9};
  for (size_t N : Lens)
    for (double Phi : Phis) {
      std::vector<double> Chain = ar1Chain(N, Phi, 0xE550 + N);
      StreamingDiag D = streamOf(Chain);
      double Batch = batchEss(Chain, /*MaxLag=*/64);
      double Stream = D.ess();
      // 1e-6 relative: the estimators are the same arithmetic, only
      // the accumulation order differs.
      EXPECT_NEAR(Stream, Batch, 1e-6 * std::max(1.0, std::fabs(Batch)))
          << "N=" << N << " phi=" << Phi;
    }
}

TEST(DiagStreaming, EssCollapsesUnderAutocorrelation) {
  const size_t N = 4000;
  StreamingDiag Iid = streamOf(ar1Chain(N, 0.0, 41));
  StreamingDiag Sticky = streamOf(ar1Chain(N, 0.9, 42));
  // Independent draws keep most of their nominal sample size; phi=0.9
  // has asymptotic efficiency (1-phi)/(1+phi) ~ 5%.
  EXPECT_GT(Iid.ess(), 0.5 * double(N));
  EXPECT_LT(Sticky.ess(), 0.25 * double(N));
  EXPECT_LT(Sticky.ess(), Iid.ess() / 3.0);
}

TEST(DiagStreaming, RhatFlagsMeanShiftedChain) {
  const size_t N = 2000;
  StreamingDiag Stationary = streamOf(ar1Chain(N, 0.3, 51));
  StreamingDiag Shifted =
      streamOf(ar1Chain(N, 0.3, 52, /*ShiftAt=*/N / 2, /*Shift=*/4.0));
  EXPECT_LT(Stationary.rhat(), 1.1);
  EXPECT_GT(Shifted.rhat(), 1.5);
}

TEST(DiagStreaming, EdgeCasesAreDefined) {
  StreamingDiag D;
  EXPECT_TRUE(std::isnan(D.rhat())); // no data
  D.push(1.0);
  D.push(1.0);
  EXPECT_TRUE(std::isnan(D.rhat())); // below 4 observations
  EXPECT_DOUBLE_EQ(D.ess(), 2.0);    // N < 4 reports N

  // A constant chain has zero variance everywhere: R-hat undefined
  // (NaN, not a crash), ESS degenerates to N.
  StreamingDiag C = streamOf(std::vector<double>(64, 3.25));
  EXPECT_TRUE(std::isnan(C.rhat()));
  EXPECT_DOUBLE_EQ(C.ess(), 64.0);

  // reset() forgets everything.
  StreamingDiag R = streamOf(ar1Chain(100, 0.5, 61));
  R.reset();
  EXPECT_EQ(R.count(), 0u);
  EXPECT_TRUE(std::isnan(R.rhat()));
}

TEST(DiagStreaming, SplitPointStaysNearHalf) {
  for (size_t N : {8u, 100u, 1000u, 1037u, 5000u}) {
    StreamingDiag D = streamOf(ar1Chain(N, 0.2, 0x5111 + N));
    uint64_t Split = D.splitPoint();
    EXPECT_GE(Split, uint64_t(1)) << N;
    EXPECT_LT(Split, uint64_t(N)) << N;
    // Segment granularity keeps the split within one segment of N/2.
    double Frac = double(Split) / double(N);
    EXPECT_GT(Frac, 0.3) << N;
    EXPECT_LT(Frac, 0.7) << N;
  }
}

//===----------------------------------------------------------------------===//
// ChainDiag: key schema and value reduction
//===----------------------------------------------------------------------===//

TEST(DiagChain, DiagScalarReducesEveryValueShape) {
  EXPECT_DOUBLE_EQ(diagScalar(Value::realScalar(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(diagScalar(Value::intScalar(7)), 7.0);
  EXPECT_DOUBLE_EQ(
      diagScalar(Value::realVec(BlockedReal::flat({1.0, 2.0, 6.0}))), 3.0);
  EXPECT_DOUBLE_EQ(
      diagScalar(Value::intVec(BlockedInt::flat({2, 4}))), 3.0);
  EXPECT_DOUBLE_EQ(
      diagScalar(Value::matrix(Matrix::diagonal({2.0, 2.0}))), 1.0);
  EXPECT_DOUBLE_EQ(diagScalar(Value::realVec(BlockedReal::flat(0, 0.0))),
                   0.0);
}

TEST(DiagChain, PublishesStableKeySchema) {
  DiagOptions O;
  O.Enabled = true;
  ChainDiag D(O, {"mu", "pi"}, /*ChainIndex=*/0);

  Env E;
  RNG Rng(9);
  for (int I = 0; I < 32; ++I) {
    E["mu"] = Value::realScalar(Rng.gauss());
    E["pi"] = Value::realScalar(Rng.gauss(2.0, 0.5));
    D.observeSweep(E);
  }
  EXPECT_EQ(D.sweeps(), 32u);
  ASSERT_NE(D.stat("mu"), nullptr);
  EXPECT_EQ(D.stat("mu")->count(), 32u);
  EXPECT_EQ(D.stat("absent"), nullptr);

  Recorder Rec;
  TelemetryConfig TC;
  TC.Enabled = true;
  Rec.configure(TC);
  D.publish(Rec);
  std::map<std::string, double> G = Rec.gauges();
  EXPECT_EQ(G.count("chain0/diag/rhat/mu"), 1u);
  EXPECT_EQ(G.count("chain0/diag/rhat/pi"), 1u);
  EXPECT_EQ(G.count("chain0/diag/ess/mu"), 1u);
  EXPECT_EQ(G.count("chain0/diag/ess/pi"), 1u);

  // rebind() re-prefixes for the new chain and drops accumulated state
  // (the serve daemon's resetForReuse path).
  D.rebind(3);
  EXPECT_EQ(D.sweeps(), 0u);
  D.observeSweep(E);
  Rec.reset();
  D.publish(Rec);
  G = Rec.gauges();
  EXPECT_EQ(G.count("chain3/diag/rhat/mu"), 1u);
  EXPECT_EQ(G.count("chain0/diag/rhat/mu"), 0u);
}

TEST(DiagChain, UndefinedStatsStillPublishTheFullKeySet) {
  // One sweep: R-hat is undefined (NaN) but the gauge key must exist —
  // the key schema may not depend on the sampled values.
  DiagOptions O;
  O.Enabled = true;
  ChainDiag D(O, {"theta"}, 0);
  Env E;
  E["theta"] = Value::realScalar(1.0);
  D.observeSweep(E);

  Recorder Rec;
  TelemetryConfig TC;
  TC.Enabled = true;
  Rec.configure(TC);
  D.publish(Rec);
  auto G = Rec.gauges();
  ASSERT_EQ(G.count("chain0/diag/rhat/theta"), 1u);
  EXPECT_TRUE(std::isnan(G["chain0/diag/rhat/theta"]));
  ASSERT_EQ(G.count("chain0/diag/ess/theta"), 1u);
}

//===----------------------------------------------------------------------===//
// Integration: compiled programs, both backends
//===----------------------------------------------------------------------===//

namespace {

/// Compiles + samples a small GMM with the diag plane as requested and
/// returns (draws, diag key set) using the global recorder.
struct IntegrationRun {
  std::map<std::string, std::vector<Value>> Draws;
  std::set<std::string> DiagKeys;
  std::map<std::string, double> Rhat, Ess;
  bool WentNative = false;
};

IntegrationRun runGmm(bool NativeCpu, bool Diag, int Samples = 24) {
  Recorder &R = Recorder::global();
  TelemetryConfig TC;
  TC.Enabled = true;
  R.configure(TC);
  R.reset();

  const int64_t N = 80;
  Infer Aug(models::GMM);
  CompileOptions CO;
  CO.Seed = 0xD1A9;
  CO.NativeCpu = NativeCpu;
  CO.Telemetry.Enabled = true;
  CO.Diag.Enabled = Diag;
  Aug.setCompileOpt(CO);
  Status St = Aug.compile(gmmArgs(2, N), gmmData(N, 0xDA7A));
  EXPECT_TRUE(St.ok()) << St.message();

  auto S = Aug.sample(Samples);
  EXPECT_TRUE(S.ok()) << S.message();

  IntegrationRun Out;
  if (S.ok()) {
    Out.Draws = S->Draws;
    Out.Rhat = S->Rhat;
    Out.Ess = S->Ess;
  }
  if (auto *NE = dynamic_cast<NativeEngine *>(&Aug.program().engine()))
    for (const auto &CU : Aug.program().updates())
      if (!CU.LLProc.empty() && NE->isNative(CU.LLProc))
        Out.WentNative = true;
  for (const auto &KV : R.gauges())
    if (KV.first.find("/diag/") != std::string::npos)
      Out.DiagKeys.insert(KV.first);
  for (const auto &KV : R.counters())
    if (KV.first.find("/diag/") != std::string::npos)
      Out.DiagKeys.insert(KV.first);

  R.reset();
  TelemetryConfig Off;
  R.configure(Off);
  return Out;
}

/// Runs a short HLR inference (the model the emitted-C backend compiles
/// natively) with the diag plane on and returns the chain0 diag key set
/// from the global recorder.
std::set<std::string> hlrDiagKeys(bool NativeCpu, bool *WentNative) {
  Recorder &R = Recorder::global();
  TelemetryConfig TC;
  TC.Enabled = true;
  R.configure(TC);
  R.reset();

  const int64_t N = 120, Kf = 3;
  Infer Aug(models::HLR);
  CompileOptions O;
  O.Seed = 0xD1A7;
  O.NativeCpu = NativeCpu;
  O.Telemetry.Enabled = true;
  O.Diag.Enabled = true;
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
  for (const auto &KV : R.gauges())
    if (KV.first.rfind("chain0/diag/", 0) == 0)
      Keys.insert(KV.first);
  for (const auto &KV : R.counters())
    if (KV.first.rfind("chain0/diag/", 0) == 0)
      Keys.insert(KV.first);
  R.reset();
  TelemetryConfig Off;
  R.configure(Off);
  return Keys;
}

} // namespace

TEST(DiagIntegration, KeySetIdenticalAcrossBackends) {
  bool WentNative = false;
  std::set<std::string> Interp =
      hlrDiagKeys(/*NativeCpu=*/false, nullptr);
  std::set<std::string> Native =
      hlrDiagKeys(/*NativeCpu=*/true, &WentNative);

  EXPECT_TRUE(WentNative)
      << "native run fell back to the interpreter; parity check is vacuous";
  ASSERT_FALSE(Interp.empty());
  EXPECT_EQ(Interp, Native);

  // The schema covers the monitored parameters plus the rollup
  // counters; spot-check the families rather than the model's exact
  // parameter names.
  bool SawRhat = false, SawEss = false;
  for (const std::string &K : Interp) {
    SawRhat |= K.rfind("chain0/diag/rhat/", 0) == 0;
    SawEss |= K.rfind("chain0/diag/ess/", 0) == 0;
  }
  EXPECT_TRUE(SawRhat);
  EXPECT_TRUE(SawEss);
  EXPECT_EQ(Interp.count("chain0/diag/divergences"), 1u);
  EXPECT_EQ(Interp.count("chain0/diag/guard_retries"), 1u);
  EXPECT_EQ(Interp.count("chain0/diag/guard_fallbacks"), 1u);
  EXPECT_EQ(Interp.count("chain0/diag/guard_quarantines"), 1u);
}

TEST(DiagIntegration, StreamsBitIdenticalWithPlaneOnOrOff) {
  for (bool NativeCpu : {false, true}) {
    IntegrationRun Off = runGmm(NativeCpu, /*Diag=*/false);
    IntegrationRun On = runGmm(NativeCpu, /*Diag=*/true);
    ASSERT_EQ(Off.Draws.size(), On.Draws.size()) << NativeCpu;
    for (const auto &KV : Off.Draws) {
      auto It = On.Draws.find(KV.first);
      ASSERT_NE(It, On.Draws.end()) << KV.first;
      ASSERT_EQ(It->second.size(), KV.second.size()) << KV.first;
      for (size_t I = 0; I < KV.second.size(); ++I)
        EXPECT_TRUE(bitEqValue(KV.second[I], It->second[I]))
            << (NativeCpu ? "native" : "interp") << " draw " << I << " of "
            << KV.first;
    }
    EXPECT_TRUE(Off.DiagKeys.empty());
    EXPECT_FALSE(On.DiagKeys.empty());
  }
}

TEST(DiagIntegration, SampleSetCarriesConvergenceSnapshots) {
  IntegrationRun On = runGmm(/*NativeCpu=*/false, /*Diag=*/true,
                             /*Samples=*/40);
  ASSERT_FALSE(On.Rhat.empty());
  ASSERT_FALSE(On.Ess.empty());
  ASSERT_EQ(On.Rhat.count("mu"), 1u);
  ASSERT_EQ(On.Ess.count("mu"), 1u);
  // ESS is clamped to [1, sweeps]; R-hat is positive when defined.
  for (const auto &KV : On.Ess) {
    EXPECT_GE(KV.second, 1.0) << KV.first;
    EXPECT_LE(KV.second, 40.0 + 1e-9) << KV.first;
  }
  for (const auto &KV : On.Rhat) {
    if (!std::isnan(KV.second)) {
      EXPECT_GT(KV.second, 0.0) << KV.first;
    }
  }

  IntegrationRun Off = runGmm(/*NativeCpu=*/false, /*Diag=*/false);
  EXPECT_TRUE(Off.Rhat.empty());
  EXPECT_TRUE(Off.Ess.empty());
}

//===----------------------------------------------------------------------===//
// Quantile histograms
//===----------------------------------------------------------------------===//

TEST(DiagHistogram, QuantilesTrackKnownDistribution) {
  HistogramStats H;
  // 1..1000 ms uniformly: quantiles are known exactly; the log-spaced
  // buckets (8 per octave) bound relative error by ~2^(1/8)-1 < 9.1%.
  for (int I = 1; I <= 1000; ++I)
    H.observe(double(I));
  EXPECT_EQ(H.Count, 1000u);
  EXPECT_NEAR(H.p50(), 500.0, 500.0 * 0.10);
  EXPECT_NEAR(H.p95(), 950.0, 950.0 * 0.10);
  EXPECT_NEAR(H.p99(), 990.0, 990.0 * 0.10);
  // Quantiles clamp to the observed range.
  EXPECT_GE(H.p50(), H.Min);
  EXPECT_LE(H.p99(), H.Max);
}

TEST(DiagHistogram, NegativeZeroAndExtremeValues) {
  HistogramStats H;
  for (int I = 0; I < 50; ++I)
    H.observe(-100.0);
  for (int I = 0; I < 50; ++I)
    H.observe(0.0);
  for (int I = 0; I < 50; ++I)
    H.observe(100.0);
  EXPECT_EQ(H.Count, 150u);
  EXPECT_EQ(H.ZeroCount, 50u);
  EXPECT_NEAR(H.p50(), 0.0, 1e-12); // middle third is exactly zero
  double P99 = H.p99();
  EXPECT_NEAR(P99, 100.0, 100.0 * 0.10);

  // Below-range magnitudes count as zero; infinities land in the top
  // bucket; NaN never buckets.
  HistogramStats T;
  T.observe(1e-9);
  EXPECT_EQ(T.ZeroCount, 1u);
  T.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(T.Count, 2u);
  T.observe(std::nan(""));
  EXPECT_EQ(T.Count, 3u);
  uint64_t Bucketed = T.ZeroCount;
  for (uint64_t C : T.Pos)
    Bucketed += C;
  EXPECT_EQ(Bucketed, 2u) << "NaN must not occupy a bucket";
}

TEST(DiagHistogram, MergeEqualsConcatenation) {
  RNG Rng(77);
  HistogramStats A, B, All;
  for (int I = 0; I < 4000; ++I) {
    double V = std::exp(Rng.gauss(2.0, 1.5)); // heavy-tailed latencies
    (I % 2 ? A : B).observe(V);
    All.observe(V);
  }
  A.merge(B);
  EXPECT_EQ(A.Count, All.Count);
  EXPECT_DOUBLE_EQ(A.p50(), All.p50());
  EXPECT_DOUBLE_EQ(A.p95(), All.p95());
  EXPECT_DOUBLE_EQ(A.p99(), All.p99());
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition
//===----------------------------------------------------------------------===//

namespace {

/// Validates Prometheus text exposition format 0.0.4: every line is a
/// comment or `name{labels} value`, metric names are legal, label
/// values are quoted, sample values parse, and each # TYPE names a
/// metric exactly once.
::testing::AssertionResult validExposition(const std::string &Text) {
  std::set<std::string> Typed;
  std::istringstream In(Text);
  std::string Line;
  int LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      std::istringstream Ls(Line);
      std::string Hash, Kind, Name, Type;
      Ls >> Hash >> Kind >> Name >> Type;
      if (Kind == "TYPE") {
        if (Typed.count(Name))
          return ::testing::AssertionFailure()
                 << "line " << LineNo << ": duplicate # TYPE for " << Name;
        Typed.insert(Name);
        if (Type != "counter" && Type != "gauge" && Type != "summary" &&
            Type != "histogram" && Type != "untyped")
          return ::testing::AssertionFailure()
                 << "line " << LineNo << ": bad type " << Type;
      }
      continue;
    }
    // name{labels} value  |  name value
    size_t NameEnd = 0;
    while (NameEnd < Line.size() &&
           (std::isalnum((unsigned char)Line[NameEnd]) ||
            Line[NameEnd] == '_' || Line[NameEnd] == ':'))
      ++NameEnd;
    if (NameEnd == 0 || std::isdigit((unsigned char)Line[0]))
      return ::testing::AssertionFailure()
             << "line " << LineNo << ": bad metric name: " << Line;
    size_t Pos = NameEnd;
    if (Pos < Line.size() && Line[Pos] == '{') {
      // Labels: name="value" pairs, comma-separated, escapes allowed.
      ++Pos;
      while (Pos < Line.size() && Line[Pos] != '}') {
        size_t LStart = Pos;
        while (Pos < Line.size() &&
               (std::isalnum((unsigned char)Line[Pos]) || Line[Pos] == '_'))
          ++Pos;
        if (Pos == LStart || Pos >= Line.size() || Line[Pos] != '=')
          return ::testing::AssertionFailure()
                 << "line " << LineNo << ": bad label name: " << Line;
        ++Pos;
        if (Pos >= Line.size() || Line[Pos] != '"')
          return ::testing::AssertionFailure()
                 << "line " << LineNo << ": unquoted label value: " << Line;
        ++Pos;
        while (Pos < Line.size() && Line[Pos] != '"') {
          if (Line[Pos] == '\\')
            ++Pos; // escaped char
          ++Pos;
        }
        if (Pos >= Line.size())
          return ::testing::AssertionFailure()
                 << "line " << LineNo << ": unterminated label: " << Line;
        ++Pos; // closing quote
        if (Pos < Line.size() && Line[Pos] == ',')
          ++Pos;
      }
      if (Pos >= Line.size())
        return ::testing::AssertionFailure()
               << "line " << LineNo << ": unterminated labels: " << Line;
      ++Pos; // '}'
    }
    if (Pos >= Line.size() || Line[Pos] != ' ')
      return ::testing::AssertionFailure()
             << "line " << LineNo << ": missing value: " << Line;
    std::string Val = Line.substr(Pos + 1);
    if (Val != "NaN" && Val != "+Inf" && Val != "-Inf") {
      char *End = nullptr;
      std::strtod(Val.c_str(), &End);
      if (End == Val.c_str() || *End != '\0')
        return ::testing::AssertionFailure()
               << "line " << LineNo << ": bad sample value: " << Val;
    }
  }
  return ::testing::AssertionSuccess();
}

} // namespace

TEST(DiagPrometheus, RendersTelemetryAsValidExposition) {
  serve::PromSnapshot S;
  S.Counters["serve/requests"] = 42;
  S.Counters["chain0/diag/divergences"] = 3;
  S.Counters["chain1/diag/divergences"] = 1;
  S.Gauges["chain0/diag/rhat/mu"] = 1.0125;
  S.Gauges["chain0/diag/ess/mu"] = 231.5;
  S.Gauges["chain0/diag/rhat/z"] = std::nan("");
  S.Gauges["serve/queue_depth"] = 2.0;
  HistogramStats H;
  for (int I = 1; I <= 100; ++I)
    H.observe(double(I));
  S.Hists["serve/latency_ms"] = H;

  std::string Text = serve::renderPrometheusText(S);
  EXPECT_TRUE(validExposition(Text)) << Text;

  // Chain indices become labels, diag families keep the variable as a
  // label, counters get the _total suffix.
  EXPECT_NE(Text.find("# TYPE augur_diag_rhat gauge"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("augur_diag_rhat{chain=\"0\",var=\"mu\"} 1.0125"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("augur_diag_rhat{chain=\"0\",var=\"z\"} NaN"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("# TYPE augur_diag_divergences_total counter"),
            std::string::npos)
      << Text;
  EXPECT_NE(
      Text.find("augur_diag_divergences_total{chain=\"0\"} 3"),
      std::string::npos)
      << Text;
  EXPECT_NE(
      Text.find("augur_diag_divergences_total{chain=\"1\"} 1"),
      std::string::npos)
      << Text;
  EXPECT_NE(Text.find("augur_serve_requests_total 42"), std::string::npos)
      << Text;
  // Histograms render as summaries with the three quantiles + sum/count.
  EXPECT_NE(Text.find("# TYPE augur_serve_latency_ms summary"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("augur_serve_latency_ms{quantile=\"0.5\"}"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("augur_serve_latency_ms_count 100"),
            std::string::npos)
      << Text;
}

TEST(DiagPrometheus, SanitizerAndLabelEscaping) {
  EXPECT_EQ(serve::promSanitize("update/MH(mu)/accepted"),
            "update_MH_mu__accepted");
  EXPECT_EQ(serve::promSanitize("9lives"), "_9lives");

  serve::PromSnapshot S;
  S.Gauges["chain0/diag/rhat/theta\"x\\y"] = 1.0;
  std::string Text = serve::renderPrometheusText(S);
  EXPECT_TRUE(validExposition(Text)) << Text;
  EXPECT_NE(Text.find("var=\"theta\\\"x\\\\y\""), std::string::npos)
      << Text;
}

TEST(DiagPrometheus, EmptySnapshotRendersEmptyDocument) {
  serve::PromSnapshot S;
  EXPECT_EQ(serve::renderPrometheusText(S), "");
}
