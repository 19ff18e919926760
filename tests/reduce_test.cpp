//===- tests/reduce_test.cpp - Contention-aware reductions ----*- C++ -*-===//
//
// The contention-aware CPU reduction layer (DESIGN.md section 16):
// the compile-time estimator (blk/Passes.h shouldMapReduce), the
// planning pass (planCpuReductions: commute, owner-indexed demotion,
// atomic-vs-map-reduce decision), the interpreter's privatized
// execution (exec/Interp.h execMapReduceLoop), emitted-C map-reduce
// chunks run by the native engine's host dispatch, and the chain-level
// policy plumbing
// (CompileOptions::Reduce / AUGUR_REDUCE).
//
// Every suite here is named "Reduce*" so the tests/CMakeLists.txt
// discovery pass tags it with the `reduce` ctest label (targeted by
// the tsan/asan/ubsan presets).
//
// Determinism contract under test: a map-reduce site is bit-identical
// across pool widths AND across repeated runs — partials live in
// chunk-slot order (ReduceShards fixed blocks) and fold in a pinned
// pairwise order, so neither scheduling nor width can reorder the
// floating-point sum. Atomic sites only promise tolerance-level
// agreement, which is exactly what the pass exists to fix.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/BenchCommon.h"
#include "api/Infer.h"
#include "blk/Passes.h"
#include "cgen/CEmit.h"
#include "cgen/Native.h"
#include "exec/Engine.h"
#include "exec/Interp.h"
#include "lowpp/Reify.h"
#include "models/PaperModels.h"
#include "parallel/ThreadPool.h"
#include "validate/DiffRunner.h"
#include "validate/ModelGen.h"

using namespace augur;
using namespace augur::bench;
using namespace augur::validate;

namespace {

/// AtmPar reduction `acc += x[n] * x[n]` over [0, N): the maximally
/// contended shape (every iteration hits one scalar location).
LowppProc sumSquaresProc() {
  LowppProc P;
  P.Name = "sumsq";
  P.Outputs = {"acc"};
  auto Xn = Expr::index(Expr::var("x"), Expr::var("n"));
  P.Body.push_back(
      stLoop(LoopKind::AtmPar, "n", Expr::intLit(0), Expr::var("N"),
             {stAssign(LValue::scalar("acc"), Expr::mul(Xn, Xn),
                       /*Accum=*/true)}));
  return P;
}

Env sumSquaresEnv(int64_t N) {
  RNG DataRng(31);
  BlockedReal X = BlockedReal::flat(N, 0.0);
  for (int64_t I = 0; I < N; ++I)
    X.at(I) = DataRng.gauss();
  Env E;
  E["N"] = Value::intScalar(N);
  E["x"] = Value::realVec(std::move(X));
  E["acc"] = Value::realScalar(0.0);
  return E;
}

/// Data-dependent scatter `cnt[idx[n]] += w[n]`: a wide vector target
/// whose write locations the compiler cannot predict per iteration,
/// only bound by the buffer size (privatization is whole-buffer).
LowppProc histProc() {
  LowppProc P;
  P.Name = "hist";
  P.Outputs = {"cnt"};
  auto In = Expr::index(Expr::var("idx"), Expr::var("n"));
  auto Wn = Expr::index(Expr::var("w"), Expr::var("n"));
  P.Body.push_back(
      stLoop(LoopKind::AtmPar, "n", Expr::intLit(0), Expr::var("N"),
             {stAssign(LValue::indexed("cnt", {In}), Wn,
                       /*Accum=*/true)}));
  return P;
}

Env histEnv(int64_t N, int64_t K) {
  RNG DataRng(77);
  BlockedInt Idx = BlockedInt::flat(N, 0);
  BlockedReal W = BlockedReal::flat(N, 0.0);
  for (int64_t I = 0; I < N; ++I) {
    Idx.at(I) = DataRng.uniformInt(K);
    W.at(I) = DataRng.gauss();
  }
  Env E;
  E["N"] = Value::intScalar(N);
  E["idx"] = Value::intVec(std::move(Idx));
  E["w"] = Value::realVec(std::move(W));
  E["cnt"] = Value::realVec(BlockedReal::flat(K, 0.0));
  return E;
}

std::vector<double> cntOf(const Env &E) {
  const BlockedReal &C = E.at("cnt").realVec();
  std::vector<double> Out(size_t(C.flatSize()));
  for (int64_t I = 0; I < C.flatSize(); ++I)
    Out[size_t(I)] = C.at(I);
  return Out;
}

bool bitEq(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// The conjugate scalar model used by the chain-level determinism
/// tests: its Gibbs update reduces the data into scalar sufficient
/// statistics through pooled accumulation loops.
const char *ConjScalarSrc =
    "(N) => { param m ~ Normal(0.0, 100.0) ; "
    "data y[n] ~ Normal(m, 4.0) for n <- 0 until N ; }";

Env conjScalarData(int64_t N) {
  RNG DataRng(3);
  BlockedReal Y = BlockedReal::flat(N, 0.0);
  for (int64_t I = 0; I < N; ++I)
    Y.at(I) = DataRng.gauss(2.0, 2.0);
  Env Data;
  Data["y"] = Value::realVec(std::move(Y));
  return Data;
}

/// Runs the conjugate scalar chain at a given pool width and policy,
/// returning the raw draw stream of m.
std::vector<double> conjScalarDraws(int64_t N, int Threads, ReduceMode RM,
                                    int Samples = 30) {
  CompileOptions O;
  O.Seed = 1234;
  O.Par.NumThreads = Threads;
  O.Reduce = RM;
  Infer Aug(ConjScalarSrc);
  Aug.setCompileOpt(O);
  EXPECT_TRUE(Aug.compile({Value::intScalar(N)}, conjScalarData(N)).ok());
  SampleOptions SO;
  SO.NumSamples = Samples;
  SO.BurnIn = 5;
  auto S = Aug.sample(SO);
  EXPECT_TRUE(S.ok()) << S.message();
  std::vector<double> Out;
  for (const auto &V : S->Draws.at("m"))
    Out.push_back(V.asReal());
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// The contention estimator (pure decision function)
//===----------------------------------------------------------------------===//

TEST(ReduceEstimator, CrossoverMatchesContentionRatio) {
  CpuReduceOptions O; // Threshold=128, Shards=ReduceShards, FoldBudget=4
  // A scalar target under a wide loop: maximal contention, convert.
  EXPECT_TRUE(shouldMapReduce(8, 100000, 1, O));
  // Below the paper's threshold-128 contention ratio: keep atomics.
  EXPECT_FALSE(shouldMapReduce(8, 15, 1, O));
  // The exact crossover for width W and one location is Ops =
  // ceil(Threshold / W): below it atomic, at it map-reduce.
  const int64_t W = 4;
  const int64_t Cross = O.ContentionThreshold / W;
  EXPECT_FALSE(shouldMapReduce(W, Cross - 1, 1, O));
  EXPECT_TRUE(shouldMapReduce(W, Cross, 1, O));
  // Degenerate sites never convert.
  EXPECT_FALSE(shouldMapReduce(8, 0, 1, O));
  EXPECT_FALSE(shouldMapReduce(8, 100, 0, O));
  EXPECT_FALSE(shouldMapReduce(8, -5, 1, O));
}

TEST(ReduceEstimator, FoldCostRefusesHugeTargets) {
  CpuReduceOptions O;
  // Contention ratio is enormous (width 1024), but zeroing + folding
  // Shards * 1000 partial slots dwarfs the 1000 accumulations.
  EXPECT_FALSE(shouldMapReduce(1024, 1000, 1000, O));
  // The same target with enough work amortizes the fold traffic.
  EXPECT_TRUE(shouldMapReduce(1024, 1000 * 1000, 1000, O));
}

TEST(ReduceEstimator, KnobsShiftTheCrossover) {
  CpuReduceOptions O;
  O.ContentionThreshold = 128;
  // Probe the fold-budget boundary: Shards * Locs <= Budget * Ops.
  O.Shards = 8;
  O.FoldBudget = 4;
  EXPECT_FALSE(shouldMapReduce(1024, 1000, 1000, O)); // 8000 > 4000
  O.FoldBudget = 8;
  EXPECT_TRUE(shouldMapReduce(1024, 1000, 1000, O)); // 8000 <= 8000
  // Raising the contention threshold re-blocks a converting site.
  O.ContentionThreshold = 1 << 30;
  EXPECT_FALSE(shouldMapReduce(1024, 1000, 1000, O));
}

//===----------------------------------------------------------------------===//
// The planning pass
//===----------------------------------------------------------------------===//

TEST(ReducePass, ForcedMapReduceAnnotatesScalarSite) {
  LowppProc P = sumSquaresProc();
  Env E = sumSquaresEnv(20000);
  CpuReduceOptions O;
  O.Mode = ReduceMode::MapReduce;
  CpuReduceReport R = planCpuReductions(P, E, O);
  EXPECT_EQ(R.MapReduceSites, 1);
  EXPECT_EQ(R.AtomicSites, 0);
  EXPECT_GT(R.PartialBytes, 0);
  ASSERT_EQ(P.Body.size(), 1u);
  EXPECT_EQ(P.Body[0]->Red, ReduceKind::MapReduce);
  ASSERT_EQ(P.Body[0]->RedTargets.size(), 1u);
  EXPECT_EQ(P.Body[0]->RedTargets[0], "acc");
}

TEST(ReducePass, AtomicModePinsEverySite) {
  LowppProc P = sumSquaresProc();
  Env E = sumSquaresEnv(20000);
  CpuReduceOptions O;
  O.Mode = ReduceMode::Atomic;
  CpuReduceReport R = planCpuReductions(P, E, O);
  EXPECT_EQ(R.MapReduceSites, 0);
  EXPECT_EQ(R.AtomicSites, 1);
  EXPECT_EQ(P.Body[0]->Red, ReduceKind::None);
  EXPECT_TRUE(P.Body[0]->RedTargets.empty());
}

TEST(ReducePass, AutoDecisionUsesEstimatorWidthNotPoolWidth) {
  // The same procedure and data flip decision with the estimator's
  // canonical width — the knob that is deliberately NOT the configured
  // pool width, so streams cannot change when an operator resizes the
  // pool. N=100 ops on one location: width 1 -> ratio 100 < 128 stays
  // atomic; width 1024 -> ratio 102400 converts.
  for (auto [Width, WantConvert] :
       {std::pair<int64_t, bool>{1, false}, {1024, true}}) {
    LowppProc P = sumSquaresProc();
    Env E = sumSquaresEnv(100);
    CpuReduceOptions O;
    O.Mode = ReduceMode::Auto;
    O.EstimatorWidth = Width;
    CpuReduceReport R = planCpuReductions(P, E, O);
    EXPECT_EQ(R.MapReduceSites, WantConvert ? 1 : 0) << "width " << Width;
    EXPECT_EQ(P.Body[0]->Red == ReduceKind::MapReduce, WantConvert);
  }
}

TEST(ReducePass, OwnerIndexedAtmParDemotesToPar) {
  // y[n] += x[n] under AtmPar n: one writer per location, so the pass
  // demotes to Par under EVERY policy (bit-transparent rewrite).
  for (ReduceMode M :
       {ReduceMode::Auto, ReduceMode::Atomic, ReduceMode::MapReduce}) {
    LowppProc P;
    P.Name = "owner";
    P.Outputs = {"y"};
    auto Xn = Expr::index(Expr::var("x"), Expr::var("n"));
    P.Body.push_back(
        stLoop(LoopKind::AtmPar, "n", Expr::intLit(0), Expr::var("N"),
               {stAssign(LValue::indexed("y", {Expr::var("n")}), Xn,
                         /*Accum=*/true)}));
    Env E = sumSquaresEnv(1000);
    E["y"] = Value::realVec(BlockedReal::flat(1000, 0.0));
    CpuReduceOptions O;
    O.Mode = M;
    CpuReduceReport R = planCpuReductions(P, E, O);
    EXPECT_EQ(R.DemotedSites, 1) << reduceModeName(M);
    EXPECT_EQ(P.Body[0]->LK, LoopKind::Par) << reduceModeName(M);
    EXPECT_EQ(P.Body[0]->Red, ReduceKind::None) << reduceModeName(M);
  }
}

TEST(ReducePass, SamplingBodiesAreNeverConverted) {
  // An AtmPar body that consumes RNG must keep its per-iteration
  // streams on the pooled dimension; privatizing it would be unsound.
  LowppProc P;
  P.Name = "samp";
  P.Outputs = {"acc"};
  P.Body.push_back(stLoop(
      LoopKind::AtmPar, "n", Expr::intLit(0), Expr::var("N"),
      {stSample(LValue::indexed("y", {Expr::var("n")}), Dist::Normal,
                {Expr::realLit(0.0), Expr::realLit(1.0)}),
       stAssign(LValue::scalar("acc"),
                Expr::index(Expr::var("y"), Expr::var("n")),
                /*Accum=*/true)}));
  Env E;
  E["N"] = Value::intScalar(50000);
  E["y"] = Value::realVec(BlockedReal::flat(50000, 0.0));
  E["acc"] = Value::realScalar(0.0);
  CpuReduceOptions O;
  O.Mode = ReduceMode::MapReduce;
  CpuReduceReport R = planCpuReductions(P, E, O);
  EXPECT_EQ(R.MapReduceSites, 0);
  EXPECT_EQ(R.AtomicSites, 1);
  EXPECT_EQ(P.Body[0]->Red, ReduceKind::None);
}

TEST(ReducePass, CommutesWideInnerNestOntoThePool) {
  // AtmPar k over K=4 with an inner AtmPar n over N=20000: the pass
  // puts the wide extent on the pooled dimension first, then converts
  // the (now maximally contended) scalar accumulation.
  LowppProc P;
  P.Name = "nest";
  P.Outputs = {"acc"};
  auto Xn = Expr::index(Expr::var("x"), Expr::var("n"));
  P.Body.push_back(stLoop(
      LoopKind::AtmPar, "k", Expr::intLit(0), Expr::var("K"),
      {stLoop(LoopKind::AtmPar, "n", Expr::intLit(0), Expr::var("N"),
              {stAssign(LValue::scalar("acc"), Expr::mul(Xn, Xn),
                        /*Accum=*/true)})}));
  Env E = sumSquaresEnv(20000);
  E["K"] = Value::intScalar(4);
  CpuReduceOptions O;
  O.Mode = ReduceMode::MapReduce;
  CpuReduceReport R = planCpuReductions(P, E, O);
  EXPECT_EQ(R.CommutedLoops, 1);
  EXPECT_EQ(P.Body[0]->LoopVar, "n"); // the wide extent leads now
  EXPECT_EQ(R.MapReduceSites, 1);
  EXPECT_EQ(P.Body[0]->Red, ReduceKind::MapReduce);
}

//===----------------------------------------------------------------------===//
// Interpreter execution
//===----------------------------------------------------------------------===//

TEST(ReduceInterp, ScalarSumWidthInvariantAndCorrect) {
  const int64_t N = 20000;

  // Sequential reference (no pool, no annotations).
  Env ERef = sumSquaresEnv(N);
  RNG RngRef(1);
  Interp IRef(ERef, RngRef);
  IRef.run(sumSquaresProc());
  double Want = ERef.at("acc").asReal();
  ASSERT_GT(Want, 0.0);

  LowppProc P = sumSquaresProc();
  {
    Env EPlan = sumSquaresEnv(N);
    CpuReduceOptions O;
    O.Mode = ReduceMode::MapReduce;
    ASSERT_EQ(planCpuReductions(P, EPlan, O).MapReduceSites, 1);
  }

  auto RunAt = [&](int Threads) {
    ThreadPool Pool(Threads);
    Env E = sumSquaresEnv(N);
    RNG Rng(1);
    Interp I(E, Rng);
    I.setParallel(&Pool, 16);
    I.run(P);
    return E.at("acc").asReal();
  };

  // Chunk layout and fold order depend only on N, never on the pool:
  // every width yields the SAME bits, and repeated runs agree too.
  double Base = RunAt(1);
  EXPECT_NEAR(Base, Want, 1e-9 * std::abs(Want));
  for (int Threads : {2, 4, 8}) {
    double Got = RunAt(Threads);
    EXPECT_TRUE(bitEq(Got, Base))
        << "width " << Threads << ": " << Got << " vs " << Base;
  }
  EXPECT_TRUE(bitEq(RunAt(4), RunAt(4)));
}

TEST(ReduceInterp, VectorScatterExactAndWidthInvariant) {
  const int64_t N = 40000, K = 16;

  // Sequential reference computed directly from the data.
  Env ERef = histEnv(N, K);
  std::vector<double> Want(size_t(K), 0.0);
  {
    const BlockedInt &Idx = ERef.at("idx").intVec();
    const BlockedReal &W = ERef.at("w").realVec();
    for (int64_t I = 0; I < N; ++I)
      Want[size_t(Idx.at(I))] += W.at(I);
  }

  LowppProc P = histProc();
  {
    Env EPlan = histEnv(N, K);
    CpuReduceOptions O;
    O.Mode = ReduceMode::MapReduce;
    CpuReduceReport R = planCpuReductions(P, EPlan, O);
    ASSERT_EQ(R.MapReduceSites, 1);
    ASSERT_EQ(P.Body[0]->RedTargets[0], "cnt");
  }

  auto RunAt = [&](int Threads) {
    ThreadPool Pool(Threads);
    Env E = histEnv(N, K);
    RNG Rng(1);
    Interp I(E, Rng);
    I.setParallel(&Pool, 16);
    I.run(P);
    return cntOf(E);
  };

  std::vector<double> Base = RunAt(2);
  for (int64_t C = 0; C < K; ++C)
    EXPECT_NEAR(Base[size_t(C)], Want[size_t(C)],
                1e-9 * (1.0 + std::abs(Want[size_t(C)])))
        << "bucket " << C;
  for (int Threads : {4, 8}) {
    std::vector<double> Got = RunAt(Threads);
    for (int64_t C = 0; C < K; ++C)
      EXPECT_TRUE(bitEq(Got[size_t(C)], Base[size_t(C)]))
          << "bucket " << C << " width " << Threads;
  }
}

TEST(ReduceInterp, IntAccumulationIsExact) {
  const int64_t N = 20000;
  LowppProc P;
  P.Name = "count";
  P.Outputs = {"cnt"};
  P.Body.push_back(
      stLoop(LoopKind::AtmPar, "n", Expr::intLit(0), Expr::var("N"),
             {stAssign(LValue::scalar("cnt"), Expr::intLit(1),
                       /*Accum=*/true)}));
  Env EPlan;
  EPlan["N"] = Value::intScalar(N);
  EPlan["cnt"] = Value::intScalar(0);
  CpuReduceOptions O;
  O.Mode = ReduceMode::MapReduce;
  ASSERT_EQ(planCpuReductions(P, EPlan, O).MapReduceSites, 1);

  for (int Threads : {1, 4, 8}) {
    ThreadPool Pool(Threads);
    Env E;
    E["N"] = Value::intScalar(N);
    E["cnt"] = Value::intScalar(0);
    RNG Rng(1);
    Interp I(E, Rng);
    I.setParallel(&Pool, 16);
    I.run(P);
    EXPECT_EQ(E.at("cnt").asInt(), N) << "width " << Threads;
  }
}

//===----------------------------------------------------------------------===//
// Forced-contention stress (the tsan target)
//===----------------------------------------------------------------------===//

TEST(ReduceStress, OversubscribedSingleLocationIsRaceFreeAndPinned) {
  // Every iteration of every lane hits ONE scalar through the redirect
  // rows — the maximum-contention shape. An oversubscribed pool (more
  // lanes than cores) maximizes interleavings for ThreadSanitizer; the
  // result must still be the same bits on every run and width.
  const int64_t N = 100000;
  LowppProc P = sumSquaresProc();
  {
    Env EPlan = sumSquaresEnv(N);
    CpuReduceOptions O;
    O.Mode = ReduceMode::MapReduce;
    ASSERT_EQ(planCpuReductions(P, EPlan, O).MapReduceSites, 1);
  }
  unsigned Hw = std::thread::hardware_concurrency();
  int Wide = int(Hw == 0 ? 8 : Hw * 4);
  auto RunAt = [&](int Threads) {
    ThreadPool Pool(Threads);
    Env E = sumSquaresEnv(N);
    RNG Rng(1);
    Interp I(E, Rng);
    I.setParallel(&Pool, 16);
    I.run(P);
    return E.at("acc").asReal();
  };
  double A = RunAt(Wide);
  double B = RunAt(Wide);
  double C = RunAt(2);
  EXPECT_TRUE(bitEq(A, B));
  EXPECT_TRUE(bitEq(A, C));

  Env ERef = sumSquaresEnv(N);
  RNG RngRef(1);
  Interp IRef(ERef, RngRef);
  IRef.run(sumSquaresProc());
  EXPECT_NEAR(A, ERef.at("acc").asReal(),
              1e-9 * std::abs(ERef.at("acc").asReal()));
}

//===----------------------------------------------------------------------===//
// Engine integration and telemetry
//===----------------------------------------------------------------------===//

TEST(ReduceEngine, PlanReductionsAnnotatesAndTelemetryExports) {
  const int64_t N = 20000;
  InterpEngine Eng(42);
  Eng.env() = sumSquaresEnv(N);
  Eng.addProc(sumSquaresProc());

  CpuReduceOptions O;
  O.Mode = ReduceMode::MapReduce;
  CpuReduceReport R = Eng.planReductions(O);
  EXPECT_EQ(R.MapReduceSites, 1);
  EXPECT_EQ(Eng.proc("sumsq").Body[0]->Red, ReduceKind::MapReduce);

  ParallelConfig PC;
  PC.NumThreads = 4;
  PC.Grain = 16;
  Eng.setParallel(&ThreadPool::global(4), PC);
  Recorder Rec;
  TelemetryConfig TC;
  TC.Enabled = true;
  Rec.configure(TC);
  Eng.setTelemetry(&Rec, "exec/");
  Eng.runProc("sumsq");

  EXPECT_GE(Rec.counterValue("exec/reduce_regions"), 1u);
  EXPECT_GT(Rec.counterValue("exec/reduce_partial_bytes"), 0u);
  // The region still reports the shared par_* occupancy profile.
  EXPECT_GE(Rec.counterValue("exec/par_loops"), 1u);
  EXPECT_EQ(Rec.counterValue("exec/par_iters"), uint64_t(N));
}

TEST(ReduceEngine, AtomicPolicyLeavesReduceProfileEmpty) {
  InterpEngine Eng(42);
  Eng.env() = sumSquaresEnv(5000);
  Eng.addProc(sumSquaresProc());
  CpuReduceOptions O;
  O.Mode = ReduceMode::Atomic;
  EXPECT_EQ(Eng.planReductions(O).MapReduceSites, 0);
  ParallelConfig PC;
  PC.NumThreads = 4;
  Eng.setParallel(&ThreadPool::global(4), PC);
  Recorder Rec;
  TelemetryConfig TC;
  TC.Enabled = true;
  Rec.configure(TC);
  Eng.setTelemetry(&Rec, "exec/");
  Eng.runProc("sumsq");
  EXPECT_EQ(Rec.counterValue("exec/reduce_regions"), 0u);
  EXPECT_EQ(Rec.counterValue("exec/reduce_partial_bytes"), 0u);
}

//===----------------------------------------------------------------------===//
// Native C backend
//===----------------------------------------------------------------------===//

TEST(ReduceNative, EmittedSourceCarriesReduceRuntime) {
  LowppProc P = sumSquaresProc();
  Env E = sumSquaresEnv(20000);
  CpuReduceOptions O;
  O.Mode = ReduceMode::MapReduce;
  ASSERT_EQ(planCpuReductions(P, E, O).MapReduceSites, 1);

  CEmitOptions Opts;
  Opts.Pooled = true;
  auto Mod = emitC(P, E, Opts);
  ASSERT_TRUE(Mod.ok()) << Mod.message();
  // The region hands its target to the host, which owns the partial
  // rows, the block geometry and the fold; the chunk accumulates into
  // its row with no atomic on the hot path.
  EXPECT_NE(Mod->Source.find("map-reduce region"), std::string::npos);
  EXPECT_NE(Mod->Source.find("augur_red_, 1);"), std::string::npos);
  EXPECT_NE(Mod->Source.find("augur_row0["), std::string::npos);
  EXPECT_EQ(Mod->Source.find("augur_atomic_add_f64(&"), std::string::npos);

  // An unannotated emission keeps the atomic path: the prelude is
  // shared, but no privatized region is instantiated.
  LowppProc Plain = sumSquaresProc();
  auto PlainMod = emitC(Plain, E, Opts);
  ASSERT_TRUE(PlainMod.ok()) << PlainMod.message();
  EXPECT_EQ(PlainMod->Source.find("map-reduce region"), std::string::npos);
  EXPECT_NE(PlainMod->Source.find("augur_atomic_add_f64(&"),
            std::string::npos);
}

TEST(ReduceNative, NativeMatchesInterpreterBitwise) {
  // The emitted module walks the same ReduceShards chunk layout and the
  // same pinned fold as the interpreter, so the two backends agree to
  // the last bit — at every pool width.
  const int64_t N = 20000;

  auto RunInterp = [&](int Threads) {
    InterpEngine Eng(42);
    Eng.env() = sumSquaresEnv(N);
    Eng.addProc(sumSquaresProc());
    CpuReduceOptions O;
    O.Mode = ReduceMode::MapReduce;
    EXPECT_EQ(Eng.planReductions(O).MapReduceSites, 1);
    ParallelConfig PC;
    PC.NumThreads = Threads;
    Eng.setParallel(&ThreadPool::global(Threads), PC);
    Eng.runProc("sumsq");
    return Eng.env().at("acc").asReal();
  };
  auto RunNative = [&](int Threads) -> std::pair<bool, double> {
    NativeEngine Eng(42);
    Eng.env() = sumSquaresEnv(N);
    Eng.addProc(sumSquaresProc());
    CpuReduceOptions O;
    O.Mode = ReduceMode::MapReduce;
    EXPECT_EQ(Eng.planReductions(O).MapReduceSites, 1);
    ParallelConfig PC;
    PC.NumThreads = Threads;
    Eng.setParallel(&ThreadPool::global(Threads), PC);
    Eng.runProc("sumsq");
    return {Eng.isNative("sumsq"), Eng.env().at("acc").asReal()};
  };

  double Want = RunInterp(4);
  EXPECT_TRUE(bitEq(Want, RunInterp(2)));
  auto [Native4, Got4] = RunNative(4);
  if (!Native4)
    GTEST_SKIP() << "no host C compiler available";
  EXPECT_TRUE(bitEq(Got4, Want)) << Got4 << " vs " << Want;
  auto [Native8, Got8] = RunNative(8);
  ASSERT_TRUE(Native8);
  EXPECT_TRUE(bitEq(Got8, Want));
}

//===----------------------------------------------------------------------===//
// Chain-level policy plumbing
//===----------------------------------------------------------------------===//

TEST(ReduceChain, MapReduceStreamsBitIdenticalAcrossPoolWidths) {
  // The headline determinism guarantee: under the map-reduce policy the
  // sufficient statistics are width-invariant, so the SAMPLE STREAM is
  // bit-identical whether the operator runs 2, 4, or 8 lanes.
  const int64_t N = 600;
  std::vector<double> D2 = conjScalarDraws(N, 2, ReduceMode::MapReduce);
  std::vector<double> D4 = conjScalarDraws(N, 4, ReduceMode::MapReduce);
  std::vector<double> D8 = conjScalarDraws(N, 8, ReduceMode::MapReduce);
  ASSERT_EQ(D2.size(), D4.size());
  ASSERT_EQ(D2.size(), D8.size());
  for (size_t I = 0; I < D2.size(); ++I) {
    EXPECT_TRUE(bitEq(D2[I], D4[I])) << "draw " << I;
    EXPECT_TRUE(bitEq(D2[I], D8[I])) << "draw " << I;
  }
}

TEST(ReduceChain, PoliciesAgreeStatistically) {
  // Atomic and map-reduce execution reorder the floating-point
  // reduction differently, so streams need not match bitwise — but
  // every draw must agree to reduction-order rounding.
  const int64_t N = 600;
  std::vector<double> Atomic = conjScalarDraws(N, 4, ReduceMode::Atomic);
  std::vector<double> MapRed = conjScalarDraws(N, 4, ReduceMode::MapReduce);
  std::vector<double> Auto = conjScalarDraws(N, 4, ReduceMode::Auto);
  ASSERT_EQ(Atomic.size(), MapRed.size());
  for (size_t I = 0; I < Atomic.size(); ++I) {
    EXPECT_NEAR(Atomic[I], MapRed[I], 1e-9 * (1.0 + std::abs(Atomic[I])))
        << "draw " << I;
    EXPECT_NEAR(Atomic[I], Auto[I], 1e-9 * (1.0 + std::abs(Atomic[I])))
        << "draw " << I;
  }
}

TEST(ReduceChain, CompileExportsDecisionCounters) {
  // The compiler phase records its per-site decisions under the chain's
  // telemetry prefix; deltas against the global recorder isolate this
  // compile from earlier tests.
  Recorder &Rec = Recorder::global();
  TelemetryConfig TC;
  TC.Enabled = true;
  Rec.configure(TC);
  uint64_t MR0 = Rec.counterValue("chain0/exec/reduce_sites_mapreduce");
  uint64_t Plan0 = Rec.counterValue("chain0/exec/reduce_plan_bytes");

  CompileOptions O;
  O.Seed = 7;
  O.Par.NumThreads = 4;
  O.Reduce = ReduceMode::MapReduce;
  O.Telemetry.Enabled = true;
  Infer Aug(ConjScalarSrc);
  Aug.setCompileOpt(O);
  ASSERT_TRUE(
      Aug.compile({Value::intScalar(600)}, conjScalarData(600)).ok());

  EXPECT_GT(Rec.counterValue("chain0/exec/reduce_sites_mapreduce"), MR0);
  EXPECT_GT(Rec.counterValue("chain0/exec/reduce_plan_bytes"), Plan0);
}

TEST(ReduceChain, EnvVarOverridesCompileOption) {
  // AUGUR_REDUCE=atomic wins over CompileOptions::Reduce=MapReduce: the
  // compile must report zero converted sites.
  Recorder &Rec = Recorder::global();
  TelemetryConfig TC;
  TC.Enabled = true;
  Rec.configure(TC);
  uint64_t MR0 = Rec.counterValue("chain0/exec/reduce_sites_mapreduce");
  uint64_t At0 = Rec.counterValue("chain0/exec/reduce_sites_atomic");

  ::setenv("AUGUR_REDUCE", "atomic", 1);
  CompileOptions O;
  O.Seed = 7;
  O.Par.NumThreads = 4;
  O.Reduce = ReduceMode::MapReduce;
  O.Telemetry.Enabled = true;
  Infer Aug(ConjScalarSrc);
  Aug.setCompileOpt(O);
  Status St = Aug.compile({Value::intScalar(600)}, conjScalarData(600));
  ::unsetenv("AUGUR_REDUCE");
  ASSERT_TRUE(St.ok());

  EXPECT_EQ(Rec.counterValue("chain0/exec/reduce_sites_mapreduce"), MR0);
  EXPECT_GT(Rec.counterValue("chain0/exec/reduce_sites_atomic"), At0);
}

//===----------------------------------------------------------------------===//
// Pinned cross-backend differential regressions (GMM / HGMM / LDA)
//===----------------------------------------------------------------------===//

namespace {

GeneratedModel gmmModel(int64_t K, int64_t D, int64_t N) {
  GeneratedModel GM;
  GM.Source = models::GMM;
  MixtureData Data = mixtureData(K, D, N, 0xBEEF);
  std::vector<double> Diag(size_t(D), 25.0), Unit(size_t(D), 1.0);
  GM.HyperArgs = {Value::intScalar(K),
                  Value::intScalar(N),
                  Value::realVec(BlockedReal::flat(D, 0.0)),
                  Value::matrix(Matrix::diagonal(Diag)),
                  Value::realVec(BlockedReal::flat(K, 1.0 / double(K))),
                  Value::matrix(Matrix::diagonal(Unit))};
  GM.Data["x"] =
      Value::realVec(Data.Points, Type::vec(Type::vec(Type::realTy())));
  return GM;
}

GeneratedModel hgmmModel(int64_t K, int64_t D, int64_t N) {
  GeneratedModel GM;
  GM.Source = models::HGMM;
  MixtureData Data = mixtureData(K, D, N, 0xBEF0);
  GM.HyperArgs = hgmmArgs(K, D, N);
  GM.Data["y"] =
      Value::realVec(Data.Points, Type::vec(Type::vec(Type::realTy())));
  return GM;
}

GeneratedModel ldaModel(int64_t V, int64_t D, int64_t MeanLen, int64_t K) {
  GeneratedModel GM;
  GM.Source = models::LDA;
  Corpus C = ldaCorpus(V, D, MeanLen, K, 0xBEF1);
  GM.HyperArgs = {Value::intScalar(K),
                  Value::intScalar(C.D),
                  Value::intScalar(C.V),
                  Value::realVec(BlockedReal::flat(K, 0.5)),
                  Value::realVec(BlockedReal::flat(C.V, 0.1)),
                  Value::intVec(C.Lengths)};
  GM.Data["w"] =
      Value::intVec(C.Words, Type::vec(Type::vec(Type::intTy())));
  return GM;
}

/// Diffs \p GM across backends at pool width 4 under \p RM. Bitwise
/// comparison under MapReduce (privatized sums are deterministic);
/// statistical under Atomic/Auto, whose leftover atomic sites reorder
/// run to run.
void diffUnderPolicy(const GeneratedModel &GM, ReduceMode RM,
                     const char *Tag) {
  DiffOptions DO;
  DO.NumSamples = 8;
  DO.BurnIn = 2;
  DO.NumThreads = 4;
  DO.Reduce = RM;
  DO.RequireBitIdentical = RM == ReduceMode::MapReduce;
  DiffReport R = diffBackends(GM, DO);
  EXPECT_FALSE(R.Skipped) << Tag << "/" << reduceModeName(RM);
  EXPECT_TRUE(R.Passed) << Tag << "/" << reduceModeName(RM) << ": "
                        << R.Failure.str();
}

} // namespace

TEST(ReduceDiffRegression, GmmEveryStrategy) {
  GeneratedModel GM = gmmModel(/*K=*/3, /*D=*/2, /*N=*/120);
  for (ReduceMode RM :
       {ReduceMode::Atomic, ReduceMode::MapReduce, ReduceMode::Auto})
    diffUnderPolicy(GM, RM, "gmm");
}

TEST(ReduceDiffRegression, HgmmEveryStrategy) {
  GeneratedModel GM = hgmmModel(/*K=*/3, /*D=*/2, /*N=*/100);
  for (ReduceMode RM :
       {ReduceMode::Atomic, ReduceMode::MapReduce, ReduceMode::Auto})
    diffUnderPolicy(GM, RM, "hgmm");
}

TEST(ReduceDiffRegression, LdaEveryStrategy) {
  GeneratedModel GM =
      ldaModel(/*V=*/40, /*D=*/8, /*MeanLen=*/14, /*K=*/4);
  for (ReduceMode RM :
       {ReduceMode::Atomic, ReduceMode::MapReduce, ReduceMode::Auto})
    diffUnderPolicy(GM, RM, "lda");
}

//===----------------------------------------------------------------------===//
// Wide-accumulation model generation
//===----------------------------------------------------------------------===//

TEST(ReduceModelGen, WideAccumBiasesTowardWideMixtures) {
  GenOptions Wide;
  Wide.WideAccum = true;
  GenOptions Narrow;
  int WideMixtures = 0;
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    ModelSpec SW = generateSpec(Seed, Wide);
    // The component plate is always drawn from [8, 16] under WideAccum.
    EXPECT_GE(SW.K, 8) << "seed " << Seed;
    EXPECT_LE(SW.K, 16) << "seed " << Seed;
    for (const auto &S : SW.Sites)
      if (S.Role == VarRole::Data && !S.Deps.empty() &&
          S.DistName == "Normal" &&
          S.Args[0].find('[') != std::string::npos)
        ++WideMixtures;
    // Determinism: the flag changes the distribution, not the
    // reproducibility contract.
    ModelSpec Again = generateSpec(Seed, Wide);
    EXPECT_EQ(SW.source(), Again.source()) << "seed " << Seed;
    // The default options keep the legacy small-K regime.
    ModelSpec SN = generateSpec(Seed, Narrow);
    EXPECT_LE(SN.K, 4) << "seed " << Seed;
  }
  // The bias makes mixture likelihoods common, not occasional.
  EXPECT_GE(WideMixtures, 8);
}

TEST(ReduceModelGen, WideAccumSpecsMaterialize) {
  GenOptions Wide;
  Wide.WideAccum = true;
  int Ok = 0;
  for (uint64_t Seed = 100; Seed < 108; ++Seed) {
    auto GM = generateModel(Seed, Wide);
    if (GM.ok())
      ++Ok;
  }
  EXPECT_GE(Ok, 6); // materialization must not regress under the bias
}
