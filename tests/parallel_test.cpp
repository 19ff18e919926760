//===- tests/parallel_test.cpp - Parallel CPU runtime ---------*- C++ -*-===//
//
// The work-stealing pool, the counter-based RNG streams, and the three
// integration layers (interpreter, native C backend, multi-chain
// driver). Every suite here is named "Parallel*" so the second
// gtest_discover_tests pass in tests/CMakeLists.txt tags it with the
// `parallel` ctest label (used by the tsan preset).
//
// Determinism contract under test (DESIGN.md "Parallel runtime"):
//  * Par loops that sample are bit-identical for any pool width/grain;
//  * AtmPar integer accumulation is exact;
//  * AtmPar floating-point accumulation reorders the reduction, so it
//    is compared within a small relative tolerance.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/Infer.h"
#include "cgen/CEmit.h"
#include "cgen/Native.h"
#include "density/Forward.h"
#include "density/Frontend.h"
#include "exec/Interp.h"
#include "lang/Parser.h"
#include "lowpp/Reify.h"
#include "models/PaperModels.h"
#include "parallel/ThreadPool.h"
#include "support/PhiloxRNG.h"

using namespace augur;

namespace {

DensityModel loadModel(const char *Src,
                       const std::map<std::string, Type> &H) {
  auto M = parseModel(Src);
  EXPECT_TRUE(M.ok()) << M.message();
  auto TM = typeCheck(M.take(), H);
  EXPECT_TRUE(TM.ok()) << TM.message();
  return lowerToDensity(TM.take());
}

int hardwareThreads() {
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw == 0 ? 1 : int(Hw);
}

/// AtmPar reduction `acc += x[n] * x[n]` over [0, N).
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

/// Par sampling loop `y[n] = Normal(0, 1).samp` over [0, N).
LowppProc sampleVecProc() {
  LowppProc P;
  P.Name = "sampvec";
  P.Outputs = {"y"};
  P.Body.push_back(
      stLoop(LoopKind::Par, "n", Expr::intLit(0), Expr::var("N"),
             {stSample(LValue::indexed("y", {Expr::var("n")}), Dist::Normal,
                       {Expr::realLit(0.0), Expr::realLit(1.0)})}));
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

/// The conjugate scalar model used across the chain-level tests.
const char *ConjScalarSrc =
    "(N) => { param m ~ Normal(0.0, 100.0) ; "
    "data y[n] ~ Normal(m, 4.0) for n <- 0 until N ; }";

Env conjScalarData(int64_t N, double *SumY = nullptr) {
  RNG DataRng(3);
  BlockedReal Y = BlockedReal::flat(N, 0.0);
  double Sum = 0.0;
  for (int64_t I = 0; I < N; ++I) {
    Y.at(I) = DataRng.gauss(2.0, 2.0);
    Sum += Y.at(I);
  }
  if (SumY)
    *SumY = Sum;
  Env Data;
  Data["y"] = Value::realVec(std::move(Y));
  return Data;
}

} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ParallelPool, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  const int64_t N = 1000, Grain = 7;
  std::vector<std::atomic<int>> Hits(N);
  ParForStats St =
      Pool.parallelFor(0, N, Grain, [&](int64_t Lo, int64_t Hi, int Worker) {
        ASSERT_GE(Worker, 0);
        ASSERT_LT(Worker, Pool.numThreads());
        for (int64_t I = Lo; I < Hi; ++I)
          Hits[size_t(I)].fetch_add(1, std::memory_order_relaxed);
      });
  for (int64_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[size_t(I)].load(), 1) << "index " << I;
  EXPECT_EQ(St.Chunks, uint64_t((N + Grain - 1) / Grain));
  EXPECT_GT(St.WallNanos, 0u);
}

TEST(ParallelPool, EmptyRangeRunsNothing) {
  ThreadPool Pool(2);
  std::atomic<int> Calls{0};
  ParForStats St = Pool.parallelFor(
      5, 5, 4, [&](int64_t, int64_t, int) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 0);
  EXPECT_EQ(St.Chunks, 0u);
}

TEST(ParallelPool, SingleThreadPoolRunsInline) {
  ThreadPool Pool(1);
  int64_t Sum = 0; // no atomics needed: everything runs on this thread
  ParForStats St = Pool.parallelFor(0, 100, 8,
                                    [&](int64_t Lo, int64_t Hi, int) {
                                      for (int64_t I = Lo; I < Hi; ++I)
                                        Sum += I;
                                    });
  EXPECT_EQ(Sum, 99 * 100 / 2);
  EXPECT_TRUE(St.Inline);
}

TEST(ParallelPool, NestedParallelForRunsInline) {
  ThreadPool Pool(4);
  std::atomic<int64_t> Total{0};
  std::atomic<int> NonInlineInner{0};
  Pool.parallelFor(0, 8, 1, [&](int64_t Lo, int64_t Hi, int) {
    EXPECT_TRUE(ThreadPool::inWorker());
    for (int64_t I = Lo; I < Hi; ++I) {
      ParForStats Inner = Pool.parallelFor(
          0, 10, 2, [&](int64_t ILo, int64_t IHi, int) {
            Total.fetch_add(IHi - ILo, std::memory_order_relaxed);
          });
      if (!Inner.Inline)
        NonInlineInner.fetch_add(1);
    }
  });
  EXPECT_EQ(Total.load(), 8 * 10);
  EXPECT_EQ(NonInlineInner.load(), 0) << "nested parallelFor must inline";
  EXPECT_FALSE(ThreadPool::inWorker());
}

TEST(ParallelPool, GlobalPoolKeyedByWidth) {
  // Pools are keyed by width and never torn down: a request for a new
  // width must not destroy a pool other threads may be executing on
  // (the serving daemon compiles with varying Par.NumThreads
  // concurrently).
  ThreadPool &A = ThreadPool::global(2);
  EXPECT_EQ(A.numThreads(), 2);
  ThreadPool &B = ThreadPool::global(3);
  EXPECT_EQ(B.numThreads(), 3);
  EXPECT_EQ(A.numThreads(), 2); // A survives the request for width 3
  EXPECT_EQ(&ThreadPool::global(2), &A);
  EXPECT_EQ(&ThreadPool::global(3), &B);
}

//===----------------------------------------------------------------------===//
// Counter-based RNG
//===----------------------------------------------------------------------===//

TEST(ParallelRng, PhiloxKnownAnswerVectors) {
  // Random123 kat_vectors: philox4x32-10.
  {
    const uint32_t Ctr[4] = {0, 0, 0, 0}, Key[2] = {0, 0};
    PhiloxBlock B = philox4x32(Ctr, Key);
    EXPECT_EQ(B.W[0], 0x6627e8d5u);
    EXPECT_EQ(B.W[1], 0xe169c58du);
    EXPECT_EQ(B.W[2], 0xbc57ac4cu);
    EXPECT_EQ(B.W[3], 0x9b00dbd8u);
  }
  {
    const uint32_t Ctr[4] = {0xffffffffu, 0xffffffffu, 0xffffffffu,
                             0xffffffffu};
    const uint32_t Key[2] = {0xffffffffu, 0xffffffffu};
    PhiloxBlock B = philox4x32(Ctr, Key);
    EXPECT_EQ(B.W[0], 0x408f276du);
    EXPECT_EQ(B.W[1], 0x41c83b0eu);
    EXPECT_EQ(B.W[2], 0xa20bc7c6u);
    EXPECT_EQ(B.W[3], 0x6d5451fdu);
  }
  {
    const uint32_t Ctr[4] = {0x243f6a88u, 0x85a308d3u, 0x13198a2eu,
                             0x03707344u};
    const uint32_t Key[2] = {0xa4093822u, 0x299f31d0u};
    PhiloxBlock B = philox4x32(Ctr, Key);
    EXPECT_EQ(B.W[0], 0xd16cfe09u);
    EXPECT_EQ(B.W[1], 0x94fdccebu);
    EXPECT_EQ(B.W[2], 0x5001e420u);
    EXPECT_EQ(B.W[3], 0x24126ea1u);
  }
}

TEST(ParallelRng, MixIsAPureFunctionOfKeyAndCounter) {
  EXPECT_EQ(philoxMix(1, 0), philoxMix(1, 0));
  EXPECT_NE(philoxMix(1, 0), philoxMix(1, 1));
  EXPECT_NE(philoxMix(1, 0), philoxMix(2, 0));
}

TEST(ParallelRng, StreamsAreReproducible) {
  PhiloxRNG A(42, 7);
  std::vector<uint64_t> Draws;
  for (int I = 0; I < 100; ++I)
    Draws.push_back(A.next());

  PhiloxRNG B; // default (0, 0) stream, then re-keyed
  B.resetStream(42, 7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(B.next(), Draws[size_t(I)]) << "draw " << I;

  // resetStream rewinds the draw counter of a used generator.
  A.resetStream(42, 7);
  EXPECT_EQ(A.next(), Draws[0]);
}

TEST(ParallelRng, DistinctStreamsDisagree) {
  PhiloxRNG A(42, 7), B(42, 8), C(43, 7);
  int DiffAB = 0, DiffAC = 0;
  for (int I = 0; I < 64; ++I) {
    uint64_t VA = A.next();
    DiffAB += VA != B.next();
    DiffAC += VA != C.next();
  }
  // Two 64-bit streams collide on a draw with probability 2^-64.
  EXPECT_EQ(DiffAB, 64);
  EXPECT_EQ(DiffAC, 64);
}

TEST(ParallelRng, SplitStreamsAreIndependent) {
  RNG Parent(123);
  RNG A = Parent.split();
  RNG B = Parent.split();
  // The two children and the parent must produce pairwise-distinct
  // sequences (a buggy split that shares state echoes the parent).
  int EqAB = 0, EqAP = 0, EqBP = 0;
  for (int I = 0; I < 256; ++I) {
    uint64_t VA = A.next(), VB = B.next(), VP = Parent.next();
    EqAB += VA == VB;
    EqAP += VA == VP;
    EqBP += VB == VP;
  }
  EXPECT_EQ(EqAB, 0);
  EXPECT_EQ(EqAP, 0);
  EXPECT_EQ(EqBP, 0);
}

TEST(ParallelRng, SplitIsDeterministicGivenTheSeed) {
  RNG P1(9001), P2(9001);
  RNG A1 = P1.split(), A2 = P2.split();
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(A1.next(), A2.next());
}

TEST(ParallelRng, ReseedRestartsTheStream) {
  RNG R(7);
  uint64_t First = R.next();
  for (int I = 0; I < 10; ++I)
    R.next();
  R.reseed(7);
  EXPECT_EQ(R.next(), First);
}

//===----------------------------------------------------------------------===//
// Interpreter integration
//===----------------------------------------------------------------------===//

TEST(ParallelInterp, AtmParRealAccumulationWithinTolerance) {
  const int64_t N = 20000;

  // Sequential reference (no pool attached).
  Env ERef = sumSquaresEnv(N);
  RNG RngRef(1);
  Interp IRef(ERef, RngRef);
  IRef.run(sumSquaresProc());
  double Want = ERef.at("acc").asReal();
  ASSERT_GT(Want, 0.0);

  // Pooled runs reorder the floating-point reduction; the result must
  // agree within a small relative tolerance (each of the N adds can
  // shift the partial sum by at most one ulp).
  for (int Threads : {1, 4, hardwareThreads()}) {
    ThreadPool Pool(Threads);
    Env E = sumSquaresEnv(N);
    RNG Rng(1);
    Interp I(E, Rng);
    I.setParallel(&Pool, 16);
    I.run(sumSquaresProc());
    EXPECT_NEAR(E.at("acc").asReal(), Want, 1e-9 * std::abs(Want))
        << "pool width " << Threads;
  }
}

TEST(ParallelInterp, AtmParIntAccumulationIsExact) {
  const int64_t N = 20000;
  LowppProc P;
  P.Name = "count";
  P.Outputs = {"cnt"};
  P.Body.push_back(
      stLoop(LoopKind::AtmPar, "n", Expr::intLit(0), Expr::var("N"),
             {stAssign(LValue::scalar("cnt"), Expr::intLit(1),
                       /*Accum=*/true)}));
  for (int Threads : {1, 4, hardwareThreads()}) {
    ThreadPool Pool(Threads);
    Env E;
    E["N"] = Value::intScalar(N);
    E["cnt"] = Value::intScalar(0);
    RNG Rng(1);
    Interp I(E, Rng);
    I.setParallel(&Pool, 16);
    I.run(P);
    EXPECT_EQ(E.at("cnt").asInt(), N) << "pool width " << Threads;
  }
}

TEST(ParallelInterp, ParSamplingIsBitIdenticalAcrossPoolWidths) {
  const int64_t N = 1000;
  LowppProc P = sampleVecProc();

  auto RunWith = [&](int Threads, int64_t Grain) {
    ThreadPool Pool(Threads);
    Env E;
    E["N"] = Value::intScalar(N);
    E["y"] = Value::realVec(BlockedReal::flat(N, 0.0));
    RNG Rng(5);
    Interp I(E, Rng);
    I.setParallel(&Pool, Grain);
    I.run(P);
    std::vector<double> Out(static_cast<size_t>(N));
    const BlockedReal &Y = E.at("y").realVec();
    for (int64_t I2 = 0; I2 < N; ++I2)
      Out[size_t(I2)] = Y.at(I2);
    return Out;
  };

  // Every iteration draws from a stream keyed by (master draw, index),
  // so pool width and grain must not change a single bit.
  std::vector<double> Base = RunWith(2, 8);
  for (auto [Threads, Grain] :
       {std::pair<int, int64_t>{4, 8}, {2, 32}, {8, 1}}) {
    std::vector<double> Got = RunWith(Threads, Grain);
    for (int64_t I = 0; I < N; ++I)
      ASSERT_EQ(Got[size_t(I)], Base[size_t(I)])
          << "index " << I << " pool " << Threads << " grain " << Grain;
  }

  // Sanity: the samples are not degenerate (roughly standard normal).
  double Mean = 0.0, Var = 0.0;
  for (double V : Base)
    Mean += V;
  Mean /= double(N);
  for (double V : Base)
    Var += (V - Mean) * (V - Mean);
  Var /= double(N);
  EXPECT_NEAR(Mean, 0.0, 0.15);
  EXPECT_NEAR(Var, 1.0, 0.2);
}

TEST(ParallelInterp, SamplingIsDeterministicForFixedConfig) {
  // Same seed + same pool width twice: bit-identical (Par loops have no
  // floating-point races, only disjoint writes).
  const int64_t N = 500;
  LowppProc P = sampleVecProc();
  auto Run = [&]() {
    ThreadPool Pool(4);
    Env E;
    E["N"] = Value::intScalar(N);
    E["y"] = Value::realVec(BlockedReal::flat(N, 0.0));
    RNG Rng(99);
    Interp I(E, Rng);
    I.setParallel(&Pool, 4);
    I.run(P);
    std::vector<double> Out(static_cast<size_t>(N));
    const BlockedReal &Y = E.at("y").realVec();
    for (int64_t I2 = 0; I2 < N; ++I2)
      Out[size_t(I2)] = Y.at(I2);
    return Out;
  };
  EXPECT_EQ(Run(), Run());
}

TEST(ParallelCounters, OccupancyProfileIsPopulated) {
  // The occupancy profile lives on the telemetry Recorder (one metrics
  // sink for every layer) rather than bespoke ExecCounters fields.
  const int64_t N = 2000;
  ThreadPool Pool(4);
  Env E;
  E["N"] = Value::intScalar(N);
  E["y"] = Value::realVec(BlockedReal::flat(N, 0.0));
  RNG Rng(5);
  Interp I(E, Rng);
  I.setParallel(&Pool, 16);
  Recorder Rec;
  TelemetryConfig TC;
  TC.Enabled = true;
  Rec.configure(TC);
  I.setTelemetry(&Rec, "exec/");
  I.run(sampleVecProc());

  EXPECT_EQ(Rec.counterValue("exec/par_loops"), 1u);
  EXPECT_EQ(Rec.counterValue("exec/par_iters"), uint64_t(N));
  EXPECT_GE(Rec.counterValue("exec/par_chunks"), uint64_t(N / 16));
  uint64_t Thread = Rec.counterValue("exec/par_thread_nanos");
  uint64_t Busy = Rec.counterValue("exec/par_busy_nanos");
  EXPECT_GT(Thread, 0u);
  EXPECT_GT(Busy, 0u);
  // Iteration work is also attributed to the per-worker counters.
  EXPECT_GE(I.counters().LoopIters, uint64_t(N));
}

TEST(ParallelCounters, SequentialRunsLeaveParProfileEmpty) {
  Env E = sumSquaresEnv(100);
  RNG Rng(1);
  Interp I(E, Rng);
  Recorder Rec;
  TelemetryConfig TC;
  TC.Enabled = true;
  Rec.configure(TC);
  I.setTelemetry(&Rec, "exec/");
  I.run(sumSquaresProc());
  EXPECT_EQ(Rec.counterValue("exec/par_loops"), 0u);
  EXPECT_EQ(Rec.counterValue("exec/par_thread_nanos"), 0u);
  EXPECT_TRUE(Rec.counters().empty());
}

TEST(ParallelCounters, DisabledRecorderRecordsNothingFromPooledLoops) {
  const int64_t N = 500;
  ThreadPool Pool(4);
  Env E;
  E["N"] = Value::intScalar(N);
  E["y"] = Value::realVec(BlockedReal::flat(N, 0.0));
  RNG Rng(5);
  Interp I(E, Rng);
  I.setParallel(&Pool, 16);
  Recorder Rec; // never enabled
  I.setTelemetry(&Rec, "exec/");
  I.run(sampleVecProc());
  EXPECT_EQ(Rec.debugShardCount(), 0u);
  EXPECT_TRUE(Rec.counters().empty());
}

//===----------------------------------------------------------------------===//
// Native C backend
//===----------------------------------------------------------------------===//

TEST(ParallelNative, EmittedSourceContainsPoolRuntime) {
  DensityModel DM = loadModel(
      models::HLR, {{"lambda", Type::realTy()},
                    {"N", Type::intTy()},
                    {"Kf", Type::intTy()},
                    {"x", Type::vec(Type::vec(Type::realTy()))}});
  LowppProc LL = genLikelihoodProc("ll_joint", DM.Joint.Factors, "ll");
  RNG Rng(1);
  Env E;
  E["lambda"] = Value::realScalar(1.0);
  E["N"] = Value::intScalar(4);
  E["Kf"] = Value::intScalar(2);
  BlockedReal X = BlockedReal::rect(4, 2, 0.1);
  E["x"] = Value::realVec(std::move(X), Type::vec(Type::vec(Type::realTy())));
  ASSERT_TRUE(forwardSampleModel(DM, E, Rng, true).ok());

  // Pooled loops are outlined and dispatched through the frame's host
  // table; the module itself owns no threads.
  CEmitOptions Opts;
  Opts.Pooled = true;
  auto Mod = emitC(LL, E, Opts);
  ASSERT_TRUE(Mod.ok()) << Mod.message();
  EXPECT_NE(Mod->Source.find("f->host->run(f->host, f, "), std::string::npos);
  EXPECT_NE(Mod->Source.find("augur_atomic_add_f64(&"), std::string::npos);
  EXPECT_EQ(Mod->Source.find("pthread"), std::string::npos);

  // The default (sequential) emission dispatches nothing to the host.
  auto SeqMod = emitC(LL, E);
  ASSERT_TRUE(SeqMod.ok()) << SeqMod.message();
  EXPECT_EQ(SeqMod->Source.find("f->host->run"), std::string::npos);
  EXPECT_EQ(SeqMod->Source.find("pthread"), std::string::npos);
}

TEST(ParallelNative, CompiledLikelihoodMatchesInterpreter) {
  DensityModel DM = loadModel(
      models::HLR, {{"lambda", Type::realTy()},
                    {"N", Type::intTy()},
                    {"Kf", Type::intTy()},
                    {"x", Type::vec(Type::vec(Type::realTy()))}});
  LowppProc LL = genLikelihoodProc("llp_0", DM.Joint.Factors, "ll_llp_0");

  // Interpreted sequential reference.
  InterpEngine Ref(42);
  RNG DataRng(7);
  Ref.env()["lambda"] = Value::realScalar(1.0);
  Ref.env()["N"] = Value::intScalar(60);
  Ref.env()["Kf"] = Value::intScalar(4);
  BlockedReal X = BlockedReal::rect(60, 4, 0.0);
  for (int64_t I = 0; I < 60; ++I)
    for (int64_t J = 0; J < 4; ++J)
      X.at(I, J) = DataRng.gauss();
  Ref.env()["x"] =
      Value::realVec(std::move(X), Type::vec(Type::vec(Type::realTy())));
  RNG Rng(7);
  ASSERT_TRUE(forwardSampleModel(DM, Ref.env(), Rng, true).ok());
  Ref.addProc(LL);
  Ref.runProc("llp_0");
  double Want = Ref.env().at("ll_llp_0").asReal();

  // Native engine running the emitted module's pooled loops on the pool.
  NativeEngine Nat(42);
  ParallelConfig PC;
  PC.NumThreads = 4;
  PC.Grain = 8;
  Nat.setParallel(&ThreadPool::global(PC.resolvedThreads()), PC);
  for (auto &KV : Ref.env())
    Nat.env()[KV.first] = KV.second;
  Nat.addProc(LL);
  Nat.runProc("llp_0");
  ASSERT_TRUE(Nat.isNative("llp_0")) << Nat.fallbackReason("llp_0");
  double Got = Nat.env().at("ll_llp_0").asReal();
  // Atomic accumulation reorders the sum: tolerance, not bit equality.
  EXPECT_NEAR(Got, Want, 1e-9 * (1.0 + std::abs(Want)));
}

//===----------------------------------------------------------------------===//
// End-to-end and multi-chain
//===----------------------------------------------------------------------===//

TEST(ParallelEndToEnd, ConjugatePosteriorIsCorrectUnderThePool) {
  const int64_t N = 40;
  double SumY = 0.0;
  Env Data = conjScalarData(N, &SumY);

  CompileOptions O;
  O.Par.NumThreads = 2;
  Infer Aug(ConjScalarSrc);
  Aug.setCompileOpt(O);
  ASSERT_TRUE(Aug.compile({Value::intScalar(N)}, Data).ok());

  SampleOptions SO;
  SO.NumSamples = 1500;
  SO.BurnIn = 100;
  auto S = Aug.sample(SO);
  ASSERT_TRUE(S.ok()) << S.message();

  double PostVar = 1.0 / (1.0 / 100.0 + double(N) / 4.0);
  double PostMean = PostVar * (SumY / 4.0);
  EXPECT_NEAR(S->scalarMean("m"), PostMean, 0.05);
}

TEST(ParallelChains, ResultsAreIndependentOfThreadCount) {
  const int64_t N = 30;
  auto RunWith = [&](int Threads) {
    CompileOptions O;
    O.Par.NumThreads = Threads;
    O.Par.Chains = 3;
    Infer Aug(ConjScalarSrc);
    Aug.setCompileOpt(O);
    EXPECT_TRUE(Aug.compile({Value::intScalar(N)}, conjScalarData(N)).ok());
    SampleOptions SO;
    SO.NumSamples = 40;
    auto R = Aug.sampleChains(SO);
    EXPECT_TRUE(R.ok()) << R.message();
    return R.take();
  };

  std::vector<SampleSet> R2 = RunWith(2);
  std::vector<SampleSet> R4 = RunWith(4);
  ASSERT_EQ(R2.size(), 3u);
  ASSERT_EQ(R4.size(), 3u);
  for (size_t C = 0; C < 3; ++C) {
    const auto &D2 = R2[C].Draws.at("m");
    const auto &D4 = R4[C].Draws.at("m");
    ASSERT_EQ(D2.size(), 40u);
    ASSERT_EQ(D4.size(), 40u);
    for (size_t I = 0; I < D2.size(); ++I) {
      double A = D2[I].asReal(), B = D4[I].asReal();
      // The sufficient statistics are AtmPar sums, so draws agree to
      // reduction-order rounding, not necessarily bit-for-bit.
      ASSERT_NEAR(A, B, 1e-9 * (1.0 + std::abs(A)))
          << "chain " << C << " draw " << I;
    }
  }

  // Distinct chains see distinct philoxMix-derived seeds.
  EXPECT_NE(R2[0].Draws.at("m")[0].asReal(),
            R2[1].Draws.at("m")[0].asReal());
  EXPECT_NE(R2[1].Draws.at("m")[0].asReal(),
            R2[2].Draws.at("m")[0].asReal());
}
