//===- tests/validate_simd_test.cpp - SIMD differential axis ----*- C++ -*-===//
//
// The scalar-vs-vector differential harness (DESIGN.md section 15):
// every model here runs three ways with identical chain seeds —
// scalar-interp (Simd=Off), vector-interp (Simd=On), vector-native
// (Simd=On + NativeCpu) — and the sample streams must be bit-identical,
// because the compiled vector plans (exec/VecKernels.h) replay the
// interpreter's floating-point association and RNG consumption exactly.
//
// Pinned-seed regressions cover the paper's five models (GMM, HGMM,
// LDA, HLR, SBN); where the schedule carries conjugate or enumeration
// Gibbs procedures the test also asserts NumVectorized > 0 so a silent
// plan-compile regression cannot hollow the comparison out. A sharded
// slice of the model fuzzer runs the same three-way differential over
// generated models, shrinking any failure to a minimal reproducer.
//
// The pooled configuration repeats the pinned GMM/HGMM/LDA regressions
// and the fuzz shards on a 4-thread pool with Reduce=MapReduce: plans
// must follow the pooled RNG streams and replay the map-reduce fold, and
// forcing MapReduce privatizes every contended float sum so the pooled
// scalar stream is reproducible in the first place.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdlib>

#include <gtest/gtest.h>

#include "models/PaperModels.h"
#include "validate/DiffRunner.h"

using namespace augur;
using namespace augur::validate;

namespace {

DiffOptions smallChain(uint64_t Seed) {
  DiffOptions D;
  D.NumSamples = 20;
  D.BurnIn = 4;
  D.ChainSeed = Seed;
  return D;
}

/// The pooled differential configuration.
DiffOptions pooled(DiffOptions D) {
  D.NumThreads = 4;
  D.Reduce = ReduceMode::MapReduce;
  return D;
}

/// Runs the three-way differential and checks the streams; when
/// \p RequireVectorized, additionally asserts at least one update's
/// Gibbs procedure really ran through a compiled vector plan.
void expectSimdIdentical(const GeneratedModel &GM, const DiffOptions &D,
                         bool RequireVectorized) {
  SimdDiffReport R = diffSimd(GM, D);
  EXPECT_FALSE(R.Skipped) << R.Failure.str();
  EXPECT_TRUE(R.Passed) << R.Failure.str();
  if (RequireVectorized) {
    EXPECT_GT(R.NumVectorized, 0)
        << "schedule has Gibbs procedures but none compiled to a vector "
           "plan";
  }
}

GeneratedModel gmmModel(const std::string &Schedule, int64_t N,
                        uint64_t DataSeed) {
  GeneratedModel GM;
  GM.Seed = DataSeed;
  GM.Source = models::GMM;
  GM.Schedule = Schedule;
  const int64_t K = 2;
  GM.HyperArgs = {Value::intScalar(K),
                  Value::intScalar(N),
                  Value::realVec(BlockedReal::flat(2, 0.0)),
                  Value::matrix(Matrix::diagonal({25.0, 25.0})),
                  Value::realVec(BlockedReal::flat(K, 1.0 / double(K))),
                  Value::matrix(Matrix::diagonal({1.0, 1.0}))};
  RNG Rng(DataSeed);
  BlockedReal X = BlockedReal::rect(N, 2, 0.0);
  for (int64_t I = 0; I < N; ++I) {
    double C = Rng.uniformInt(2) ? 4.0 : -4.0;
    X.at(I, 0) = Rng.gauss(C, 1.0);
    X.at(I, 1) = Rng.gauss(C, 1.0);
  }
  GM.Data["x"] =
      Value::realVec(std::move(X), Type::vec(Type::vec(Type::realTy())));
  return GM;
}

GeneratedModel hgmmKnownCovModel(uint64_t DataSeed) {
  GeneratedModel GM;
  GM.Seed = DataSeed;
  GM.Source = models::HGMMKnownCov;
  const int64_t K = 2, N = 30;
  GM.HyperArgs = {Value::intScalar(K),
                  Value::intScalar(N),
                  Value::realVec(BlockedReal::flat(K, 1.0)),
                  Value::realVec(BlockedReal::flat(2, 0.0)),
                  Value::matrix(Matrix::diagonal({25.0, 25.0})),
                  Value::matrix(Matrix::identity(2))};
  RNG Rng(5);
  BlockedReal Y = BlockedReal::rect(N, 2, 0.0);
  for (int64_t I = 0; I < N; ++I) {
    double C = Rng.uniformInt(2) ? 4.0 : -4.0;
    Y.at(I, 0) = Rng.gauss(C, 1.0);
    Y.at(I, 1) = Rng.gauss(C, 1.0);
  }
  GM.Data["y"] =
      Value::realVec(std::move(Y), Type::vec(Type::vec(Type::realTy())));
  return GM;
}

GeneratedModel ldaModel(uint64_t DataSeed) {
  GeneratedModel GM;
  GM.Seed = DataSeed;
  GM.Source = models::LDA;
  const int64_t K = 2, D = 4, V = 6;
  RNG Rng(101);
  BlockedInt L = BlockedInt::flat(D, 0);
  std::vector<std::vector<int64_t>> Docs;
  for (int64_t I = 0; I < D; ++I) {
    int64_t Len = 5 + Rng.uniformInt(4);
    L.at(I) = Len;
    std::vector<int64_t> Doc;
    for (int64_t J = 0; J < Len; ++J)
      Doc.push_back(Rng.uniformInt(V));
    Docs.push_back(std::move(Doc));
  }
  GM.HyperArgs = {Value::intScalar(K),
                  Value::intScalar(D),
                  Value::intScalar(V),
                  Value::realVec(BlockedReal::flat(K, 0.5)),
                  Value::realVec(BlockedReal::flat(V, 0.5)),
                  Value::intVec(L)};
  GM.Data["w"] = Value::intVec(BlockedInt::ragged(Docs),
                               Type::vec(Type::vec(Type::intTy())));
  return GM;
}

GeneratedModel hlrModel(uint64_t DataSeed) {
  GeneratedModel GM;
  GM.Seed = DataSeed;
  GM.Source = models::HLR;
  const int64_t N = 40, Kf = 3;
  RNG Rng(89);
  BlockedReal X = BlockedReal::rect(N, Kf, 0.0);
  BlockedInt Y = BlockedInt::flat(N, 0);
  for (int64_t I = 0; I < N; ++I) {
    double Dot = 0.5;
    for (int64_t J = 0; J < Kf; ++J) {
      X.at(I, J) = Rng.gauss();
      Dot += X.at(I, J) * (J == 0 ? 2.0 : -1.0);
    }
    Y.at(I) = Rng.uniform() < 1.0 / (1.0 + std::exp(-Dot)) ? 1 : 0;
  }
  GM.HyperArgs = {Value::realScalar(1.0), Value::intScalar(N),
                  Value::intScalar(Kf),
                  Value::realVec(X, Type::vec(Type::vec(Type::realTy())))};
  GM.Data["y"] = Value::intVec(std::move(Y));
  return GM;
}

GeneratedModel sbnModel(uint64_t DataSeed) {
  GeneratedModel GM;
  GM.Seed = DataSeed;
  GM.Source = models::SBN;
  GM.Schedule = "Gibbs h (*) HMC (w1, w2, b)";
  const int64_t N = 6;
  RNG Rng(97);
  BlockedInt X = BlockedInt::flat(N, 0);
  for (int64_t I = 0; I < N; ++I)
    X.at(I) = Rng.uniformInt(2);
  GM.HyperArgs = {Value::intScalar(N), Value::realScalar(2.0),
                  Value::realScalar(0.5)};
  GM.Data["x"] = Value::intVec(std::move(X));
  return GM;
}

/// Smoke budget for the SIMD fuzz shards (AUGUR_FUZZ_BUDGET override,
/// shared with the backend fuzzer).
int fuzzBudget() {
  if (const char *B = std::getenv("AUGUR_FUZZ_BUDGET"))
    return std::max(1, std::atoi(B));
  return 15;
}

constexpr int NumShards = 3;
constexpr uint64_t SmokeSeedBase = 0x51D0;

void runSimdShard(int Shard, const DiffOptions &Base = DiffOptions()) {
  int Budget = fuzzBudget();
  int Per = (Budget + NumShards - 1) / NumShards;
  int Lo = Shard * Per;
  int Hi = std::min(Budget, Lo + Per);
  GenOptions GOpts;
  DiffOptions DOpts = Base;
  DOpts.NumSamples = 20;
  for (int I = Lo; I < Hi; ++I) {
    uint64_t Seed = SmokeSeedBase + uint64_t(I);
    FuzzReport R = fuzzOneSimd(Seed, GOpts, DOpts);
    EXPECT_TRUE(R.Passed) << "replay seed 0x" << std::hex << Seed
                          << std::dec << "\n"
                          << R.Failure.str()
                          << (R.ShrinkSteps ? "\n(shrunk from)\n" : "")
                          << R.Original;
  }
}

} // namespace

TEST(ValidateSimd, GmmHeuristicGibbsVectorized) {
  // All-conjugate heuristic schedule: both the conjugate mu draw and
  // the enumerated z draw must compile to vector plans and replay the
  // scalar stream bit-for-bit.
  expectSimdIdentical(gmmModel("", 40, 0x51F1), smallChain(0x51F1),
                      /*RequireVectorized=*/true);
}

TEST(ValidateSimd, GmmEsliceScheduleStaysIdentical) {
  // Mixed schedule (ESlice mu): only z is a Gibbs proc; the slice
  // update must be untouched by the SIMD switch.
  expectSimdIdentical(gmmModel("ESlice mu (*) Gibbs z", 40, 0x51F2),
                      smallChain(0x51F2), /*RequireVectorized=*/true);
}

TEST(ValidateSimd, HgmmKnownCovVectorized) {
  expectSimdIdentical(hgmmKnownCovModel(0x51F3), smallChain(0x51F3),
                      /*RequireVectorized=*/true);
}

TEST(ValidateSimd, LdaVectorized) {
  expectSimdIdentical(ldaModel(0x51F4), smallChain(0x51F4),
                      /*RequireVectorized=*/true);
}

TEST(ValidateSimd, HlrHmcUnaffectedBySimd) {
  // Pure-HMC schedule: the gradient procedures contain AccumGrad, which
  // the plan compiler refuses by design — every run must fall back to
  // identical interpretation (or native C) under either SIMD setting.
  expectSimdIdentical(hlrModel(0x51F5), smallChain(0x51F5),
                      /*RequireVectorized=*/false);
}

TEST(ValidateSimd, SbnEnumGibbsPlusHmc) {
  expectSimdIdentical(sbnModel(0x51F6), smallChain(0x51F6),
                      /*RequireVectorized=*/true);
}

TEST(ValidateSimd, ThreeWayDiffIsReproducible) {
  GeneratedModel GM = gmmModel("", 25, 0x51F7);
  SimdDiffReport A = diffSimd(GM, smallChain(0x51F7));
  SimdDiffReport B = diffSimd(GM, smallChain(0x51F7));
  EXPECT_EQ(A.Passed, B.Passed);
  EXPECT_EQ(A.NumVectorized, B.NumVectorized);
  EXPECT_TRUE(A.Passed) << A.Failure.str();
}

TEST(ValidateSimd, FuzzShard0) { runSimdShard(0); }
TEST(ValidateSimd, FuzzShard1) { runSimdShard(1); }
TEST(ValidateSimd, FuzzShard2) { runSimdShard(2); }

TEST(ValidateSimd, PooledGmmVectorized) {
  expectSimdIdentical(gmmModel("", 300, 0x51F8), pooled(smallChain(0x51F8)),
                      /*RequireVectorized=*/true);
}

TEST(ValidateSimd, PooledHgmmKnownCovVectorized) {
  expectSimdIdentical(hgmmKnownCovModel(0x51F9),
                      pooled(smallChain(0x51F9)),
                      /*RequireVectorized=*/true);
}

TEST(ValidateSimd, PooledLdaVectorized) {
  expectSimdIdentical(ldaModel(0x51FA), pooled(smallChain(0x51FA)),
                      /*RequireVectorized=*/true);
}

TEST(ValidateSimd, PooledFuzzShard0) { runSimdShard(0, pooled({})); }
TEST(ValidateSimd, PooledFuzzShard1) { runSimdShard(1, pooled({})); }
TEST(ValidateSimd, PooledFuzzShard2) { runSimdShard(2, pooled({})); }
