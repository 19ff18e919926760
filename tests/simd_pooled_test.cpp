//===- tests/simd_pooled_test.cpp - Pooled plan bit-identity ---*- C++ -*-===//
//
// Vector plans under the thread pool (DESIGN.md section 15, "Policy
// knob"). Simd=Auto arms the compiled proc plans for pooled CPU
// programs, so a pooled plan must replay pooled interpretation bit for
// bit: the per-iteration RNG streams of sampling Par loops, and for
// loops the reduce pass marked MapReduce, the per-block partial rows
// and their pinned pairwise fold.
//
// Every case runs one model at Threads=4 with Simd=Off and with
// Simd=Auto, once as one chain (pooled loops spread over the lanes) and
// once as four chains (each chain inline on its lane), and compares
// every draw and every log joint bitwise. Reduce=MapReduce privatizes
// every contended site, so the scalar run is reproducible at any pool
// width (leftover atomic float sums would commit in arbitrary order);
// the alias table is off so large-support draws stay bitwise. The
// GMM and HGMM cases assert that map-reduce sites exist, so the fold
// replay is exercised, and every case asserts that Auto really ran
// each Gibbs update through a plan.
//
//===----------------------------------------------------------------------===//

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/BenchCommon.h"
#include "api/Infer.h"
#include "models/PaperModels.h"
#include "telemetry/Telemetry.h"

using namespace augur;
using namespace augur::bench;

namespace {

/// Sets (or unsets, for nullptr) an environment variable for the scope.
class ScopedEnv {
public:
  ScopedEnv(const char *Var, const char *Val) : Var(Var) {
    if (const char *V = std::getenv(Var)) {
      HadEnv = true;
      Saved = V;
    }
    if (Val)
      setenv(Var, Val, 1);
    else
      unsetenv(Var);
  }
  ~ScopedEnv() {
    if (HadEnv)
      setenv(Var, Saved.c_str(), 1);
    else
      unsetenv(Var);
  }

private:
  const char *Var;
  bool HadEnv = false;
  std::string Saved;
};

struct PooledCase {
  const char *Source = nullptr;
  std::vector<Value> Args;
  Env Data;
};

PooledCase gmmCase() {
  const int64_t K = 3, D = 2, N = 2000;
  PooledCase C;
  C.Source = models::GMM;
  MixtureData M = mixtureData(K, D, N, 0x9001);
  std::vector<double> Diag(size_t(D), 25.0), Unit(size_t(D), 1.0);
  C.Args = {Value::intScalar(K),
            Value::intScalar(N),
            Value::realVec(BlockedReal::flat(D, 0.0)),
            Value::matrix(Matrix::diagonal(Diag)),
            Value::realVec(BlockedReal::flat(K, 1.0 / double(K))),
            Value::matrix(Matrix::diagonal(Unit))};
  C.Data["x"] =
      Value::realVec(M.Points, Type::vec(Type::vec(Type::realTy())));
  return C;
}

PooledCase hgmmCase() {
  const int64_t K = 3, D = 2, N = 1500;
  PooledCase C;
  C.Source = models::HGMM;
  MixtureData M = mixtureData(K, D, N, 0x9002);
  C.Args = hgmmArgs(K, D, N);
  C.Data["y"] =
      Value::realVec(M.Points, Type::vec(Type::vec(Type::realTy())));
  return C;
}

PooledCase ldaCase() {
  const int64_t K = 4;
  PooledCase C;
  C.Source = models::LDA;
  Corpus Co = ldaCorpus(/*V=*/300, /*D=*/50, /*MeanLen=*/60, K, 0x9003);
  C.Args = {Value::intScalar(K),
            Value::intScalar(Co.D),
            Value::intScalar(Co.V),
            Value::realVec(BlockedReal::flat(K, 0.5)),
            Value::realVec(BlockedReal::flat(Co.V, 0.1)),
            Value::intVec(Co.Lengths)};
  C.Data["w"] = Value::intVec(Co.Words, Type::vec(Type::vec(Type::intTy())));
  return C;
}

struct PooledRun {
  std::vector<SampleSet> Chains;
  uint64_t MapReduceSites = 0; ///< chain 0's compile-time decision
};

PooledRun runPooled(const PooledCase &C, simd::SimdMode Mode, int Chains) {
  Recorder &Rec = Recorder::global();
  TelemetryConfig TC;
  TC.Enabled = true;
  Rec.configure(TC);
  uint64_t MR0 = Rec.counterValue("chain0/exec/reduce_sites_mapreduce");

  Infer Aug(C.Source);
  CompileOptions CO;
  CO.Seed = 0x9000;
  CO.Par.NumThreads = 4;
  CO.Par.Chains = Chains;
  CO.Reduce = ReduceMode::MapReduce;
  CO.Simd = Mode;
  CO.Telemetry.Enabled = true;
  Aug.setCompileOpt(CO);
  Status St = Aug.compile(C.Args, C.Data);
  EXPECT_TRUE(St.ok()) << St.message();
  PooledRun R;
  if (!St.ok())
    return R;
  R.MapReduceSites =
      Rec.counterValue("chain0/exec/reduce_sites_mapreduce") - MR0;
  SampleOptions SO;
  SO.NumSamples = 5;
  SO.BurnIn = 1;
  SO.TrackLogJoint = true;
  auto S = Aug.sampleChains(SO);
  EXPECT_TRUE(S.ok()) << S.message();
  if (S.ok())
    R.Chains = S.take();
  return R;
}

bool bitsEqual(const double *A, const double *B, size_t N) {
  return N == 0 || std::memcmp(A, B, N * sizeof(double)) == 0;
}

bool valueBitsEqual(const Value &A, const Value &B) {
  if (A.isRealScalar() && B.isRealScalar()) {
    double X = A.asReal(), Y = B.asReal();
    return bitsEqual(&X, &Y, 1);
  }
  if (A.isRealVec() && B.isRealVec()) {
    const auto &FA = A.realVec().flat(), &FB = B.realVec().flat();
    return FA.size() == FB.size() &&
           bitsEqual(FA.data(), FB.data(), FA.size());
  }
  if (A.isMatrix() && B.isMatrix())
    return A.mat().rows() == B.mat().rows() &&
           A.mat().cols() == B.mat().cols() &&
           bitsEqual(A.mat().data(), B.mat().data(),
                     size_t(A.mat().rows() * A.mat().cols()));
  return A == B;
}

/// Runs \p C with Simd Off and Auto at \p Chains chains on a 4-thread
/// pool, and requires identical streams plus full plan coverage.
void expectPooledIdentical(const PooledCase &C, int Chains,
                           bool ExpectMapReduce) {
  ScopedEnv NoSimdEnv("AUGUR_SIMD", nullptr);
  ScopedEnv NoAlias("AUGUR_ALIAS", "0");
  PooledRun Off = runPooled(C, simd::SimdMode::Off, Chains);
  PooledRun Vec = runPooled(C, simd::SimdMode::Auto, Chains);
  ASSERT_EQ(Off.Chains.size(), size_t(Chains));
  ASSERT_EQ(Vec.Chains.size(), size_t(Chains));
  if (ExpectMapReduce) {
    EXPECT_GT(Vec.MapReduceSites, 0u)
        << "no map-reduce site: the fold replay is not exercised";
  }

  for (int K = 0; K < Chains; ++K) {
    const SampleSet &A = Off.Chains[size_t(K)];
    const SampleSet &B = Vec.Chains[size_t(K)];
    ASSERT_FALSE(B.VectorizedUpdates.empty());
    for (const auto &KV : B.VectorizedUpdates)
      EXPECT_EQ(KV.second, 1) << "chain " << K << ": " << KV.first
                              << " not vectorized under pooled Auto";
    for (const auto &KV : A.VectorizedUpdates)
      EXPECT_EQ(KV.second, 0) << KV.first;

    ASSERT_EQ(A.LogJoint.size(), B.LogJoint.size());
    for (size_t I = 0; I < A.LogJoint.size(); ++I)
      EXPECT_TRUE(bitsEqual(&A.LogJoint[I], &B.LogJoint[I], 1))
          << "chain " << K << " log joint " << I << ": " << A.LogJoint[I]
          << " vs " << B.LogJoint[I];
    ASSERT_EQ(A.Draws.size(), B.Draws.size());
    for (const auto &KV : A.Draws) {
      const auto &Other = B.Draws.at(KV.first);
      ASSERT_EQ(KV.second.size(), Other.size()) << KV.first;
      for (size_t I = 0; I < KV.second.size(); ++I)
        EXPECT_TRUE(valueBitsEqual(KV.second[I], Other[I]))
            << "chain " << K << " " << KV.first << " draw " << I;
    }
  }
}

} // namespace

TEST(SimdPooled, GmmOneChainReplaysMapReduceFold) {
  expectPooledIdentical(gmmCase(), 1, /*ExpectMapReduce=*/true);
}

TEST(SimdPooled, GmmFourChains) {
  expectPooledIdentical(gmmCase(), 4, /*ExpectMapReduce=*/true);
}

TEST(SimdPooled, HgmmOneChainReplaysMapReduceFold) {
  expectPooledIdentical(hgmmCase(), 1, /*ExpectMapReduce=*/true);
}

TEST(SimdPooled, HgmmFourChains) {
  expectPooledIdentical(hgmmCase(), 4, /*ExpectMapReduce=*/true);
}

TEST(SimdPooled, LdaOneChain) {
  expectPooledIdentical(ldaCase(), 1, /*ExpectMapReduce=*/false);
}

TEST(SimdPooled, LdaFourChains) {
  expectPooledIdentical(ldaCase(), 4, /*ExpectMapReduce=*/false);
}
