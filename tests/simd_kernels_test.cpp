//===- tests/simd_kernels_test.cpp - Kernel/dispatch/fallback ---*- C++ -*-===//
//
// Three layers of the SIMD stack (DESIGN.md section 15):
//
//   * kernel bit-identity — every AVX2 kernel in math/Simd.h is
//     bit-compared against the guaranteed scalar table over random
//     inputs, including the lengths around the 4-lane remainder
//     boundary (the contract that makes scalar/vector sample streams
//     comparable bitwise at all);
//
//   * dispatch and policy — activeIsa() follows the mocked cpuid
//     override, and resolveEnabled() implements the documented
//     CompileOptions::Simd / AUGUR_SIMD decision matrix;
//
//   * runtime fallback — a chain run with SIMD disabled via the
//     environment on a mocked no-AVX2 CPU produces a SampleSet with
//     the identical schema (draw keys, accept-rate keys,
//     VectorizedUpdates keys) and a bit-identical sample stream to the
//     vectorized run, differing only in the VectorizedUpdates values.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "api/Infer.h"
#include "math/Simd.h"
#include "models/PaperModels.h"
#include "support/RNG.h"

using namespace augur;

namespace {

/// Restores the cpuid override and the named environment variable on
/// scope exit, so kernel-table state never leaks across tests.
class ScopedSimdEnv {
public:
  explicit ScopedSimdEnv(const char *Var = "AUGUR_SIMD") : Var(Var) {
    if (const char *V = std::getenv(Var)) {
      HadEnv = true;
      Saved = V;
    }
  }
  ~ScopedSimdEnv() {
    simd::setCpuAvx2Override(-1);
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

bool bitsEqual(const double *A, const double *B, int64_t N) {
  return std::memcmp(A, B, size_t(N) * sizeof(double)) == 0;
}

std::vector<double> randomVec(RNG &Rng, int64_t N) {
  std::vector<double> V(size_t(N), 0.0);
  for (auto &X : V)
    X = Rng.gauss(0.0, 3.0);
  return V;
}

/// Runs every kernel under the current dispatch table.
struct KernelOutputs {
  std::vector<double> Zero, Const, Add, Sub, Mul, Div, Neg, Gather, Row;
};

KernelOutputs runAll(const std::vector<double> &A,
                     const std::vector<double> &B,
                     const std::vector<int64_t> &Idx) {
  int64_t N = int64_t(A.size());
  KernelOutputs O;
  O.Zero.assign(size_t(N), 7.0);
  simd::fillZero(O.Zero.data(), N);
  O.Const.assign(size_t(N), 0.0);
  simd::fillConst(O.Const.data(), -2.25, N);
  O.Add.resize(size_t(N));
  simd::vAdd(O.Add.data(), A.data(), B.data(), N);
  O.Sub.resize(size_t(N));
  simd::vSub(O.Sub.data(), A.data(), B.data(), N);
  O.Mul.resize(size_t(N));
  simd::vMul(O.Mul.data(), A.data(), B.data(), N);
  O.Div.resize(size_t(N));
  simd::vDiv(O.Div.data(), A.data(), B.data(), N);
  O.Neg.resize(size_t(N));
  simd::vNeg(O.Neg.data(), A.data(), N);
  O.Gather.resize(size_t(N));
  simd::gatherReal(O.Gather.data(), A.data(), Idx.data(), N);
  O.Row.resize(size_t(N));
  simd::normalScoreRow(O.Row.data(), A.data(), N, 0.37, 1.9,
                       1.8378770664093453 + std::log(1.9));
  return O;
}

/// True when two Values hold bit-identical payloads (the comparison the
/// schema/stream fallback test needs; covers the kinds GMM draws use).
bool valueBitsEqual(const Value &X, const Value &Y) {
  if (X.isRealScalar() || Y.isRealScalar()) {
    if (!X.isRealScalar() || !Y.isRealScalar())
      return false;
    double A = X.asReal(), B = Y.asReal();
    return std::memcmp(&A, &B, sizeof(double)) == 0;
  }
  if (X.isIntScalar() || Y.isIntScalar()) {
    if (!X.isIntScalar() || !Y.isIntScalar())
      return false;
    return X.asInt() == Y.asInt();
  }
  if (X.isRealVec() && Y.isRealVec()) {
    const auto &FA = X.realVec().flat();
    const auto &FB = Y.realVec().flat();
    return FA.size() == FB.size() &&
           bitsEqual(FA.data(), FB.data(), int64_t(FA.size()));
  }
  if (X.isIntVec() && Y.isIntVec())
    return X.intVec().flat() == Y.intVec().flat();
  return X == Y; // matrix-valued draws: payload equality
}

/// Compiles and samples the GMM with a pinned program seed under the
/// ambient SIMD environment, returning the SampleSet.
SampleSet runGmmChain() {
  Infer Aug(models::GMM);
  CompileOptions O;
  O.Seed = 0x5EED5;
  Aug.setCompileOpt(O);
  const int64_t K = 2, N = 40;
  RNG DataRng(0xFA11);
  BlockedReal X = BlockedReal::rect(N, 2, 0.0);
  for (int64_t I = 0; I < N; ++I) {
    double C = DataRng.uniformInt(2) ? 4.0 : -4.0;
    X.at(I, 0) = DataRng.gauss(C, 1.0);
    X.at(I, 1) = DataRng.gauss(C, 1.0);
  }
  Env Data;
  Data["x"] =
      Value::realVec(std::move(X), Type::vec(Type::vec(Type::realTy())));
  Status S = Aug.compile(
      {Value::intScalar(K), Value::intScalar(N),
       Value::realVec(BlockedReal::flat(2, 0.0)),
       Value::matrix(Matrix::diagonal({25.0, 25.0})),
       Value::realVec(BlockedReal::flat(K, 0.5)),
       Value::matrix(Matrix::diagonal({1.0, 1.0}))},
      std::move(Data));
  EXPECT_TRUE(S.ok()) << S.message();
  SampleOptions SO;
  SO.NumSamples = 30;
  SO.BurnIn = 5;
  SO.TrackLogJoint = true;
  auto R = Aug.sample(SO);
  EXPECT_TRUE(R.ok()) << R.message();
  return R.ok() ? *R : SampleSet{};
}

template <typename Map> std::vector<std::string> keysOf(const Map &M) {
  std::vector<std::string> K;
  for (const auto &KV : M)
    K.push_back(KV.first);
  return K;
}

} // namespace

TEST(SimdKernels, Avx2BitIdenticalToScalarTable) {
  ScopedSimdEnv Guard;
  if (!simd::cpuHasAvx2())
    GTEST_SKIP() << "host has no AVX2; scalar table is the only table";

  RNG Rng(0x51D7);
  // Lengths straddling the 4-lane width and its remainders, plus a
  // large batch.
  for (int64_t N : {int64_t(1), int64_t(3), int64_t(4), int64_t(5),
                    int64_t(7), int64_t(8), int64_t(17), int64_t(1000)}) {
    std::vector<double> A = randomVec(Rng, N), B = randomVec(Rng, N);
    for (auto &X : B)
      if (X == 0.0)
        X = 1.0; // keep vDiv finite, comparison stays bitwise anyway
    std::vector<int64_t> Idx(size_t(N), 0);
    for (auto &I : Idx)
      I = Rng.uniformInt(N);

    simd::setCpuAvx2Override(0);
    ASSERT_STREQ(simd::activeIsa(), "scalar");
    KernelOutputs S = runAll(A, B, Idx);
    simd::setCpuAvx2Override(1);
    ASSERT_STREQ(simd::activeIsa(), "avx2");
    KernelOutputs V = runAll(A, B, Idx);

    EXPECT_TRUE(bitsEqual(S.Zero.data(), V.Zero.data(), N)) << "fillZero " << N;
    EXPECT_TRUE(bitsEqual(S.Const.data(), V.Const.data(), N))
        << "fillConst " << N;
    EXPECT_TRUE(bitsEqual(S.Add.data(), V.Add.data(), N)) << "vAdd " << N;
    EXPECT_TRUE(bitsEqual(S.Sub.data(), V.Sub.data(), N)) << "vSub " << N;
    EXPECT_TRUE(bitsEqual(S.Mul.data(), V.Mul.data(), N)) << "vMul " << N;
    EXPECT_TRUE(bitsEqual(S.Div.data(), V.Div.data(), N)) << "vDiv " << N;
    EXPECT_TRUE(bitsEqual(S.Neg.data(), V.Neg.data(), N)) << "vNeg " << N;
    EXPECT_TRUE(bitsEqual(S.Gather.data(), V.Gather.data(), N))
        << "gatherReal " << N;
    EXPECT_TRUE(bitsEqual(S.Row.data(), V.Row.data(), N))
        << "normalScoreRow " << N;
  }
}

TEST(SimdKernels, DispatchFollowsCpuidOverride) {
  ScopedSimdEnv Guard;
  simd::setCpuAvx2Override(0);
  EXPECT_FALSE(simd::cpuHasAvx2());
  EXPECT_STREQ(simd::activeIsa(), "scalar");
  simd::setCpuAvx2Override(-1);
  if (simd::cpuHasAvx2())
    EXPECT_STREQ(simd::activeIsa(), "avx2");
  else
    EXPECT_STREQ(simd::activeIsa(), "scalar");
}

TEST(SimdPolicy, ResolveEnabledMatrix) {
  ScopedSimdEnv Guard;
  unsetenv("AUGUR_SIMD");
  using simd::resolveEnabled;
  using simd::SimdMode;

  // Forces win over everything downstream of the target check.
  EXPECT_FALSE(resolveEnabled(SimdMode::Off, true, false));
  EXPECT_TRUE(resolveEnabled(SimdMode::On, true, true));
  // Non-CPU targets never vectorize, even forced On.
  EXPECT_FALSE(resolveEnabled(SimdMode::On, false, false));

  // Auto: every CPU program with no fault spec armed. The pool width is
  // not an input, so pooled programs are armed like sequential ones
  // (tests/simd_pooled_test.cpp checks that end to end).
  EXPECT_TRUE(resolveEnabled(SimdMode::Auto, true, false));
  EXPECT_FALSE(resolveEnabled(SimdMode::Auto, true, true));
  EXPECT_FALSE(resolveEnabled(SimdMode::Auto, false, false));
}

TEST(SimdPolicy, EnvOverridesAutoOnly) {
  ScopedSimdEnv Guard;
  using simd::resolveEnabled;
  using simd::SimdMode;

  setenv("AUGUR_SIMD", "0", 1);
  EXPECT_FALSE(resolveEnabled(SimdMode::Auto, true, false));
  // Programmatic forces are not perturbed by the environment.
  EXPECT_TRUE(resolveEnabled(SimdMode::On, true, false));

  setenv("AUGUR_SIMD", "1", 1);
  EXPECT_TRUE(resolveEnabled(SimdMode::Auto, true, true));
  EXPECT_FALSE(resolveEnabled(SimdMode::Off, true, false));
  EXPECT_FALSE(resolveEnabled(SimdMode::Auto, false, false));
}

TEST(SimdFallback, NoAvx2AndEnvOffMatchVectorizedRun) {
  // Satellite 3: the runtime-dispatch fallback. Leg 1 runs with
  // AUGUR_SIMD=0 on a mocked no-AVX2 CPU (plans disarmed AND the
  // kernel table pinned scalar); leg 2 runs fully vectorized. Same
  // program seed → the SampleSet schema must be identical and the
  // sample stream bit-identical; only the VectorizedUpdates *values*
  // may differ.
  ScopedSimdEnv Guard;

  setenv("AUGUR_SIMD", "0", 1);
  simd::setCpuAvx2Override(0);
  SampleSet Scalar = runGmmChain();

  setenv("AUGUR_SIMD", "1", 1);
  simd::setCpuAvx2Override(-1);
  SampleSet Vector = runGmmChain();

  ASSERT_EQ(Scalar.size(), Vector.size());
  ASSERT_GT(Scalar.size(), 0u);

  // Identical schema across every SampleSet map.
  EXPECT_EQ(keysOf(Scalar.Draws), keysOf(Vector.Draws));
  EXPECT_EQ(keysOf(Scalar.AcceptRates), keysOf(Vector.AcceptRates));
  ASSERT_EQ(keysOf(Scalar.VectorizedUpdates),
            keysOf(Vector.VectorizedUpdates));
  ASSERT_FALSE(Vector.VectorizedUpdates.empty())
      << "GMM schedule carries Gibbs procedures";

  // The scalar leg must report 0 everywhere; the vector leg must have
  // engaged a plan for at least one update.
  int VectorizedCount = 0;
  for (const auto &KV : Scalar.VectorizedUpdates)
    EXPECT_EQ(KV.second, 0) << KV.first;
  for (const auto &KV : Vector.VectorizedUpdates)
    VectorizedCount += KV.second;
  EXPECT_GT(VectorizedCount, 0);

  // Bit-identical streams: log joint and every retained draw.
  for (size_t I = 0; I < Scalar.LogJoint.size(); ++I)
    EXPECT_TRUE(bitsEqual(&Scalar.LogJoint[I], &Vector.LogJoint[I], 1))
        << "log joint draw " << I;
  for (const auto &KV : Scalar.Draws) {
    const auto &Other = Vector.Draws.at(KV.first);
    ASSERT_EQ(KV.second.size(), Other.size()) << KV.first;
    for (size_t I = 0; I < KV.second.size(); ++I)
      EXPECT_TRUE(valueBitsEqual(KV.second[I], Other[I]))
          << KV.first << " draw " << I;
  }
}

TEST(SimdFallback, Avx2OverrideDoesNotChangeStream) {
  // The plan layer must be ISA-agnostic: pinning the kernel table to
  // scalar on an AVX2 host (plans still armed) reproduces the AVX2
  // stream bit-for-bit, because every kernel is bit-identical across
  // tables.
  ScopedSimdEnv Guard;
  setenv("AUGUR_SIMD", "1", 1);

  simd::setCpuAvx2Override(0);
  SampleSet A = runGmmChain();
  simd::setCpuAvx2Override(-1);
  SampleSet B = runGmmChain();

  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.LogJoint.size(); ++I)
    EXPECT_TRUE(bitsEqual(&A.LogJoint[I], &B.LogJoint[I], 1))
        << "log joint draw " << I;
}
