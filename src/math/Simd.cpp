//===- math/Simd.cpp - Scalar kernel table + runtime dispatch -------------===//

#include "math/Simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "math/SimdKernels.h"

using namespace augur;
using namespace augur::simd;

//===----------------------------------------------------------------------===//
// Scalar reference table. Every AVX2 kernel is bit-compared against
// these loops in tests/simd_kernels_test.cpp.
//===----------------------------------------------------------------------===//

namespace {

void sFillZero(double *Dst, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Dst[I] = 0.0;
}
void sFillConst(double *Dst, double C, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Dst[I] = C;
}
void sAdd(double *Dst, const double *A, const double *B, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Dst[I] = A[I] + B[I];
}
void sSub(double *Dst, const double *A, const double *B, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Dst[I] = A[I] - B[I];
}
void sMul(double *Dst, const double *A, const double *B, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Dst[I] = A[I] * B[I];
}
void sDiv(double *Dst, const double *A, const double *B, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Dst[I] = A[I] / B[I];
}
void sNeg(double *Dst, const double *A, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Dst[I] = -A[I];
}
void sGather(double *Dst, const double *Src, const int64_t *Idx, int64_t N) {
  for (int64_t I = 0; I < N; ++I)
    Dst[I] = Src[Idx[I]];
}
void sNormalRow(double *Dst, const double *X, int64_t N, double Mean,
                double Var, double A) {
  for (int64_t I = 0; I < N; ++I) {
    double Z = X[I] - Mean;
    Dst[I] = -0.5 * (A + Z * Z / Var);
  }
}

const detail::KernelTable ScalarTable = {
    sFillZero, sFillConst, sAdd, sSub, sMul, sDiv, sNeg, sGather, sNormalRow,
    "scalar"};

//===----------------------------------------------------------------------===//
// Dispatch. The active table is recomputed on first use and whenever
// the test override changes; kernel entry points load one pointer.
//===----------------------------------------------------------------------===//

std::atomic<int> CpuOverride{-1};

bool rawCpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

std::atomic<const detail::KernelTable *> Active{nullptr};

const detail::KernelTable *pickTable() {
  const detail::KernelTable *T = nullptr;
  if (cpuHasAvx2())
    T = detail::avx2Table();
  if (!T)
    T = &ScalarTable;
  Active.store(T, std::memory_order_release);
  return T;
}

inline const detail::KernelTable &table() {
  const detail::KernelTable *T = Active.load(std::memory_order_acquire);
  return T ? *T : *pickTable();
}

} // namespace

bool augur::simd::cpuHasAvx2() {
  int O = CpuOverride.load(std::memory_order_acquire);
  if (O >= 0)
    return O != 0;
  return rawCpuHasAvx2();
}

void augur::simd::setCpuAvx2Override(int Forced) {
  CpuOverride.store(Forced, std::memory_order_release);
  Active.store(nullptr, std::memory_order_release);
}

const char *augur::simd::activeIsa() { return table().Isa; }

bool augur::simd::resolveEnabled(SimdMode Mode, bool CpuTarget,
                                 bool FaultsArmed) {
  if (!CpuTarget)
    return false;
  switch (Mode) {
  case SimdMode::Off:
    return false;
  case SimdMode::On:
    return true;
  case SimdMode::Auto:
    break;
  }
  if (const char *S = std::getenv("AUGUR_SIMD"))
    return S[0] != '0';
  return !FaultsArmed;
}

int augur::simd::aliasOverride() {
  if (const char *S = std::getenv("AUGUR_ALIAS"))
    return S[0] == '0' ? 0 : 1;
  return -1;
}

int64_t augur::simd::aliasMinSupport() { return 16; }

void augur::simd::fillZero(double *Dst, int64_t N) {
  table().FillZero(Dst, N);
}
void augur::simd::fillConst(double *Dst, double C, int64_t N) {
  table().FillConst(Dst, C, N);
}
void augur::simd::vAdd(double *Dst, const double *A, const double *B,
                       int64_t N) {
  table().Add(Dst, A, B, N);
}
void augur::simd::vSub(double *Dst, const double *A, const double *B,
                       int64_t N) {
  table().Sub(Dst, A, B, N);
}
void augur::simd::vMul(double *Dst, const double *A, const double *B,
                       int64_t N) {
  table().Mul(Dst, A, B, N);
}
void augur::simd::vDiv(double *Dst, const double *A, const double *B,
                       int64_t N) {
  table().Div(Dst, A, B, N);
}
void augur::simd::vNeg(double *Dst, const double *A, int64_t N) {
  table().Neg(Dst, A, N);
}
void augur::simd::gatherReal(double *Dst, const double *Src,
                             const int64_t *Idx, int64_t N) {
  table().Gather(Dst, Src, Idx, N);
}
void augur::simd::normalScoreRow(double *Dst, const double *X, int64_t N,
                                 double Mean, double Var, double A) {
  table().NormalRow(Dst, X, N, Mean, Var, A);
}
