//===- math/Simd.h - Vector kernel layer and SIMD policy -------*- C++ -*-===//
///
/// \file
/// The vector kernel ABI behind the PR-8 sampler vectorization
/// (DESIGN.md section 15). Three pieces live here:
///
///   1. `SimdMode` / `resolveEnabled` — the CompileOptions::Simd /
///      AUGUR_SIMD policy knob deciding whether the exec-layer proc
///      plans (exec/VecKernels.h) are armed for a compiled program.
///
///   2. CPU feature detection with a test override (`cpuHasAvx2`,
///      `setCpuAvx2Override`) so the no-AVX2 fallback path is testable
///      on AVX2 hosts.
///
///   3. The batched kernels themselves: flat double-array primitives
///      with a guaranteed scalar implementation and an AVX2
///      implementation (math/SimdAvx2.cpp, compiled with -mavx2 and
///      dispatched at runtime). Every kernel is specified to be
///      BIT-IDENTICAL to the naive scalar loop over the same elements:
///      no FMA contraction, no reassociation, lane order = element
///      order. That contract is what lets exec/VecKernels.h promise
///      scalar/vector stream equality (tests/simd_kernels_test.cpp
///      checks it bitwise against the scalar table).
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_MATH_SIMD_H
#define AUGUR_MATH_SIMD_H

#include <cstdint>

namespace augur {
namespace simd {

/// Vectorization policy for a compiled program (CompileOptions::Simd).
/// `Auto` enables the vector path for every CPU program with no
/// fault-injection spec armed, sequential or pooled; AUGUR_SIMD=0/1
/// overrides Auto from the environment. `On`/`Off` are programmatic
/// forces (the differential harness pins each side explicitly and must
/// not be perturbed by the ambient environment).
enum class SimdMode { Auto, Off, On };

/// True if the host CPU supports AVX2 (honoring any test override).
bool cpuHasAvx2();

/// Test hook mocking the cpuid result: 0 forces the scalar kernel
/// table, 1 forces AVX2 (only meaningful on AVX2 hosts), -1 clears the
/// override. Takes effect for subsequent kernel calls.
void setCpuAvx2Override(int Forced);

/// Name of the kernel table currently dispatched to: "avx2" or
/// "scalar".
const char *activeIsa();

/// Resolves the effective on/off decision for one compiled program.
/// \p CpuTarget: compiling for the CPU backend (GPU-sim never
/// vectorizes). \p FaultsArmed: a fault-injection spec is active (the
/// injector's probes live on the scalar interpreter paths, so Auto must
/// not route around them). The pool width plays no part: plans follow
/// the pooled RNG stream protocol and replay the map-reduce fold, so a
/// pooled plan is bit-identical to pooled interpretation wherever the
/// latter is itself reproducible (leftover atomic float sums are not).
bool resolveEnabled(SimdMode Mode, bool CpuTarget, bool FaultsArmed);

/// Alias-table override from AUGUR_ALIAS: 0 forces the cumulative-walk
/// sampler, 1 forces the alias table, -1 (unset) defers to the
/// per-site size heuristic (K >= aliasMinSupport()).
int aliasOverride();

/// Support size at which element-invariant categorical draws switch
/// from the bit-identical cumulative walk to the Vose alias table.
int64_t aliasMinSupport();

//===----------------------------------------------------------------------===//
// Batched kernels. Dst/operand ranges must not partially overlap.
//===----------------------------------------------------------------------===//

/// Dst[i] = 0.0
void fillZero(double *Dst, int64_t N);
/// Dst[i] = C
void fillConst(double *Dst, double C, int64_t N);
/// Dst[i] = A[i] op B[i]
void vAdd(double *Dst, const double *A, const double *B, int64_t N);
void vSub(double *Dst, const double *A, const double *B, int64_t N);
void vMul(double *Dst, const double *A, const double *B, int64_t N);
void vDiv(double *Dst, const double *A, const double *B, int64_t N);
/// Dst[i] = -A[i]
void vNeg(double *Dst, const double *A, int64_t N);
/// Dst[i] = Src[Idx[i]]
void gatherReal(double *Dst, const double *Src, const int64_t *Idx,
                int64_t N);
/// Normal log-density row with hoisted additive constant:
///   Dst[i] = -0.5 * ((A + (X[i] - Mean)^2 / Var))
/// evaluated with exactly the scalar association
///   Z = X[i] - Mean;  Dst[i] = -0.5 * (A + Z * Z / Var)
/// where A = log(2*pi) + log(Var) is computed once by the caller
/// (runtime/Distributions.cpp normalLogPdf computes
/// -0.5 * (Log2Pi + log(Var) + Z*Z/Var), which associates as
/// -0.5 * ((Log2Pi + log(Var)) + Z*Z/Var), so the hoisting is exact).
/// The caller handles Var <= 0 (fills -inf) before invoking.
void normalScoreRow(double *Dst, const double *X, int64_t N, double Mean,
                    double Var, double A);

} // namespace simd
} // namespace augur

#endif // AUGUR_MATH_SIMD_H
