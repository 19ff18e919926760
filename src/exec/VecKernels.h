//===- exec/VecKernels.h - Compiled proc plans (SIMD hot path) -*- C++ -*-===//
///
/// \file
/// Closure-compiled execution plans for Low++ procedures: the PR-8
/// vectorized conjugate-Gibbs hot path (DESIGN.md section 15).
///
/// The interpreter (exec/Interp.h) walks shared Expr/LStmt trees and
/// resolves every variable reference through hash maps on each use. A
/// VecPlan compiles one LowppProc into a private statement/expression
/// tree with loop variables in flat slots and variable references
/// pre-resolved, then layers two fused fast paths on top:
///
///   * Fill loops (Par loops whose body only zeroes vector elements)
///     run through simd::fillZero.
///
///   * Enumeration-Gibbs loops (the `z`-draw procs produced by
///     lowpp/Reify.cpp genEnumGibbsProc) hoist per-candidate density
///     parameters out of the element loop: Normal mean/variance and
///     the log-normalizer, Categorical log-probability tables,
///     Bernoulli probabilities, and MvNormal Cholesky factors +
///     log-determinants are prepared once per run (or per outer
///     iteration when they depend on it) instead of per element, and
///     the per-element score row is assembled from the hoisted state.
///     Element-invariant sites additionally hoist the softmax row and
///     may draw through a Vose alias table (runtime/AliasTable.h).
///
/// Bit-identity contract: with the alias table disabled, a plan
/// consumes the master RNG in exactly the interpreter's order and
/// produces bit-identical state for any well-formed proc — every
/// floating-point operation replicates the interpreter's association
/// and evaluation order (the differential harness in
/// src/validate/DiffRunner.cpp enforces this draw-by-draw). The alias
/// table changes which category a uniform maps to (same distribution,
/// one uniform per draw either way); plans report usage through
/// bitIdentical() so comparisons degrade to statistical checks.
///
/// Pooled programs get the same contract. A plan runs every loop on
/// the calling lane, but it follows the pooled interpreter's protocol:
/// per-iteration Philox streams for sampling Par/AtmPar loops, and for
/// loops the reduce pass marked MapReduce (lowpp ReduceKind) the same
/// per-block partial rows and pinned pairwise fold as
/// Interp::execMapReduceLoop. Pooled interpretation is bit-identical
/// to its plan wherever the pooled run is itself reproducible; leftover
/// AtmPar float sums commit in nondeterministic order, the plan's in
/// iteration order.
///
/// Compilation is all-or-nothing per proc: any construct the plan
/// cannot replicate exactly (AccumGrad — the HMC path — or a malformed
/// shape) fails tryCompile and the engine keeps interpreting that proc.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_EXEC_VECKERNELS_H
#define AUGUR_EXEC_VECKERNELS_H

#include <cstdint>
#include <memory>

#include "exec/Interp.h"

namespace augur {
namespace vec {

namespace detail {
struct PlanImpl;
}

/// A compiled execution plan for one Low++ procedure.
class VecPlan {
public:
  /// Compiles \p P against \p Globals, or returns nullptr if any
  /// statement cannot be replicated exactly.
  static std::unique_ptr<VecPlan> tryCompile(const LowppProc &P,
                                             Env &Globals);
  ~VecPlan();

  /// Runs the plan. \p Master is the chain RNG; \p Pooled selects the
  /// parallel-mode RNG protocol (per-iteration Philox streams keyed by
  /// one master draw, exactly as Interp::execParallelLoop) so plans
  /// stay stream-compatible with pooled interpretation. \p Counters
  /// receives the interpreter-equivalent execution profile.
  void run(RNG &Master, bool Pooled, ExecCounters &Counters);

  /// Number of fused (fill / enumeration) loops in the plan.
  int fusedLoops() const;

  /// False once any draw went through the alias table: the stream is
  /// then distribution-equivalent, not bit-identical.
  bool bitIdentical() const;

  /// Returns and resets the alias-table draw count (telemetry).
  uint64_t takeAliasDraws();

  /// Map-reduce regions replayed and the partial-row bytes the pooled
  /// interpreter would have allocated for them (its reduce_* profile).
  struct ReduceProfile {
    uint64_t Regions = 0, Bytes = 0;
  };
  /// Returns and resets the map-reduce profile (telemetry).
  ReduceProfile takeReduceProfile();

private:
  VecPlan();
  std::unique_ptr<detail::PlanImpl> Impl;
};

} // namespace vec
} // namespace augur

#endif // AUGUR_EXEC_VECKERNELS_H
