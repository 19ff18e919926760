//===- blk/Passes.h - Blk-IL parallelization passes ------------*- C++ -*-===//
///
/// \file
/// The parallelization strategy of paper Section 5.4: lowering to Blk
/// form and the three optimizations it describes.
///
/// * Loop commuting: the compiler runs with the data sizes in hand, so
///   a parallel block over K elements whose body loops over N >> K
///   elements is commuted to put the large extent on the threads.
/// * Primitive inlining: primitives implemented with loops (the paper's
///   example is Dirichlet sampling: a Gamma loop plus normalize) are
///   inlined to expose those loops to the other passes.
/// * Summation-block conversion: an atomic-parallel block whose
///   increments all target one location (estimated contention ratio =
///   threads / locations is high) becomes a map-reduce sumBlk.
///
/// The pass driver applies the paper's heuristic: inline, and keep the
/// inlined form only if it enables a commute or a summation-block
/// conversion.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_BLK_PASSES_H
#define AUGUR_BLK_PASSES_H

#include "blk/BlkIR.h"
#include "density/Eval.h"
#include "support/Result.h"

namespace augur {

/// Options controlling the Blk passes (the ablation benches toggle
/// these).
struct BlkOptions {
  bool CommuteLoops = true;
  bool ConvertSumBlocks = true;
  bool InlinePrimitives = true;
  /// Minimum contention ratio (threads per location) that triggers
  /// summation-block conversion. 128 reproduces the paper's behaviour:
  /// the German-Credit-sized HLR gradient (1000 threads / ~26
  /// locations) keeps contended atomics and loses on the GPU, while
  /// the Adult-sized one (50000 / 14) converts and wins.
  int64_t SumBlockThreshold = 128;
  /// Commute when the inner extent exceeds the outer by this factor.
  int64_t CommuteFactor = 4;
};

/// Structural lowering: top-level loops become parallel blocks, other
/// top-level statements become sequential blocks.
BlkProc lowerToBlk(const LowppProc &P);

/// Inlines loop-implemented primitives at the Low++ level (currently
/// Dirichlet sampling, the paper's example). Returns the rewritten
/// procedure and whether anything changed.
LowppProc inlinePrimitives(const LowppProc &P, bool *Changed = nullptr);

/// Commutes parallel blocks with a single large inner parallel loop.
/// Extents are evaluated against \p E (runtime compilation!).
/// Returns the number of blocks rewritten.
int commuteLoops(BlkProc &P, const Env &E, const BlkOptions &O);

/// Converts contended atomic-parallel blocks to summation blocks.
/// Returns the number of blocks rewritten.
int convertSumBlocks(BlkProc &P, const Env &E, const BlkOptions &O);

/// The full pipeline: inline (keeping the result only if it helps),
/// lower, commute, convert.
BlkProc optimizeToBlk(const LowppProc &P, const Env &E,
                      const BlkOptions &O);

//===----------------------------------------------------------------------===//
// CPU reduction planning (paper Section 5.3-5.4 brought to the pooled
// CPU runtime)
//===----------------------------------------------------------------------===//

/// Per-site reduction policy for pooled CPU loops
/// (CompileOptions::Reduce, AUGUR_REDUCE).
enum class ReduceMode {
  Auto,      ///< contention estimator decides per site
  Atomic,    ///< keep atomic accumulation everywhere (PR-1 behavior)
  MapReduce, ///< privatize every legal site
};

const char *reduceModeName(ReduceMode M);

/// Options for planCpuReductions.
struct CpuReduceOptions {
  ReduceMode Mode = ReduceMode::Auto;
  /// Canonical machine width used by the estimator. Deliberately NOT
  /// the configured pool width: decisions must not change with
  /// ParallelConfig::NumThreads, or sample streams would differ across
  /// pool widths. 0 = use hardware_concurrency.
  int64_t EstimatorWidth = 0;
  /// Convert when width * accumulations / locations reaches this (the
  /// paper's contention ratio, threshold 128).
  int64_t ContentionThreshold = 128;
  /// Partial-block fan-in assumed by the estimator's fold-cost term.
  /// Execution always uses lowpp's ReduceShards; this knob exists so
  /// the crossover unit tests can probe the decision function.
  int64_t Shards = ReduceShards;
  /// Refuse conversion when zero+fold traffic (Shards * locations)
  /// exceeds FoldBudget * accumulations: privatizing a huge target for
  /// a small loop costs more than the atomics it removes.
  int64_t FoldBudget = 4;
  /// Commute a pooled nest when the inner extent exceeds the outer by
  /// this factor (non-sampling bodies only; commuting a sampling loop
  /// would remap its per-iteration RNG streams).
  int64_t CommuteFactor = 4;
  bool CommuteLoops = true;
};

/// Pure decision function behind the Auto policy, exposed for the
/// crossover unit tests: returns true when a site with \p Ops
/// accumulation operations spread over \p Locations distinct write
/// locations should be privatized at machine width \p Width.
bool shouldMapReduce(int64_t Width, int64_t Ops, int64_t Locations,
                     const CpuReduceOptions &O);

/// What planCpuReductions did to one procedure.
struct CpuReduceReport {
  int AtomicSites = 0;    ///< AtmPar accumulation sites left atomic
  int MapReduceSites = 0; ///< sites converted to map-reduce
  int DemotedSites = 0;   ///< owner-indexed AtmPar loops demoted to Par
  int CommutedLoops = 0;  ///< pooled nests commuted
  /// Upper bound on private partial-buffer bytes across converted
  /// sites (Shards * 64B-padded target rows).
  int64_t PartialBytes = 0;

  void merge(const CpuReduceReport &O) {
    AtomicSites += O.AtomicSites;
    MapReduceSites += O.MapReduceSites;
    DemotedSites += O.DemotedSites;
    CommutedLoops += O.CommutedLoops;
    PartialBytes += O.PartialBytes;
  }
};

/// The contention-aware CPU reduction pass. For every top-level pooled
/// loop of \p P (runtime sizes evaluated against \p E, same discipline
/// as commuteLoops):
///
/// 1. commutes single-inner-loop non-sampling nests so the large
///    extent is the pooled dimension;
/// 2. demotes owner-indexed AtmPar loops (every accumulation's leading
///    index is the pooled block variable, so writes are disjoint per
///    worker) to plain Par — bit-transparent, applied under every Mode;
/// 3. decides atomic vs. map-reduce per remaining AtmPar accumulation
///    site and annotates converted loops (LStmt::Red / RedTargets) for
///    exec/Interp and cgen/CEmit to consume.
///
/// An `adj_<v>` target whose \p v is not bound in \p E yet (HMC
/// parameters are bound only at chain initialization) is sized from
/// v's declaration in \p TM, when given.
///
/// Mutates \p P in place and returns the per-site decision report.
CpuReduceReport planCpuReductions(LowppProc &P, const Env &E,
                                  const CpuReduceOptions &O,
                                  const TypedModel *TM = nullptr);

} // namespace augur

#endif // AUGUR_BLK_PASSES_H
