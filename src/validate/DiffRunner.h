//===- validate/DiffRunner.h - Cross-backend differential tests -*- C++ -*-===//
///
/// \file
/// Differential execution of one model across backends: compile through
/// the Low++ interpreter and through the emitted-C native path, run
/// identical seeded chains, and require bit-identical sample streams.
/// Both paths consume the same RNG in the same order (sampling
/// procedures run in the interpreter on both engines; the native path
/// substitutes compiled C only for likelihood/gradient procedures), so
/// any divergence — down to the last bit of a double — is a miscompile
/// in emission, lowering, or the native runtime.
///
/// A failing generated model is automatically shrunk: the runner
/// re-materializes one-step-smaller specs (dropping sites, halving
/// plates) and keeps shrinking while the failure reproduces, so the
/// diagnostic carries a minimal reproducer plus the original seed.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_VALIDATE_DIFFRUNNER_H
#define AUGUR_VALIDATE_DIFFRUNNER_H

#include <functional>

#include "blk/Passes.h"
#include "math/Simd.h"
#include "validate/ModelGen.h"

namespace augur {
namespace validate {

/// Options for one differential run.
struct DiffOptions {
  int NumSamples = 25;
  int BurnIn = 5;
  uint64_t ChainSeed = 0xD1FF; ///< seed for both backends' chains
  /// Bit-identical comparison (the default for interpreter vs. emitted
  /// C, which share the sampling path). When false, compares posterior
  /// means within StatTol instead — for backends whose kernels
  /// legitimately differ.
  bool RequireBitIdentical = true;
  double StatTol = 0.25;
  /// Test hook: mutates the second (native) program after init, to
  /// verify that an injected miscompile is caught and shrunk.
  std::function<void(MCMCProgram &)> InjectB;
  /// Vector-plan policy passed to both backends (CompileOptions::Simd).
  /// diffBackends runs both sides at this setting; diffSimd overrides
  /// it per side. The default Auto preserves ambient behavior.
  simd::SimdMode Simd = simd::SimdMode::Auto;
  /// Pool width passed to both backends (ParallelConfig::NumThreads).
  /// The default 1 keeps the legacy sequential engines; any other value
  /// arms the pool, per-iteration RNG streams, and the reduce pass —
  /// the configuration the reduce regression suite diffs under.
  int NumThreads = 1;
  /// Reduction policy passed to both backends (CompileOptions::Reduce).
  /// Only observable when NumThreads != 1.
  ReduceMode Reduce = ReduceMode::Auto;
};

/// Result of one differential run.
struct DiffReport {
  bool Passed = false;
  /// Both backends rejected the model with the same Status (counts as
  /// consistent behavior, not a differential failure).
  bool Skipped = false;
  /// Update procedures the native backend actually ran as compiled C
  /// (0 for all-conjugate schedules, whose sampling procedures fall
  /// back to the interpreter on both engines). Tests assert this is
  /// nonzero when the schedule has likelihood/gradient kernels, so the
  /// differential coverage is real.
  int NumNativeProcs = 0;
  Diag Failure; ///< valid when !Passed && !Skipped
};

/// Runs \p GM on both backends and compares the streams.
DiffReport diffBackends(const GeneratedModel &GM, const DiffOptions &Opts);

/// Result of fuzzing one seed, including the shrunk reproducer.
struct FuzzReport {
  bool Passed = false;
  bool Skipped = false;
  Diag Failure;          ///< reported against the *shrunk* model
  std::string Original;  ///< pre-shrink model source (when failed)
  int ShrinkSteps = 0;   ///< accepted shrink steps
};

/// Generates the model for \p Seed, runs it differentially, and shrinks
/// on failure to a minimal reproducer.
FuzzReport fuzzOne(uint64_t Seed, const GenOptions &GOpts,
                   const DiffOptions &DOpts);

/// Result of one three-way SIMD differential run.
struct SimdDiffReport {
  bool Passed = false;
  bool Skipped = false;
  /// Updates whose Gibbs procedure ran through a compiled vector plan
  /// in the vector-interp configuration — the coverage signal; tests
  /// assert it is nonzero for models with conjugate/enumeration sites
  /// so the differential is exercising real vector code.
  int NumVectorized = 0;
  /// Natively-compiled procs in the vector-native configuration.
  int NumNativeProcs = 0;
  Diag Failure; ///< valid when !Passed && !Skipped
};

/// Runs \p GM three ways with identical seeds — scalar-interp
/// (Simd=Off), vector-interp (Simd=On), vector-native (Simd=On,
/// NativeCpu) — and requires all three sample streams bit-identical
/// (vector plans replay the interpreter's RNG consumption exactly;
/// see exec/VecKernels.h). Honors Opts.RequireBitIdentical for the
/// native leg like diffBackends. Opts.NumThreads / Opts.Reduce apply to
/// all three legs; a pooled run stays bitwise under
/// ReduceMode::MapReduce, which privatizes every contended float sum
/// (plans replay the map-reduce fold).
SimdDiffReport diffSimd(const GeneratedModel &GM, const DiffOptions &Opts);

/// fuzzOne over the three-way SIMD differential: generates the model
/// for \p Seed, compares scalar vs vector paths, and shrinks failures
/// to a minimal reproducer.
FuzzReport fuzzOneSimd(uint64_t Seed, const GenOptions &GOpts,
                       const DiffOptions &DOpts);

} // namespace validate
} // namespace augur

#endif // AUGUR_VALIDATE_DIFFRUNNER_H
