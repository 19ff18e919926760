//===- compile/Compiler.h - The AugurV2 compiler driver --------*- C++ -*-===//
///
/// \file
/// The end-to-end compilation pipeline (paper Fig. 3): parse ->
/// typecheck against the actual argument types (AugurV2 compiles at
/// runtime) -> Density IL -> Kernel IL (user schedule or heuristic) ->
/// Low++ procedures per base update -> execution engine. The result is
/// an MCMCProgram: a complete, runnable composite MCMC algorithm.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_COMPILE_COMPILER_H
#define AUGUR_COMPILE_COMPILER_H

#include <memory>
#include <string>
#include <vector>

#include "density/DepGraph.h"
#include "density/Frontend.h"
#include "diag/ChainDiag.h"
#include "exec/FactorCache.h"
#include "exec/GpuSim.h"
#include "kernel/Schedule.h"
#include "lang/Parser.h"
#include "math/Simd.h"
#include "mcmc/Drivers.h"
#include "parallel/ThreadPool.h"
#include "telemetry/Telemetry.h"

namespace augur {

/// Compilation options (the setCompileOpt of the paper's Fig. 2).
struct CompileOptions {
  enum class Target {
    Cpu,    ///< interpret Low++ on the host
    GpuSim, ///< execute on the SIMT device simulator (modeled time)
  };
  Target Tgt = Target::Cpu;
  /// Cpu target only: emit C, compile with the host compiler, and
  /// dlopen (procedures outside the native subset are interpreted).
  bool NativeCpu = false;
  /// User MCMC schedule, e.g. "ESlice mu (*) Gibbs z"; empty selects
  /// the heuristic of Section 4.2.
  std::string UserSchedule;
  uint64_t Seed = 0xA594;
  HmcSettings Hmc;
  /// Backend parallelization options (GpuSim target; also used by the
  /// ablation benches).
  BlkOptions Blk;
  /// Device model for the GpuSim target.
  DeviceModel Device;
  /// Cpu target only: the parallel runtime (see DESIGN.md "Parallel
  /// runtime"). NumThreads == 1 (default) keeps the legacy sequential
  /// execution; any other value runs Par/AtmPar loops on the
  /// work-stealing pool with per-iteration RNG streams, making samples
  /// independent of the pool width.
  ParallelConfig Par;
  /// Cpu target, pooled mode only: per-site reduction policy for
  /// AtmPar accumulation loops (DESIGN.md section 16). Auto runs the
  /// compile-time contention estimator (pool width x iterations /
  /// distinct write locations) per site; Atomic keeps in-place atomic
  /// accumulation everywhere; MapReduce privatizes every legal site
  /// into per-block partials with a pinned tree fold. All three
  /// policies produce the same samples (map-reduce changes only the
  /// floating-point reduction order of likelihood/gradient sums, and
  /// pins it). The env var AUGUR_REDUCE (auto/atomic/mapreduce)
  /// overrides this field.
  ReduceMode Reduce = ReduceMode::Auto;
  /// Inference telemetry (DESIGN.md "Telemetry"). Disabled by default;
  /// the env var AUGUR_TELEMETRY=1 force-enables regardless of this
  /// field. Telemetry never consumes RNG, so enabling it leaves the
  /// sample stream bit-identical.
  TelemetryConfig Telemetry;
  /// Which chain this program belongs to; prefixes all runtime metric
  /// keys ("chain<k>/...") and error messages from multi-chain runs.
  int ChainIndex = 0;
  /// Cpu target only: maintain the running log joint incrementally via
  /// the factor-contribution cache (exec/FactorCache.h) instead of
  /// re-running ll_joint. Sample streams are bit-identical either way
  /// (the cache never consumes RNG and the generated procedures are the
  /// same in both modes). The env var AUGUR_INCREMENTAL_FC overrides
  /// this field: "0" disables, any other value enables.
  bool IncrementalFC = true;
  /// Numerical guardrails (DESIGN.md "Fault tolerance"): per-update
  /// finite checks with quarantine, step-size backoff for diverged
  /// gradient updates, and the HMC -> Slice -> MH fallback ladder.
  /// The env var AUGUR_GUARDRAILS overrides individual knobs. On a
  /// healthy model guardrails never consume RNG, so enabling them
  /// leaves the sample stream bit-identical.
  robust::GuardrailOptions Guard;
  /// Fault-injection spec for robustness tests (robust/FaultInject.h
  /// grammar); installed into the process-wide injector at compile
  /// time. The env var AUGUR_FAULT_SPEC wins over this field. Empty
  /// (the default) disables injection.
  std::string FaultSpec;
  /// Vectorized sampler hot path (DESIGN.md section 15): compiled proc
  /// plans on the interpreter/native engines plus host-vectorized
  /// emitted C. Auto (the default) arms every CPU program, sequential
  /// or pooled, unless a fault-injection spec is active; AUGUR_SIMD=0/1
  /// overrides Auto.
  /// With the alias table disabled the vector path replays the scalar
  /// sample stream bit-identically (see exec/VecKernels.h).
  simd::SimdMode Simd = simd::SimdMode::Auto;
  /// Streaming convergence diagnostics (DESIGN.md "Observability
  /// plane"): per-variable split-R̂/ESS accumulated every sweep and
  /// published as chain<k>/diag/* gauges, plus divergence/guard rollup
  /// counters. Off by default — no accumulator is allocated and step()
  /// pays nothing. The env var AUGUR_DIAG overrides ("0" disables,
  /// anything else enables). Diagnostics never consume RNG and never
  /// write model state, so the sample stream is bit-identical on/off.
  diag::DiagOptions Diag;
};

/// A compiled, executable composite MCMC algorithm.
class MCMCProgram {
public:
  /// Initializes the parameter state by forward-sampling the priors
  /// (data must already be bound). Must be called before step().
  Status init();

  /// Rewinds a compiled program so it can serve a fresh sampling
  /// request without recompiling (the compile-once/serve-many path,
  /// DESIGN.md section 13): reseeds the RNG, rebinds the chain's
  /// telemetry keys to \p ChainIndex, and resets every per-update
  /// adaptation (HMC step size back to the compiled options, acceptance
  /// counters, guard state). Followed by init(), the program reproduces
  /// the sample stream of a fresh compile with
  /// CompileOptions{Seed, ChainIndex} bit-identically — compilation
  /// itself never consumes RNG, so skipping it is unobservable.
  Status resetForReuse(uint64_t Seed, int ChainIndex);

  /// Runs one full sweep: every base update once, in schedule order.
  Status step();

  /// Log joint density of the current state. With the incremental
  /// factor cache attached this re-evaluates only factors marked dirty
  /// since the last call; otherwise it runs the compiled ll_joint
  /// procedure.
  double logJoint();

  /// Marks every cached factor stale. Must be called after any state
  /// mutation that bypasses the compiled updates (e.g. writing into
  /// state() directly, or re-sampling data in place).
  void invalidateCache();

  /// The incremental log-joint cache, or nullptr when disabled (GpuSim
  /// target, or IncrementalFC off).
  FactorCache *factorCache() { return Cache.get(); }

  /// The factor dependency graph (CPU target), or nullptr.
  const DepGraph *depGraph() const { return DG.get(); }

  /// The streaming convergence diagnostics of this chain, or nullptr
  /// when CompileOptions::Diag left them disabled.
  diag::ChainDiag *chainDiag() { return Diag.get(); }

  Env &state() { return Eng->env(); }
  Engine &engine() { return *Eng; }
  const DensityModel &densityModel() const { return DM; }
  const KernelSchedule &schedule() const { return Sched; }
  std::vector<CompiledUpdate> &updates() { return Updates; }
  /// The options this program was compiled with (env overrides already
  /// folded in).
  const CompileOptions &options() const { return Opts; }

private:
  friend class Compiler;

  std::unique_ptr<Engine> Eng;
  DensityModel DM;
  KernelSchedule Sched;
  std::vector<CompiledUpdate> Updates;
  CompileOptions Opts;
  std::unique_ptr<DepGraph> DG;      ///< CPU target only
  std::unique_ptr<FactorCache> Cache;///< CPU target + IncrementalFC
  std::string SweepLJKey;    ///< "chain<k>/sweep/log_joint"
  std::string SweepCountKey; ///< "chain<k>/sweep/count"
  std::string FCEvalKey;     ///< "chain<k>/fc/factors_evaluated"
  std::string FCHitsKey;     ///< "chain<k>/fc/cache_hits"
  std::string FCBypKey;      ///< "chain<k>/fc/byproduct_refreshes"
  std::string FCMaintKey;    ///< "chain<k>/fc/maint_ns"
  // Last-flushed cache statistics (step() reports per-sweep deltas).
  uint64_t FCLastEval = 0, FCLastHits = 0, FCLastByp = 0, FCLastMaint = 0;
  std::unique_ptr<diag::ChainDiag> Diag; ///< CompileOptions::Diag only
  std::string DiagDivKey;   ///< "chain<k>/diag/divergences"
  std::string DiagRetryKey; ///< "chain<k>/diag/guard_retries"
  std::string DiagFallKey;  ///< "chain<k>/diag/guard_fallbacks"
  std::string DiagQuarKey;  ///< "chain<k>/diag/guard_quarantines"
  // Last-flushed rollup totals (step() reports per-sweep deltas).
  uint64_t DiagLastDiv = 0, DiagLastRetry = 0, DiagLastFall = 0,
           DiagLastQuar = 0;
};

/// The compiler entry point.
class Compiler {
public:
  /// Compiles \p ModelSrc given the hyper-parameter values \p HyperArgs
  /// (in the order of the model's formals) and the observed \p Data
  /// (by variable name). Mirrors aug.compile(args...)(data) of Fig. 2.
  static Result<std::unique_ptr<MCMCProgram>>
  compile(const std::string &ModelSrc, const CompileOptions &Opts,
          const std::vector<Value> &HyperArgs, const Env &Data);

  /// Generates the Low++ procedures for one base update and registers
  /// them on \p Eng, returning the driver-facing handle. Exposed so the
  /// extensibility test can drive it directly. When \p DG is given the
  /// update also declares its factor-cache contract (DirtyIds, and for
  /// enumerated Gibbs the slice buffers it refreshes as a byproduct of
  /// scoring).
  static Result<CompiledUpdate> compileUpdate(const DensityModel &DM,
                                              const BaseUpdate &U,
                                              const CompileOptions &Opts,
                                              Engine &Eng, int Index,
                                              const DepGraph *DG = nullptr);
};

} // namespace augur

#endif // AUGUR_COMPILE_COMPILER_H
