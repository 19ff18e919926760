//===- exec/Interp.h - Low++ interpreter (CPU engine) ----------*- C++ -*-===//
///
/// \file
/// Direct execution of Low++ procedures over a variable environment.
/// This is the CPU execution engine: the reference implementation the
/// native C backend is tested against, and the default engine when
/// runtime native compilation is not requested.
///
/// The interpreter also collects the execution profile the GPU device
/// simulator consumes (parallel-loop trip counts, atomic-increment
/// location counts, per-statement operation counts); see exec/GpuSim.h.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_EXEC_INTERP_H
#define AUGUR_EXEC_INTERP_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "density/Eval.h"
#include "lowpp/LowppIR.h"
#include "parallel/ThreadPool.h"
#include "support/PhiloxRNG.h"
#include "support/RNG.h"
#include "telemetry/Telemetry.h"

namespace augur {

/// Counters collected while executing procedures.
///
/// Thread-safety: during a parallel region every worker accumulates
/// into its own ExecCounters instance; the parent merges them (with
/// merge()) after the fork-join barrier, so no counter is ever written
/// concurrently. The struct is padded to a cache line so per-worker
/// shards never share a line (the PR-1 layout let two workers' hottest
/// counters straddle one line when interpreters sat in contiguous
/// storage).
struct alignas(64) ExecCounters {
  uint64_t Stmts = 0;       ///< statements executed
  uint64_t DistOps = 0;     ///< ll/grad/samp evaluations
  uint64_t Atomics = 0;     ///< increments executed under AtmPar
  uint64_t LoopIters = 0;   ///< loop iterations
  int64_t LocalBytes = 0;   ///< current local allocation
  int64_t PeakLocalBytes = 0; ///< high-water mark of local allocation

  /// Folds a worker's counters into this one (post-join, sequential).
  void merge(const ExecCounters &W) {
    Stmts += W.Stmts;
    DistOps += W.DistOps;
    Atomics += W.Atomics;
    LoopIters += W.LoopIters;
    PeakLocalBytes += W.PeakLocalBytes; // workers allocate concurrently
  }

  void reset() { *this = ExecCounters(); }
};

/// Prebuilt metric keys for the parallel-loop occupancy profile, so the
/// pooled-loop epilogue records without per-region string allocation.
/// The native engine's host dispatch of emitted-C pooled loops records
/// the same keys (cgen/Native.cpp), keeping the two backends' schemas
/// identical.
struct ExecTelemetryKeys {
  std::string Loops;   ///< "<prefix>par_loops"
  std::string Iters;   ///< "<prefix>par_iters"
  std::string Chunks;  ///< "<prefix>par_chunks"
  std::string Steals;  ///< "<prefix>par_steals"
  std::string Busy;    ///< "<prefix>par_busy_nanos"
  std::string Thread;  ///< "<prefix>par_thread_nanos"
  std::string VecRuns;     ///< "<prefix>vec_proc_runs"
  std::string VecFallback; ///< "<prefix>vec_fallback_runs"
  std::string VecAlias;    ///< "<prefix>vec_alias_draws"
  std::string ReduceRegions; ///< "<prefix>reduce_regions"
  std::string ReduceBytes;   ///< "<prefix>reduce_partial_bytes"

  void build(const std::string &Prefix) {
    Loops = Prefix + "par_loops";
    Iters = Prefix + "par_iters";
    Chunks = Prefix + "par_chunks";
    Steals = Prefix + "par_steals";
    Busy = Prefix + "par_busy_nanos";
    Thread = Prefix + "par_thread_nanos";
    VecRuns = Prefix + "vec_proc_runs";
    VecFallback = Prefix + "vec_fallback_runs";
    VecAlias = Prefix + "vec_alias_draws";
    ReduceRegions = Prefix + "reduce_regions";
    ReduceBytes = Prefix + "reduce_partial_bytes";
  }
};

/// A map-reduce target's payload as flat scalars: the address range
/// whose accumulations a map-reduce block redirects into its partial
/// row (Interp::execMapReduceLoop, and the vector plans' replay of it).
struct ReducePayload {
  char *Base = nullptr;
  int64_t Len = 0; ///< flat scalar count
  bool IsInt = false;
};
ReducePayload reducePayload(Value &V);

/// The pinned map-reduce fold (DESIGN.md section 16): a pairwise tree
/// over \p NB partial rows spaced \p Stride elements apart, in an order
/// fixed by NB alone, then one deposit of row 0 into \p Dst.
template <class T>
void foldPartials(T *Rows, int64_t NB, int64_t Stride, int64_t Len, T *Dst) {
  for (int64_t Step = 1; Step < NB; Step *= 2)
    for (int64_t I = 0; I + Step < NB; I += 2 * Step) {
      T *A = Rows + I * Stride;
      const T *B = Rows + (I + Step) * Stride;
      for (int64_t J = 0; J < Len; ++J)
        A[J] += B[J];
    }
  for (int64_t J = 0; J < Len; ++J)
    Dst[J] += Rows[J];
}

/// Executes Low++ procedures against a global environment. Globals are
/// the model hyper-parameters, data, parameters, and designated output
/// buffers (e.g. "ll", "adj_<var>"); locals are procedure-scoped.
class Interp {
public:
  Interp(Env &Globals, RNG &Rng)
      : Globals(&Globals), Rng(&Rng), Ctx(Globals) {
    // Resolution cache: keyed by the *address* of the name string
    // inside the (immutable, shared) IR node, so each variable
    // reference is resolved once per procedure run. std::map nodes are
    // reference-stable, making the cached Value pointers safe until
    // locals are torn down (the cache is cleared at proc boundaries).
    Ctx.Lookup = [this](const std::string &Name) -> const Value * {
      auto Hit = ResolveCache.find(&Name);
      if (Hit != ResolveCache.end())
        return Hit->second;
      const Value *V = nullptr;
      auto It = Locals.find(Name);
      if (It != Locals.end()) {
        V = &It->second;
      } else if (ParentLocals) {
        // Worker interpreter: locals of the forking interpreter (e.g.
        // sufficient-statistic buffers) are visible through stable map
        // nodes; the parent map is not mutated while workers run.
        auto PIt = ParentLocals->find(Name);
        if (PIt != ParentLocals->end())
          V = &PIt->second;
      }
      if (!V) {
        auto GIt = this->Globals->find(Name);
        if (GIt != this->Globals->end())
          V = &GIt->second;
      }
      ResolveCache.emplace(&Name, V);
      return V;
    };
  }

  /// Enables pooled execution of Par/AtmPar loops. With a pool attached
  /// the interpreter switches to the parallel-mode semantics described
  /// in DESIGN.md ("Parallel runtime"): each sampling loop iteration
  /// draws from a counter-based stream keyed by (master draw,
  /// iteration), so the samples are identical for any pool width;
  /// AtmPar increments become atomic adds (floating-point reduction
  /// order, and only it, may vary). Pass nullptr to restore the
  /// sequential legacy stream.
  void setParallel(ThreadPool *P, int64_t LoopGrain = 16) {
    Pool = P;
    Grain = LoopGrain < 1 ? 1 : LoopGrain;
  }

  /// Attaches a telemetry sink: each pooled Par/AtmPar region records
  /// its occupancy profile (loops, iters, chunks, steals, busy and
  /// available thread-time) under `<Prefix>par_*`. Recording is gated
  /// on \p R being enabled, so an attached-but-disabled recorder costs
  /// one relaxed load per region. Pass nullptr to detach.
  void setTelemetry(Recorder *R, const std::string &Prefix) {
    Telem = R;
    if (R)
      TelemKeys.build(Prefix);
  }
  Recorder *telemetry() const { return Telem; }
  const ExecTelemetryKeys &telemetryKeys() const { return TelemKeys; }

  /// Runs \p P to completion. Locals are freed on exit.
  void run(const LowppProc &P);

  /// Block-scoped execution (used by the GPU device simulator, which
  /// costs one block at a time but needs procedure-scoped locals).
  void beginProcScope();
  void endProcScope();
  void runBody(const std::vector<LStmtPtr> &Body);

  /// Atomic-address tracking: when enabled, every atomic increment
  /// under an AtmPar loop records its destination address, giving the
  /// contention histogram the device model consumes.
  void setTrackAtomics(bool Track) { TrackAtomics = Track; }
  void clearAtomicHistogram() { AtomicHist.clear(); }
  const std::unordered_map<uintptr_t, uint64_t> &atomicHistogram() const {
    return AtomicHist;
  }

  ExecCounters &counters() { return Counters; }
  const ExecCounters &counters() const { return Counters; }

private:
  void execStmt(const LStmt &S);
  void execBody(const std::vector<LStmtPtr> &Body);

  /// Runs one Par/AtmPar loop over the pool (parallel mode only).
  void execParallelLoop(const LStmt &S, int64_t Lo, int64_t Hi);
  /// Runs a loop the reduce pass marked MapReduce: the range is cut
  /// into ReduceShards-derived blocks, every privatized accumulation is
  /// redirected into the executing block's 64B-padded partial row
  /// (zeroed by its owning worker at chunk start — first touch), and
  /// the rows are folded pairwise in pinned order after the join. The
  /// result is bit-identical for every pool width and grain.
  void execMapReduceLoop(const LStmt &S, int64_t Lo, int64_t Hi);
  /// Whether the loop body contains sampling statements (cached per
  /// statement node; decides if a stream seed must be drawn).
  bool bodySamples(const LStmt &S) const;
  /// True when increments must use atomic read-modify-write (inside a
  /// pooled AtmPar region).
  bool atomicMode() const { return InParallelRegion && AtmParDepth > 0; }
  void accumReal(double *Slot, double V) const;
  void accumInt(int64_t *Slot, int64_t V) const;

  DV evalE(const ExprPtr &E) const;
  int64_t evalInt(const ExprPtr &E) const;
  double evalReal(const ExprPtr &E) const;

  /// Resolves an lvalue to a mutable view (locals shadow globals).
  MutDV resolveDest(const LValue &Dest);
  Value &resolveVar(const std::string &Name);

  void execDeclLocal(const LStmt &S);
  void execConjSample(const LStmt &S);
  void execSampleLogits(const LStmt &S);

  /// One privatized target during a map-reduce chunk: accumulations
  /// whose destination lands inside [Base, End) are rebased into the
  /// chunk's private partial row instead of the shared payload.
  struct ReduceRedirect {
    uintptr_t Base = 0, End = 0;
    char *Row = nullptr;
  };

  bool redirected(const void *Addr) const {
    uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
    for (const auto &R : Redirects)
      if (A >= R.Base && A < R.End)
        return true;
    return false;
  }

  void noteAtomic(const void *Addr) {
    if (!Redirects.empty() && redirected(Addr))
      return; // privatized: no atomic happens
    ++Counters.Atomics;
    if (TrackAtomics)
      ++AtomicHist[reinterpret_cast<uintptr_t>(Addr)];
  }

  Env *Globals;
  RNG *Rng;
  Env Locals;
  mutable std::unordered_map<const std::string *, const Value *>
      ResolveCache;
  /// Persistent evaluation context; loop variables live directly in
  /// Ctx.LoopVars (rebuilding the context per expression would copy the
  /// map on every evaluation — the hot path of the whole engine).
  EvalCtx Ctx;
  int AtmParDepth = 0;
  bool TrackAtomics = false;
  std::unordered_map<uintptr_t, uint64_t> AtomicHist;
  ExecCounters Counters;

  // Parallel runtime state (see exec/Interp.cpp execParallelLoop).
  ThreadPool *Pool = nullptr;      ///< root only; workers run sequentially
  int64_t Grain = 16;
  Recorder *Telem = nullptr;       ///< occupancy-profile sink (optional)
  ExecTelemetryKeys TelemKeys;
  const Env *ParentLocals = nullptr; ///< worker: forking interp's locals
  bool InParallelRegion = false;     ///< worker: executing a pooled loop
  PhiloxRNG StreamRng;               ///< worker: per-iteration stream
  std::vector<double> GradTmp;       ///< staging for atomic grad adds
  /// Reused parameter-view scratch: AccumLL/AccumGrad/Sample/ConjSample
  /// are leaf statements (evaluating a parameter never re-enters
  /// execStmt), so one buffer per role serves every call without
  /// per-statement heap allocation. Worker interpreters are separate
  /// instances, so pooled loops never share these.
  std::vector<DV> ParamScratch;
  std::vector<DV> PriorScratch, ExtraScratch, StatsScratch;
  mutable std::unordered_map<const LStmt *, bool> SamplingCache;
  /// Lane-indexed worker interpreters, constructed lazily and reused
  /// across regions (avoids rebuilding closures/maps every loop).
  std::vector<std::unique_ptr<Interp>> WorkerInterps;

  // Map-reduce state (see execMapReduceLoop).
  /// Worker: active redirect ranges for the chunk being executed.
  std::vector<ReduceRedirect> Redirects;
  /// Root: partial buffers cached per converted loop across sweeps.
  struct ReduceTargetBuf {
    std::string Name;
    bool IsInt = false;
    int64_t Len = 0;         ///< flat scalar count of the target
    int64_t StrideBytes = 0; ///< row stride, 64B multiple
    char *Base = nullptr;    ///< target payload (refreshed per region)
    char *Partials = nullptr;
    int64_t Cap = 0;
    ReduceTargetBuf() = default;
    ReduceTargetBuf(ReduceTargetBuf &&O) noexcept { *this = std::move(O); }
    ReduceTargetBuf &operator=(ReduceTargetBuf &&O) noexcept {
      std::swap(Name, O.Name);
      std::swap(IsInt, O.IsInt);
      std::swap(Len, O.Len);
      std::swap(StrideBytes, O.StrideBytes);
      std::swap(Base, O.Base);
      std::swap(Partials, O.Partials);
      std::swap(Cap, O.Cap);
      return *this;
    }
    ~ReduceTargetBuf();
  };
  std::unordered_map<const LStmt *, std::vector<ReduceTargetBuf>> ReduceBufs;
};

} // namespace augur

#endif // AUGUR_EXEC_INTERP_H
