//===- compile/Compiler.cpp -----------------------------------*- C++ -*-===//

#include "compile/Compiler.h"

#include <algorithm>
#include <cstdlib>

#include "cgen/Native.h"
#include "density/Eval.h"
#include "lowpp/Reify.h"
#include "robust/FaultInject.h"
#include "support/Format.h"

using namespace augur;

namespace {

/// Resolves CompileOptions::IncrementalFC against the env override.
bool incrementalFCEnabled(const CompileOptions &Opts) {
  if (const char *S = std::getenv("AUGUR_INCREMENTAL_FC"))
    return std::string(S) != "0";
  return Opts.IncrementalFC;
}

/// Resolves CompileOptions::Reduce against the AUGUR_REDUCE override.
ReduceMode resolveReduceMode(const CompileOptions &Opts) {
  if (const char *S = std::getenv("AUGUR_REDUCE")) {
    std::string V(S);
    if (V == "atomic")
      return ReduceMode::Atomic;
    if (V == "mapreduce")
      return ReduceMode::MapReduce;
    if (V == "auto")
      return ReduceMode::Auto;
  }
  return Opts.Reduce;
}

/// True when a factor's own loops are the conditional's block loops:
/// same count, and each level's bounds structurally equal after
/// renaming the factor's earlier loop variables to the block variables
/// (inner bounds may reference outer loop vars, e.g. ragged corpora).
bool loopsAlign(const std::vector<LoopBinding> &Loops,
                const std::vector<LoopBinding> &Block) {
  if (Loops.size() != Block.size())
    return false;
  for (size_t I = 0; I < Loops.size(); ++I) {
    ExprPtr Lo = Loops[I].Lo, Hi = Loops[I].Hi;
    for (size_t J = 0; J < I; ++J) {
      ExprPtr From = Expr::var(Loops[J].Var), To = Expr::var(Block[J].Var);
      Lo = substExpr(Lo, From, To);
      Hi = substExpr(Hi, From, To);
    }
    if (!Expr::structEq(Lo, Block[I].Lo) || !Expr::structEq(Hi, Block[I].Hi))
      return false;
  }
  return true;
}

} // namespace

Status MCMCProgram::init() {
  AUGUR_RETURN_IF_ERROR(forwardSampleModel(DM, Eng->env(), Eng->rng(),
                                           /*IncludeData=*/false));
  invalidateCache();
  return Status::success();
}

Status MCMCProgram::resetForReuse(uint64_t Seed, int ChainIndex) {
  Opts.Seed = Seed;
  Opts.ChainIndex = ChainIndex;
  Eng->rng().reseed(Seed);
  std::string ChainPrefix = strFormat("chain%d/", ChainIndex);
  Eng->setTelemetry(&Recorder::global(), ChainPrefix + "exec/");
  SweepLJKey = ChainPrefix + "sweep/log_joint";
  SweepCountKey = ChainPrefix + "sweep/count";
  if (Cache) {
    FCEvalKey = ChainPrefix + "fc/factors_evaluated";
    FCHitsKey = ChainPrefix + "fc/cache_hits";
    FCBypKey = ChainPrefix + "fc/byproduct_refreshes";
    FCMaintKey = ChainPrefix + "fc/maint_ns";
  }
  if (Diag) {
    Diag->rebind(ChainIndex);
    DiagDivKey = ChainPrefix + "diag/divergences";
    DiagRetryKey = ChainPrefix + "diag/guard_retries";
    DiagFallKey = ChainPrefix + "diag/guard_fallbacks";
    DiagQuarKey = ChainPrefix + "diag/guard_quarantines";
    DiagLastDiv = DiagLastRetry = DiagLastFall = DiagLastQuar = 0;
  }
  for (auto &CU : Updates) {
    // Exactly the state compileUpdate establishes on a fresh compile:
    // adapted step sizes, acceptance counters, and guard history from
    // the previous request must not leak into the next one.
    CU.U.Hmc = Opts.Hmc;
    CU.Stats = UpdateStats();
    CU.Guard = robust::GuardState();
    CU.LastDiverged = false;
    CU.Keys.build(ChainPrefix, CU.U);
  }
  invalidateCache();
  return Status::success();
}

Status MCMCProgram::step() {
  McmcCtx Ctx;
  Ctx.Eng = Eng.get();
  Ctx.DM = &DM;
  Ctx.Telem = &Recorder::global();
  Ctx.Cache = Cache.get();
  Ctx.Guard = &Opts.Guard;
  for (auto &CU : Updates)
    AUGUR_RETURN_IF_ERROR(runBaseUpdate(Ctx, CU));
  Recorder &R = Recorder::global();
  if (R.enabled() && !SweepLJKey.empty()) {
    R.count(SweepCountKey);
    // Running log-joint, once per sweep: never consumes RNG, and with
    // the factor cache attached costs only the factors dirtied since
    // the last sweep. Gated off the GpuSim target so the modeled
    // device-time accounting is unchanged by telemetry.
    if (R.config().SweepLogJoint &&
        Opts.Tgt == CompileOptions::Target::Cpu) {
      double LJ = logJoint();
      R.observe(SweepLJKey, LJ);
      R.gauge(SweepLJKey, LJ);
    }
    if (Cache) {
      // Per-sweep deltas; zero deltas still materialize the keys so
      // every chain reports the same key set.
      R.count(FCEvalKey, Cache->FactorsEvaluated - FCLastEval);
      R.count(FCHitsKey, Cache->CacheHits - FCLastHits);
      R.count(FCBypKey, Cache->ByproductRefreshes - FCLastByp);
      R.count(FCMaintKey, Cache->MaintNanos - FCLastMaint);
      FCLastEval = Cache->FactorsEvaluated;
      FCLastHits = Cache->CacheHits;
      FCLastByp = Cache->ByproductRefreshes;
      FCLastMaint = Cache->MaintNanos;
    }
  }
  if (Diag) {
    // Streaming R̂/ESS accumulate even without a recorder (the API
    // surfaces them on SampleSet); only the gauge publication and the
    // rollup counters need telemetry. Reads state, never writes it,
    // never consumes RNG — the sample stream is bit-identical on/off.
    Diag->observeSweep(Eng->env());
    if (R.enabled()) {
      Diag->publish(R);
      uint64_t Div = 0, Retry = 0, Fall = 0, Quar = 0;
      for (const auto &CU : Updates) {
        Div += CU.Stats.Divergences;
        Retry += CU.Guard.Retries;
        Fall += CU.Guard.Fallbacks;
        Quar += CU.Guard.Quarantines;
      }
      // Per-sweep deltas; zero deltas still materialize the keys so
      // both backends report the same key set.
      R.count(DiagDivKey, Div - DiagLastDiv);
      R.count(DiagRetryKey, Retry - DiagLastRetry);
      R.count(DiagFallKey, Fall - DiagLastFall);
      R.count(DiagQuarKey, Quar - DiagLastQuar);
      DiagLastDiv = Div;
      DiagLastRetry = Retry;
      DiagLastFall = Fall;
      DiagLastQuar = Quar;
    }
  }
  return Status::success();
}

double MCMCProgram::logJoint() {
  if (Cache)
    return Cache->logJoint();
  Eng->runProc("ll_joint");
  return Eng->env().at("ll_ll_joint").asReal();
}

void MCMCProgram::invalidateCache() {
  if (Cache)
    Cache->markAllDirty();
}

Result<CompiledUpdate> Compiler::compileUpdate(const DensityModel &DM,
                                               const BaseUpdate &U,
                                               const CompileOptions &Opts,
                                               Engine &Eng, int Index,
                                               const DepGraph *DG) {
  CompiledUpdate CU;
  CU.U = U;
  CU.U.Hmc = Opts.Hmc;
  for (const auto &V : U.Vars) {
    const ModelDecl *Decl = DM.TM.M.findDecl(V);
    assert(Decl && "update variable must be declared");
    CU.Transforms.push_back(transformForSupport(distInfo(Decl->D).Supp));
  }

  switch (U.Kind) {
  case UpdateKind::FC: {
    assert(U.Cond && "FC update carries its conditional");
    std::string Name = strFormat("gibbs_%s", U.Vars[0].c_str());
    if (U.Strategy == FCStrategy::Conjugate) {
      assert(U.Conj && "conjugate update carries its relation");
      AUGUR_ASSIGN_OR_RETURN(LowppProc P,
                             genConjGibbsProc(Name, *U.Cond, *U.Conj));
      Eng.addProc(std::move(P));
    } else {
      // Byproduct plan: where the Section 3.3 rewrites sliced a blanket
      // factor down to the block index, the scoring pass already
      // computes its per-index contribution at the committed state —
      // route those scores into the factor-contribution table so the
      // cache refreshes for free. The byproduct is emitted whenever the
      // dependency graph is available (i.e. on the CPU target), NOT
      // gated on IncrementalFC, so cache-on and cache-off runs execute
      // identical procedures.
      EnumFCByproduct Byp;
      std::vector<int> Covered;
      if (DG && !U.Cond->Approximate && !U.Cond->BlockLoops.empty()) {
        const std::string &Var = U.Vars[0];
        int PriorId = DG->priorFactorId(Var);
        std::vector<FactorDep> LikEdges;
        for (const FactorDep &E : DG->deps(Var))
          if (E.FactorId != PriorId)
            LikEdges.push_back(E);
        // The conditional's Liks were collected in factor order, so
        // they are parallel to the non-prior dependence edges; bail out
        // of the byproduct entirely if that ever stops holding.
        if (PriorId >= 0 && LikEdges.size() == U.Cond->Liks.size()) {
          const Factor &PF = DM.Joint.Factors[size_t(PriorId)];
          if (PF.Guards.empty() && loopsAlign(PF.Loops, U.Cond->BlockLoops)) {
            Byp.PriorSlice = fcSliceName(PriorId);
            Covered.push_back(PriorId);
          }
          Byp.LikSlices.resize(U.Cond->Liks.size());
          for (size_t J = 0; J < U.Cond->Liks.size(); ++J) {
            const Factor &L = U.Cond->Liks[J];
            const Factor &Orig =
                DM.Joint.Factors[size_t(LikEdges[J].FactorId)];
            if (LikEdges[J].Sliced && L.Loops.empty() && L.Guards.empty() &&
                loopsAlign(Orig.Loops, U.Cond->BlockLoops)) {
              Byp.LikSlices[J] = fcSliceName(LikEdges[J].FactorId);
              Covered.push_back(LikEdges[J].FactorId);
            }
          }
        }
      }
      AUGUR_ASSIGN_OR_RETURN(
          LowppProc P,
          genEnumGibbsProc(Name, *U.Cond, Covered.empty() ? nullptr : &Byp));
      Eng.addProc(std::move(P));
      std::sort(Covered.begin(), Covered.end());
      CU.RefreshIds = std::move(Covered);
    }
    CU.GibbsProc = Name;
    break;
  }
  case UpdateKind::Grad:
  case UpdateKind::Nuts:
  case UpdateKind::Slice: {
    assert(U.Joint && "gradient update carries its restricted joint");
    std::string LLName = strFormat("llp_%d", Index);
    Eng.addProc(
        genLikelihoodProc(LLName, U.Joint->Factors, "ll_" + LLName));
    std::string GradName = strFormat("grad_%d", Index);
    AUGUR_ASSIGN_OR_RETURN(LowppProc G,
                           genGradProc(GradName, *U.Joint, U.Vars));
    Eng.addProc(std::move(G));
    CU.LLProc = LLName;
    CU.GradProc = GradName;
    break;
  }
  case UpdateKind::ESlice: {
    assert(U.Joint && "elliptical slice carries its restricted joint");
    // The ellipse handles the prior: the procedure evaluates only the
    // likelihood factors (everything but the target's own prior).
    std::vector<Factor> Liks;
    for (const auto &F : U.Joint->Factors)
      if (F.AtVar != U.Vars[0])
        Liks.push_back(F);
    std::string LLName = strFormat("llp_%d", Index);
    Eng.addProc(genLikelihoodProc(LLName, Liks, "ll_" + LLName));
    CU.LLProc = LLName;
    break;
  }
  case UpdateKind::Prop: {
    assert(U.Joint && "MH update carries its restricted joint");
    std::string LLName = strFormat("llp_%d", Index);
    Eng.addProc(
        genLikelihoodProc(LLName, U.Joint->Factors, "ll_" + LLName));
    CU.LLProc = LLName;
    break;
  }
  }

  // Factor-cache contract: an accepted move dirties the target sites'
  // blankets, minus whatever the update's own scoring pass refreshed.
  if (DG) {
    std::vector<int> Blanket = DG->blanketOf(CU.U.Vars);
    std::set_difference(Blanket.begin(), Blanket.end(),
                        CU.RefreshIds.begin(), CU.RefreshIds.end(),
                        std::back_inserter(CU.DirtyIds));
  }
  return CU;
}

Result<std::unique_ptr<MCMCProgram>>
Compiler::compile(const std::string &ModelSrc, const CompileOptions &Opts,
                  const std::vector<Value> &HyperArgs, const Env &Data) {
  ensureGlobalTelemetry(Opts.Telemetry);
  Recorder &Rec = Recorder::global();
  ScopedSpan TotalSpan(Rec, "compile/total", "compile");

  // Robustness configuration, resolved once per compile: guardrail env
  // overrides fold into the program's options, and the fault-injection
  // spec (env wins over the field) arms the process-wide injector.
  CompileOptions Resolved = Opts;
  Resolved.Reduce = resolveReduceMode(Opts);
  AUGUR_RETURN_IF_ERROR(robust::applyGuardrailEnv(Resolved.Guard));
  diag::DiagOptions::applyEnv(Resolved.Diag);
  AUGUR_RETURN_IF_ERROR(
      robust::FaultInjector::global().configureFromOptions(Opts.FaultSpec));

  // Frontend: parse + typecheck against the concrete argument types.
  uint64_t PhaseT0 = Recorder::nowNanos();
  AUGUR_ASSIGN_OR_RETURN(Model M, parseModel(ModelSrc));
  if (HyperArgs.size() != M.Hypers.size())
    return Status::error(strFormat(
        "model has %zu formals but %zu arguments were supplied",
        M.Hypers.size(), HyperArgs.size()));
  std::map<std::string, Type> HyperTypes;
  for (size_t I = 0; I < HyperArgs.size(); ++I)
    HyperTypes.emplace(M.Hypers[I], HyperArgs[I].type());
  size_t NumDecls = M.Decls.size();
  AUGUR_ASSIGN_OR_RETURN(TypedModel TM,
                         typeCheck(std::move(M), HyperTypes));
  if (Rec.enabled()) {
    Rec.span("compile/frontend", "compile", PhaseT0, Recorder::nowNanos(),
             {{"decls", double(NumDecls)}});
    Rec.count("compile/ir/decls", NumDecls);
  }

  auto Prog = std::make_unique<MCMCProgram>();
  Prog->Opts = Resolved;

  // Density IL: the model as a product of log-density factors.
  PhaseT0 = Recorder::nowNanos();
  Prog->DM = lowerToDensity(std::move(TM));
  if (Rec.enabled()) {
    Rec.span("compile/density", "compile", PhaseT0, Recorder::nowNanos(),
             {{"factors", double(Prog->DM.Joint.Factors.size())}});
    Rec.count("compile/ir/factors", Prog->DM.Joint.Factors.size());
  }

  // Kernel IL: user schedule or the selection heuristic.
  PhaseT0 = Recorder::nowNanos();
  if (!Opts.UserSchedule.empty()) {
    AUGUR_ASSIGN_OR_RETURN(
        Prog->Sched, parseUserSchedule(Prog->DM, Opts.UserSchedule));
  } else {
    AUGUR_ASSIGN_OR_RETURN(Prog->Sched, heuristicSchedule(Prog->DM));
  }
  if (Rec.enabled()) {
    Rec.span("compile/kernel", "compile", PhaseT0, Recorder::nowNanos(),
             {{"updates", double(Prog->Sched.Updates.size())}});
    Rec.count("compile/ir/updates", Prog->Sched.Updates.size());
  }

  // Execution engine and initial environment.
  if (Opts.Tgt == CompileOptions::Target::GpuSim)
    Prog->Eng = std::make_unique<GpuSimEngine>(Opts.Seed, Opts.Device,
                                               Opts.Blk);
  else if (Opts.NativeCpu)
    Prog->Eng = std::make_unique<NativeEngine>(Opts.Seed);
  else
    Prog->Eng = std::make_unique<InterpEngine>(Opts.Seed);
  if (Opts.Tgt == CompileOptions::Target::Cpu && Opts.Par.NumThreads != 1)
    Prog->Eng->setParallel(&ThreadPool::global(Opts.Par.resolvedThreads()),
                           Opts.Par);
  // Vector plan policy, resolved once per compile. Fault injection
  // counts as armed from either the options field or the environment:
  // the injector's probes live on the scalar interpreter paths, so
  // Auto must not route hot procs around them.
  bool FaultsArmed = !Opts.FaultSpec.empty();
  if (const char *FS = std::getenv("AUGUR_FAULT_SPEC"))
    FaultsArmed = FaultsArmed || FS[0] != '\0';
  Prog->Eng->setSimd(simd::resolveEnabled(
      Opts.Simd, Opts.Tgt == CompileOptions::Target::Cpu, FaultsArmed));
  std::string ChainPrefix = strFormat("chain%d/", Opts.ChainIndex);
  Prog->Eng->setTelemetry(&Rec, ChainPrefix + "exec/");
  Prog->SweepLJKey = ChainPrefix + "sweep/log_joint";
  Prog->SweepCountKey = ChainPrefix + "sweep/count";
  Env &E = Prog->Eng->env();
  const Model &Parsed = Prog->DM.TM.M;
  for (size_t I = 0; I < HyperArgs.size(); ++I)
    E[Parsed.Hypers[I]] = HyperArgs[I];
  for (const auto &KV : Data) {
    const ModelDecl *Decl = Parsed.findDecl(KV.first);
    if (!Decl || Decl->Role != VarRole::Data)
      return Status::error(strFormat(
          "'%s' is not a data variable of this model", KV.first.c_str()));
    E[KV.first] = KV.second;
  }
  for (const auto &Name : Parsed.dataNames())
    if (!E.count(Name))
      return Status::error(
          strFormat("missing data for '%s'", Name.c_str()));

  // Factor dependency analysis + contribution table (CPU target). The
  // slice buffers and their evaluator procedures exist in BOTH cache
  // modes so the compiled program is identical with caching on or off;
  // IncrementalFC only decides whether a FactorCache is attached.
  size_t NumProcs = 1; // ll_joint
  if (Opts.Tgt == CompileOptions::Target::Cpu) {
    PhaseT0 = Recorder::nowNanos();
    Prog->DG = std::make_unique<DepGraph>(Prog->DM);
    EvalCtx ExtCtx(E);
    for (size_t I = 0; I < Prog->DM.Joint.Factors.size(); ++I) {
      const Factor &F = Prog->DM.Joint.Factors[I];
      // Pre-allocate the slice buffer with its real extent: the native
      // backend would otherwise default missing outputs to scalars.
      int64_t Extent =
          F.Loops.empty() ? 1 : evalIntExpr(F.Loops[0].Hi, ExtCtx);
      E[fcSliceName(int(I))] = Value::realVec(
          BlockedReal::flat(std::max<int64_t>(Extent, 1), 0.0));
      Prog->Eng->addProc(
          genFactorSliceProc(fcProcName(int(I)), F, fcSliceName(int(I))));
      ++NumProcs;
    }
    if (Rec.enabled()) {
      Rec.span("compile/depgraph", "compile", PhaseT0, Recorder::nowNanos(),
               {{"factors", double(Prog->DM.Joint.Factors.size())},
                {"mean_blanket", Prog->DG->meanBlanketSize()}});
      for (const auto &Decl : Prog->DM.TM.M.Decls)
        if (Decl.Role == VarRole::Param)
          Rec.observe(ChainPrefix + "fc/blanket_size",
                      double(Prog->DG->blanket(Decl.Name).size()));
    }
  }

  // Lower every base update to Low++ and register the procedures.
  PhaseT0 = Recorder::nowNanos();
  int Index = 0;
  for (const auto &U : Prog->Sched.Updates) {
    AUGUR_ASSIGN_OR_RETURN(
        CompiledUpdate CU,
        compileUpdate(Prog->DM, U, Opts, *Prog->Eng, Index++,
                      Prog->DG.get()));
    CU.Keys.build(ChainPrefix, CU.U);
    NumProcs += (CU.GibbsProc.empty() ? 0 : 1) +
                (CU.LLProc.empty() ? 0 : 1) + (CU.GradProc.empty() ? 0 : 1);
    Prog->Updates.push_back(std::move(CU));
  }

  // Whole-model likelihood for diagnostics and acceptance checks.
  Prog->Eng->addProc(genLikelihoodProc("ll_joint", Prog->DM.Joint.Factors,
                                       "ll_ll_joint"));
  if (Rec.enabled()) {
    Rec.span("compile/lowpp", "compile", PhaseT0, Recorder::nowNanos(),
             {{"procs", double(NumProcs)}});
    Rec.count("compile/ir/procs", NumProcs);
  }

  // Contention-aware reduction planning (DESIGN.md section 16): with
  // the pool armed, decide atomic vs. map-reduce per AtmPar site now
  // that all procedures are registered and extents have their runtime
  // values. Sequential programs skip the pass — their accumulations
  // are plain stores with nothing to privatize.
  if (Opts.Tgt == CompileOptions::Target::Cpu &&
      Opts.Par.NumThreads != 1) {
    PhaseT0 = Recorder::nowNanos();
    CpuReduceOptions RO;
    RO.Mode = Resolved.Reduce;
    CpuReduceReport RR =
        static_cast<InterpEngine *>(Prog->Eng.get())
            ->planReductions(RO, &Prog->DM.TM);
    if (Rec.enabled()) {
      Rec.span("compile/reduce", "compile", PhaseT0, Recorder::nowNanos(),
               {{"mapreduce", double(RR.MapReduceSites)},
                {"atomic", double(RR.AtomicSites)}});
      Rec.count(ChainPrefix + "exec/reduce_sites_atomic",
                uint64_t(RR.AtomicSites));
      Rec.count(ChainPrefix + "exec/reduce_sites_mapreduce",
                uint64_t(RR.MapReduceSites));
      Rec.count(ChainPrefix + "exec/reduce_sites_demoted",
                uint64_t(RR.DemotedSites));
      Rec.count(ChainPrefix + "exec/reduce_loops_commuted",
                uint64_t(RR.CommutedLoops));
      Rec.count(ChainPrefix + "exec/reduce_plan_bytes",
                uint64_t(RR.PartialBytes));
    }
  }

  if (Prog->DG && incrementalFCEnabled(Opts)) {
    std::vector<FactorCache::Entry> Entries;
    for (size_t I = 0; I < Prog->DM.Joint.Factors.size(); ++I)
      Entries.push_back({fcProcName(int(I)), fcSliceName(int(I)),
                         /*Partial=*/0.0, /*Dirty=*/true});
    Prog->Cache =
        std::make_unique<FactorCache>(*Prog->Eng, std::move(Entries));
    Prog->FCEvalKey = ChainPrefix + "fc/factors_evaluated";
    Prog->FCHitsKey = ChainPrefix + "fc/cache_hits";
    Prog->FCBypKey = ChainPrefix + "fc/byproduct_refreshes";
    Prog->FCMaintKey = ChainPrefix + "fc/maint_ns";
  }

  // Observability plane: one streaming accumulator per model parameter
  // (in declaration order, capped by DiagOptions::MaxVars). Both
  // backends run MCMCProgram::step(), so the chain<k>/diag/* key set
  // is identical interp-vs-native by construction.
  if (Resolved.Diag.Enabled) {
    Prog->Diag = std::make_unique<diag::ChainDiag>(
        Resolved.Diag, Parsed.paramNames(), Opts.ChainIndex);
    Prog->DiagDivKey = ChainPrefix + "diag/divergences";
    Prog->DiagRetryKey = ChainPrefix + "diag/guard_retries";
    Prog->DiagFallKey = ChainPrefix + "diag/guard_fallbacks";
    Prog->DiagQuarKey = ChainPrefix + "diag/guard_quarantines";
  }
  return Prog;
}
