//===- perfbench/Probes.cpp -----------------------------------*- C++ -*-===//

#include "Probes.h"

#include "Harness.h"
#include "cgen/Native.h"
#include "density/DepGraph.h"
#include "density/Frontend.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "lowpp/Reify.h"
#include "parallel/ThreadPool.h"
#include "serve/Protocol.h"

using namespace augur;
using namespace perfbench;

namespace {

/// Forwards to a program's engine and counts procedure runs by name, so
/// the probes can count gradient evaluations without touching src/.
class CountingEngine : public Engine {
public:
  explicit CountingEngine(Engine &E) : Inner(E) {}
  void runProc(const std::string &Name) override {
    ++Runs[Name];
    Inner.runProc(Name);
  }
  Env &env() override { return Inner.env(); }
  RNG &rng() override { return Inner.rng(); }
  void addProc(LowppProc P) override { Inner.addProc(std::move(P)); }
  bool hasProc(const std::string &Name) const override {
    return Inner.hasProc(Name);
  }
  int procVectorized(const std::string &Name) override {
    return Inner.procVectorized(Name);
  }

  std::map<std::string, uint64_t> Runs;

private:
  Engine &Inner;
};

std::string updateKey(const CompiledUpdate &CU) {
  if (CU.U.Kind == UpdateKind::Grad || CU.U.Kind == UpdateKind::Nuts)
    return "hmc";
  std::string K;
  for (const auto &V : CU.U.Vars)
    K += (K.empty() ? "" : "_") + V;
  return K;
}

double msSince(uint64_t T0) { return double(nowNs() - T0) / 1e6; }

} // namespace

Result<CompilePhases>
perfbench::timeCompilePhases(const std::string &Src, const CompileOptions &O,
                             const std::vector<Value> &Args, const Env &Data,
                             int Reps) {
  std::vector<double> Fe, De, Ke, Lo, To;
  for (int R = 0; R < Reps; ++R) {
    uint64_t T0 = nowNs();
    Model M;
    TypedModel TM;
    {
      Span S("lang.frontend");
      AUGUR_ASSIGN_OR_RETURN(M, parseModel(Src));
      std::map<std::string, Type> HyperTypes;
      for (size_t I = 0; I < Args.size() && I < M.Hypers.size(); ++I)
        HyperTypes.emplace(M.Hypers[I], Args[I].type());
      AUGUR_ASSIGN_OR_RETURN(TM, typeCheck(std::move(M), HyperTypes));
    }
    Fe.push_back(msSince(T0));

    T0 = nowNs();
    DensityModel DM;
    std::unique_ptr<DepGraph> DG;
    {
      Span S("density.lower");
      DM = lowerToDensity(std::move(TM));
      DG = std::make_unique<DepGraph>(DM);
    }
    De.push_back(msSince(T0));

    T0 = nowNs();
    KernelSchedule Sched;
    {
      Span S("kernel.schedule");
      if (O.UserSchedule.empty()) {
        AUGUR_ASSIGN_OR_RETURN(Sched, heuristicSchedule(DM));
      } else {
        AUGUR_ASSIGN_OR_RETURN(Sched, parseUserSchedule(DM, O.UserSchedule));
      }
    }
    Ke.push_back(msSince(T0));

    // Procedure generation needs the arguments and data bound, exactly
    // as Compiler::compile binds them before lowering the updates.
    InterpEngine Eng(O.Seed);
    const Model &Parsed = DM.TM.M;
    for (size_t I = 0; I < Args.size() && I < Parsed.Hypers.size(); ++I)
      Eng.env()[Parsed.Hypers[I]] = Args[I];
    for (const auto &KV : Data)
      Eng.env()[KV.first] = KV.second;
    T0 = nowNs();
    {
      Span S("lowpp.procgen");
      int Index = 0;
      for (const auto &U : Sched.Updates) {
        Result<CompiledUpdate> CU =
            Compiler::compileUpdate(DM, U, O, Eng, Index++, DG.get());
        if (!CU.ok())
          return CU.status();
      }
      Eng.addProc(genLikelihoodProc("ll_joint", DM.Joint.Factors,
                                    "ll_ll_joint"));
    }
    Lo.push_back(msSince(T0));

    T0 = nowNs();
    {
      Span S("compile.total");
      Result<std::unique_ptr<MCMCProgram>> P =
          Compiler::compile(Src, O, Args, Data);
      if (!P.ok())
        return P.status();
    }
    To.push_back(msSince(T0));
  }
  return CompilePhases{median(Fe), median(De), median(Ke), median(Lo),
                       median(To)};
}

void perfbench::onChainLane(const CompileOptions &O,
                            const std::function<void()> &Fn) {
  if (O.Par.NumThreads == 1) {
    Fn();
    return;
  }
  // Two one-element chunks force a real pool region; chunk 0 lands on a
  // lane, where nested parallel loops run inline as they do for a chain.
  ThreadPool::global(O.Par.resolvedThreads())
      .parallelFor(0, 2, 1, [&](int64_t Lo, int64_t, int) {
        if (Lo == 0)
          Fn();
      });
}

UpdateProbe perfbench::probeUpdates(MCMCProgram &P, int Sweeps) {
  CountingEngine Counting(P.engine());
  McmcCtx Ctx;
  Ctx.Eng = &Counting;
  Ctx.DM = &P.densityModel();
  Ctx.Cache = P.factorCache();
  Ctx.Guard = &P.options().Guard;
  std::map<std::string, std::vector<double>> Times;
  uint64_t Proposed0 = 0, Accepted0 = 0;
  for (const auto &CU : P.updates()) {
    Proposed0 += CU.Stats.Proposed;
    Accepted0 += CU.Stats.Accepted;
  }
  for (int S = 0; S < Sweeps; ++S)
    for (auto &CU : P.updates()) {
      uint64_t T0 = nowNs();
      {
        Span Sp("mcmc.update." + updateKey(CU));
        if (!runBaseUpdate(Ctx, CU).ok())
          continue;
      }
      Times[updateKey(CU)].push_back(msSince(T0));
    }
  UpdateProbe Out;
  uint64_t Grad = 0, Proposed = 0, Accepted = 0;
  for (const auto &CU : P.updates()) {
    if (!CU.GradProc.empty())
      Grad += Counting.Runs[CU.GradProc];
    Proposed += CU.Stats.Proposed;
    Accepted += CU.Stats.Accepted;
  }
  for (auto &KV : Times)
    Out.UpdateMs[KV.first] = median(KV.second);
  Out.GradEvalsPerSweep = Sweeps ? double(Grad) / Sweeps : 0.0;
  if (Proposed > Proposed0)
    Out.AcceptRate =
        double(Accepted - Accepted0) / double(Proposed - Proposed0);
  return Out;
}

SweepProbe perfbench::probeSweeps(MCMCProgram &P, int Sweeps) {
  SweepProbe Out;
  uint64_t T0 = nowNs();
  {
    Span S("cgen.first_sweep");
    (void)P.step();
  }
  Out.FirstMs = msSince(T0);
  std::vector<double> Steps, LJ, Obs;
  FactorCache *FC = P.factorCache();
  uint64_t Hits0 = FC ? FC->CacheHits : 0;
  uint64_t Evals0 = FC ? FC->FactorsEvaluated : 0;
  diag::ChainDiag Diag(diag::DiagOptions{}, P.densityModel().TM.M.paramNames(),
                       0);
  for (int S = 0; S < Sweeps; ++S) {
    T0 = nowNs();
    {
      Span Sp("mcmc.sweep");
      (void)P.step();
    }
    Steps.push_back(msSince(T0));
    T0 = nowNs();
    {
      Span Sp("exec.logjoint");
      (void)P.logJoint();
    }
    LJ.push_back(double(nowNs() - T0) / 1e3);
    T0 = nowNs();
    {
      Span Sp("diag.observe");
      Diag.observeSweep(P.state());
    }
    Obs.push_back(double(nowNs() - T0) / 1e3);
  }
  Out.SteadyMs = median(Steps);
  Out.LogJointUs = median(LJ);
  Out.ObserveUs = median(Obs);
  if (FC) {
    uint64_t H = FC->CacheHits - Hits0, E = FC->FactorsEvaluated - Evals0;
    Out.FcHitRatio = H + E ? double(H) / double(H + E) : 0.0;
  }
  if (auto *NE = dynamic_cast<NativeEngine *>(&P.engine())) {
    std::vector<std::string> Procs;
    for (const auto &CU : P.updates())
      for (const std::string *N : {&CU.GibbsProc, &CU.LLProc, &CU.GradProc})
        if (!N->empty())
          Procs.push_back(*N);
    int Native = 0;
    for (const auto &N : Procs)
      Native += NE->isNative(N) ? 1 : 0;
    Out.NativeShare = Procs.empty() ? 0.0 : double(Native) / Procs.size();
  }
  return Out;
}

double perfbench::frameEncodeUs(MCMCProgram &P, int Reps) {
  std::vector<std::string> Names = P.densityModel().TM.M.paramNames();
  std::vector<const Value *> Row;
  for (const auto &N : Names)
    Row.push_back(&P.state().at(N));
  std::vector<double> Us;
  size_t Bytes = 0;
  for (int R = 0; R < Reps; ++R) {
    uint64_t T0 = nowNs();
    {
      Span S("serve.frame_encode");
      Bytes += serve::drawFrame(1, 0, uint64_t(R), Names, Row, 0.0)
                   .dump()
                   .size();
    }
    Us.push_back(double(nowNs() - T0) / 1e3);
  }
  return Bytes ? median(Us) : 0.0;
}
