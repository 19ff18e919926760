//===- perfbench/Batch.cpp ------------------------------------*- C++ -*-===//

#include "Batch.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "diag/ChainDiag.h"
#include "support/Format.h"
#include "support/PhiloxRNG.h"

using namespace augur;
using namespace perfbench;

namespace {

/// Timings of one job: Infer::compile + Infer::sampleChains.
struct JobStats {
  std::string Error; ///< non-empty when the job failed
  double SetupS = 0;  ///< compile start -> first draw, plus sequential gaps
  double SampleS = 0; ///< the rest of the time up to the last draw
  double WallS = 0;   ///< compile start -> sampleChains returned
  int64_t Draws = 0;
  double EssMin = 0;  ///< min over monitored vars of chain-summed ESS
  std::vector<double> GapsMs; ///< consecutive draws of one chain
  std::vector<double> ChainS; ///< first -> last draw, per chain
  std::vector<SampleSet> Sets;
  uint64_t Programs = 0; ///< Compiler::compile calls (traced jobs only)
};

/// False when the monitored summary of \p Var (diag::diagScalar, the
/// mean over components) is constant by construction, as for LDA's
/// simplex rows: ESS is undefined there and the library clamps it to an
/// arbitrary end of [1, draws].
bool varies(const SampleSet &S, const std::string &Var) {
  auto It = S.Draws.find(Var);
  if (It == S.Draws.end() || It->second.empty())
    return false;
  double Lo = diag::diagScalar(It->second.front()), Hi = Lo;
  for (const auto &V : It->second) {
    double X = diag::diagScalar(V);
    Lo = std::min(Lo, X);
    Hi = std::max(Hi, X);
  }
  return Hi - Lo > 1e-9 * std::max(1.0, std::fabs(Hi));
}

JobStats runJob(const BatchWorkload &W, uint64_t Seed, uint64_t JobId,
                bool Traced) {
  JobStats J;
  CompileOptions O = W.Opts;
  O.Seed = Seed;
  if (Traced) {
    // The library's own recorder counts compile/total spans; per-sweep
    // log-joint telemetry stays off (the daemon's setting).
    O.Telemetry.Enabled = true;
    O.Telemetry.SweepLogJoint = false;
    Recorder::global().reset();
  }
  const int Chains = std::max(1, O.Par.Chains);
  std::vector<std::vector<uint64_t>> Times(static_cast<size_t>(Chains));
  std::atomic<int> NextSlot{0};
  int64_t SampleSpan = -1;

  Infer A(W.Source);
  A.setCompileOpt(O);
  Span JobSpan("bench.job", JobId);
  const uint64_t T0 = nowNs();
  Status St = [&] {
    Span S("api.compile", JobId);
    return A.compile(W.Args, W.Data);
  }();
  if (!St.ok()) {
    J.Error = St.message();
    return J;
  }
  SampleOptions SO;
  SO.NumSamples = W.Draws;
  SO.TrackLogJoint = true;
  // Chains report draws without their index; a chain runs start to end
  // on one thread, so its first draw claims a slot for that thread.
  SO.OnDraw = [&](uint64_t Index, const std::vector<std::string> &,
                  const std::vector<const Value *> &, double) -> Status {
    thread_local int Slot = 0;
    if (Index == 0)
      Slot = NextSlot.fetch_add(1);
    if (Slot >= Chains)
      return Status::error("more draw streams than chains");
    std::vector<uint64_t> &T = Times[size_t(Slot)];
    uint64_t Now = nowNs();
    if (!T.empty())
      Tracer::get().add("mcmc.sweep", T.back(), Now, SampleSpan,
                        JobId * 64 + uint64_t(Slot));
    T.push_back(Now);
    return Status::success();
  };
  Result<std::vector<SampleSet>> Sets = [&] {
    Span S("api.sampleChains", JobId);
    SampleSpan = currentSpan();
    return A.sampleChains(SO);
  }();
  J.WallS = double(nowNs() - T0) / 1e9;
  if (!Sets.ok()) {
    J.Error = Sets.message();
    return J;
  }
  J.Sets = Sets.take();

  std::vector<int> Ord(static_cast<size_t>(Chains));
  std::iota(Ord.begin(), Ord.end(), 0);
  for (int C : Ord)
    if (Times[size_t(C)].empty()) {
      J.Error = "a chain delivered no draws";
      return J;
    }
  std::sort(Ord.begin(), Ord.end(), [&](int A, int B) {
    return Times[size_t(A)].front() < Times[size_t(B)].front();
  });
  // Set-up ends at the first draw; chains that run one after another
  // each add their own lead time (compile of native code, first sweep).
  double Setup = double(Times[size_t(Ord[0])].front() - T0) / 1e9;
  for (size_t I = 1; I < Ord.size(); ++I) {
    uint64_t First = Times[size_t(Ord[I])].front();
    uint64_t PrevLast = Times[size_t(Ord[I - 1])].back();
    if (First > PrevLast)
      Setup += double(First - PrevLast) / 1e9;
  }
  uint64_t Last = 0;
  for (const auto &T : Times) {
    Last = std::max(Last, T.back());
    J.Draws += int64_t(T.size());
    J.ChainS.push_back(double(T.back() - T.front()) / 1e9);
    for (size_t I = 1; I < T.size(); ++I)
      J.GapsMs.push_back(double(T[I] - T[I - 1]) / 1e6);
  }
  J.SetupS = Setup;
  J.SampleS = double(Last - T0) / 1e9 - Setup;

  std::map<std::string, double> EssSum;
  for (const auto &S : J.Sets)
    for (const auto &[Var, E] : S.Ess)
      if (varies(S, Var))
        EssSum[Var] += E;
  J.EssMin = EssSum.empty() ? 0.0 : EssSum.begin()->second;
  for (const auto &KV : EssSum)
    J.EssMin = std::min(J.EssMin, KV.second);

  if (Traced)
    for (const auto &E : Recorder::global().traceEvents())
      if (E.Name == "compile/total")
        ++J.Programs;
  return J;
}

/// The end-to-end metrics over a set of jobs.
struct Summary {
  double SetupS = 0, DrawsPerS = 0, EssPerS = 0, P50 = 0, P95 = 0,
         P95Pct = 0, Rps = 0;
  size_t Gaps = 0;
};

Summary summarize(const std::vector<JobStats> &Jobs) {
  Summary S;
  std::vector<double> Setups, Gaps;
  double Sample = 0, Wall = 0, RateDraws = 0, AllDraws = 0, Ess = 0;
  for (const auto &J : Jobs) {
    Setups.push_back(J.SetupS);
    Sample += J.SampleS;
    Wall += J.WallS;
    // The first draw of each chain belongs to set-up.
    RateDraws += double(J.Draws) - double(J.Sets.size());
    AllDraws += double(J.Draws);
    Ess += J.EssMin;
    Gaps.insert(Gaps.end(), J.GapsMs.begin(), J.GapsMs.end());
  }
  S.SetupS = median(Setups);
  S.DrawsPerS = Sample > 0 ? RateDraws / Sample : 0.0;
  S.EssPerS = Sample > 0 ? Ess / Sample : 0.0;
  S.P50 = median(Gaps);
  S.P95 = tailLatency(Gaps, S.P95Pct);
  S.Rps = Wall > 0 ? AllDraws / Wall : 0.0;
  S.Gaps = Gaps.size();
  return S;
}

Result<std::unique_ptr<MCMCProgram>> makeProbe(const BatchWorkload &W,
                                               uint64_t Seed) {
  CompileOptions O = W.Opts;
  O.Seed = Seed;
  AUGUR_ASSIGN_OR_RETURN(std::unique_ptr<MCMCProgram> P,
                         Compiler::compile(W.Source, O, W.Args, W.Data));
  AUGUR_RETURN_IF_ERROR(P->init());
  return P;
}

} // namespace

void perfbench::runBatch(const RunOptions &RO, BatchWorkload &W,
                         NativeDirs &Dirs, Report &R) {
  const double Start = nowSec();
  uint64_t JobId = 0;
  int Failures = 0;
  auto RunJobs = [&](std::vector<JobStats> &Into, bool TraceOn, double Until,
                     size_t MinJobs) {
    while ((Into.size() < MinJobs || nowSec() < Until) && Failures < 3) {
      JobStats J = runJob(W, philoxMix(RO.Seed, JobId), JobId, TraceOn);
      ++R.Attempted;
      if (!J.Error.empty()) {
        ++R.Failed;
        ++Failures;
        R.fail(strFormat("job %llu failed: %s", (unsigned long long)JobId,
                         J.Error.c_str()));
      } else {
        std::string Why = W.Check(J.Sets);
        if (!Why.empty())
          R.fail(strFormat("job %llu output check: %s",
                           (unsigned long long)JobId, Why.c_str()));
        // Keep the summaries, drop the draws: peak memory must not grow
        // with the number of jobs that fit in the run.
        for (auto &S : J.Sets)
          S.Draws.clear();
        Into.push_back(std::move(J));
      }
      ++JobId;
    }
  };

  std::vector<JobStats> Plain, Traced;
  RunJobs(Plain, false, Start + (RO.Trace ? 0.35 : 1.0) * RO.Seconds,
          RO.Trace ? 2 : 3);
  if (Plain.empty())
    return;
  Summary P = summarize(Plain);
  std::string Rates;
  for (const auto &J : Plain)
    Rates += strFormat(" %.1f", (double(J.Draws) - double(J.Sets.size())) /
                                    J.SampleS);
  R.note("draws/s per job:" + Rates);
  R.note(strFormat("%zu jobs x %d chains x %d draws; latency sample = %zu "
                   "draw gaps (tail percentile p%.1f)",
                   Plain.size(), std::max(1, W.Opts.Par.Chains), W.Draws,
                   P.Gaps, P.P95Pct));

  if (W.ExpectNative && Dirs.created() == 0)
    R.fail("hollow run: the native workload started no host-cc build");

  if (!RO.Trace) {
    if (W.ExpectNative) {
      // Anti-hollow guard: a native build can fail over to the
      // interpreter silently, so check that procedures really ran native.
      Result<std::unique_ptr<MCMCProgram>> Probe =
          makeProbe(W, philoxMix(RO.Seed, 0xBEEF));
      double Share = Probe.ok() ? probeSweeps(**Probe, 0).NativeShare : 0.0;
      if (Share <= 0.0)
        R.fail("hollow run: no procedure of the native workload ran native");
    }
    R.add("setup_s", P.SetupS, "s");
    R.add("draws_per_s", P.DrawsPerS, "draws/s");
    R.add("ess_per_s", P.EssPerS, "1/s");
    R.add("req_p50_ms", P.P50, "ms");
    R.add("req_p95_ms", P.P95, "ms");
    R.add("throughput_rps", P.Rps, "req/s");
    R.add("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }

  Tracer::get().enable();
  RunJobs(Traced, true, nowSec() + 0.35 * RO.Seconds, 2);
  if (Traced.empty())
    return;
  Summary T = summarize(Traced);
  const double Jobs = double(Plain.size() + Traced.size());
  Layers L;
  L.set("trace.overhead_pct",
        P.DrawsPerS > 0 ? 100.0 * (P.DrawsPerS - T.DrawsPerS) / P.DrawsPerS
                        : 0.0);
  double Programs = 0;
  for (const auto &J : Traced)
    Programs += double(J.Programs);
  L.set("compile.programs", Programs / double(Traced.size()));
  L.set("cgen.cc_builds", double(Dirs.created()) / Jobs);
  L.set("cgen.leaked_dirs", double(Dirs.leaked()) / Jobs);
  std::vector<double> Imbalance;
  for (const auto *Set : {&Plain, &Traced})
    for (const auto &J : *Set) {
      auto [Lo, Hi] = std::minmax_element(J.ChainS.begin(), J.ChainS.end());
      if (*Lo > 0)
        Imbalance.push_back(*Hi / *Lo);
    }
  L.set("parallel.chain_imbalance", median(Imbalance));
  double Vec = 0, VecN = 0;
  for (const auto &S : Traced.back().Sets)
    for (const auto &KV : S.VectorizedUpdates) {
      Vec += KV.second;
      VecN += 1;
    }
  L.set("exec.vector_plan_share", VecN > 0 ? Vec / VecN : 0.0);

  Result<CompilePhases> CP =
      timeCompilePhases(W.Source, W.Opts, W.Args, W.Data, 5);
  if (!CP.ok()) {
    R.fail("compile-phase probe: " + CP.message());
    return;
  }
  L.set("lang.frontend_ms", CP->FrontendMs);
  L.set("density.lower_ms", CP->DensityMs);
  L.set("kernel.schedule_ms", CP->KernelMs);
  L.set("lowpp.procgen_ms", CP->LowppMs);
  L.set("compile.total_ms", CP->TotalMs);

  Result<std::unique_ptr<MCMCProgram>> Probe =
      makeProbe(W, philoxMix(RO.Seed, 0xBEEF));
  if (!Probe.ok()) {
    R.fail("probe program: " + Probe.message());
    return;
  }
  MCMCProgram &Prog = **Probe;
  SweepProbe SP;
  UpdateProbe UP;
  double FrameUs = 0;
  onChainLane(Prog.options(), [&] {
    SP = probeSweeps(Prog, 6);
    UP = probeUpdates(Prog, 6);
    FrameUs = frameEncodeUs(Prog, 20);
  });
  if (W.ExpectNative && SP.NativeShare <= 0.0)
    R.fail("hollow run: no procedure of the native workload ran native");
  L.set("cgen.cc_ms", SP.FirstMs - SP.SteadyMs);
  L.set("cgen.native_proc_share", SP.NativeShare);
  L.set("exec.fc_logjoint_us", SP.LogJointUs);
  L.set("exec.fc_hit_ratio", SP.FcHitRatio);
  L.set("diag.observe_us", SP.ObserveUs);
  for (const auto &[Key, Ms] : UP.UpdateMs) {
    L.set("mcmc.update_ms." + Key, Ms);
    L.set("exec.ns_per_elem." + Key, Ms * 1e6 / W.Elems);
  }
  L.set("mcmc.accept_rate", UP.AcceptRate);
  L.set("mcmc.grad_evals_per_sweep", UP.GradEvalsPerSweep);
  L.set("serve.frame_encode_us", FrameUs);
  if (W.ExtraLayers)
    W.ExtraLayers(Prog, UP, L);
  R.note(strFormat("traced: %zu jobs; untraced %.2f draws/s, traced %.2f "
                   "draws/s",
                   Traced.size(), P.DrawsPerS, T.DrawsPerS));
  for (const auto &[Layer, Ms] : Tracer::get().selfMsByLayer())
    R.note(strFormat("self time %-8s %12.2f ms", Layer.c_str(), Ms));
  L.emit(R);
}
