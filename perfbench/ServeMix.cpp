//===- perfbench/ServeMix.cpp - Workload serve-mix ------------*- C++ -*-===//
///
/// \file
/// An in-process serve::Server with default options (isolation Native,
/// diagnostics on) and four workers on TCP loopback, driven by a closed
/// loop of four client connections, one thread each, with client
/// retries off. Each client cycles through [gmm, lda, gmm, hlr-native]
/// from its own offset, every request with a fresh seed and 30 draws.
/// gmm and lda run in-process behind the per-artifact mutex; hlr-native
/// (HLR 500x12 on the native backend) is forked into sandbox workers.
/// Lock, queue, sandbox and cache effects show here and nowhere else.
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "Probes.h"
#include "Workloads.h"
#include "api/Diagnostics.h"
#include "diag/ChainDiag.h"
#include "models/PaperModels.h"
#include "serve/Client.h"
#include "serve/Sandbox.h"
#include "serve/Server.h"
#include "serve/Workloads.h"
#include "support/Format.h"
#include "support/PhiloxRNG.h"

using namespace augur;
using namespace augur::serve;
using namespace perfbench;

namespace {

constexpr int NumClients = 4, NumDraws = 30, SetupReps = 3;
enum ModelId { Gmm, Lda, Hlr, NumModels };
const char *const ModelNames[NumModels] = {"gmm", "lda", "hlr-native"};
/// Each client's request cycle; the mix weights follow from it.
const ModelId Cycle[4] = {Gmm, Lda, Gmm, Hlr};
const double MixWeight[NumModels] = {0.5, 0.25, 0.25};

/// HLR 500x12 on the native backend: the sandboxed model of the mix.
SampleRequest hlrRequest(uint64_t DataSeed) {
  HlrData H = makeHlrData(500, 12, DataSeed);
  SampleRequest R;
  R.Model = models::HLR;
  R.NativeCpu = true;
  R.Args = std::move(H.Args);
  R.Data = std::move(H.Data);
  return R;
}

/// The mix's artifacts: the standard serve/Workloads gmm and lda
/// requests and a fixed HLR dataset. The seed varies only the request
/// seeds, so runs differ in their chains, not in how hard the data are
/// (ess_per_s would otherwise move with the dataset).
std::vector<SampleRequest> makeMix(uint64_t Seed) {
  std::vector<SampleRequest> Mix = {gmmRequest(), ldaRequest(),
                                    hlrRequest(0x41A)};
  for (size_t M = 0; M < Mix.size(); ++M) {
    Mix[M].NumSamples = NumDraws;
    Mix[M].Seed = philoxMix(Seed, 100 + M);
  }
  return Mix;
}

/// The compile options the daemon uses for a request's artifact.
CompileOptions servedOptions(const SampleRequest &SR) {
  CompileOptions CO;
  CO.NativeCpu = SR.NativeCpu;
  CO.UserSchedule = SR.Schedule;
  CO.Seed = SR.Seed;
  CO.Par.NumThreads = SR.Threads;
  CO.Diag.Enabled = true;
  return CO;
}

/// Minimum over recorded parameters of the ESS of a served chain.
double minEss(const SampleSet &S) {
  double Min = -1;
  for (const auto &[Var, Vals] : S.Draws) {
    std::vector<double> Trace;
    for (const auto &V : Vals)
      Trace.push_back(diag::diagScalar(V));
    double E = effectiveSampleSize(Trace);
    if (std::isfinite(E) && (Min < 0 || E < Min))
      Min = E;
  }
  return Min < 0 ? 0.0 : Min;
}

struct RequestRec {
  ModelId M = Gmm;
  double LatencyMs = 0, ServerMs = 0, Ess = 0;
  int64_t Draws = 0;
};

/// One closed-loop load phase against a running daemon.
struct LoadResult {
  std::vector<RequestRec> Done;
  int64_t Attempted = 0, Failed = 0;
  double WallS = 0;
};

LoadResult runLoad(int Port, const std::vector<SampleRequest> &Mix,
                   uint64_t Seed, double Seconds, uint64_t Salt) {
  std::vector<LoadResult> Per(NumClients);
  std::atomic<uint64_t> NextId{1 + Salt * 1000000};
  // Distinct seeded offsets keep the clients out of lockstep.
  const uint64_t Offset0 = philoxMix(Seed, 0xC0FF + Salt) % 4;
  const double Start = nowSec(), Until = Start + Seconds;
  std::vector<std::thread> Threads;
  for (int C = 0; C < NumClients; ++C)
    Threads.emplace_back([&, C] {
      LoadResult &Out = Per[size_t(C)];
      Client Cl;
      RetryPolicy NoRetry;
      NoRetry.MaxRetries = 0;
      for (uint64_t I = 0; nowSec() < Until; ++I) {
        ModelId M = Cycle[(Offset0 + uint64_t(C) + I) % 4];
        SampleRequest SR = Mix[size_t(M)];
        SR.Seed = philoxMix(Seed, (Salt << 40) + (uint64_t(C) << 32) + I);
        ++Out.Attempted;
        if (!Cl.connected()) {
          Result<Client> CR = Client::connectTcp("127.0.0.1", Port);
          if (!CR.ok()) {
            ++Out.Failed;
            continue;
          }
          Cl = CR.take();
          Cl.setRetryPolicy(NoRetry);
        }
        uint64_t Id = NextId.fetch_add(1);
        uint64_t T0 = nowNs();
        Span S("client.request", Id);
        Result<Client::SampleOutcome> R = Cl.sample(SR, Id);
        uint64_t T1 = nowNs();
        if (!R.ok() || R->Chains.empty()) {
          ++Out.Failed;
          if (Cl.lastError().Code.empty())
            Cl = Client(); // transport failure: reconnect
          continue;
        }
        RequestRec Rec;
        Rec.M = M;
        Rec.LatencyMs = double(T1 - T0) / 1e6;
        Rec.ServerMs = R->ElapsedMillis;
        Rec.Draws = int64_t(R->Chains[0].size());
        Rec.Ess = minEss(R->Chains[0]);
        uint64_t ServerNs = uint64_t(Rec.ServerMs * 1e6);
        Tracer::get().add("serve.request", T1 - std::min(ServerNs, T1 - T0),
                          T1, currentSpan(), Id);
        Out.Done.push_back(Rec);
      }
    });
  for (auto &T : Threads)
    T.join();
  LoadResult All;
  All.WallS = nowSec() - Start;
  for (auto &P : Per) {
    All.Attempted += P.Attempted;
    All.Failed += P.Failed;
    All.Done.insert(All.Done.end(), P.Done.begin(), P.Done.end());
  }
  return All;
}

/// Counters of the daemon's metrics op that the serve layers read.
struct ServeCounters {
  double Forks = 0, Retries = 0, Hedges = 0, Hits = 0, Misses = 0;
};

Result<ServeCounters> readCounters(int Port) {
  AUGUR_ASSIGN_OR_RETURN(Client Cl, Client::connectTcp("127.0.0.1", Port));
  AUGUR_ASSIGN_OR_RETURN(Json F, Cl.metrics(7));
  ServeCounters C;
  if (const Json *Cs = F.find("counters")) {
    C.Forks = double(Cs->getInt("serve/sandbox/forks", 0));
    C.Retries = double(Cs->getInt("serve/sandbox/retries", 0));
    C.Hedges = double(Cs->getInt("serve/sandbox/hedges", 0));
  }
  if (const Json *Ca = F.find("cache")) {
    C.Hits = double(Ca->getInt("hits", 0));
    C.Misses = double(Ca->getInt("misses", 0));
  }
  return C;
}

/// A started daemon whose artifacts are warm: one request per model.
struct Daemon {
  std::unique_ptr<Server> S;
  double SetupS = 0;
  std::vector<Client::SampleOutcome> Warm; ///< first request per model
};

Result<Daemon> startDaemon(const std::vector<SampleRequest> &Mix) {
  Daemon D;
  double T0 = nowSec();
  ServerOptions O;
  O.Workers = 4;
  D.S = std::make_unique<Server>(O);
  AUGUR_RETURN_IF_ERROR(D.S->start());
  AUGUR_ASSIGN_OR_RETURN(Client Cl,
                         Client::connectTcp("127.0.0.1", D.S->port()));
  RetryPolicy NoRetry;
  NoRetry.MaxRetries = 0;
  Cl.setRetryPolicy(NoRetry);
  for (size_t M = 0; M < Mix.size(); ++M) {
    AUGUR_ASSIGN_OR_RETURN(Client::SampleOutcome Out,
                           Cl.sample(Mix[M], uint64_t(M) + 1));
    D.Warm.push_back(std::move(Out));
  }
  D.SetupS = nowSec() - T0;
  return D;
}

/// The served stream must equal a direct Infer::sampleChains run of the
/// same request, draw for draw (compared through the wire encoding,
/// which round-trips every value exactly).
std::string checkBitIdentical(const SampleRequest &SR,
                              const Client::SampleOutcome &Served) {
  Infer A(SR.Model);
  CompileOptions CO = servedOptions(SR);
  CO.Par.Chains = SR.Chains;
  A.setCompileOpt(CO);
  Status St = A.compile(SR.Args, SR.Data);
  if (!St.ok())
    return "direct compile: " + St.message();
  SampleOptions SO;
  SO.NumSamples = SR.NumSamples;
  SO.BurnIn = SR.BurnIn;
  SO.Thin = SR.Thin;
  SO.Record = SR.Record;
  SO.TrackLogJoint = SR.TrackLogJoint;
  Result<std::vector<SampleSet>> Direct = A.sampleChains(SO);
  if (!Direct.ok())
    return "direct sampleChains: " + Direct.message();
  if (Direct->size() != Served.Chains.size())
    return "chain count differs";
  for (size_t C = 0; C < Direct->size(); ++C) {
    const auto &DD = (*Direct)[C].Draws, &SD = Served.Chains[C].Draws;
    if (DD.size() != SD.size())
      return "recorded parameters differ";
    for (const auto &[Var, Vals] : DD) {
      auto It = SD.find(Var);
      if (It == SD.end() || It->second.size() != Vals.size())
        return "draw count of " + Var + " differs";
      for (size_t I = 0; I < Vals.size(); ++I)
        if (encodeValue(Vals[I]).dump() != encodeValue(It->second[I]).dump())
          return strFormat("draw %zu of %s differs", I, Var.c_str());
    }
  }
  return "";
}

/// Median ms of the request run directly in this process through the
/// daemon's own chain loop, on an artifact compiled like the daemon's.
double directMs(const SampleRequest &SR) {
  Result<std::unique_ptr<MCMCProgram>> P =
      Compiler::compile(SR.Model, servedOptions(SR), SR.Args, SR.Data);
  if (!P.ok())
    return 0.0;
  std::vector<double> Ms;
  for (int Rep = 0; Rep < 9; ++Rep) {
    uint64_t T0 = nowNs();
    Status St = runRequestChains(
        **P, SR, SR.Model,
        [](int, uint64_t, const std::vector<std::string> &,
           const std::vector<const Value *> &,
           double) { return Status::success(); });
    if (!St.ok())
      return 0.0;
    if (Rep > 0) // the first run pays lazy native builds
      Ms.push_back(double(nowNs() - T0) / 1e6);
  }
  return median(Ms);
}

double serverMedianMs(const std::vector<RequestRec> &Done, ModelId M) {
  std::vector<double> V;
  for (const auto &R : Done)
    if (R.M == M)
      V.push_back(R.ServerMs);
  return median(V);
}

/// Per-layer probes on probe programs compiled like the daemon's
/// artifacts.
void probeModels(const std::vector<SampleRequest> &Mix, Layers &L,
                 Report &R) {
  CompilePhases Sum;
  double FcUs = 0, FcHit = 0, ObsUs = 0, FrameUs = 0, Vec = 0, VecN = 0;
  for (size_t M = 0; M < Mix.size(); ++M) {
    const SampleRequest &SR = Mix[M];
    Result<CompilePhases> CP = timeCompilePhases(
        SR.Model, servedOptions(SR), SR.Args, SR.Data, 3);
    Result<std::unique_ptr<MCMCProgram>> P =
        Compiler::compile(SR.Model, servedOptions(SR), SR.Args, SR.Data);
    if (!CP.ok() || !P.ok() || !(*P)->init().ok()) {
      R.fail(strFormat("probe of %s failed", ModelNames[M]));
      return;
    }
    Sum.FrontendMs += CP->FrontendMs;
    Sum.DensityMs += CP->DensityMs;
    Sum.KernelMs += CP->KernelMs;
    Sum.LowppMs += CP->LowppMs;
    Sum.TotalMs += CP->TotalMs;
    MCMCProgram &Prog = **P;
    SweepProbe SP = probeSweeps(Prog, 6);
    UpdateProbe UP = probeUpdates(Prog, 6);
    FcUs += MixWeight[M] * SP.LogJointUs;
    FcHit += MixWeight[M] * SP.FcHitRatio;
    ObsUs += MixWeight[M] * SP.ObserveUs;
    FrameUs += MixWeight[M] * frameEncodeUs(Prog, 20);
    if (M == Hlr) {
      if (SP.NativeShare <= 0.0)
        R.fail("hollow run: hlr-native ran no native procedure");
      L.set("cgen.cc_ms", SP.FirstMs - SP.SteadyMs);
      L.set("cgen.native_proc_share", SP.NativeShare);
      L.set("mcmc.accept_rate", UP.AcceptRate);
      L.set("mcmc.grad_evals_per_sweep", UP.GradEvalsPerSweep);
      double Elems = double(SR.Args[1].asInt() * SR.Args[2].asInt());
      L.set("mcmc.update_ms.hmc", UP.UpdateMs["hmc"]);
      L.set("exec.ns_per_elem.hmc", UP.UpdateMs["hmc"] * 1e6 / Elems);
    } else {
      for (const auto &CU : Prog.updates())
        if (!CU.GibbsProc.empty()) {
          int V = Prog.engine().procVectorized(CU.GibbsProc);
          if (V >= 0) {
            Vec += V;
            VecN += 1;
          }
        }
    }
    if (M == Lda) {
      const auto &Lens = SR.Args[5].intVec().flat();
      const auto &Words = SR.Data.at("w").intVec().flat();
      for (const char *Var : {"theta", "phi", "z"}) {
        L.set(std::string("mcmc.update_ms.") + Var, UP.UpdateMs[Var]);
        L.set(std::string("exec.ns_per_elem.") + Var,
              UP.UpdateMs[Var] * 1e6 / double(Words.size()));
      }
      L.set("exec.floor_ratio",
            ldaFloorRatio(Prog, Lens, Words, SR.Args[0].asInt(),
                          SR.Args[2].asInt(), UP.UpdateMs["z"]));
    }
  }
  L.set("lang.frontend_ms", Sum.FrontendMs);
  L.set("density.lower_ms", Sum.DensityMs);
  L.set("kernel.schedule_ms", Sum.KernelMs);
  L.set("lowpp.procgen_ms", Sum.LowppMs);
  L.set("compile.total_ms", Sum.TotalMs);
  L.set("exec.fc_logjoint_us", FcUs);
  L.set("exec.fc_hit_ratio", FcHit);
  L.set("diag.observe_us", ObsUs);
  L.set("serve.frame_encode_us", FrameUs);
  L.set("exec.vector_plan_share", VecN > 0 ? Vec / VecN : 0.0);
}

uint64_t compileSpans() {
  uint64_t N = 0;
  for (const auto &E : Recorder::global().traceEvents())
    if (E.Name == "compile/total")
      ++N;
  return N;
}

} // namespace

void perfbench::runServeMix(const RunOptions &RO, NativeDirs &Dirs,
                            Report &R) {
  const double Start = nowSec();
  std::vector<SampleRequest> Mix = makeMix(RO.Seed);

  // Set-up: daemon start plus one warm-up request per artifact, several
  // times over; the load runs on the last daemon.
  std::vector<double> Setups;
  std::vector<Client::SampleOutcome> First;
  Daemon D;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    if (D.S)
      D.S->stop();
    Result<Daemon> DR = startDaemon(Mix);
    R.Attempted += int64_t(Mix.size());
    if (!DR.ok()) {
      R.Failed += int64_t(Mix.size());
      R.fail("daemon set-up: " + DR.message());
      return;
    }
    D = DR.take();
    Setups.push_back(D.SetupS);
    if (First.empty())
      First = D.Warm;
  }
  const int Port = D.S->port();

  Result<ServeCounters> C0 = readCounters(Port);
  uint64_t Dirs0 = Dirs.created(), Leaked0 = Dirs.leaked(),
           Compiles0 = compileSpans();
  double LoadS = RO.Trace ? 0.35 * RO.Seconds
                          : std::max(1.0, RO.Seconds - (nowSec() - Start));
  LoadResult Plain = runLoad(Port, Mix, RO.Seed, LoadS, 1);
  LoadResult Traced;
  if (RO.Trace) {
    Tracer::get().enable();
    Traced = runLoad(Port, Mix, RO.Seed, 0.35 * RO.Seconds, 2);
  }
  Result<ServeCounters> C1 = readCounters(Port);
  double Requests = double(Plain.Done.size() + Traced.Done.size());
  double BuildsPerReq =
      Requests > 0 ? double(Dirs.created() - Dirs0) / Requests : 0;
  double LeakedPerReq =
      Requests > 0 ? double(Dirs.leaked() - Leaked0) / Requests : 0;
  double ProgramsPerReq =
      Requests > 0 ? double(compileSpans() - Compiles0) / Requests : 0;
  D.S->stop();

  // Checks and anti-hollow guards.
  for (const LoadResult *L : {&Plain, &Traced}) {
    R.Attempted += L->Attempted;
    R.Failed += L->Failed;
    if (L->Attempted != int64_t(L->Done.size()) + L->Failed)
      R.fail("attempted != completed + failed");
  }
  if (R.Failed > 0)
    R.fail(strFormat("%lld requests failed", (long long)R.Failed));
  double HlrRequests = 0;
  for (const auto *L : {&Plain, &Traced})
    for (const auto &Rec : L->Done)
      HlrRequests += Rec.M == Hlr ? 1 : 0;
  if (!C0.ok() || !C1.ok())
    R.fail("metrics op failed");
  else if (HlrRequests > 0 && C1->Forks - C0->Forks <= 0)
    R.fail("hollow run: hlr-native requests were never forked");
  for (size_t M = 0; M < Mix.size(); ++M) {
    std::string Why = checkBitIdentical(Mix[M], First[M]);
    if (!Why.empty())
      R.fail(strFormat("%s: served stream is not bit-identical to "
                       "Infer::sampleChains: %s",
                       ModelNames[M], Why.c_str()));
  }

  auto Summ = [](const LoadResult &L, double &Rps, double &DrawsPerS,
                 double &EssPerS, std::vector<double> &Lat) {
    double Draws = 0, Ess = 0;
    for (const auto &Rec : L.Done) {
      Draws += double(Rec.Draws);
      Ess += Rec.Ess;
      Lat.push_back(Rec.LatencyMs);
    }
    Rps = L.WallS > 0 ? double(L.Done.size()) / L.WallS : 0;
    DrawsPerS = L.WallS > 0 ? Draws / L.WallS : 0;
    EssPerS = L.WallS > 0 ? Ess / L.WallS : 0;
  };
  double Rps = 0, DrawsPerS = 0, EssPerS = 0;
  std::vector<double> Lat;
  Summ(Plain, Rps, DrawsPerS, EssPerS, Lat);
  double Pct = 0, P95 = tailLatency(Lat, Pct);
  R.note(strFormat("serve-mix: %zu requests in %.1f s from %d clients; "
                   "latency sample = %zu (tail percentile p%.1f)",
                   Plain.Done.size(), Plain.WallS, NumClients, Lat.size(),
                   Pct));

  if (!RO.Trace) {
    R.add("setup_s", median(Setups), "s");
    R.add("draws_per_s", DrawsPerS, "draws/s");
    R.add("ess_per_s", EssPerS, "1/s");
    R.add("req_p50_ms", median(Lat), "ms");
    R.add("req_p95_ms", P95, "ms");
    R.add("throughput_rps", Rps, "req/s");
    R.add("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }

  Layers L;
  double TRps = 0, TDraws = 0, TEss = 0;
  std::vector<double> TLat;
  Summ(Traced, TRps, TDraws, TEss, TLat);
  L.set("trace.overhead_pct", Rps > 0 ? 100.0 * (Rps - TRps) / Rps : 0.0);
  std::vector<double> QueueTransport;
  std::vector<RequestRec> Done = Plain.Done;
  Done.insert(Done.end(), Traced.Done.begin(), Traced.Done.end());
  for (const auto &Rec : Done)
    QueueTransport.push_back(Rec.LatencyMs - Rec.ServerMs);
  L.set("serve.queue_transport_ms", median(QueueTransport));
  L.set("serve.lock_wait_ms",
        0.5 * ((serverMedianMs(Done, Gmm) - directMs(Mix[Gmm])) +
               (serverMedianMs(Done, Lda) - directMs(Mix[Lda]))));
  L.set("serve.sandbox_ms", serverMedianMs(Done, Hlr) - directMs(Mix[Hlr]));
  if (C0.ok() && C1.ok()) {
    L.set("serve.forks_per_request",
          HlrRequests > 0 ? (C1->Forks - C0->Forks) / HlrRequests : 0);
    double Lookups = (C1->Hits - C0->Hits) + (C1->Misses - C0->Misses);
    L.set("serve.cache_hit_ratio",
          Lookups > 0 ? (C1->Hits - C0->Hits) / Lookups : 0);
    L.set("serve.retries", C1->Retries - C0->Retries);
    L.set("serve.hedges", C1->Hedges - C0->Hedges);
  }
  L.set("compile.programs", ProgramsPerReq);
  L.set("cgen.cc_builds", BuildsPerReq);
  L.set("cgen.leaked_dirs", LeakedPerReq);
  probeModels(Mix, L, R);
  R.note(strFormat("traced: %zu requests; untraced %.2f req/s, traced %.2f "
                   "req/s",
                   Traced.Done.size(), Rps, TRps));
  for (const auto &[Layer, Ms] : Tracer::get().selfMsByLayer())
    R.note(strFormat("self time %-8s %12.2f ms", Layer.c_str(), Ms));
  L.emit(R);
}
