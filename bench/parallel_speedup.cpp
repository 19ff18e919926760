//===- bench/parallel_speedup.cpp - Parallel CPU runtime ------*- C++ -*-===//
//
// Measures the within-chain behaviour of the work-stealing parallel
// runtime (DESIGN.md "Parallel runtime") together with the
// contention-aware reduction layer (DESIGN.md section 16): full Gibbs
// sweeps on GMM / HGMM / LDA over a thread x model x policy matrix —
// pool widths {1, 2, 4, 8, max} crossed with the three reduction
// policies (atomic, mapreduce, auto). Alongside wall times it reports
// the interpreter's occupancy profile (fraction of available
// thread-time spent inside parallel-loop chunks, the work-stealing
// rate) and the reduction layer's decision and execution counters
// (sites converted / left atomic / demoted, privatized regions run,
// partial-buffer bytes).
//
// A separate microbench times the maximally contended shape — an
// AtmPar loop folding into ONE scalar — directly at the interpreter
// level, atomic CAS loop versus privatized map-reduce partials, at the
// widest pool. This isolates the cost the reduction layer removes:
// per-accumulation CAS traffic plus atomic-site tracking.
//
// Honest-number caveat: on a single-core host there is no cache-line
// ping-pong, so the model-level speedup columns are ~1.0x by
// construction and only the occupancy / policy-delta / microbench
// columns carry information. The microbench still shows the per-op
// saving because the CAS+tracking path costs more instructions per
// accumulation than a privatized add even without contention.
//
// The policy comparisons (the LDA pair at the widest pool and both
// microbenches) time the two paths back to back in each repetition and
// take the median of the per-repetition ratios, so a slow phase of the
// host stretches both sides alike.
//
// Results are written to BENCH_parallel.json in the working directory
// for the driver scripts. --smoke runs tiny sizes, skips the JSON, and
// asserts the layer's contracts instead:
//   * forced map-reduce chains end bit-identical across pool widths
//     (checked whenever the plan left no atomic site behind);
//   * at the widest pool on LDA, the map-reduce policy is no slower
//     than atomic beyond a generous noise margin;
//   * the microbench's map-reduce path beats the atomic path.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>

#include "../bench/BenchCommon.h"
#include "blk/Passes.h"
#include "cgen/Native.h"
#include "exec/Engine.h"
#include "exec/Interp.h"
#include "lowpp/Reify.h"
#include "parallel/ThreadPool.h"
#include "support/Format.h"
#include "telemetry/Telemetry.h"

using namespace augur;
using namespace augur::bench;

namespace {

bool Smoke = false;

bool bitEqValue(const Value &A, const Value &B) {
  if (A.isRealScalar() && B.isRealScalar()) {
    double X = A.asReal(), Y = B.asReal();
    return std::memcmp(&X, &Y, sizeof(double)) == 0;
  }
  if (A.isRealVec() && B.isRealVec()) {
    const auto &FA = A.realVec().flat(), &FB = B.realVec().flat();
    return FA.size() == FB.size() &&
           (FA.empty() || std::memcmp(FA.data(), FB.data(),
                                      FA.size() * sizeof(double)) == 0);
  }
  return A == B;
}

bool statesIdentical(const Env &A, const Env &B) {
  if (A.size() != B.size())
    return false;
  for (const auto &KV : A) {
    auto It = B.find(KV.first);
    if (It == B.end() || !bitEqValue(KV.second, It->second))
      return false;
  }
  return true;
}

struct ModelSpec {
  std::string Name;
  const char *Source = nullptr;
  std::vector<Value> Args;
  Env Data;
};

ModelSpec gmmSpec() {
  ModelSpec M;
  M.Name = "gmm";
  M.Source = models::GMM;
  const int64_t K = 3, D = 2, N = Smoke ? 80 : 1500;
  MixtureData Data = mixtureData(K, D, N, 0xBA51);
  std::vector<double> Diag(size_t(D), 25.0), Unit(size_t(D), 1.0);
  M.Args = {Value::intScalar(K),
            Value::intScalar(N),
            Value::realVec(BlockedReal::flat(D, 0.0)),
            Value::matrix(Matrix::diagonal(Diag)),
            Value::realVec(BlockedReal::flat(K, 1.0 / double(K))),
            Value::matrix(Matrix::diagonal(Unit))};
  M.Data["x"] = Value::realVec(Data.Points,
                               Type::vec(Type::vec(Type::realTy())));
  return M;
}

ModelSpec hgmmSpec() {
  ModelSpec M;
  M.Name = "hgmm";
  M.Source = models::HGMM;
  const int64_t K = 3, D = 2, N = Smoke ? 80 : 1200;
  MixtureData Data = mixtureData(K, D, N, 0xBA52);
  M.Args = hgmmArgs(K, D, N);
  M.Data["y"] = Value::realVec(Data.Points,
                               Type::vec(Type::vec(Type::realTy())));
  return M;
}

ModelSpec ldaSpec() {
  ModelSpec M;
  M.Name = "lda";
  M.Source = models::LDA;
  const int64_t V = Smoke ? 50 : 300, D = Smoke ? 6 : 40;
  const int64_t MeanLen = Smoke ? 12 : 60, K = 4;
  Corpus C = ldaCorpus(V, D, MeanLen, K, 0xBA53);
  M.Args = {Value::intScalar(K),
            Value::intScalar(C.D),
            Value::intScalar(C.V),
            Value::realVec(BlockedReal::flat(K, 0.5)),
            Value::realVec(BlockedReal::flat(C.V, 0.1)),
            Value::intVec(C.Lengths)};
  M.Data["w"] = Value::intVec(C.Words, Type::vec(Type::vec(Type::intTy())));
  return M;
}

struct RunResult {
  double Seconds = 0.0;
  double Occupancy = 1.0;
  double StealFraction = 0.0;
  uint64_t ParLoops = 0, ParIters = 0, ParChunks = 0, ParSteals = 0;
  uint64_t ReduceRegions = 0, ReduceBytes = 0;
  uint64_t SitesAtomic = 0, SitesMapReduce = 0, SitesDemoted = 0;
  Quantiles SweepMs;
  Env FinalState;
};

/// Compiles \p M with \p Threads workers under reduction policy \p RM
/// (exits on failure).
std::unique_ptr<Infer> compileCell(const ModelSpec &M, int Threads,
                                   ReduceMode RM) {
  auto Aug = std::make_unique<Infer>(M.Source);
  CompileOptions CO;
  CO.Seed = 0x9EDC;
  CO.Par.NumThreads = Threads;
  CO.Reduce = RM;
  // This bench measures the pooled scalar interpreter (occupancy,
  // steals, atomic vs. map-reduce regions); the vector plans would run
  // every loop on one lane and leave those counters empty.
  CO.Simd = simd::SimdMode::Off;
  CO.Telemetry.Enabled = true;
  Aug->setCompileOpt(CO);
  Status St = Aug->compile(M.Args, M.Data);
  if (!St.ok()) {
    std::fprintf(stderr, "%s (%d threads, %s): compile failed: %s\n",
                 M.Name.c_str(), Threads, reduceModeName(RM),
                 St.message().c_str());
    std::exit(1);
  }
  return Aug;
}

/// Times \p Sweeps Gibbs sweeps of \p Aug in seconds.
double timeSweeps(Infer &Aug, int Sweeps, Quantiles &SweepMs) {
  Timer T;
  for (int I = 0; I < Sweeps; ++I) {
    Timer Sweep;
    if (!Aug.program().step().ok())
      std::exit(1);
    SweepMs.observe(Sweep.seconds() * 1e3);
  }
  return T.seconds();
}

/// Compiles \p M with \p Threads workers under reduction policy \p RM
/// and times \p Sweeps Gibbs sweeps. The compile-time decision
/// counters are read as deltas off the process-global recorder (the
/// compiler publishes them under the chain prefix); the execution
/// counters come from a bench-local recorder profiling the timed
/// sweeps only.
RunResult runCell(const ModelSpec &M, int Threads, ReduceMode RM,
                  int Sweeps) {
  Recorder &G = Recorder::global();
  uint64_t A0 = G.counterValue("chain0/exec/reduce_sites_atomic");
  uint64_t M0 = G.counterValue("chain0/exec/reduce_sites_mapreduce");
  uint64_t D0 = G.counterValue("chain0/exec/reduce_sites_demoted");
  std::unique_ptr<Infer> Cell = compileCell(M, Threads, RM);
  Infer &Aug = *Cell;
  RunResult R;
  R.SitesAtomic = G.counterValue("chain0/exec/reduce_sites_atomic") - A0;
  R.SitesMapReduce =
      G.counterValue("chain0/exec/reduce_sites_mapreduce") - M0;
  R.SitesDemoted = G.counterValue("chain0/exec/reduce_sites_demoted") - D0;

  Recorder Rec;
  TelemetryConfig TC;
  TC.Enabled = true;
  Rec.configure(TC);
  Aug.program().engine().setTelemetry(&Rec, "exec/");
  R.Seconds = timeSweeps(Aug, Sweeps, R.SweepMs);
  R.ParLoops = Rec.counterValue("exec/par_loops");
  R.ParIters = Rec.counterValue("exec/par_iters");
  R.ParChunks = Rec.counterValue("exec/par_chunks");
  R.ParSteals = Rec.counterValue("exec/par_steals");
  R.ReduceRegions = Rec.counterValue("exec/reduce_regions");
  R.ReduceBytes = Rec.counterValue("exec/reduce_partial_bytes");
  uint64_t Busy = Rec.counterValue("exec/par_busy_nanos");
  uint64_t Avail = Rec.counterValue("exec/par_thread_nanos");
  if (Avail) {
    double F = double(Busy) / double(Avail);
    R.Occupancy = F > 1.0 ? 1.0 : F;
  }
  R.StealFraction =
      R.ParChunks ? double(R.ParSteals) / double(R.ParChunks) : 0.0;
  MCMCProgram &Prog = Aug.program();
  for (const auto &F : Prog.densityModel().Joint.Factors)
    if (F.Role == VarRole::Param)
      R.FinalState[F.AtVar] = Prog.state().at(F.AtVar);
  return R;
}

/// Median of the per-repetition ratios Num[i] / Den[i]. Each pair is
/// timed back to back, so a slow phase of the host stretches both sides
/// alike and cancels; the median drops the pairs a phase change split.
double medianRatio(const std::vector<double> &Num,
                   const std::vector<double> &Den) {
  std::vector<double> R;
  for (size_t I = 0; I < Num.size(); ++I)
    R.push_back(Den[I] > 0 ? Num[I] / Den[I] : 0.0);
  std::sort(R.begin(), R.end());
  size_t H = R.size() / 2;
  return R.size() % 2 ? R[H] : 0.5 * (R[H - 1] + R[H]);
}

/// The atomic-vs-map-reduce gate on \p M at width \p Width: \p Reps
/// repetitions, each compiling both cells afresh and timing them back
/// to back, alternating which goes first. The host's speed drifts in
/// phases of ~1.5x, so a cell timed once, or even its fastest of
/// several, can land in a different phase from the other cell; a pair
/// timed back to back mostly shares one.
struct GatePair {
  std::vector<double> AtomicSecs, MapSecs;
};

GatePair timeGatePair(const ModelSpec &M, int Width, int Sweeps, int Reps) {
  Quantiles Unused;
  auto TimeCell = [&](ReduceMode RM) {
    std::unique_ptr<Infer> Cell = compileCell(M, Width, RM);
    return timeSweeps(*Cell, Sweeps, Unused);
  };
  GatePair G;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    bool AtomicFirst = Rep % 2 == 0;
    double First = TimeCell(AtomicFirst ? ReduceMode::Atomic
                                        : ReduceMode::MapReduce);
    double Second = TimeCell(AtomicFirst ? ReduceMode::MapReduce
                                         : ReduceMode::Atomic);
    G.AtomicSecs.push_back(AtomicFirst ? First : Second);
    G.MapSecs.push_back(AtomicFirst ? Second : First);
  }
  return G;
}

//===--------------------------------------------------------------------===//
// Contention microbench: one scalar accumulator, widest pool
//===--------------------------------------------------------------------===//

LowppProc sumSquaresProc() {
  LowppProc P;
  P.Name = "sumsq";
  P.Outputs = {"acc"};
  auto Xn = Expr::index(Expr::var("x"), Expr::var("n"));
  P.Body.push_back(
      stLoop(LoopKind::AtmPar, "n", Expr::intLit(0), Expr::var("N"),
             {stAssign(LValue::scalar("acc"), Expr::mul(Xn, Xn),
                       /*Accum=*/true)}));
  return P;
}

Env sumSquaresEnv(int64_t N) {
  RNG DataRng(31);
  BlockedReal X = BlockedReal::flat(N, 0.0);
  for (int64_t I = 0; I < N; ++I)
    X.at(I) = DataRng.gauss();
  Env E;
  E["N"] = Value::intScalar(N);
  E["x"] = Value::realVec(std::move(X));
  E["acc"] = Value::realScalar(0.0);
  return E;
}

struct MicroResult {
  double AtomicSecs = 0.0;
  double MapSecs = 0.0;
  double Speedup = 0.0; ///< median per-rep atomic/mapreduce ratio
  double AtomicSum = 0.0;
  double MapSum = 0.0;
  int64_t N = 0;
  int Width = 0;
  int Reps = 0;
};

MicroResult runMicro(int64_t N, int Width, int Reps) {
  MicroResult MR;
  MR.N = N;
  MR.Width = Width;
  MR.Reps = Reps;

  LowppProc Atomic = sumSquaresProc();
  LowppProc Mapped = sumSquaresProc();
  {
    Env EPlan = sumSquaresEnv(N);
    CpuReduceOptions O;
    O.Mode = ReduceMode::MapReduce;
    CpuReduceReport R = planCpuReductions(Mapped, EPlan, O);
    if (R.MapReduceSites != 1) {
      std::fprintf(stderr, "microbench: plan converted %d sites, want 1\n",
                   R.MapReduceSites);
      std::exit(1);
    }
  }

  ThreadPool Pool(Width);
  Env E = sumSquaresEnv(N);
  auto TimeOne = [&](const LowppProc &P, double &SumOut) {
    E["acc"] = Value::realScalar(0.0);
    RNG Rng(1);
    Interp I(E, Rng);
    I.setParallel(&Pool, 64);
    Timer T;
    I.run(P);
    SumOut = E.at("acc").asReal();
    return T.seconds();
  };
  // Untimed warmup of each path (first-touch of the partial buffers,
  // pool spin-up) so the reps time steady-state behaviour.
  double Scratch;
  TimeOne(Atomic, Scratch);
  TimeOne(Mapped, Scratch);
  std::vector<double> A, M;
  for (int R = 0; R < Reps; ++R) {
    A.push_back(TimeOne(Atomic, MR.AtomicSum));
    M.push_back(TimeOne(Mapped, MR.MapSum));
    MR.AtomicSecs += A.back();
    MR.MapSecs += M.back();
  }
  MR.Speedup = medianRatio(A, M);
  return MR;
}

/// The same shape through the emitted-C backend, where the loop body is
/// a handful of machine instructions and the per-accumulation delta —
/// union-punning CAS versus a plain add into a private row — is not
/// buried under interpreter dispatch.
struct NativeMicro {
  bool Available = false;
  double AtomicSecs = 0.0;
  double MapSecs = 0.0;
  double Speedup = 0.0; ///< median per-rep atomic/mapreduce ratio
  double AtomicSum = 0.0;
  double MapSum = 0.0;
};

NativeMicro runMicroNative(int64_t N, int Width, int Reps) {
  NativeMicro R;
  auto Setup = [&](NativeEngine &Eng, bool MapRed) {
    Eng.env() = sumSquaresEnv(N);
    Eng.addProc(sumSquaresProc());
    if (MapRed) {
      CpuReduceOptions O;
      O.Mode = ReduceMode::MapReduce;
      if (Eng.planReductions(O).MapReduceSites != 1)
        return false;
    }
    ParallelConfig PC;
    PC.NumThreads = Width;
    Eng.setParallel(&ThreadPool::global(Width), PC);
    Eng.runProc("sumsq"); // warmup: compiles + first-touches partials
    return Eng.isNative("sumsq");
  };
  auto TimeOne = [](NativeEngine &Eng, double &Sum) {
    Eng.env()["acc"] = Value::realScalar(0.0);
    Timer T;
    Eng.runProc("sumsq");
    double Secs = T.seconds();
    Sum = Eng.env().at("acc").asReal();
    return Secs;
  };
  NativeEngine Atomic(42), Mapped(42);
  R.Available = Setup(Atomic, false) && Setup(Mapped, true);
  if (!R.Available)
    return R;
  std::vector<double> A, M;
  for (int I = 0; I < Reps; ++I) {
    A.push_back(TimeOne(Atomic, R.AtomicSum));
    M.push_back(TimeOne(Mapped, R.MapSum));
    R.AtomicSecs += A.back();
    R.MapSecs += M.back();
  }
  R.Speedup = medianRatio(A, M);
  return R;
}

struct Cell {
  std::string Model;
  int Threads = 0;
  std::string Policy;
  RunResult R;
};

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;

  const int Hw = int(std::thread::hardware_concurrency());
  // "max" oversubscribes small hosts so the contention machinery is
  // exercised even on one core: at least 8 workers, or the hardware
  // width when that is larger.
  const int MaxW = Hw > 8 ? Hw : 8;
  std::vector<int> Widths = {1, 2, 4, 8};
  if (MaxW > 8)
    Widths.push_back(MaxW);
  if (Smoke)
    Widths = {1, 2, MaxW};

  const int Sweeps = Smoke ? 4 : 10;
  const std::vector<std::pair<ReduceMode, const char *>> Policies = {
      {ReduceMode::Atomic, "atomic"},
      {ReduceMode::MapReduce, "mapreduce"},
      {ReduceMode::Auto, "auto"}};

  std::printf("== Parallel runtime: thread x model x policy, %d sweeps, "
              "hw=%d, max=%d ==\n",
              Sweeps, Hw, MaxW);

  std::vector<ModelSpec> Models;
  Models.push_back(gmmSpec());
  Models.push_back(hgmmSpec());
  Models.push_back(ldaSpec());

  std::vector<Cell> Cells;
  int Failures = 0;
  for (const auto &M : Models) {
    std::printf("%-6s %7s %-10s %9s %8s %9s %7s %5s %5s %4s %8s\n",
                M.Name.c_str(), "threads", "policy", "sec", "speedup",
                "occup", "steal%", "mr", "atom", "dem", "regions");
    // Sequential baseline: the reduce pass is off at width 1 (there is
    // nothing to contend), so the policy axis collapses to one cell.
    Cell Seq;
    Seq.Model = M.Name;
    Seq.Threads = 1;
    Seq.Policy = "seq";
    Seq.R = runCell(M, 1, ReduceMode::Auto, Sweeps);
    double Base = Seq.R.Seconds;
    std::printf("%-6s %7d %-10s %9.3f %7.2fx %8.1f%% %6.1f%% %5llu %5llu "
                "%4llu %8llu\n",
                "", 1, "seq", Seq.R.Seconds, 1.0, 100.0 * Seq.R.Occupancy,
                100.0 * Seq.R.StealFraction,
                (unsigned long long)Seq.R.SitesMapReduce,
                (unsigned long long)Seq.R.SitesAtomic,
                (unsigned long long)Seq.R.SitesDemoted,
                (unsigned long long)Seq.R.ReduceRegions);
    Cells.push_back(std::move(Seq));

    // Map-reduce chains must agree bitwise across pool widths whenever
    // the plan privatized every contended site; pooled leftover atomic
    // sites legitimately reorder their float sums, so those runs only
    // get the tolerance-level contract and are excluded here.
    Env MapRefState;
    bool HaveMapRef = false, MapRefClean = false;
    for (int W : Widths) {
      if (W == 1)
        continue;
      for (const auto &Pol : Policies) {
        Cell C;
        C.Model = M.Name;
        C.Threads = W;
        C.Policy = Pol.second;
        C.R = runCell(M, W, Pol.first, Sweeps);
        double Speedup = C.R.Seconds > 0 ? Base / C.R.Seconds : 0;
        std::printf("%-6s %7d %-10s %9.3f %7.2fx %8.1f%% %6.1f%% %5llu "
                    "%5llu %4llu %8llu\n",
                    "", W, Pol.second, C.R.Seconds, Speedup,
                    100.0 * C.R.Occupancy, 100.0 * C.R.StealFraction,
                    (unsigned long long)C.R.SitesMapReduce,
                    (unsigned long long)C.R.SitesAtomic,
                    (unsigned long long)C.R.SitesDemoted,
                    (unsigned long long)C.R.ReduceRegions);
        if (Pol.first == ReduceMode::MapReduce) {
          bool Clean = C.R.SitesAtomic == 0;
          if (!HaveMapRef) {
            MapRefState = C.R.FinalState;
            HaveMapRef = true;
            MapRefClean = Clean;
          } else if (Clean && MapRefClean &&
                     !statesIdentical(MapRefState, C.R.FinalState)) {
            std::printf("FAIL: %s mapreduce width %d diverged bitwise "
                        "from the first mapreduce width\n",
                        M.Name.c_str(), W);
            ++Failures;
          }
        }
        Cells.push_back(std::move(C));
      }
    }
  }

  // LDA at the widest pool: privatized partials must not lose to the
  // CAS path. Judged on the median of back-to-back pairs
  // (timeGatePair) of ~10 ms cells at smoke size, so one preempted pool
  // lane does not decide it; the margin absorbs what noise remains.
  const int GateReps = Smoke ? 9 : 5, GateSweeps = Smoke ? 20 : Sweeps;
  const ModelSpec &Lda =
      *std::find_if(Models.begin(), Models.end(),
                    [](const ModelSpec &M) { return M.Name == "lda"; });
  GatePair Gate = timeGatePair(Lda, MaxW, GateSweeps, GateReps);
  double GateSlowdown = medianRatio(Gate.MapSecs, Gate.AtomicSecs);
  {
    std::printf("\nlda @%d threads, mapreduce/atomic over %d back-to-back "
                "pairs:",
                MaxW, GateReps);
    for (int I = 0; I < GateReps; ++I)
      std::printf(" %.2f", Gate.MapSecs[I] / Gate.AtomicSecs[I]);
    std::printf(" (median %.2fx)\n", GateSlowdown);
    if (Smoke && GateSlowdown > 1.25) {
      std::printf("FAIL: lda mapreduce slower than atomic beyond the "
                  "25%% noise margin at max width\n");
      ++Failures;
    }
  }

  // The isolated contention shape: what one privatized accumulation
  // saves over one CAS+track accumulation, at the widest pool.
  MicroResult MB = runMicro(Smoke ? 120000 : 400000, MaxW, Smoke ? 9 : 5);
  double MicroSpeedup = MB.Speedup;
  std::printf("microbench sumsq n=%lld width=%d reps=%d: atomic %.3fs, "
              "mapreduce %.3fs (median %.2fx)\n",
              (long long)MB.N, MB.Width, MB.Reps, MB.AtomicSecs, MB.MapSecs,
              MicroSpeedup);
  if (std::abs(MB.AtomicSum - MB.MapSum) >
      1e-9 * (std::abs(MB.AtomicSum) + 1.0)) {
    std::printf("FAIL: microbench sums disagree (%.17g vs %.17g)\n",
                MB.AtomicSum, MB.MapSum);
    ++Failures;
  }
  // Interpreter dispatch dominates the per-accumulation delta here, so
  // the expected win is a few percent — inside scheduler/sanitizer
  // noise on loaded hosts. Gate only a real regression; the hard
  // performance gate is the native microbench below, where the delta
  // is not buried.
  if (Smoke && MicroSpeedup < 0.90) {
    std::printf("FAIL: microbench mapreduce lost to the atomic path "
                "beyond the noise margin (%.2fx)\n",
                MicroSpeedup);
    ++Failures;
  }

  NativeMicro NM =
      runMicroNative(Smoke ? 120000 : 400000, MaxW, Smoke ? 9 : 5);
  double NativeSpeedup = NM.Available ? NM.Speedup : 0;
  if (NM.Available) {
    std::printf("microbench sumsq (native): atomic %.3fs, mapreduce %.3fs "
                "(median %.2fx)\n",
                NM.AtomicSecs, NM.MapSecs, NativeSpeedup);
    if (std::abs(NM.AtomicSum - NM.MapSum) >
        1e-9 * (std::abs(NM.AtomicSum) + 1.0)) {
      std::printf("FAIL: native microbench sums disagree (%.17g vs "
                  "%.17g)\n",
                  NM.AtomicSum, NM.MapSum);
      ++Failures;
    }
    if (Smoke && NativeSpeedup < 1.0) {
      std::printf("FAIL: native microbench mapreduce lost to the atomic "
                  "path (%.2fx)\n",
                  NativeSpeedup);
      ++Failures;
    }
  } else {
    std::printf("microbench sumsq (native): skipped, no host C compiler\n");
  }

  if (Hw <= 1)
    std::printf("\nnote: single hardware thread; pools are oversubscribed "
                "OS threads, so model-level\nspeedup ~1.0x is expected and "
                "the policy deltas / microbench carry the signal.\n");

  if (Smoke) {
    std::printf("parallel_speedup --smoke: %s\n",
                Failures ? "FAILED" : "ok");
    return Failures ? 1 : 0;
  }

  std::string Out;
  Out += "{\n  \"bench\": \"parallel_speedup\",\n";
  Out += strFormat("  \"hw_threads\": %d,\n  \"max_threads\": %d,\n"
                   "  \"sweeps\": %d,\n",
                   Hw, MaxW, Sweeps);
  Out += "  \"rows\": [\n";
  for (size_t I = 0; I < Cells.size(); ++I) {
    const auto &C = Cells[I];
    double Base = 0;
    for (const auto &S : Cells)
      if (S.Model == C.Model && S.Threads == 1) {
        Base = S.R.Seconds;
        break;
      }
    Out += strFormat(
        "    {\"model\": \"%s\", \"threads\": %d, \"policy\": \"%s\", "
        "\"seconds\": %.6f, \"speedup_vs_seq\": %.4f, "
        "\"occupancy\": %.4f, \"steal_fraction\": %.4f, "
        "\"sites_mapreduce\": %llu, \"sites_atomic\": %llu, "
        "\"sites_demoted\": %llu, \"reduce_regions\": %llu, "
        "\"reduce_partial_bytes\": %llu, \"par_loops\": %llu, "
        "\"par_iters\": %llu, \"par_chunks\": %llu, "
        "\"par_steals\": %llu, \"sweep_p50_ms\": %.4f, "
        "\"sweep_p95_ms\": %.4f}%s\n",
        C.Model.c_str(), C.Threads, C.Policy.c_str(), C.R.Seconds,
        C.R.Seconds > 0 ? Base / C.R.Seconds : 0, C.R.Occupancy,
        C.R.StealFraction, (unsigned long long)C.R.SitesMapReduce,
        (unsigned long long)C.R.SitesAtomic,
        (unsigned long long)C.R.SitesDemoted,
        (unsigned long long)C.R.ReduceRegions,
        (unsigned long long)C.R.ReduceBytes,
        (unsigned long long)C.R.ParLoops, (unsigned long long)C.R.ParIters,
        (unsigned long long)C.R.ParChunks,
        (unsigned long long)C.R.ParSteals, C.R.SweepMs.p50(),
        C.R.SweepMs.p95(), I + 1 < Cells.size() ? "," : "");
  }
  Out += "  ],\n";
  Out += strFormat("  \"lda_gate\": {\"threads\": %d, \"pairs\": %d, "
                   "\"mapreduce_over_atomic_median\": %.4f},\n",
                   MaxW, GateReps, GateSlowdown);
  Out += strFormat(
      "  \"contention_microbench\": {\"shape\": \"sumsq_scalar\", "
      "\"n\": %lld, \"width\": %d, \"reps\": %d, "
      "\"atomic_seconds\": %.6f, \"mapreduce_seconds\": %.6f, "
      "\"speedup\": %.4f},\n",
      (long long)MB.N, MB.Width, MB.Reps, MB.AtomicSecs, MB.MapSecs,
      MicroSpeedup);
  Out += strFormat(
      "  \"contention_microbench_native\": {\"available\": %s, "
      "\"atomic_seconds\": %.6f, \"mapreduce_seconds\": %.6f, "
      "\"speedup\": %.4f}\n",
      NM.Available ? "true" : "false", NM.AtomicSecs, NM.MapSecs,
      NativeSpeedup);
  Out += "}\n";
  std::printf("\n");
  int Rc = bench::writeBenchJson("BENCH_parallel.json", Out);
  return Failures ? 1 : Rc;
}
