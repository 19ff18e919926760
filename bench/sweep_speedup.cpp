//===- bench/sweep_speedup.cpp - Scalar vs vector sweep cost ---*- C++ -*-===//
//
// The PR-8 headline measurement: whole-sweep time with the vector
// plans (exec/VecKernels.h, CompileOptions::Simd) off vs. on, for
// GMM / HGMM / LDA on the interpreter and the emitted-C backend, plus
// one interpreter row per model on a 4-thread pool (backend
// "interp-pool4": pooled scalar loops vs. plans that replay the pooled
// RNG streams and map-reduce fold on one lane). Two claims are checked:
//
//   * sweep_speedup — scalar-sweep time over vector-sweep time per
//     model/backend. Acceptance target is >= 3x on at least two of the
//     three models (recorded in the JSON; the smoke run enforces a
//     conservative >= 1.5x floor on GMM so a perf regression fails
//     `ctest -L perf` / `-L simd` without being flaky on a loaded CI
//     box).
//   * streams_identical — identically-seeded scalar and vector chains
//     must end in bit-identical states (the plans replay interpreter
//     association and RNG consumption exactly; the alias table is
//     disabled here to keep even large-support categorical sites
//     bitwise). Asserted, not just reported, for the pooled rows too:
//     those force Reduce=MapReduce so every contended float sum is
//     privatized and the pooled scalar run is itself reproducible.
//
// Writes BENCH_sweep.json into the working directory (skipped in
// --smoke mode, which runs small sizes and asserts the invariants).
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "../bench/BenchCommon.h"
#include "math/Simd.h"

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
  const int64_t K = 3, D = 2, N = Smoke ? 400 : 2000;
  MixtureData Data = mixtureData(K, D, N, 0x5EE0);
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
  const int64_t K = 3, D = 2, N = Smoke ? 300 : 1500;
  MixtureData Data = mixtureData(K, D, N, 0x5EE1);
  M.Args = hgmmArgs(K, D, N);
  M.Data["y"] = Value::realVec(Data.Points,
                               Type::vec(Type::vec(Type::realTy())));
  return M;
}

ModelSpec ldaSpec() {
  ModelSpec M;
  M.Name = "lda";
  M.Source = models::LDA;
  const int64_t V = Smoke ? 60 : 300, D = Smoke ? 10 : 50;
  const int64_t MeanLen = Smoke ? 15 : 60, K = 4;
  Corpus C = ldaCorpus(V, D, MeanLen, K, 0x5EE2);
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
  double Secs = 0.0;
  Quantiles SweepMs;
  Env FinalState;
  int NumVectorized = 0;
};

/// Pool width of the pooled rows.
constexpr int PoolWidth = 4;

RunResult runChain(const ModelSpec &M, bool Native, int Threads, bool Simd,
                   int Sweeps) {
  Infer Aug(M.Source);
  CompileOptions CO;
  CO.Seed = 0x5EE6;
  CO.NativeCpu = Native;
  CO.Par.NumThreads = Threads;
  if (Threads != 1)
    CO.Reduce = ReduceMode::MapReduce;
  CO.Simd = Simd ? simd::SimdMode::On : simd::SimdMode::Off;
  Aug.setCompileOpt(CO);
  Status St = Aug.compile(M.Args, M.Data);
  if (!St.ok()) {
    std::fprintf(stderr, "%s (%s): compile failed: %s\n", M.Name.c_str(),
                 Native ? "native" : "interp", St.message().c_str());
    std::exit(1);
  }
  MCMCProgram &Prog = Aug.program();
  RunResult R;
  for (const auto &CU : Prog.updates())
    if (!CU.GibbsProc.empty() &&
        Prog.engine().procVectorized(CU.GibbsProc) == 1)
      ++R.NumVectorized;
  Timer T;
  for (int I = 0; I < Sweeps; ++I) {
    Timer Sweep;
    if (!Prog.step().ok())
      std::exit(1);
    R.SweepMs.observe(Sweep.seconds() * 1e3);
  }
  R.Secs = T.seconds();
  for (const auto &F : Prog.densityModel().Joint.Factors)
    if (F.Role == VarRole::Param)
      R.FinalState[F.AtVar] = Prog.state().at(F.AtVar);
  return R;
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

struct Row {
  std::string Name;
  std::string Backend;
  int Sweeps = 0;
  double ScalarUs = 0.0, VectorUs = 0.0, Speedup = 0.0;
  double VecP50Ms = 0.0, VecP95Ms = 0.0, VecP99Ms = 0.0;
  int NumVectorized = 0;
  bool Identical = false;
};

Row benchModel(const ModelSpec &M, bool Native, int Threads) {
  Row R;
  R.Name = M.Name;
  R.Backend = Native ? "native" : "interp";
  if (Threads != 1)
    R.Backend += strFormat("-pool%d", Threads);
  R.Sweeps = Smoke ? 15 : 100;
  // Best of N repetitions per mode; the ratio is what is reported, so
  // both numerator and denominator get the same treatment.
  const int Reps = Smoke ? 2 : 3;
  RunResult Scalar, Vector;
  double ScalarBest = 1e300, VectorBest = 1e300;
  for (int I = 0; I < Reps; ++I) {
    RunResult A = runChain(M, Native, Threads, /*Simd=*/false, R.Sweeps);
    RunResult B = runChain(M, Native, Threads, /*Simd=*/true, R.Sweeps);
    if (A.Secs < ScalarBest) {
      ScalarBest = A.Secs;
      Scalar = std::move(A);
    }
    if (B.Secs < VectorBest) {
      VectorBest = B.Secs;
      Vector = std::move(B);
    }
  }
  R.ScalarUs = ScalarBest * 1e6 / double(R.Sweeps);
  R.VectorUs = VectorBest * 1e6 / double(R.Sweeps);
  R.Speedup = R.VectorUs > 0.0 ? R.ScalarUs / R.VectorUs : 0.0;
  R.VecP50Ms = Vector.SweepMs.p50();
  R.VecP95Ms = Vector.SweepMs.p95();
  R.VecP99Ms = Vector.SweepMs.p99();
  R.NumVectorized = Vector.NumVectorized;
  R.Identical = statesIdentical(Scalar.FinalState, Vector.FinalState);
  std::printf("%-6s %-12s scalar %9.1f us/sweep, vector %9.1f us/sweep -> "
              "%5.2fx (%d plans)  %s\n",
              R.Name.c_str(), R.Backend.c_str(), R.ScalarUs, R.VectorUs,
              R.Speedup, R.NumVectorized,
              R.Identical ? "streams-identical" : "STREAMS DIVERGE");
  if (!R.Identical)
    std::exit(1);
  if (R.NumVectorized == 0) {
    std::fprintf(stderr, "%s (%s): no Gibbs procedure compiled to a "
                         "vector plan — the comparison is hollow\n",
                 R.Name.c_str(), R.Backend.c_str());
    std::exit(1);
  }
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::string(Argv[I]) == "--smoke")
      Smoke = true;

  // Keep every categorical site on the cumulative-walk sampler so the
  // scalar/vector comparison stays bitwise even for large supports.
  setenv("AUGUR_ALIAS", "0", 1);

  std::printf("== Vectorized sweep speedup (%s) ==\n",
              Smoke ? "smoke" : "default sizes");

  std::vector<ModelSpec> Specs;
  Specs.push_back(gmmSpec());
  Specs.push_back(hgmmSpec());
  Specs.push_back(ldaSpec());

  std::vector<Row> Rows;
  for (const ModelSpec &M : Specs) {
    for (bool Native : {false, true})
      Rows.push_back(benchModel(M, Native, 1));
    Rows.push_back(benchModel(M, /*Native=*/false, PoolWidth));
  }

  // The smoke gate: GMM on the interpreter backend must clear a
  // conservative floor so `ctest -L perf`/`-L simd` catches a plan
  // perf regression. (The acceptance target of >= 3x is asserted on
  // the full-size run that writes the JSON.)
  for (const Row &R : Rows)
    if (R.Name == "gmm" && R.Backend == "interp" && R.Speedup < 1.5) {
      std::fprintf(stderr,
                   "gmm interp sweep speedup %.2fx below the 1.5x floor\n",
                   R.Speedup);
      return 1;
    }

  if (Smoke)
    return 0;

  int ModelsAt3x = 0;
  for (const Row &R : Rows)
    if (R.Backend == "interp" && R.Speedup >= 3.0)
      ++ModelsAt3x;

  std::string Out;
  Out += "{\n  \"bench\": \"sweep_speedup\",\n";
  Out += "  \"target_speedup\": 3.0,\n";
  Out += strFormat("  \"interp_models_at_target\": %d,\n", ModelsAt3x);
  Out += "  \"rows\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    Out += strFormat(
        "    {\"model\": \"%s\", \"backend\": \"%s\", "
        "\"sweeps_per_run\": %d, \"sweep_us_scalar\": %.2f, "
        "\"sweep_us_vector\": %.2f, \"sweep_speedup\": %.2f, "
        "\"vectorized_updates\": %d, \"sweep_vec_p50_ms\": %.4f, "
        "\"sweep_vec_p95_ms\": %.4f, \"sweep_vec_p99_ms\": %.4f, "
        "\"streams_identical\": %s}%s\n",
        R.Name.c_str(), R.Backend.c_str(), R.Sweeps, R.ScalarUs,
        R.VectorUs, R.Speedup, R.NumVectorized, R.VecP50Ms, R.VecP95Ms,
        R.VecP99Ms, R.Identical ? "true" : "false",
        I + 1 < Rows.size() ? "," : "");
  }
  Out += "  ]\n}\n";

  if (ModelsAt3x < 2) {
    std::fprintf(stderr,
                 "only %d interp model(s) reached the 3x target\n",
                 ModelsAt3x);
    bench::writeBenchJson("BENCH_sweep.json", Out);
    return 1;
  }
  return bench::writeBenchJson("BENCH_sweep.json", Out);
}
