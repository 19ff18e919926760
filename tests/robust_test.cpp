//===- tests/robust_test.cpp - Fault-tolerance tests ------------*- C++ -*-===//
//
// The robustness subsystem (DESIGN.md section 12):
//
//  * Checkpoint format: full-state round trips through the binary file,
//    torn/truncated/corrupt files are rejected structurally, and a
//    resumed chain refuses a checkpoint from a different model/seed.
//  * Resume bit-identity: a chain SIGKILLed mid-run (via the
//    kill-after-checkpoint fault in a forked child) resumes from its
//    last durable snapshot and emits exactly the reference run's
//    remaining draws, on both the interpreter and the emitted-C
//    backend, for GMM, HGMM, and LDA.
//  * Guardrails: injected NaN/Inf densities are quarantined, diverged
//    HMC retries with step-size backoff, persistent failure demotes the
//    site down the HMC -> Slice -> MH ladder, and a healthy model's
//    stream is bit-identical guardrails on vs. off.
//  * Fault classes: no injected fault crashes the process — allocation
//    failures and worker-thread faults surface as structured Status,
//    native-compile failures degrade to the interpreter.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "api/Infer.h"
#include "cgen/Native.h"
#include "models/PaperModels.h"
#include "robust/Checkpoint.h"
#include "robust/FaultInject.h"
#include "robust/Guardrail.h"
#include "support/RNG.h"

using namespace augur;

namespace {

bool bitEq(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool bitIdentical(const Value &A, const Value &B) {
  if (A.isIntScalar() || B.isIntScalar())
    return A.isIntScalar() && B.isIntScalar() && A.asInt() == B.asInt();
  if (A.isRealScalar() || B.isRealScalar())
    return A.isRealScalar() && B.isRealScalar() &&
           bitEq(A.asReal(), B.asReal());
  if (A.isIntVec() || B.isIntVec())
    return A.isIntVec() && B.isIntVec() &&
           A.intVec().flat() == B.intVec().flat();
  if (A.isRealVec() || B.isRealVec()) {
    if (!A.isRealVec() || !B.isRealVec())
      return false;
    const std::vector<double> &FA = A.realVec().flat();
    const std::vector<double> &FB = B.realVec().flat();
    return FA.size() == FB.size() &&
           (FA.empty() || std::memcmp(FA.data(), FB.data(),
                                      FA.size() * sizeof(double)) == 0);
  }
  if (A.isMatrix() || B.isMatrix()) {
    if (!A.isMatrix() || !B.isMatrix())
      return false;
    const Matrix &MA = A.mat(), &MB = B.mat();
    return MA.rows() == MB.rows() && MA.cols() == MB.cols() &&
           std::memcmp(MA.data(), MB.data(),
                       size_t(MA.rows() * MA.cols()) * sizeof(double)) == 0;
  }
  return A == B;
}

/// A fresh scratch directory under /tmp, removed with its contents on
/// destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/augur_robust_XXXXXX";
    const char *P = mkdtemp(Buf);
    EXPECT_NE(P, nullptr);
    Path = P ? P : "/tmp";
  }
  ~TempDir() {
    std::string Cmd = "rm -rf " + Path;
    if (std::system(Cmd.c_str()) != 0) {
    }
  }
};

/// One model instance: source, arguments, data, schedule.
struct TestModel {
  const char *Source = nullptr;
  std::string Schedule;
  std::vector<Value> HyperArgs;
  Env Data;
};

TestModel gmmModel(const std::string &Schedule, int64_t N, uint64_t Seed) {
  TestModel M;
  M.Source = models::GMM;
  M.Schedule = Schedule;
  const int64_t K = 2;
  M.HyperArgs = {Value::intScalar(K),
                 Value::intScalar(N),
                 Value::realVec(BlockedReal::flat(2, 0.0)),
                 Value::matrix(Matrix::diagonal({25.0, 25.0})),
                 Value::realVec(BlockedReal::flat(K, 1.0 / double(K))),
                 Value::matrix(Matrix::diagonal({1.0, 1.0}))};
  RNG Rng(Seed);
  BlockedReal X = BlockedReal::rect(N, 2, 0.0);
  for (int64_t I = 0; I < N; ++I) {
    double C = Rng.uniformInt(2) ? 4.0 : -4.0;
    X.at(I, 0) = Rng.gauss(C, 1.0);
    X.at(I, 1) = Rng.gauss(C, 1.0);
  }
  M.Data["x"] =
      Value::realVec(std::move(X), Type::vec(Type::vec(Type::realTy())));
  return M;
}

TestModel hgmmKnownCovModel(int64_t N, uint64_t Seed) {
  TestModel M;
  M.Source = models::HGMMKnownCov;
  const int64_t K = 2;
  M.HyperArgs = {Value::intScalar(K),
                 Value::intScalar(N),
                 Value::realVec(BlockedReal::flat(K, 1.0)),
                 Value::realVec(BlockedReal::flat(2, 0.0)),
                 Value::matrix(Matrix::diagonal({25.0, 25.0})),
                 Value::matrix(Matrix::identity(2))};
  RNG Rng(Seed);
  BlockedReal Y = BlockedReal::rect(N, 2, 0.0);
  for (int64_t I = 0; I < N; ++I) {
    double C = Rng.uniformInt(2) ? 4.0 : -4.0;
    Y.at(I, 0) = Rng.gauss(C, 1.0);
    Y.at(I, 1) = Rng.gauss(C, 1.0);
  }
  M.Data["y"] =
      Value::realVec(std::move(Y), Type::vec(Type::vec(Type::realTy())));
  return M;
}

TestModel ldaModel(int64_t D, uint64_t Seed) {
  TestModel M;
  M.Source = models::LDA;
  const int64_t K = 2, V = 6;
  RNG Rng(Seed);
  BlockedInt L = BlockedInt::flat(D, 0);
  std::vector<std::vector<int64_t>> Docs;
  for (int64_t I = 0; I < D; ++I) {
    int64_t Len = 5 + Rng.uniformInt(4);
    L.at(I) = Len;
    std::vector<int64_t> Doc;
    for (int64_t J = 0; J < Len; ++J)
      Doc.push_back(Rng.uniformInt(V));
    Docs.push_back(std::move(Doc));
  }
  M.HyperArgs = {Value::intScalar(K),
                 Value::intScalar(D),
                 Value::intScalar(V),
                 Value::realVec(BlockedReal::flat(K, 0.5)),
                 Value::realVec(BlockedReal::flat(V, 0.5)),
                 Value::intVec(L)};
  M.Data["w"] = Value::intVec(BlockedInt::ragged(Docs),
                              Type::vec(Type::vec(Type::intTy())));
  return M;
}

TestModel hlrModel(int64_t N, uint64_t Seed) {
  TestModel M;
  M.Source = models::HLR;
  const int64_t Kf = 3;
  RNG Rng(Seed);
  BlockedReal X = BlockedReal::rect(N, Kf, 0.0);
  BlockedInt Y = BlockedInt::flat(N, 0);
  for (int64_t I = 0; I < N; ++I) {
    for (int64_t J = 0; J < Kf; ++J)
      X.at(I, J) = Rng.gauss();
    Y.at(I) = Rng.uniform() < 0.5 ? 1 : 0;
  }
  M.HyperArgs = {Value::realScalar(1.0), Value::intScalar(N),
                 Value::intScalar(Kf),
                 Value::realVec(std::move(X),
                                Type::vec(Type::vec(Type::realTy())))};
  M.Data["y"] = Value::intVec(std::move(Y));
  return M;
}

/// Compiles and samples one chain. \p FaultSpec arms the injector for
/// this run; \p SO carries the checkpoint options.
Result<SampleSet> runChain(const TestModel &M, bool Native, uint64_t Seed,
                           const SampleOptions &SO,
                           const std::string &FaultSpec = "",
                           const robust::GuardrailOptions *Guard = nullptr) {
  Infer Aug(M.Source);
  CompileOptions CO;
  CO.NativeCpu = Native;
  CO.Seed = Seed;
  CO.UserSchedule = M.Schedule;
  CO.FaultSpec = FaultSpec;
  if (Guard)
    CO.Guard = *Guard;
  Aug.setCompileOpt(CO);
  AUGUR_RETURN_IF_ERROR(Aug.compile(M.HyperArgs, M.Data));
  return Aug.sample(SO);
}

SampleOptions sampleOpts(int NumSamples = 15, int BurnIn = 3) {
  SampleOptions SO;
  SO.NumSamples = NumSamples;
  SO.BurnIn = BurnIn;
  return SO;
}

void expectSetsIdentical(const SampleSet &A, const SampleSet &B,
                         const char *What) {
  ASSERT_EQ(A.Draws.size(), B.Draws.size()) << What;
  for (const auto &KV : A.Draws) {
    auto It = B.Draws.find(KV.first);
    ASSERT_NE(It, B.Draws.end()) << What << ": " << KV.first;
    ASSERT_EQ(KV.second.size(), It->second.size())
        << What << ": " << KV.first;
    for (size_t I = 0; I < KV.second.size(); ++I)
      EXPECT_TRUE(bitIdentical(KV.second[I], It->second[I]))
          << What << ": draw " << I << " of '" << KV.first << "' diverges";
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Fault-spec parsing
//===----------------------------------------------------------------------===//

TEST(RobustSpec, ParsesClassesSeedsAndParams) {
  robust::FaultInjector &FI = robust::FaultInjector::global();
  ASSERT_TRUE(
      FI.configure("seed=7;nan-density:p=0.5;native-compile-fail:n=3").ok());
  EXPECT_TRUE(robust::FaultInjector::armed());
  EXPECT_EQ(FI.events().size(), 0u);
  ASSERT_TRUE(FI.configure("").ok());
  EXPECT_FALSE(robust::FaultInjector::armed());
}

TEST(RobustSpec, RejectsMalformedSpecs) {
  robust::FaultInjector &FI = robust::FaultInjector::global();
  EXPECT_FALSE(FI.configure("bogus-class:p=0.5").ok());
  EXPECT_FALSE(FI.configure("nan-density").ok());
  EXPECT_FALSE(FI.configure("nan-density:p=2.0").ok());
  EXPECT_FALSE(FI.configure("nan-density:q=1").ok());
  EXPECT_FALSE(FI.configure("seed=notanumber").ok());
  // A failed parse leaves the injector disarmed.
  EXPECT_FALSE(robust::FaultInjector::armed());
  ASSERT_TRUE(FI.configure("").ok());
}

TEST(RobustSpec, NthProbeFiresExactlyOnce) {
  robust::FaultInjector &FI = robust::FaultInjector::global();
  ASSERT_TRUE(FI.configure("alloc-fail:n=3").ok());
  int Fired = 0;
  for (int I = 0; I < 10; ++I)
    if (FI.fire(robust::FaultClass::AllocFail))
      ++Fired;
  EXPECT_EQ(Fired, 1);
  EXPECT_EQ(FI.fired(robust::FaultClass::AllocFail), 1u);
  ASSERT_EQ(FI.events().size(), 1u);
  EXPECT_EQ(FI.events()[0].Probe, 3u);
  // Other classes never fire under this spec.
  EXPECT_FALSE(FI.fire(robust::FaultClass::NanDensity));
  ASSERT_TRUE(FI.configure("").ok());
}

TEST(RobustSpec, ProbabilisticFiringIsSeedDeterministic) {
  robust::FaultInjector &FI = robust::FaultInjector::global();
  auto Run = [&](const std::string &Spec) {
    EXPECT_TRUE(FI.configure(Spec).ok());
    std::vector<uint64_t> FiredAt;
    for (int I = 0; I < 200; ++I)
      if (FI.fire(robust::FaultClass::NanDensity))
        FiredAt.push_back(uint64_t(I));
    return FiredAt;
  };
  std::vector<uint64_t> A = Run("seed=11;nan-density:p=0.25");
  std::vector<uint64_t> B = Run("seed=11;nan-density:p=0.25");
  std::vector<uint64_t> C = Run("seed=12;nan-density:p=0.25");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_GT(A.size(), 20u);
  EXPECT_LT(A.size(), 90u);
  ASSERT_TRUE(FI.configure("").ok());
}

//===----------------------------------------------------------------------===//
// Guard state and logUniform
//===----------------------------------------------------------------------===//

TEST(RobustGuardState, WordsRoundTrip) {
  robust::GuardState G;
  G.Rung = robust::RungSlice;
  G.ConsecFailed = 5;
  G.Retries = 17;
  G.Fallbacks = 2;
  G.Quarantines = 9;
  uint64_t W[robust::GuardState::NumWords];
  G.toWords(W);
  robust::GuardState H;
  H.fromWords(W);
  EXPECT_EQ(H.Rung, G.Rung);
  EXPECT_EQ(H.ConsecFailed, G.ConsecFailed);
  EXPECT_EQ(H.Retries, G.Retries);
  EXPECT_EQ(H.Fallbacks, G.Fallbacks);
  EXPECT_EQ(H.Quarantines, G.Quarantines);
}

TEST(RobustGuardState, LadderBookkeeping) {
  robust::GuardrailOptions Opts;
  Opts.FallbackAfter = 2;
  robust::GuardState G;
  EXPECT_FALSE(G.noteFailed(Opts));
  EXPECT_TRUE(G.noteFailed(Opts));
  G.demote();
  EXPECT_EQ(G.Rung, robust::RungSlice);
  EXPECT_EQ(G.ConsecFailed, 0);
  G.noteClean();
  EXPECT_FALSE(G.noteFailed(Opts));
  EXPECT_TRUE(G.noteFailed(Opts));
  G.demote();
  EXPECT_EQ(G.Rung, robust::RungMh);
  // Terminal rung: noteFailed never requests a demotion again.
  EXPECT_FALSE(G.noteFailed(Opts));
  EXPECT_FALSE(G.noteFailed(Opts));
  EXPECT_EQ(G.Fallbacks, 2u);
}

TEST(RobustGuardState, EnvOverrides) {
  robust::GuardrailOptions Opts;
  setenv("AUGUR_GUARDRAILS", "off", 1);
  EXPECT_TRUE(robust::applyGuardrailEnv(Opts).ok());
  EXPECT_FALSE(Opts.Enabled);
  setenv("AUGUR_GUARDRAILS", "retries=5,backoff=0.25,fallback=2", 1);
  EXPECT_TRUE(robust::applyGuardrailEnv(Opts).ok());
  EXPECT_TRUE(Opts.Enabled);
  EXPECT_EQ(Opts.MaxStepRetries, 5);
  EXPECT_EQ(Opts.Backoff, 0.25);
  EXPECT_EQ(Opts.FallbackAfter, 2);
  setenv("AUGUR_GUARDRAILS", "retries=-1", 1);
  EXPECT_FALSE(robust::applyGuardrailEnv(Opts).ok());
  unsetenv("AUGUR_GUARDRAILS");
}

TEST(RobustSupport, LogUniformMatchesFormula) {
  RNG A(0xB0B), B(0xB0B);
  for (int I = 0; I < 1000; ++I) {
    double L = logUniform(A);
    double Ref = std::log(B.uniform() + 1e-300);
    EXPECT_TRUE(bitEq(L, Ref));
    EXPECT_TRUE(std::isfinite(L));
  }
}

TEST(RobustSupport, RngStateRoundTrip) {
  RNG A(0x5EED);
  // Burn some draws, including a cached-gauss half-pair.
  for (int I = 0; I < 7; ++I)
    A.uniform();
  A.gauss(0.0, 1.0);
  std::vector<uint64_t> Words = A.saveState();
  RNG B(0);
  ASSERT_TRUE(B.restoreState(Words).ok());
  for (int I = 0; I < 100; ++I) {
    EXPECT_TRUE(bitEq(A.uniform(), B.uniform()));
    EXPECT_TRUE(bitEq(A.gauss(0.0, 1.0), B.gauss(0.0, 1.0)));
  }
  EXPECT_FALSE(B.restoreState({1, 2, 3}).ok());
}

//===----------------------------------------------------------------------===//
// Checkpoint file format
//===----------------------------------------------------------------------===//

namespace {

robust::ChainCheckpoint sampleCheckpoint() {
  robust::ChainCheckpoint CP;
  CP.ModelFingerprint = 0xFEEDFACE;
  CP.ChainId = 3;
  CP.SweepsDone = 42;
  CP.SamplesKept = 17;
  CP.RngWords = {1, 2, 3, 4, 5, 6};
  CP.Slots.emplace_back("i", Value::intScalar(-7));
  CP.Slots.emplace_back("r", Value::realScalar(3.25));
  BlockedInt IV = BlockedInt::ragged({{1, 2, 3}, {4}, {5, 6}});
  CP.Slots.emplace_back("iv", Value::intVec(IV));
  CP.Slots.emplace_back("rv",
                        Value::realVec(BlockedReal::rect(2, 3, 1.5)));
  Matrix M(2, 2);
  M.at(0, 0) = 1.0;
  M.at(1, 1) = -2.0;
  CP.Slots.emplace_back("m", Value::matrix(M));
  MatVec MV(2, 2, 2);
  MV.at(0)[0] = 0.5;
  MV.at(1)[3] = -0.25;
  CP.Slots.emplace_back("mv", Value::matVec(MV));
  CP.Scalars.emplace_back("u0/hmc_step", 0.0125);
  CP.Counters.emplace_back("u0/proposed", 99);
  return CP;
}

/// Reads the whole checkpoint file into memory.
std::vector<char> slurp(const std::string &Path) {
  FILE *F = fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr);
  std::vector<char> Bytes;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  fclose(F);
  return Bytes;
}

void spit(const std::string &Path, const std::vector<char> &Bytes) {
  FILE *F = fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  fclose(F);
}

} // namespace

TEST(RobustCheckpoint, FullStateRoundTrips) {
  TempDir Dir;
  std::string Path = robust::checkpointPath(Dir.Path, 3);
  robust::ChainCheckpoint CP = sampleCheckpoint();
  ASSERT_TRUE(robust::writeCheckpoint(Path, CP).ok());
  EXPECT_TRUE(robust::checkpointExists(Path));
  Result<robust::ChainCheckpoint> R = robust::readCheckpoint(Path);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(R->ModelFingerprint, CP.ModelFingerprint);
  EXPECT_EQ(R->ChainId, CP.ChainId);
  EXPECT_EQ(R->SweepsDone, CP.SweepsDone);
  EXPECT_EQ(R->SamplesKept, CP.SamplesKept);
  EXPECT_EQ(R->RngWords, CP.RngWords);
  ASSERT_EQ(R->Slots.size(), CP.Slots.size());
  for (size_t I = 0; I < CP.Slots.size(); ++I) {
    EXPECT_EQ(R->Slots[I].first, CP.Slots[I].first);
    EXPECT_TRUE(bitIdentical(R->Slots[I].second, CP.Slots[I].second))
        << CP.Slots[I].first;
  }
  ASSERT_EQ(R->Scalars.size(), 1u);
  EXPECT_TRUE(bitEq(R->Scalars[0].second, 0.0125));
  ASSERT_EQ(R->Counters.size(), 1u);
  EXPECT_EQ(R->Counters[0].second, 99u);
  // Ragged offsets survive.
  const Value &IV = R->Slots[2].second;
  ASSERT_TRUE(IV.isIntVec());
  EXPECT_EQ(IV.intVec().size(), 3);
}

TEST(RobustCheckpoint, RejectsMissingTornAndCorruptFiles) {
  TempDir Dir;
  std::string Path = robust::checkpointPath(Dir.Path, 0);
  EXPECT_FALSE(robust::checkpointExists(Path));
  EXPECT_FALSE(robust::readCheckpoint(Path).ok());

  ASSERT_TRUE(robust::writeCheckpoint(Path, sampleCheckpoint()).ok());
  std::vector<char> Good = slurp(Path);
  ASSERT_GT(Good.size(), 32u);

  // Torn write: payload cut short.
  std::vector<char> Torn(Good.begin(), Good.end() - 9);
  spit(Path, Torn);
  EXPECT_FALSE(robust::readCheckpoint(Path).ok());

  // Truncated inside the header.
  spit(Path, std::vector<char>(Good.begin(), Good.begin() + 11));
  EXPECT_FALSE(robust::readCheckpoint(Path).ok());

  // Bad magic.
  std::vector<char> BadMagic = Good;
  BadMagic[0] ^= 0x5A;
  spit(Path, BadMagic);
  EXPECT_FALSE(robust::readCheckpoint(Path).ok());

  // Unknown version.
  std::vector<char> BadVer = Good;
  BadVer[4] ^= 0x40;
  spit(Path, BadVer);
  EXPECT_FALSE(robust::readCheckpoint(Path).ok());

  // Payload bit flip -> checksum mismatch.
  std::vector<char> Flip = Good;
  Flip[Good.size() / 2] ^= 0x01;
  spit(Path, Flip);
  EXPECT_FALSE(robust::readCheckpoint(Path).ok());

  // Trailing garbage after the declared payload.
  std::vector<char> Long = Good;
  Long.push_back('x');
  spit(Path, Long);
  EXPECT_FALSE(robust::readCheckpoint(Path).ok());

  // The pristine bytes still parse.
  spit(Path, Good);
  EXPECT_TRUE(robust::readCheckpoint(Path).ok());
}

//===----------------------------------------------------------------------===//
// Checkpoint/resume through the api
//===----------------------------------------------------------------------===//

namespace {

/// Reference run (no checkpointing), then a forked child that arms
/// kill-after-checkpoint and dies by SIGKILL right after its first
/// periodic snapshot, then an in-process resume from the orphaned
/// checkpoint. The resumed set must be exactly the reference tail.
void expectKillResumeIdentical(const TestModel &M, bool Native,
                               uint64_t Seed) {
  SampleOptions Plain = sampleOpts();
  Result<SampleSet> Ref = runChain(M, Native, Seed, Plain);
  ASSERT_TRUE(Ref.ok()) << Ref.message();

  TempDir Dir;
  SampleOptions CkptSO = Plain;
  CkptSO.CheckpointDir = Dir.Path;
  CkptSO.CheckpointEvery = 5;

  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Child: die by SIGKILL after the first periodic checkpoint write
    // (sweep 5). Surviving to the end is a test failure, reported via
    // a distinctive exit code.
    Result<SampleSet> R =
        runChain(M, Native, Seed, CkptSO, "kill-after-checkpoint:n=1");
    (void)R;
    _exit(42);
  }
  int WStatus = 0;
  ASSERT_EQ(waitpid(Pid, &WStatus, 0), Pid);
  ASSERT_TRUE(WIFSIGNALED(WStatus))
      << "child exited instead of dying: code "
      << (WIFEXITED(WStatus) ? WEXITSTATUS(WStatus) : -1);
  ASSERT_EQ(WTERMSIG(WStatus), SIGKILL);
  ASSERT_TRUE(
      robust::checkpointExists(robust::checkpointPath(Dir.Path, 0)));

  Result<SampleSet> Resumed = runChain(M, Native, Seed, CkptSO);
  ASSERT_TRUE(Resumed.ok()) << Resumed.message();
  EXPECT_EQ(Resumed->ResumedSweeps, 5u);

  // Reference: BurnIn 3, Thin 1 -> draw k sits at sweep 4 + k. The
  // child completed 5 sweeps, i.e. emitted draws 0 and 1; the resumed
  // run must reproduce draws 2..14 bit-identically.
  const uint64_t AlreadyKept = 2;
  for (const auto &KV : Ref->Draws) {
    auto It = Resumed->Draws.find(KV.first);
    ASSERT_NE(It, Resumed->Draws.end()) << KV.first;
    ASSERT_EQ(It->second.size(), KV.second.size() - AlreadyKept)
        << KV.first;
    for (size_t I = 0; I < It->second.size(); ++I)
      EXPECT_TRUE(
          bitIdentical(It->second[I], KV.second[I + AlreadyKept]))
          << "resumed draw " << I << " of '" << KV.first
          << "' diverges from the reference stream "
          << (Native ? "(native)" : "(interp)");
  }
}

} // namespace

TEST(RobustResume, GmmInterpKillResume) {
  expectKillResumeIdentical(gmmModel("", 30, 0xCE01), false, 0xCE01);
}

TEST(RobustResume, GmmNativeKillResume) {
  expectKillResumeIdentical(gmmModel("", 30, 0xCE01), true, 0xCE01);
}

TEST(RobustResume, GmmHmcInterpKillResume) {
  expectKillResumeIdentical(gmmModel("HMC mu (*) Gibbs z", 24, 0xCE02),
                            false, 0xCE02);
}

TEST(RobustResume, HgmmInterpKillResume) {
  expectKillResumeIdentical(hgmmKnownCovModel(24, 0xCE03), false, 0xCE03);
}

TEST(RobustResume, HgmmNativeKillResume) {
  expectKillResumeIdentical(hgmmKnownCovModel(24, 0xCE03), true, 0xCE03);
}

TEST(RobustResume, LdaInterpKillResume) {
  expectKillResumeIdentical(ldaModel(4, 0xCE04), false, 0xCE04);
}

TEST(RobustResume, LdaNativeKillResume) {
  expectKillResumeIdentical(ldaModel(4, 0xCE04), true, 0xCE04);
}

TEST(RobustResume, CheckpointingDoesNotPerturbTheStream) {
  TestModel M = gmmModel("", 30, 0xCE05);
  Result<SampleSet> Plain = runChain(M, false, 0xCE05, sampleOpts());
  ASSERT_TRUE(Plain.ok());
  TempDir Dir;
  SampleOptions SO = sampleOpts();
  SO.CheckpointDir = Dir.Path;
  SO.CheckpointEvery = 4;
  Result<SampleSet> Ckpt = runChain(M, false, 0xCE05, SO);
  ASSERT_TRUE(Ckpt.ok());
  expectSetsIdentical(*Plain, *Ckpt, "checkpointing on vs off");
}

TEST(RobustResume, CompletedRunResumesToNothing) {
  TestModel M = gmmModel("", 30, 0xCE06);
  TempDir Dir;
  SampleOptions SO = sampleOpts();
  SO.CheckpointDir = Dir.Path;
  Result<SampleSet> First = runChain(M, false, 0xCE06, SO);
  ASSERT_TRUE(First.ok());
  EXPECT_EQ(First->size(), 15u);
  Result<SampleSet> Again = runChain(M, false, 0xCE06, SO);
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(Again->size(), 0u);
  EXPECT_EQ(Again->ResumedSweeps, 18u);
}

TEST(RobustResume, RefusesForeignFingerprint) {
  TestModel M = gmmModel("", 30, 0xCE07);
  TempDir Dir;
  SampleOptions SO = sampleOpts();
  SO.CheckpointDir = Dir.Path;
  ASSERT_TRUE(runChain(M, false, 0xCE07, SO).ok());
  // Different seed => different stream => refuse.
  Result<SampleSet> Other = runChain(M, false, 0xBAD, SO);
  ASSERT_FALSE(Other.ok());
  EXPECT_NE(Other.message().find("fingerprint"), std::string::npos)
      << Other.message();
  // Resume=false ignores the snapshot and redraws from scratch.
  SO.Resume = false;
  Result<SampleSet> Fresh = runChain(M, false, 0xBAD, SO);
  ASSERT_TRUE(Fresh.ok()) << Fresh.message();
  EXPECT_EQ(Fresh->size(), 15u);
}

//===----------------------------------------------------------------------===//
// Guardrails
//===----------------------------------------------------------------------===//

TEST(RobustGuardrail, HealthyStreamIdenticalOnVsOff) {
  TestModel M = gmmModel("HMC mu (*) Gibbs z", 30, 0x6A01);
  robust::GuardrailOptions On;
  robust::GuardrailOptions Off;
  Off.Enabled = false;
  Result<SampleSet> A = runChain(M, false, 0x6A01, sampleOpts(), "", &On);
  Result<SampleSet> B = runChain(M, false, 0x6A01, sampleOpts(), "", &Off);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  expectSetsIdentical(*A, *B, "guardrails on vs off");
}

TEST(RobustGuardrail, InjectedNanQuarantinesAndChainSurvives) {
  TestModel M = gmmModel("", 40, 0x6A02);
  Infer Aug(M.Source);
  CompileOptions CO;
  CO.Seed = 0x6A02;
  CO.FaultSpec = "seed=5;nan-density:p=0.10";
  Aug.setCompileOpt(CO);
  ASSERT_TRUE(Aug.compile(M.HyperArgs, M.Data).ok());
  auto S = Aug.sample(sampleOpts(20, 0));
  ASSERT_TRUE(S.ok()) << S.message();
  EXPECT_EQ(S->size(), 20u);
  EXPECT_GT(robust::FaultInjector::global().fired(
                robust::FaultClass::NanDensity),
            0u);
  uint64_t Quarantines = 0;
  for (const auto &CU : Aug.program().updates())
    Quarantines += CU.Guard.Quarantines;
  EXPECT_GT(Quarantines, 0u);
  // Quarantine restored committed state: every recorded draw is finite.
  for (const auto &KV : S->Draws) {
    for (const Value &V : KV.second) {
      if (V.isRealVec()) {
        for (double X : V.realVec().flat())
          EXPECT_TRUE(std::isfinite(X)) << KV.first;
      }
    }
  }
  ASSERT_TRUE(robust::FaultInjector::global().configure("").ok());
}

TEST(RobustGuardrail, DivergedHmcRetriesWithBackoff) {
  TestModel M = gmmModel("HMC mu (*) Gibbs z", 30, 0x6A03);
  robust::GuardrailOptions G;
  G.MaxStepRetries = 3;
  Infer Aug(M.Source);
  CompileOptions CO;
  CO.Seed = 0x6A03;
  CO.UserSchedule = M.Schedule;
  CO.Guard = G;
  CO.FaultSpec = "seed=2;nan-density:p=0.20";
  Aug.setCompileOpt(CO);
  ASSERT_TRUE(Aug.compile(M.HyperArgs, M.Data).ok());
  auto S = Aug.sample(sampleOpts(25, 0));
  ASSERT_TRUE(S.ok()) << S.message();
  uint64_t Retries = 0;
  double HmcStep = 0.0;
  for (const auto &CU : Aug.program().updates()) {
    Retries += CU.Guard.Retries;
    if (CU.U.Kind == UpdateKind::Grad)
      HmcStep = CU.U.Hmc.StepSize;
  }
  EXPECT_GT(Retries, 0u);
  // Backoff is transient: the committed step size is untouched.
  EXPECT_EQ(HmcStep, 0.05);
  ASSERT_TRUE(robust::FaultInjector::global().configure("").ok());
}

TEST(RobustGuardrail, PersistentFailureDescendsTheLadder) {
  TestModel M = gmmModel("HMC mu (*) Gibbs z", 30, 0x6A04);
  robust::GuardrailOptions G;
  G.MaxStepRetries = 1;
  G.FallbackAfter = 2;
  Infer Aug(M.Source);
  CompileOptions CO;
  CO.Seed = 0x6A04;
  CO.UserSchedule = M.Schedule;
  CO.Guard = G;
  CO.FaultSpec = "seed=9;nan-density:p=0.95";
  Aug.setCompileOpt(CO);
  ASSERT_TRUE(Aug.compile(M.HyperArgs, M.Data).ok());
  auto S = Aug.sample(sampleOpts(30, 0));
  ASSERT_TRUE(S.ok()) << S.message();
  bool SawDemotion = false;
  for (const auto &CU : Aug.program().updates())
    if (CU.U.Kind == UpdateKind::Grad) {
      SawDemotion = CU.Guard.Fallbacks > 0;
      EXPECT_GT(CU.Guard.Quarantines, 0u);
    }
  EXPECT_TRUE(SawDemotion)
      << "HMC site never demoted under a 95% NaN density";
  ASSERT_TRUE(robust::FaultInjector::global().configure("").ok());
}

//===----------------------------------------------------------------------===//
// Fault classes: nothing crashes the process
//===----------------------------------------------------------------------===//

TEST(RobustFaults, AllocFailureIsAStructuredError) {
  TestModel M = gmmModel("", 20, 0xFA01);
  Infer Aug(M.Source);
  CompileOptions CO;
  CO.Seed = 0xFA01;
  CO.FaultSpec = "alloc-fail:n=1";
  Aug.setCompileOpt(CO);
  Status St = Aug.compile(M.HyperArgs, M.Data);
  if (St.ok()) {
    // No fresh allocation during init (all locals pre-shaped): the
    // probe then fires during sampling instead.
    auto S = Aug.sample(sampleOpts(5, 0));
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.message().find("allocation"), std::string::npos)
        << S.message();
  } else {
    EXPECT_NE(St.message().find("allocation"), std::string::npos)
        << St.message();
  }
  ASSERT_TRUE(robust::FaultInjector::global().configure("").ok());
}

TEST(RobustFaults, NativeCompileFailureFallsBackToInterpreter) {
  TestModel M = gmmModel("", 30, 0xFA02);
  Infer NativeFaulted(M.Source);
  CompileOptions CO;
  CO.Seed = 0xFA02;
  CO.NativeCpu = true;
  CO.FaultSpec = "native-compile-fail:p=1.0";
  NativeFaulted.setCompileOpt(CO);
  ASSERT_TRUE(NativeFaulted.compile(M.HyperArgs, M.Data).ok());
  auto Degraded = NativeFaulted.sample(sampleOpts());
  ASSERT_TRUE(Degraded.ok()) << Degraded.message();
  EXPECT_GT(robust::FaultInjector::global().fired(
                robust::FaultClass::NativeCompileFail),
            0u);
  // The fallback is the interpreter: bit-identical to a pure
  // interpreter run. (Second compile resets the injector.)
  Result<SampleSet> Interp = runChain(M, false, 0xFA02, sampleOpts());
  ASSERT_TRUE(Interp.ok());
  expectSetsIdentical(*Interp, *Degraded, "native fallback vs interp");
}

TEST(RobustFaults, NativeCompileFailureFallsBackWhenImageIsCached) {
  // The probe runs ahead of the image-cache lookup, so a cached module
  // does not mask an injected toolchain failure.
  TestModel M = hlrModel(40, 0xFA05);
  ASSERT_TRUE(runChain(M, true, 0xFA05, sampleOpts()).ok());
  ASSERT_GT(NativeImageCache::global().entries(), 0u);
  Result<SampleSet> Degraded = runChain(M, true, 0xFA05, sampleOpts(),
                                        "native-compile-fail:p=1.0");
  ASSERT_TRUE(Degraded.ok()) << Degraded.message();
  EXPECT_GT(robust::FaultInjector::global().fired(
                robust::FaultClass::NativeCompileFail),
            0u);
  Result<SampleSet> Interp = runChain(M, false, 0xFA05, sampleOpts());
  ASSERT_TRUE(Interp.ok());
  expectSetsIdentical(*Interp, *Degraded, "cached native fallback vs interp");
  ASSERT_TRUE(robust::FaultInjector::global().configure("").ok());
}

TEST(RobustFaults, WorkerFaultSurfacesAndPoolSurvives) {
  TestModel M = gmmModel("", 60, 0xFA03);
  Infer Aug(M.Source);
  CompileOptions CO;
  CO.Seed = 0xFA03;
  CO.Par.NumThreads = 2;
  CO.Par.Grain = 4;
  CO.FaultSpec = "worker-fault:n=1";
  Aug.setCompileOpt(CO);
  Status St = Aug.compile(M.HyperArgs, M.Data);
  Result<SampleSet> S = St.ok() ? Aug.sample(sampleOpts(5, 0))
                                : Result<SampleSet>(St);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("worker"), std::string::npos) << S.message();
  // The pool drained the region and is reusable: a clean run on the
  // same process-wide pool succeeds.
  Result<SampleSet> Clean = runChain(M, false, 0xFA03, sampleOpts(5, 0));
  ASSERT_TRUE(Clean.ok()) << Clean.message();
  EXPECT_EQ(Clean->size(), 5u);
}

TEST(RobustFaults, NativeWorkerFaultSurfacesThroughTheHostDispatch) {
  // A chunk of an emitted module's pooled loop throws on a pool lane.
  // The exception must not unwind through the module's C frames: the
  // host parks it, the module's entry returns, and the engine rethrows
  // it, so the run fails with the worker's message and the process-wide
  // pool stays usable.
  TestModel M = hlrModel(200, 0xFA06);
  Infer Aug(M.Source);
  CompileOptions CO;
  CO.Seed = 0xFA06;
  CO.NativeCpu = true;
  CO.Par.NumThreads = 2;
  CO.FaultSpec = "worker-fault:n=1";
  Aug.setCompileOpt(CO);
  Status St = Aug.compile(M.HyperArgs, M.Data);
  Result<SampleSet> S = St.ok() ? Aug.sample(sampleOpts(5, 0))
                                : Result<SampleSet>(St);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("worker"), std::string::npos) << S.message();
  // The fault fired in an emitted module's loop.
  auto *NE = dynamic_cast<NativeEngine *>(&Aug.program().engine());
  ASSERT_NE(NE, nullptr);
  bool RanNative = false;
  for (const auto &CU : Aug.program().updates())
    for (const std::string *P : {&CU.LLProc, &CU.GradProc})
      RanNative = RanNative || (!P->empty() && NE->isNative(*P));
  EXPECT_TRUE(RanNative);

  ASSERT_TRUE(robust::FaultInjector::global().configure("").ok());
  Infer Clean(M.Source);
  CO.FaultSpec.clear();
  Clean.setCompileOpt(CO);
  ASSERT_TRUE(Clean.compile(M.HyperArgs, M.Data).ok());
  Result<SampleSet> Again = Clean.sample(sampleOpts(5, 0));
  ASSERT_TRUE(Again.ok()) << Again.message();
  EXPECT_EQ(Again->size(), 5u);
}

TEST(RobustFaults, InfDensityQuarantinedOnNativeBackend) {
  TestModel M = gmmModel("", 30, 0xFA04);
  Infer Aug(M.Source);
  CompileOptions CO;
  CO.Seed = 0xFA04;
  CO.NativeCpu = true;
  CO.FaultSpec = "seed=4;inf-density:p=0.10";
  Aug.setCompileOpt(CO);
  ASSERT_TRUE(Aug.compile(M.HyperArgs, M.Data).ok());
  auto S = Aug.sample(sampleOpts(15, 0));
  ASSERT_TRUE(S.ok()) << S.message();
  EXPECT_EQ(S->size(), 15u);
  ASSERT_TRUE(robust::FaultInjector::global().configure("").ok());
}

//===----------------------------------------------------------------------===//
// Multi-chain checkpointing
//===----------------------------------------------------------------------===//

// Every chain of a sampleChains run writes its own chain<k>.agck, and a
// rerun against the same directory resumes each chain: a completed run
// replays to empty remaining streams, and the checkpointed run's draws
// match an uncheckpointed reference bit-for-bit.
TEST(RobustResume, MultiChainCheckpointAndResume) {
  TempDir Dir;
  TestModel M = gmmModel("", 24, 0x3C01);
  auto Run = [&](bool Ckpt) -> Result<std::vector<SampleSet>> {
    Infer Aug(M.Source);
    CompileOptions CO;
    CO.Seed = 0xCC01;
    CO.Par.Chains = 2;
    CO.Par.NumThreads = 1;
    Aug.setCompileOpt(CO);
    AUGUR_RETURN_IF_ERROR(Aug.compile(M.HyperArgs, M.Data));
    SampleOptions SO = sampleOpts();
    if (Ckpt) {
      SO.CheckpointDir = Dir.Path;
      SO.CheckpointEvery = 5;
    }
    return Aug.sampleChains(SO);
  };

  Result<std::vector<SampleSet>> Ref = Run(false);
  ASSERT_TRUE(Ref.ok()) << Ref.message();
  Result<std::vector<SampleSet>> Ck = Run(true);
  ASSERT_TRUE(Ck.ok()) << Ck.message();
  ASSERT_EQ(Ref->size(), 2u);
  ASSERT_EQ(Ck->size(), 2u);
  for (size_t C = 0; C < 2; ++C) {
    expectSetsIdentical((*Ck)[C], (*Ref)[C], "multi-chain checkpointed");
    EXPECT_TRUE(
        robust::checkpointExists(robust::checkpointPath(Dir.Path, C)))
        << "chain " << C << " left no snapshot";
  }

  // Rerun over the same directory: both chains resume past the end of
  // their completed plans and produce no further draws.
  Result<std::vector<SampleSet>> Resumed = Run(true);
  ASSERT_TRUE(Resumed.ok()) << Resumed.message();
  for (size_t C = 0; C < 2; ++C) {
    EXPECT_EQ((*Resumed)[C].size(), 0u);
    EXPECT_EQ((*Resumed)[C].ResumedSweeps, 18u);
  }
}
