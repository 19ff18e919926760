//===- tests/cgen_test.cpp - C/CUDA emission and native engine -*- C++ -*-===//
//
// Validates the final backend stage: emitted C compiles with the host
// compiler and computes bit-comparable results to the interpreter
// (likelihoods and gradients), and emitted CUDA has the kernel
// structure the Blk IL prescribes (golden substring checks; no CUDA
// hardware in this environment).
//
//===----------------------------------------------------------------------===//

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <dirent.h>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "api/Infer.h"
#include "blk/Passes.h"
#include "cgen/CEmit.h"
#include "cgen/CudaEmit.h"
#include "cgen/Native.h"
#include "density/Eval.h"
#include "density/Forward.h"
#include "density/Frontend.h"
#include "kernel/KernelIR.h"
#include "lang/Parser.h"
#include "lowpp/Reify.h"
#include "models/PaperModels.h"
#include "parallel/ThreadPool.h"
#include "telemetry/Telemetry.h"

using namespace augur;

namespace {

DensityModel loadModel(const char *Src,
                       const std::map<std::string, Type> &H) {
  auto M = parseModel(Src);
  EXPECT_TRUE(M.ok()) << M.message();
  auto TM = typeCheck(M.take(), H);
  EXPECT_TRUE(TM.ok()) << TM.message();
  return lowerToDensity(TM.take());
}

std::map<std::string, Type> hlrTypes() {
  return {{"lambda", Type::realTy()},
          {"N", Type::intTy()},
          {"Kf", Type::intTy()},
          {"x", Type::vec(Type::vec(Type::realTy()))}};
}

Env hlrEnv(int64_t N, int64_t Kf, uint64_t Seed) {
  RNG Rng(Seed);
  Env E;
  E["lambda"] = Value::realScalar(1.0);
  E["N"] = Value::intScalar(N);
  E["Kf"] = Value::intScalar(Kf);
  BlockedReal X = BlockedReal::rect(N, Kf, 0.0);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < Kf; ++J)
      X.at(I, J) = Rng.gauss();
  E["x"] = Value::realVec(std::move(X),
                          Type::vec(Type::vec(Type::realTy())));
  return E;
}

/// Names of the host-cc build directories currently in /tmp.
std::set<std::string> nativeBuildDirs() {
  std::set<std::string> Out;
  if (DIR *D = opendir("/tmp")) {
    while (dirent *E = readdir(D))
      if (std::strncmp(E->d_name, "augur_native_", 13) == 0)
        Out.insert(E->d_name);
    closedir(D);
  }
  return Out;
}

/// Build directories that appeared since \p Before and still exist
/// after a grace period. Other test processes build concurrently, but
/// each of their directories lives only for one cc run.
std::set<std::string> survivingBuildDirs(const std::set<std::string> &Before) {
  std::set<std::string> New;
  for (const auto &Name : nativeBuildDirs())
    if (!Before.count(Name))
      New.insert(Name);
  for (int Try = 0; Try < 100 && !New.empty(); ++Try) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (auto It = New.begin(); It != New.end();)
      It = std::filesystem::exists("/tmp/" + *It) ? std::next(It)
                                                  : New.erase(It);
  }
  return New;
}

Recorder &enabledGlobalRecorder() {
  TelemetryConfig TC;
  TC.Enabled = true;
  Recorder::global().configure(TC);
  return Recorder::global();
}

/// An engine holding a forward-sampled HLR state and procedure \p P.
std::unique_ptr<NativeEngine> hlrNativeEngine(const DensityModel &DM,
                                              const LowppProc &P,
                                              std::string Cc = "cc") {
  auto Nat = std::make_unique<NativeEngine>(42, std::move(Cc));
  Nat->env() = hlrEnv(30, 4, 7);
  RNG Rng(7);
  EXPECT_TRUE(forwardSampleModel(DM, Nat->env(), Rng, true).ok());
  Nat->addProc(P);
  return Nat;
}

} // namespace

TEST(CEmit, HlrLikelihoodEmits) {
  DensityModel DM = loadModel(models::HLR, hlrTypes());
  LowppProc LL = genLikelihoodProc("ll_joint", DM.Joint.Factors,
                                   "ll_ll_joint");
  Env E = hlrEnv(5, 3, 1);
  RNG Rng(1);
  ASSERT_TRUE(forwardSampleModel(DM, E, Rng, true).ok());
  auto Mod = emitC(LL, E);
  ASSERT_TRUE(Mod.ok()) << Mod.message();
  // Frame struct, ragged feature matrix, and the sigmoid chain all
  // appear in the emitted source.
  EXPECT_NE(Mod->Source.find("typedef struct"), std::string::npos);
  EXPECT_NE(Mod->Source.find("double *x_data;"), std::string::npos);
  EXPECT_NE(Mod->Source.find("i64 *x_offsets;"), std::string::npos);
  EXPECT_NE(Mod->Source.find("augur_bernoulli_ll"), std::string::npos);
  EXPECT_NE(Mod->Source.find("augur_sigmoid"), std::string::npos);
  EXPECT_NE(Mod->Source.find("augur_dot"), std::string::npos);
  EXPECT_NE(Mod->Source.find("void ll_joint(augur_frame *f)"),
            std::string::npos);
}

TEST(CEmit, MatrixModelsAreRejectedWithReason) {
  Type VecR = Type::vec(Type::realTy());
  DensityModel DM = loadModel(models::GMM,
                              {{"K", Type::intTy()},
                               {"N", Type::intTy()},
                               {"mu_0", VecR},
                               {"Sigma_0", Type::mat()},
                               {"pis", VecR},
                               {"Sigma", Type::mat()}});
  LowppProc LL = genLikelihoodProc("ll_joint", DM.Joint.Factors, "ll");
  Env E;
  E["K"] = Value::intScalar(2);
  E["N"] = Value::intScalar(3);
  E["mu_0"] = Value::realVec(BlockedReal::flat(2, 0.0));
  E["Sigma_0"] = Value::matrix(Matrix::identity(2));
  E["pis"] = Value::realVec(BlockedReal::flat(2, 0.5));
  E["Sigma"] = Value::matrix(Matrix::identity(2));
  auto Mod = emitC(LL, E);
  ASSERT_FALSE(Mod.ok());
  EXPECT_NE(Mod.message().find("matrix"), std::string::npos);
}

TEST(NativeEngineTest, CompiledLikelihoodMatchesInterpreter) {
  DensityModel DM = loadModel(models::HLR, hlrTypes());
  LowppProc LL = genLikelihoodProc("llp_0", DM.Joint.Factors, "ll_llp_0");

  // Interpreted reference.
  InterpEngine Ref(42);
  Env Init = hlrEnv(30, 4, 7);
  for (auto &KV : Init)
    Ref.env()[KV.first] = KV.second;
  RNG Rng(7);
  ASSERT_TRUE(forwardSampleModel(DM, Ref.env(), Rng, true).ok());
  Ref.addProc(LL);
  Ref.runProc("llp_0");
  double Want = Ref.env().at("ll_llp_0").asReal();

  // Native: same state, compiled C.
  NativeEngine Nat(42);
  for (auto &KV : Ref.env())
    Nat.env()[KV.first] = KV.second;
  Nat.addProc(LL);
  Nat.runProc("llp_0");
  ASSERT_TRUE(Nat.isNative("llp_0")) << Nat.fallbackReason("llp_0");
  double Got = Nat.env().at("ll_llp_0").asReal();
  EXPECT_NEAR(Got, Want, 1e-10 * (1.0 + std::abs(Want)));
}

TEST(NativeEngineTest, CompiledGradientMatchesInterpreter) {
  DensityModel DM = loadModel(models::HLR, hlrTypes());
  std::vector<std::string> Targets = {"sigma2", "b", "theta"};
  BlockCond BC = restrictJoint(DM, Targets);
  auto Grad = genGradProc("grad_0", BC, Targets);
  ASSERT_TRUE(Grad.ok()) << Grad.message();

  InterpEngine Ref(42);
  Env Init = hlrEnv(25, 3, 11);
  for (auto &KV : Init)
    Ref.env()[KV.first] = KV.second;
  RNG Rng(11);
  ASSERT_TRUE(forwardSampleModel(DM, Ref.env(), Rng, true).ok());
  for (const auto &T : Targets)
    Ref.env()["adj_" + T] = zerosLike(Ref.env().at(T));
  Ref.addProc(*Grad);
  Ref.runProc("grad_0");

  NativeEngine Nat(42);
  for (auto &KV : Ref.env())
    Nat.env()[KV.first] = KV.second;
  for (const auto &T : Targets)
    Nat.env()["adj_" + T] = zerosLike(Nat.env().at(T));
  Nat.addProc(*Grad);
  Nat.runProc("grad_0");
  ASSERT_TRUE(Nat.isNative("grad_0")) << Nat.fallbackReason("grad_0");

  EXPECT_NEAR(Nat.env().at("adj_sigma2").asReal(),
              Ref.env().at("adj_sigma2").asReal(), 1e-9);
  EXPECT_NEAR(Nat.env().at("adj_b").asReal(),
              Ref.env().at("adj_b").asReal(), 1e-9);
  for (int64_t J = 0; J < 3; ++J)
    EXPECT_NEAR(Nat.env().at("adj_theta").realVec().at(J),
                Ref.env().at("adj_theta").realVec().at(J), 1e-9)
        << J;
}

TEST(NativeEngineTest, SamplingProcsFallBackGracefully) {
  DensityModel DM = loadModel(
      "(N) => { param m ~ Normal(0.0, 100.0) ; "
      "data y[n] ~ Normal(m, 1.0) for n <- 0 until N ; }",
      {{"N", Type::intTy()}});
  auto C = computeConditional(DM, "m").take();
  auto Proc = genConjGibbsProc("gibbs_m", C, *detectConjugacy(C)).take();
  NativeEngine Nat(42);
  Nat.env()["N"] = Value::intScalar(10);
  Nat.env()["y"] = Value::realVec(BlockedReal::flat(10, 1.0));
  Nat.env()["m"] = Value::realScalar(0.0);
  Nat.addProc(Proc);
  Nat.runProc("gibbs_m"); // must run via the interpreter
  EXPECT_FALSE(Nat.isNative("gibbs_m"));
  EXPECT_NE(Nat.fallbackReason("gibbs_m").find("sampling"),
            std::string::npos);
  EXPECT_NE(Nat.env().at("m").asReal(), 0.0);
}

//===----------------------------------------------------------------------===//
// Native image cache: build once per process, one instance per engine
//===----------------------------------------------------------------------===//

TEST(NativeImageCacheTest, EvictsLeastRecentlyUsedWithinBudget) {
  // Every entry charges a 1-byte key plus its image; true means a hit.
  NativeImageCache C(100);
  auto Get = [&](const std::string &Key, size_t N) {
    bool Hit = false;
    NativeImageCache::Image I = C.getOrBuild(
        Key, [&] { return std::make_shared<const std::string>(N, 'x'); },
        Hit);
    EXPECT_EQ(I->size(), N);
    return Hit;
  };
  EXPECT_FALSE(Get("a", 29));
  EXPECT_FALSE(Get("b", 29));
  EXPECT_FALSE(Get("c", 29));
  EXPECT_EQ(C.entries(), 3u);
  EXPECT_EQ(C.bytes(), 90u);
  EXPECT_TRUE(Get("a", 29));  // a is now the most recent
  EXPECT_FALSE(Get("d", 29)); // evicts b, the least recent
  EXPECT_TRUE(Get("a", 29));
  EXPECT_TRUE(Get("c", 29));
  EXPECT_TRUE(Get("d", 29));
  EXPECT_EQ(C.bytes(), 90u);
  EXPECT_FALSE(Get("b", 29)); // rebuilt; evicts a
  EXPECT_FALSE(Get("a", 29));
  // An image over the whole budget is returned but neither kept nor
  // allowed to evict anything.
  EXPECT_FALSE(Get("huge", 200));
  EXPECT_FALSE(Get("huge", 200));
  EXPECT_EQ(C.entries(), 3u);
  EXPECT_EQ(C.bytes(), 90u);
  // A failed build is not cached.
  bool Hit = true;
  EXPECT_EQ(C.getOrBuild("bad", [] { return NativeImageCache::Image(); },
                         Hit),
            nullptr);
  EXPECT_FALSE(Hit);
  EXPECT_EQ(C.entries(), 3u);
  C.clear();
  EXPECT_EQ(C.entries(), 0u);
  EXPECT_EQ(C.bytes(), 0u);
}

TEST(NativeImageCacheTest, BuildsOnceAndRemovesTheBuildDirectory) {
  DensityModel DM = loadModel(models::HLR, hlrTypes());
  LowppProc LL = genLikelihoodProc("llp_0", DM.Joint.Factors, "ll_llp_0");
  Recorder &R = enabledGlobalRecorder();
  NativeImageCache::global().clear();
  std::set<std::string> Before = nativeBuildDirs();
  uint64_t Builds0 = R.counterValue("cgen/cc_builds");
  uint64_t Hits0 = R.counterValue("cgen/image_hits");

  auto A = hlrNativeEngine(DM, LL);
  A->runProc("llp_0");
  ASSERT_TRUE(A->isNative("llp_0")) << A->fallbackReason("llp_0");
  EXPECT_EQ(R.counterValue("cgen/cc_builds"), Builds0 + 1);
  EXPECT_TRUE(survivingBuildDirs(Before).empty());

  // A second engine loads the cached image: no build, same result.
  auto B = hlrNativeEngine(DM, LL);
  B->runProc("llp_0");
  ASSERT_TRUE(B->isNative("llp_0")) << B->fallbackReason("llp_0");
  EXPECT_EQ(R.counterValue("cgen/cc_builds"), Builds0 + 1);
  EXPECT_EQ(R.counterValue("cgen/image_hits"), Hits0 + 1);
  EXPECT_EQ(A->env().at("ll_llp_0").asReal(),
            B->env().at("ll_llp_0").asReal());
}

TEST(NativeImageCacheTest, CompilerDiagnosticsReachTheFallbackReason) {
  DensityModel DM = loadModel(models::HLR, hlrTypes());
  LowppProc LL = genLikelihoodProc("llp_0", DM.Joint.Factors, "ll_llp_0");
  std::set<std::string> Before = nativeBuildDirs();
  auto Nat = hlrNativeEngine(DM, LL, "cc -include /nonexistent/augur.h");
  Nat->runProc("llp_0"); // falls back to the interpreter
  EXPECT_FALSE(Nat->isNative("llp_0"));
  std::string Why = Nat->fallbackReason("llp_0");
  EXPECT_NE(Why.find("host C compiler failed"), std::string::npos) << Why;
  EXPECT_NE(Why.find("/nonexistent/augur.h"), std::string::npos) << Why;
  EXPECT_TRUE(survivingBuildDirs(Before).empty());
}

TEST(NativeImageCacheTest, FourChainsBuildOnlyInTheFirstChain) {
  // Builds depend on the distinct modules, not on the chain count:
  // chains 1..3 load what chain 0 built, also when the chains run
  // concurrently on the pool.
  const int64_t N = 120, Kf = 3;
  RNG DataRng(5);
  BlockedReal X = BlockedReal::rect(N, Kf, 0.0);
  BlockedInt Y = BlockedInt::flat(N, 0);
  for (int64_t I = 0; I < N; ++I) {
    for (int64_t J = 0; J < Kf; ++J)
      X.at(I, J) = DataRng.gauss();
    Y.at(I) = DataRng.uniform() < 0.5 ? 1 : 0;
  }
  Env Data;
  Data["y"] = Value::intVec(std::move(Y));
  std::vector<Value> Args = {
      Value::realScalar(1.0), Value::intScalar(N), Value::intScalar(Kf),
      Value::realVec(X, Type::vec(Type::vec(Type::realTy())))};

  Recorder &R = enabledGlobalRecorder();
  auto Run = [&](int Chains) {
    NativeImageCache::global().clear();
    uint64_t Builds0 = R.counterValue("cgen/cc_builds");
    uint64_t Hits0 = R.counterValue("cgen/image_hits");
    Infer Aug(models::HLR);
    CompileOptions O;
    O.Seed = 0xCAC4E;
    O.NativeCpu = true;
    O.Par.NumThreads = 2;
    O.Par.Chains = Chains;
    O.Hmc.StepSize = 0.02;
    O.Hmc.LeapfrogSteps = 4;
    Aug.setCompileOpt(O);
    EXPECT_TRUE(Aug.compile(Args, Data).ok());
    SampleOptions SO;
    SO.NumSamples = 3;
    auto Sets = Aug.sampleChains(SO);
    EXPECT_TRUE(Sets.ok()) << Sets.message();
    return std::make_pair(R.counterValue("cgen/cc_builds") - Builds0,
                          R.counterValue("cgen/image_hits") - Hits0);
  };
  auto [Builds1, Hits1] = Run(1);
  ASSERT_GT(Builds1, 0u);
  auto [Builds4, Hits4] = Run(4);
  EXPECT_EQ(Builds4, Builds1);
  EXPECT_GT(Hits4, Hits1);
}

namespace {

/// OS threads of this process.
int64_t liveThreads() {
  int64_t N = 0;
  if (DIR *D = opendir("/proc/self/task")) {
    while (dirent *E = readdir(D))
      N += E->d_name[0] != '.';
    closedir(D);
  }
  return N;
}

/// Mappings of loaded native images in this process.
int64_t imageMappings() {
  std::ifstream Maps("/proc/self/maps");
  int64_t N = 0;
  for (std::string Line; std::getline(Maps, Line);)
    N += Line.find("augur_image") != std::string::npos;
  return N;
}

} // namespace

TEST(NativeEngineTest, PooledCyclesLeaveThreadsAndImageMappingsFlat) {
  // Emitted modules own no threads, and a destroyed program unmaps its
  // images, so compiling, sampling and destroying a pooled native
  // program over and over leaves both counts where the first cycle
  // (which builds the image and the process-wide pool) left them.
  const int64_t N = 64, Kf = 3;
  RNG DataRng(9);
  BlockedReal X = BlockedReal::rect(N, Kf, 0.0);
  BlockedInt Y = BlockedInt::flat(N, 0);
  for (int64_t I = 0; I < N; ++I) {
    for (int64_t J = 0; J < Kf; ++J)
      X.at(I, J) = DataRng.gauss();
    Y.at(I) = DataRng.uniform() < 0.5 ? 1 : 0;
  }
  Env Data;
  Data["y"] = Value::intVec(std::move(Y));
  std::vector<Value> Args = {
      Value::realScalar(1.0), Value::intScalar(N), Value::intScalar(Kf),
      Value::realVec(X, Type::vec(Type::vec(Type::realTy())))};
  auto Cycle = [&] {
    Infer Aug(models::HLR);
    CompileOptions O;
    O.Seed = 0x1EA4;
    O.NativeCpu = true;
    O.Par.NumThreads = 2;
    O.Hmc.StepSize = 0.02;
    O.Hmc.LeapfrogSteps = 4;
    Aug.setCompileOpt(O);
    ASSERT_TRUE(Aug.compile(Args, Data).ok());
    ASSERT_TRUE(Aug.sample(2).ok());
    auto *NE = dynamic_cast<NativeEngine *>(&Aug.program().engine());
    ASSERT_NE(NE, nullptr);
    for (const auto &CU : Aug.program().updates()) {
      if (!CU.GradProc.empty()) {
        ASSERT_TRUE(NE->isNative(CU.GradProc))
            << NE->fallbackReason(CU.GradProc);
      }
    }
  };
  Cycle();
  int64_t Threads0 = liveThreads(), Maps0 = imageMappings();
  EXPECT_EQ(Maps0, 0);
  for (int I = 1; I < 50; ++I)
    Cycle();
  EXPECT_EQ(liveThreads(), Threads0);
  EXPECT_EQ(imageMappings(), Maps0);
}

TEST(ParallelNativeImage, EnginesFromOneImageRunConcurrently) {
  // Two engines loaded from one cached image of a pooled module run
  // concurrently on one shared pool (the loser of a region runs it
  // inline) and match a serial run bit for bit: the map-reduce plan
  // makes the pooled sum width-invariant.
  DensityModel DM = loadModel(models::HLR, hlrTypes());
  LowppProc LL = genLikelihoodProc("llp_mr", DM.Joint.Factors, "ll_llp_mr");
  Recorder &R = enabledGlobalRecorder();
  ParallelConfig PC;
  PC.NumThreads = 2;
  PC.Grain = 8;
  auto Make = [&] {
    auto Nat = std::make_unique<NativeEngine>(42);
    Nat->env() = hlrEnv(400, 4, 3);
    RNG Rng(3);
    EXPECT_TRUE(forwardSampleModel(DM, Nat->env(), Rng, true).ok());
    Nat->addProc(LL);
    CpuReduceOptions O;
    O.Mode = ReduceMode::MapReduce;
    EXPECT_GE(Nat->planReductions(O).MapReduceSites, 1);
    Nat->setParallel(&ThreadPool::global(PC.NumThreads), PC);
    return Nat;
  };
  const int Steps = 40;
  auto Stream = [&](NativeEngine &E) {
    std::vector<double> Out;
    for (int S = 0; S < Steps; ++S) {
      E.env()["b"] = Value::realScalar(0.05 * S - 1.0);
      E.runProc("llp_mr");
      Out.push_back(E.env().at("ll_llp_mr").asReal());
    }
    return Out;
  };

  NativeImageCache::global().clear();
  auto Serial = Make();
  std::vector<double> Want = Stream(*Serial);
  ASSERT_TRUE(Serial->isNative("llp_mr")) << Serial->fallbackReason("llp_mr");

  uint64_t Hits0 = R.counterValue("cgen/image_hits");
  auto A = Make(), B = Make();
  std::vector<double> GotA, GotB;
  std::thread TA([&] { GotA = Stream(*A); });
  std::thread TB([&] { GotB = Stream(*B); });
  TA.join();
  TB.join();
  ASSERT_TRUE(A->isNative("llp_mr")) << A->fallbackReason("llp_mr");
  ASSERT_TRUE(B->isNative("llp_mr")) << B->fallbackReason("llp_mr");
  EXPECT_EQ(R.counterValue("cgen/image_hits"), Hits0 + 2);
  ASSERT_EQ(GotA.size(), Want.size());
  ASSERT_EQ(GotB.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    EXPECT_EQ(std::memcmp(&GotA[I], &Want[I], sizeof(double)), 0) << I;
    EXPECT_EQ(std::memcmp(&GotB[I], &Want[I], sizeof(double)), 0) << I;
  }
}

TEST(NativeImageCacheTest, ForkedChildLoadsWhileParentThreadHoldsTheLock) {
  // A daemon thread may hold the cache lock at the fork instant; the
  // forked worker must still build and load its first native module.
  DensityModel DM = loadModel(models::HLR, hlrTypes());
  LowppProc LL = genLikelihoodProc("llp_0", DM.Joint.Factors, "ll_llp_0");
  std::mutex M;
  std::condition_variable Cv;
  bool Held = false, Release = false;
  std::thread Holder([&] {
    auto Lock = NativeImageCache::global().debugLock();
    std::unique_lock<std::mutex> L(M);
    Held = true;
    Cv.notify_all();
    Cv.wait(L, [&] { return Release; });
  });
  {
    std::unique_lock<std::mutex> L(M);
    Cv.wait(L, [&] { return Held; });
  }
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    NativeImageCache::global().reinitAfterFork();
    auto Nat = hlrNativeEngine(DM, LL);
    Nat->runProc("llp_0");
    _exit(Nat->isNative("llp_0") ? 0 : 3);
  }
  int Status = 0;
  pid_t Done = 0;
  for (int Try = 0; Try < 300 && Done == 0; ++Try) {
    Done = waitpid(Pid, &Status, WNOHANG);
    if (Done == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (Done == 0) {
    kill(Pid, SIGKILL);
    waitpid(Pid, &Status, 0);
  }
  {
    std::lock_guard<std::mutex> L(M);
    Release = true;
  }
  Cv.notify_all();
  Holder.join();
  ASSERT_NE(Done, 0) << "forked child deadlocked on the cache lock";
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0) << "child did not run natively";
}

TEST(CudaEmit, LikelihoodKernelsHaveMapReduceShape) {
  DensityModel DM = loadModel(models::HLR, hlrTypes());
  LowppProc LL = genLikelihoodProc("ll_joint", DM.Joint.Factors, "ll");
  Env E = hlrEnv(5000, 4, 13);
  E["sigma2"] = Value::realScalar(1.0);
  E["b"] = Value::realScalar(0.0);
  E["theta"] = Value::realVec(BlockedReal::flat(4, 0.0));
  E["y"] = Value::intVec(BlockedInt::flat(5000, 0));
  BlkOptions O;
  BlkProc B = optimizeToBlk(LL, E, O);
  std::string Cuda = emitCuda(B);
  // The data factor converts to a summation block: shared-memory tree
  // reduction + one atomicAdd per thread block.
  EXPECT_NE(Cuda.find("__global__ void ll_joint_k"), std::string::npos)
      << Cuda;
  EXPECT_NE(Cuda.find("__shared__ double s_partial[256];"),
            std::string::npos);
  EXPECT_NE(Cuda.find("__syncthreads();"), std::string::npos);
  EXPECT_NE(Cuda.find("atomicAdd(&ll, s_partial[0]);"), std::string::npos);
  EXPECT_NE(Cuda.find("blockIdx.x * blockDim.x + threadIdx.x"),
            std::string::npos);
  EXPECT_NE(Cuda.find("extern \"C\" void ll_joint(augur_frame *f"),
            std::string::npos);
  EXPECT_NE(Cuda.find("cudaDeviceSynchronize();"), std::string::npos);
}

TEST(CudaEmit, GradientKernelUsesAtomicAdd) {
  Type VecR = Type::vec(Type::realTy());
  DensityModel DM = loadModel(models::GMM,
                              {{"K", Type::intTy()},
                               {"N", Type::intTy()},
                               {"mu_0", VecR},
                               {"Sigma_0", Type::mat()},
                               {"pis", VecR},
                               {"Sigma", Type::mat()}});
  BlockCond BC = restrictJoint(DM, {"mu"});
  auto Grad = genGradProc("grad_mu", BC, {"mu"}).take();
  BlkProc B = lowerToBlk(Grad);
  std::string Cuda = emitCuda(B);
  // The paper's grad_mu example: AtmPar over data points with atomic
  // accumulation into adj_mu through the assignment index.
  EXPECT_NE(Cuda.find("atomicAdd(&adj_mu[z[n]]"), std::string::npos)
      << Cuda;
  EXPECT_NE(Cuda.find("augur_dev_mvnormal_grad1"), std::string::npos);
}

TEST(CudaEmit, GibbsKernelCallsDeviceRuntime) {
  Type VecR = Type::vec(Type::realTy());
  DensityModel DM = loadModel(models::GMM,
                              {{"K", Type::intTy()},
                               {"N", Type::intTy()},
                               {"mu_0", VecR},
                               {"Sigma_0", Type::mat()},
                               {"pis", VecR},
                               {"Sigma", Type::mat()}});
  auto C = computeConditional(DM, "z").take();
  auto Proc = genEnumGibbsProc("gibbs_z", C).take();
  BlkProc B = lowerToBlk(Proc);
  std::string Cuda = emitCuda(B);
  EXPECT_NE(Cuda.find("augur_dev_sample_logits(&rng[tid]"),
            std::string::npos)
      << Cuda;
  EXPECT_NE(Cuda.find("augur_dev_categorical_ll"), std::string::npos);
  EXPECT_NE(Cuda.find("augur_dev_mvnormal_ll"), std::string::npos);
}

TEST(CudaEmit, DeviceRuntimeHeaderIsSelfContained) {
  std::string H = deviceRuntimeHeader();
  // Frame and RNG types plus the device ops the emitted kernels call.
  EXPECT_NE(H.find("struct augur_frame"), std::string::npos);
  EXPECT_NE(H.find("struct augur_rng"), std::string::npos);
  for (const char *Fn :
       {"augur_dev_normal_ll", "augur_dev_mvnormal_ll",
        "augur_dev_categorical_ll", "augur_dev_sample_logits",
        "augur_dev_gamma_sample", "augur_dev_accum_vec",
        "augur_dev_accum_outer"})
    EXPECT_NE(H.find(Fn), std::string::npos) << Fn;
  // Everything is __device__ (no host dependencies).
  EXPECT_NE(H.find("__device__ inline double augur_dev_normal_ll"),
            std::string::npos);
}
