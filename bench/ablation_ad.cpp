//===- bench/ablation_ad.cpp - Ablation A4 --------------------*- C++ -*-===//
//
// Ablation of the AD strategy (paper Section 4.4): AugurV2 implements
// source-to-source reverse-mode AD ("instead of ... instrumenting the
// program" like Stan). Measures one full HLR gradient evaluation three
// ways: AugurV2's generated adjoint code compiled to native C, the same
// code interpreted, and the tape (instrumented) AD of the Stan-like
// baseline. Also reports the tape's allocation footprint, which
// source-to-source AD avoids entirely (the paper's point about
// optimizing away the stack under parallel-comprehension semantics).
//
// Each time is the fastest of several trials of a block of gradient
// evaluations, so one descheduled trial does not move the ratio.
//
// --smoke runs a smaller problem and exits nonzero unless the native
// gradient is bitwise equal to the interpreted one and at least 5x
// faster than the tape (the generated adjoint evaluates each forward
// value once; ~45x was measured at full size).
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstring>
#include <functional>

#include "../bench/BenchCommon.h"
#include "baselines/stan/StanSampler.h"
#include "cgen/Native.h"
#include "density/Forward.h"
#include "density/Frontend.h"
#include "kernel/KernelIR.h"
#include "lowpp/Reify.h"

using namespace augur;
using namespace augur::bench;

namespace {

constexpr double SmokeMinSpeedup = 5.0;

/// Fastest of \p Trials timed blocks of \p Evals calls to \p Eval.
double bestSeconds(int Trials, int Evals, const std::function<void()> &Eval) {
  double Best = 0.0;
  for (int T = 0; T < Trials; ++T) {
    Timer Clock;
    for (int I = 0; I < Evals; ++I)
      Eval();
    double S = Clock.seconds();
    Best = T == 0 ? S : std::min(Best, S);
  }
  return Best;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof A) == 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::string(Argv[I]) == "--smoke")
      Smoke = true;
  const int64_t N = Smoke ? 1000 : 5000, Kf = 16;
  const int Evals = Smoke ? 10 : 50, Trials = Smoke ? 5 : 3;

  std::printf("== Ablation A4: source-to-source vs tape AD ==\n");
  std::printf("HLR gradient (n=%lld, %lld features), best of %d x %d "
              "evaluations\n\n",
              (long long)N, (long long)Kf, Trials, Evals);

  LogisticData L = logisticData(N, Kf, 13);

  auto M = parseModel(models::HLR);
  auto TM = typeCheck(M.take(),
                      {{"lambda", Type::realTy()},
                       {"N", Type::intTy()},
                       {"Kf", Type::intTy()},
                       {"x", Type::vec(Type::vec(Type::realTy()))}});
  DensityModel DM = lowerToDensity(TM.take());
  std::vector<std::string> Targets = {"sigma2", "b", "theta"};
  BlockCond BC = restrictJoint(DM, Targets);
  LowppProc Grad = genGradProc("grad_hlr", BC, Targets).take();

  auto Seed = [&](Engine &Eng) {
    Env &E = Eng.env();
    E["lambda"] = Value::realScalar(1.0);
    E["N"] = Value::intScalar(N);
    E["Kf"] = Value::intScalar(Kf);
    E["x"] = Value::realVec(L.X, Type::vec(Type::vec(Type::realTy())));
    E["y"] = Value::intVec(L.Y);
    E["sigma2"] = Value::realScalar(1.0);
    E["b"] = Value::realScalar(0.1);
    E["theta"] = Value::realVec(BlockedReal::flat(Kf, 0.1));
    for (const auto &T : Targets)
      E["adj_" + T] = zerosLike(E.at(T));
  };

  // Each engine's first evaluation (the native one pays cc + dlopen
  // here, outside the timer) starts from zeroed adjoints; those are
  // the gradients compared bitwise.
  NativeEngine Nat(1);
  Seed(Nat);
  Nat.addProc(Grad);
  Nat.runProc("grad_hlr");
  InterpEngine Interp(1);
  Seed(Interp);
  Interp.addProc(Grad);
  Interp.runProc("grad_hlr");
  bool Compiled = Nat.isNative("grad_hlr");
  bool Identical = sameBits(Nat.env().at("adj_sigma2").asReal(),
                            Interp.env().at("adj_sigma2").asReal()) &&
                   sameBits(Nat.env().at("adj_b").asReal(),
                            Interp.env().at("adj_b").asReal());
  for (int64_t K = 0; K < Kf; ++K)
    Identical = Identical &&
                sameBits(Nat.env().at("adj_theta").realVec().at(K),
                         Interp.env().at("adj_theta").realVec().at(K));

  double NativeSecs =
      bestSeconds(Trials, Evals, [&] { Nat.runProc("grad_hlr"); });
  std::printf("source-to-source, native C:   %10.4f s  (%s)\n", NativeSecs,
              Compiled ? "compiled" : "FELL BACK");
  double InterpSecs =
      bestSeconds(Trials, Evals, [&] { Interp.runProc("grad_hlr"); });
  std::printf("source-to-source, interpreted:%10.4f s\n", InterpSecs);

  std::vector<std::vector<double>> X(static_cast<size_t>(N),
                                     std::vector<double>(Kf));
  std::vector<int> Y(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I) {
    for (int64_t K = 0; K < Kf; ++K)
      X[static_cast<size_t>(I)][static_cast<size_t>(K)] = L.X.at(I, K);
    Y[static_cast<size_t>(I)] = static_cast<int>(L.Y.at(I));
  }
  stanb::StanSampler S(std::make_unique<stanb::HlrStanModel>(1.0, X, Y), 1);
  S.gradient(); // warm up
  double TapeSecs = bestSeconds(Trials, Evals, [&] { S.gradient(); });
  std::printf("tape (instrumented) AD:       %10.4f s  "
              "(tape: %zu nodes/eval ~ %.1f MB)\n",
              TapeSecs, S.lastTapeSize(),
              double(S.lastTapeSize()) * sizeof(stanb::Tape::Node) / 1e6);

  double Speedup = TapeSecs / NativeSecs;
  std::printf("\nnative/tape = %.2fx   interp/native = %.1fx   "
              "native == interp gradient: %s\n",
              Speedup, InterpSecs / NativeSecs,
              Identical ? "bitwise" : "DIFFERS");
  std::printf("tape allocates the whole computation graph per evaluation; "
              "the generated\nadjoint code allocates nothing (the paper's "
              "stack is optimized away by\nparallel-comprehension "
              "order-independence).\n");

  if (!Smoke)
    return 0;
  if (!Compiled) {
    std::fprintf(stderr, "native gradient fell back: %s\n",
                 Nat.fallbackReason("grad_hlr").c_str());
    return 1;
  }
  if (!Identical) {
    std::fprintf(stderr, "native gradient differs from the interpreter\n");
    return 1;
  }
  if (Speedup < SmokeMinSpeedup) {
    std::fprintf(stderr, "native/tape %.2fx below the %.1fx floor\n",
                 Speedup, SmokeMinSpeedup);
    return 1;
  }
  return 0;
}
