//===- perfbench/HmcHlr.cpp - Workload hmc-hlr ----------------*- C++ -*-===//
///
/// \file
/// Hierarchical logistic regression at the paper's Section 7.2
/// German-Credit shape (N=1000 rows, Kf=24 features): HMC with step
/// 0.015 and 10 leapfrog steps on the native backend, four chains one
/// after another on one thread (so emitted modules start no pthread
/// pools), diagnostics and per-draw log joint on. The time is gradient
/// work in generated C; set-up is dominated by host-cc builds.
///
//===----------------------------------------------------------------------===//

#include <cmath>

#include "Batch.h"
#include "Workloads.h"
#include "models/PaperModels.h"
#include "support/Format.h"
#include "support/RNG.h"

using namespace augur;
using namespace perfbench;

namespace {

constexpr int64_t N = 1000, Kf = 24;

/// Posterior means must have the generating coefficients' signs, lie
/// within Tolerance of them, and correlate with them at least MinCorr.
/// The posterior sd at this N is ~0.1-0.15 and the largest of 24 errors
/// reaches ~0.55 with 20 draws per chain after the first half; a sampler
/// that does not fit the data fails all three.
constexpr double Tolerance = 0.75, MinCorr = 0.8;

} // namespace

HlrData perfbench::makeHlrData(int64_t N, int64_t Kf, uint64_t Seed) {
  // Coefficients of magnitude 0.5-1.0: every sign is identifiable at
  // N=1000, and the data stay far from separable.
  RNG Rng(Seed);
  HlrData H;
  H.Truth.resize(static_cast<size_t>(Kf));
  for (auto &T : H.Truth)
    T = (Rng.uniform() < 0.5 ? -1.0 : 1.0) * (0.5 + 0.5 * Rng.uniform());
  BlockedReal X = BlockedReal::rect(N, Kf, 0.0);
  BlockedInt Y = BlockedInt::flat(N, 0);
  for (int64_t I = 0; I < N; ++I) {
    double Dot = 0.0;
    for (int64_t K = 0; K < Kf; ++K) {
      X.at(I, K) = Rng.gauss();
      Dot += X.at(I, K) * H.Truth[size_t(K)];
    }
    Y.at(I) = Rng.uniform() < 1.0 / (1.0 + std::exp(-Dot)) ? 1 : 0;
  }
  H.Args = {Value::realScalar(1.0), Value::intScalar(N), Value::intScalar(Kf),
            Value::realVec(X, Type::vec(Type::vec(Type::realTy())))};
  H.Data["y"] = Value::intVec(Y);
  return H;
}

void perfbench::runHmcHlr(const RunOptions &RO, NativeDirs &Dirs,
                          Report &R) {
  HlrData H = makeHlrData(N, Kf, RO.Seed);
  const std::vector<double> &Truth = H.Truth;
  BatchWorkload W;
  W.Source = models::HLR;
  W.Opts.NativeCpu = true;
  W.Opts.Hmc.StepSize = 0.015;
  W.Opts.Hmc.LeapfrogSteps = 10;
  W.Opts.Par.Chains = 4;
  W.Opts.Par.NumThreads = 1;
  W.Opts.Diag.Enabled = true;
  W.Args = H.Args;
  W.Data = H.Data;
  W.Draws = 40;
  W.Elems = double(N * Kf);
  W.ExpectNative = true;
  W.Check = [&](const std::vector<SampleSet> &Sets) -> std::string {
    // Per coefficient, the median over chains of each chain's mean over
    // its second half: with step 0.015 a chain that starts far out in the
    // prior may still be on its way in, and must not drag the estimate.
    std::vector<std::vector<double>> ChainMeans(static_cast<size_t>(Kf));
    for (const auto &S : Sets) {
      auto It = S.Draws.find("theta");
      if (It == S.Draws.end() || It->second.size() < 2)
        return "no theta draws";
      std::vector<double> Sum(static_cast<size_t>(Kf), 0.0);
      size_t From = It->second.size() / 2;
      for (size_t I = From; I < It->second.size(); ++I) {
        const auto &F = It->second[I].realVec().flat();
        if (F.size() != Sum.size())
          return "theta draw has the wrong shape";
        for (size_t K = 0; K < F.size(); ++K)
          Sum[K] += F[K];
      }
      for (size_t K = 0; K < Sum.size(); ++K)
        ChainMeans[K].push_back(Sum[K] / double(It->second.size() - From));
    }
    double SM = 0, ST = 0, SMM = 0, STT = 0, SMT = 0;
    for (size_t K = 0; K < ChainMeans.size(); ++K) {
      double M = median(ChainMeans[K]), T = Truth[K];
      if (M * T <= 0 || std::fabs(M - T) > Tolerance)
        return strFormat("theta[%zu] posterior mean %.3f vs generating %.3f",
                         K, M, T);
      SM += M;
      ST += T;
      SMM += M * M;
      STT += T * T;
      SMT += M * T;
    }
    double Kd = double(Kf);
    double Corr = (SMT - SM * ST / Kd) /
                  std::sqrt((SMM - SM * SM / Kd) * (STT - ST * ST / Kd));
    if (!(Corr >= MinCorr))
      return strFormat("posterior means correlate %.3f with the generating "
                       "coefficients",
                       Corr);
    return "";
  };
  R.note(strFormat("hmc-hlr: N=%lld Kf=%lld native HMC, tolerance %.2f, "
                   "min correlation %.2f",
                   (long long)N, (long long)Kf, Tolerance, MinCorr));
  runBatch(RO, W, Dirs, R);
}
