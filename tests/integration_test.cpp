//===- tests/integration_test.cpp - End-to-end inference ------*- C++ -*-===//
//
// Compiles the paper's models all the way to composite MCMC algorithms
// and checks statistical correctness: posterior means against analytic
// values on conjugate models, cluster recovery on mixtures, sign
// recovery on logistic regression, and schedule validation errors.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "api/Infer.h"
#include "models/PaperModels.h"

using namespace augur;

namespace {

/// Synthetic 2-D GMM data with well-separated clusters at (+-4, +-4).
Env gmmData(int64_t N, RNG &Rng) {
  BlockedReal X = BlockedReal::rect(N, 2, 0.0);
  for (int64_t I = 0; I < N; ++I) {
    int C = static_cast<int>(Rng.uniformInt(2));
    double Cx = C == 0 ? 4.0 : -4.0;
    double Cy = C == 0 ? 4.0 : -4.0;
    X.at(I, 0) = Rng.gauss(Cx, 1.0);
    X.at(I, 1) = Rng.gauss(Cy, 1.0);
  }
  Env Data;
  Data["x"] = Value::realVec(std::move(X),
                             Type::vec(Type::vec(Type::realTy())));
  return Data;
}

std::vector<Value> gmmArgs(int64_t K, int64_t N) {
  return {Value::intScalar(K),
          Value::intScalar(N),
          Value::realVec(BlockedReal::flat(2, 0.0)),
          Value::matrix(Matrix::diagonal({25.0, 25.0})),
          Value::realVec(BlockedReal::flat(K, 1.0 / double(K))),
          Value::matrix(Matrix::diagonal({1.0, 1.0}))};
}

/// Checks the sampled cluster means recover {(4,4), (-4,-4)} under some
/// labeling.
void expectClusterRecovery(const SampleSet &S, double Tol) {
  const auto &Draws = S.Draws.at("mu");
  size_t Half = Draws.size() / 2; // discard the first half as burn-in
  double M00 = 0, M01 = 0, M10 = 0, M11 = 0;
  size_t Count = 0;
  for (size_t I = Half; I < Draws.size(); ++I) {
    const BlockedReal &Mu = Draws[I].realVec();
    M00 += Mu.at(0, 0);
    M01 += Mu.at(0, 1);
    M10 += Mu.at(1, 0);
    M11 += Mu.at(1, 1);
    ++Count;
  }
  M00 /= Count;
  M01 /= Count;
  M10 /= Count;
  M11 /= Count;
  bool LabelA = std::abs(M00 - 4) < Tol && std::abs(M01 - 4) < Tol &&
                std::abs(M10 + 4) < Tol && std::abs(M11 + 4) < Tol;
  bool LabelB = std::abs(M00 + 4) < Tol && std::abs(M01 + 4) < Tol &&
                std::abs(M10 - 4) < Tol && std::abs(M11 - 4) < Tol;
  EXPECT_TRUE(LabelA || LabelB)
      << "mu means: (" << M00 << "," << M01 << ") (" << M10 << "," << M11
      << ")";
}

} // namespace

TEST(EndToEnd, GmmHeuristicScheduleIsGibbs) {
  Infer Aug(models::GMM);
  RNG DataRng(61);
  ASSERT_TRUE(Aug.compile(gmmArgs(2, 100), gmmData(100, DataRng)).ok());
  std::string Sched = Aug.program().schedule().str();
  EXPECT_NE(Sched.find("Gibbs Single(mu) [MvNormal-MvNormal (mean)]"),
            std::string::npos)
      << Sched;
  EXPECT_NE(Sched.find("Gibbs Single(z) [enumerated]"), std::string::npos)
      << Sched;
}

TEST(EndToEnd, GmmGibbsRecoversClusters) {
  Infer Aug(models::GMM);
  RNG DataRng(67);
  ASSERT_TRUE(Aug.compile(gmmArgs(2, 200), gmmData(200, DataRng)).ok());
  auto S = Aug.sample(100);
  ASSERT_TRUE(S.ok()) << S.message();
  expectClusterRecovery(*S, 0.5);
}

TEST(EndToEnd, GmmEslicePlusGibbsSchedule) {
  // The exact user schedule of the paper's Fig. 2.
  Infer Aug(models::GMM);
  Aug.setUserSched("ESlice mu (*) Gibbs z");
  RNG DataRng(71);
  ASSERT_TRUE(Aug.compile(gmmArgs(2, 150), gmmData(150, DataRng)).ok());
  EXPECT_NE(Aug.program().schedule().str().find("ESlice Single(mu)"),
            std::string::npos);
  auto S = Aug.sample(150);
  ASSERT_TRUE(S.ok()) << S.message();
  expectClusterRecovery(*S, 0.8);
}

TEST(EndToEnd, GmmHmcPlusGibbsSchedule) {
  Infer Aug(models::GMM);
  Aug.setUserSched("HMC mu (*) Gibbs z");
  CompileOptions O;
  O.Hmc.StepSize = 0.02;
  O.Hmc.LeapfrogSteps = 12;
  O.UserSchedule = "HMC mu (*) Gibbs z";
  Aug.setCompileOpt(O);
  RNG DataRng(73);
  ASSERT_TRUE(Aug.compile(gmmArgs(2, 150), gmmData(150, DataRng)).ok());
  auto S = Aug.sample(200);
  ASSERT_TRUE(S.ok()) << S.message();
  expectClusterRecovery(*S, 1.0);
  // HMC must actually accept a healthy fraction of proposals.
  for (auto &CU : Aug.program().updates()) {
    if (CU.U.Kind == UpdateKind::Grad) {
      EXPECT_GT(CU.Stats.acceptRate(), 0.5);
    }
  }
}

TEST(EndToEnd, ConjugateScalarPosteriorMatchesAnalytic) {
  const char *Src = "(N) => { param m ~ Normal(0.0, 100.0) ; "
                    "data y[n] ~ Normal(m, 4.0) for n <- 0 until N ; }";
  const int64_t N = 40;
  RNG DataRng(79);
  BlockedReal Y = BlockedReal::flat(N, 0.0);
  double SumY = 0.0;
  for (int64_t I = 0; I < N; ++I) {
    Y.at(I) = DataRng.gauss(2.0, 2.0);
    SumY += Y.at(I);
  }
  Env Data;
  Data["y"] = Value::realVec(std::move(Y));

  Infer Aug(Src);
  ASSERT_TRUE(Aug.compile({Value::intScalar(N)}, Data).ok());
  SampleOptions SO;
  SO.NumSamples = 4000;
  auto S = Aug.sample(SO);
  ASSERT_TRUE(S.ok()) << S.message();
  double PostVar = 1.0 / (1.0 / 100.0 + N / 4.0);
  double PostMean = PostVar * (SumY / 4.0);
  EXPECT_NEAR(S->scalarMean("m"), PostMean, 0.05);
}

TEST(EndToEnd, HierarchicalNormalFullGibbs) {
  // Both parameters conjugate: mean and variance of a normal.
  const char *Src =
      "(N) => { param v ~ InvGamma(3.0, 3.0) ; "
      "param m ~ Normal(0.0, 50.0) ; "
      "data y[n] ~ Normal(m, v) for n <- 0 until N ; }";
  const int64_t N = 300;
  RNG DataRng(83);
  BlockedReal Y = BlockedReal::flat(N, 0.0);
  double SumY = 0.0;
  for (int64_t I = 0; I < N; ++I) {
    Y.at(I) = DataRng.gauss(1.5, std::sqrt(2.0));
    SumY += Y.at(I);
  }
  Env Data;
  Data["y"] = Value::realVec(std::move(Y));

  Infer Aug(Src);
  ASSERT_TRUE(Aug.compile({Value::intScalar(N)}, Data).ok());
  // Heuristic gives a full Gibbs schedule.
  std::string Sched = Aug.program().schedule().str();
  EXPECT_NE(Sched.find("InvGamma-Normal"), std::string::npos) << Sched;
  EXPECT_NE(Sched.find("Normal-Normal"), std::string::npos) << Sched;
  SampleOptions SO;
  SO.NumSamples = 2000;
  SO.BurnIn = 200;
  auto S = Aug.sample(SO);
  ASSERT_TRUE(S.ok()) << S.message();
  EXPECT_NEAR(S->scalarMean("m"), SumY / N, 0.1);
  // Posterior variance estimate should be near the true variance 2.
  double VMean = S->scalarMean("v");
  EXPECT_NEAR(VMean, 2.0, 0.5);
}

TEST(EndToEnd, HlrHeuristicIsSingleHmcBlock) {
  Infer Aug(models::HLR);
  const int64_t N = 200, Kf = 3;
  RNG DataRng(89);
  // True weights (2, -2, 1), bias 0.5.
  std::vector<double> Theta = {2.0, -2.0, 1.0};
  BlockedReal X = BlockedReal::rect(N, Kf, 0.0);
  BlockedInt Y = BlockedInt::flat(N, 0);
  for (int64_t I = 0; I < N; ++I) {
    double Dot = 0.5;
    for (int64_t J = 0; J < Kf; ++J) {
      X.at(I, J) = DataRng.gauss();
      Dot += X.at(I, J) * Theta[static_cast<size_t>(J)];
    }
    Y.at(I) = DataRng.uniform() < 1.0 / (1.0 + std::exp(-Dot)) ? 1 : 0;
  }
  Env Data;
  Data["y"] = Value::intVec(std::move(Y));

  CompileOptions O;
  O.Hmc.StepSize = 0.02;
  O.Hmc.LeapfrogSteps = 15;
  Aug.setCompileOpt(O);
  ASSERT_TRUE(Aug.compile({Value::realScalar(1.0), Value::intScalar(N),
                           Value::intScalar(Kf),
                           Value::realVec(X, Type::vec(Type::vec(
                                                 Type::realTy())))},
                          Data)
                  .ok());
  std::string Sched = Aug.program().schedule().str();
  EXPECT_NE(Sched.find("HMC Block(sigma2, b, theta)"), std::string::npos)
      << Sched;

  SampleOptions SO;
  SO.NumSamples = 150;
  SO.BurnIn = 100;
  auto S = Aug.sample(SO);
  ASSERT_TRUE(S.ok()) << S.message();
  // Posterior means of theta recover the signs and rough magnitudes.
  double T0 = 0, T1 = 0, T2 = 0;
  for (const auto &Draw : S->Draws.at("theta")) {
    T0 += Draw.realVec().at(0);
    T1 += Draw.realVec().at(1);
    T2 += Draw.realVec().at(2);
  }
  double M = double(S->size());
  EXPECT_GT(T0 / M, 0.8);
  EXPECT_LT(T1 / M, -0.8);
  EXPECT_GT(T2 / M, 0.2);
  // sigma2 stays positive through the log transform.
  for (const auto &Draw : S->Draws.at("sigma2"))
    EXPECT_GT(Draw.asReal(), 0.0);
}

TEST(EndToEnd, HgmmFullConjugateSchedule) {
  Infer Aug(models::HGMM);
  const int64_t K = 2, N = 80;
  RNG DataRng(97);
  BlockedReal Y = BlockedReal::rect(N, 2, 0.0);
  for (int64_t I = 0; I < N; ++I) {
    int C = static_cast<int>(DataRng.uniformInt(2));
    Y.at(I, 0) = DataRng.gauss(C == 0 ? 3.0 : -3.0, 1.0);
    Y.at(I, 1) = DataRng.gauss(C == 0 ? 3.0 : -3.0, 1.0);
  }
  Env Data;
  Data["y"] = Value::realVec(std::move(Y),
                             Type::vec(Type::vec(Type::realTy())));
  ASSERT_TRUE(Aug.compile({Value::intScalar(K), Value::intScalar(N),
                           Value::realVec(BlockedReal::flat(K, 1.0)),
                           Value::realVec(BlockedReal::flat(2, 0.0)),
                           Value::matrix(Matrix::diagonal({16.0, 16.0})),
                           Value::realScalar(6.0),
                           Value::matrix(Matrix::diagonal({2.0, 2.0}))},
                          Data)
                  .ok());
  std::string Sched = Aug.program().schedule().str();
  EXPECT_NE(Sched.find("Dirichlet-Categorical"), std::string::npos);
  EXPECT_NE(Sched.find("MvNormal-MvNormal"), std::string::npos);
  EXPECT_NE(Sched.find("InvWishart-MvNormal"), std::string::npos);
  EXPECT_NE(Sched.find("Gibbs Single(z) [enumerated]"), std::string::npos);

  SampleOptions SO;
  SO.NumSamples = 60;
  SO.TrackLogJoint = true;
  auto S = Aug.sample(SO);
  ASSERT_TRUE(S.ok()) << S.message();
  // Chain settles: the mean log joint of the last third beats the
  // first third.
  double Early = 0, Late = 0;
  size_t Third = S->size() / 3;
  for (size_t I = 0; I < Third; ++I)
    Early += S->LogJoint[I];
  for (size_t I = S->size() - Third; I < S->size(); ++I)
    Late += S->LogJoint[I];
  EXPECT_GT(Late / Third, Early / Third);
  // Mixture weights stay on the simplex.
  for (const auto &Draw : S->Draws.at("pi")) {
    double Sum = 0.0;
    for (int64_t I = 0; I < K; ++I) {
      EXPECT_GT(Draw.realVec().at(I), 0.0);
      Sum += Draw.realVec().at(I);
    }
    EXPECT_NEAR(Sum, 1.0, 1e-9);
  }
}

TEST(EndToEnd, LdaAllGibbsSchedule) {
  Infer Aug(models::LDA);
  const int64_t K = 3, D = 20, V = 12;
  RNG DataRng(101);
  BlockedInt L = BlockedInt::flat(D, 0);
  std::vector<std::vector<int64_t>> Docs;
  for (int64_t I = 0; I < D; ++I) {
    int64_t Len = 20 + DataRng.uniformInt(10);
    L.at(I) = Len;
    std::vector<int64_t> Doc;
    // Two "true" topics: low words vs high words.
    bool Topic = DataRng.uniform() < 0.5;
    for (int64_t J = 0; J < Len; ++J)
      Doc.push_back(Topic ? DataRng.uniformInt(V / 2)
                          : V / 2 + DataRng.uniformInt(V / 2));
    Docs.push_back(std::move(Doc));
  }
  Env Data;
  Data["w"] = Value::intVec(BlockedInt::ragged(Docs),
                            Type::vec(Type::vec(Type::intTy())));
  ASSERT_TRUE(
      Aug.compile({Value::intScalar(K), Value::intScalar(D),
                   Value::intScalar(V),
                   Value::realVec(BlockedReal::flat(K, 0.5)),
                   Value::realVec(BlockedReal::flat(V, 0.5)),
                   Value::intVec(L)},
                  Data)
          .ok());
  std::string Sched = Aug.program().schedule().str();
  EXPECT_NE(Sched.find("Gibbs Single(theta)"), std::string::npos);
  EXPECT_NE(Sched.find("Gibbs Single(phi)"), std::string::npos);
  EXPECT_NE(Sched.find("Gibbs Single(z) [enumerated]"), std::string::npos);

  SampleOptions SO;
  SO.NumSamples = 30;
  SO.TrackLogJoint = true;
  auto S = Aug.sample(SO);
  ASSERT_TRUE(S.ok()) << S.message();
  EXPECT_GT(S->LogJoint.back(), S->LogJoint.front());
}

TEST(EndToEnd, ScheduleValidationErrors) {
  Infer Aug(models::GMM);
  RNG DataRng(103);
  Env Data = gmmData(20, DataRng);
  // HMC on a discrete variable must be rejected.
  Aug.setUserSched("Gibbs mu (*) HMC z");
  Status S = Aug.compile(gmmArgs(2, 20), Data);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("discrete"), std::string::npos);
  // Missing coverage must be rejected.
  Aug.setUserSched("Gibbs mu");
  S = Aug.compile(gmmArgs(2, 20), Data);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("does not cover"), std::string::npos);
  // Unknown variable must be rejected.
  Aug.setUserSched("Gibbs mu (*) Gibbs z (*) Gibbs bogus");
  S = Aug.compile(gmmArgs(2, 20), Data);
  ASSERT_FALSE(S.ok());
}

TEST(EndToEnd, RejectedProposalsRestoreState) {
  // A huge HMC step size forces rejections; the dual-state discipline
  // must leave the state exactly unchanged on rejection.
  Infer Aug(models::GMM);
  CompileOptions O;
  O.UserSchedule = "HMC mu (*) Gibbs z";
  O.Hmc.StepSize = 50.0; // absurd: essentially always rejected
  O.Hmc.LeapfrogSteps = 5;
  Aug.setCompileOpt(O);
  RNG DataRng(107);
  ASSERT_TRUE(Aug.compile(gmmArgs(2, 30), gmmData(30, DataRng)).ok());

  auto MuCopy = Aug.program().state().at("mu");
  McmcCtx Ctx;
  Ctx.Eng = &Aug.program().engine();
  Ctx.DM = &Aug.program().densityModel();
  auto &HmcUpdate = Aug.program().updates()[0];
  ASSERT_EQ(HmcUpdate.U.Kind, UpdateKind::Grad);
  for (int I = 0; I < 20; ++I)
    ASSERT_TRUE(runHmc(Ctx, HmcUpdate).ok());
  EXPECT_LT(HmcUpdate.Stats.acceptRate(), 0.3);
  // If everything was rejected, mu is bit-for-bit unchanged.
  if (HmcUpdate.Stats.Accepted == 0) {
    EXPECT_TRUE(Aug.program().state().at("mu") == MuCopy);
  }
  // Either way the state must still be finite and consistent.
  EXPECT_TRUE(std::isfinite(Aug.program().logJoint()));
}

TEST(EndToEnd, MhAndSliceSchedulesRunOnGmm) {
  for (const char *Sched : {"MH mu (*) Gibbs z", "Slice mu (*) Gibbs z"}) {
    Infer Aug(models::GMM);
    CompileOptions O;
    O.UserSchedule = Sched;
    O.Hmc.StepSize = 0.05;
    Aug.setCompileOpt(O);
    RNG DataRng(109);
    ASSERT_TRUE(Aug.compile(gmmArgs(2, 80), gmmData(80, DataRng)).ok())
        << Sched;
    SampleOptions SO;
    SO.NumSamples = 120;
    SO.TrackLogJoint = true;
    auto S = Aug.sample(SO);
    ASSERT_TRUE(S.ok()) << S.message();
    EXPECT_GT(S->LogJoint.back(), S->LogJoint.front()) << Sched;
    EXPECT_TRUE(std::isfinite(S->LogJoint.back()));
  }
}

TEST(EndToEnd, SamplerIsDeterministicGivenSeed) {
  auto RunOnce = [](uint64_t Seed) {
    Infer Aug(models::GMM);
    CompileOptions O;
    O.Seed = Seed;
    Aug.setCompileOpt(O);
    RNG DataRng(113);
    EXPECT_TRUE(Aug.compile(gmmArgs(2, 40), gmmData(40, DataRng)).ok());
    auto S = Aug.sample(20);
    EXPECT_TRUE(S.ok());
    return S->Draws.at("mu").back().realVec().flat();
  };
  EXPECT_EQ(RunOnce(5), RunOnce(5));
  EXPECT_NE(RunOnce(5), RunOnce(6));
}
