//===- tests/lowpp_test.cpp - Low++ codegen + interpreter -----*- C++ -*-===//
//
// Validates generated Low++ code against the density-evaluator oracle:
// reified likelihoods match evalLogJoint, AD gradients match finite
// differences (and the paper's AtmPar/stack-free structure), conjugate
// Gibbs posteriors match analytic formulas, and enumerated Gibbs matches
// exact conditional probabilities.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstring>
#include <functional>

#include <gtest/gtest.h>

#include "cgen/Native.h"
#include "density/Eval.h"
#include "density/Forward.h"
#include "density/Frontend.h"
#include "exec/Interp.h"
#include "kernel/Schedule.h"
#include "lang/Parser.h"
#include "lowpp/Reify.h"
#include "models/PaperModels.h"

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

std::map<std::string, Type> gmmTypes() {
  Type VecR = Type::vec(Type::realTy());
  return {{"K", Type::intTy()},   {"N", Type::intTy()},
          {"mu_0", VecR},         {"Sigma_0", Type::mat()},
          {"pis", VecR},          {"Sigma", Type::mat()}};
}

std::map<std::string, Type> hlrTypes() {
  return {{"lambda", Type::realTy()},
          {"N", Type::intTy()},
          {"Kf", Type::intTy()},
          {"x", Type::vec(Type::vec(Type::realTy()))}};
}

Env gmmEnv(int64_t K, int64_t N, uint64_t Seed) {
  Env E;
  E["K"] = Value::intScalar(K);
  E["N"] = Value::intScalar(N);
  E["mu_0"] = Value::realVec(BlockedReal::flat({0.0, 0.0}));
  E["Sigma_0"] = Value::matrix(Matrix::diagonal({9.0, 9.0}));
  E["pis"] = Value::realVec(BlockedReal::flat(K, 1.0 / double(K)));
  E["Sigma"] = Value::matrix(Matrix::diagonal({1.0, 1.0}));
  return E;
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

} // namespace

TEST(LikelihoodGen, MatchesEvalOracleOnGmm) {
  DensityModel DM = loadModel(models::GMM, gmmTypes());
  Env E = gmmEnv(3, 20, 11);
  RNG Rng(11);
  ASSERT_TRUE(forwardSampleModel(DM, E, Rng, true).ok());
  LowppProc LL = genLikelihoodProc("ll_joint", DM.Joint.Factors, "ll");
  Interp I(E, Rng);
  I.run(LL);
  EXPECT_NEAR(E.at("ll").asReal(), evalLogJoint(DM, E), 1e-8);
}

TEST(LikelihoodGen, MatchesEvalOracleOnHlr) {
  DensityModel DM = loadModel(models::HLR, hlrTypes());
  Env E = hlrEnv(15, 4, 13);
  RNG Rng(13);
  ASSERT_TRUE(forwardSampleModel(DM, E, Rng, true).ok());
  LowppProc LL = genLikelihoodProc("ll_joint", DM.Joint.Factors, "ll");
  Interp I(E, Rng);
  I.run(LL);
  EXPECT_NEAR(E.at("ll").asReal(), evalLogJoint(DM, E), 1e-8);
}

TEST(LikelihoodGen, LoopStructureIsAtomicParallel) {
  DensityModel DM = loadModel(models::GMM, gmmTypes());
  LowppProc LL = genLikelihoodProc("ll_joint", DM.Joint.Factors, "ll");
  std::string Text = LL.str();
  // Map-reduce shape: atomic-parallel loops accumulating into "ll".
  EXPECT_NE(Text.find("loop AtmPar (k <- 0 until K)"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("loop AtmPar (n <- 0 until N)"), std::string::npos);
  EXPECT_NE(Text.find("ll += MvNormal(mu[z[n]], Sigma).ll(x[n])"),
            std::string::npos);
}

TEST(GradGen, HlrGradientMatchesFiniteDifferences) {
  DensityModel DM = loadModel(models::HLR, hlrTypes());
  Env E = hlrEnv(12, 3, 17);
  RNG Rng(17);
  ASSERT_TRUE(forwardSampleModel(DM, E, Rng, true).ok());

  std::vector<std::string> Targets = {"sigma2", "b", "theta"};
  BlockCond BC = restrictJoint(DM, Targets);
  auto Grad = genGradProc("grad_hlr", BC, Targets);
  ASSERT_TRUE(Grad.ok()) << Grad.message();

  // Zeroed adjoint buffers.
  for (const auto &T : Targets)
    E["adj_" + T] = zerosLike(E.at(T));
  Interp I(E, Rng);
  I.run(*Grad);

  // Finite differences of the restricted joint.
  auto RestrictedLL = [&](Env &Env2) {
    EvalCtx Ctx(Env2);
    double Sum = 0.0;
    for (const auto &F : BC.Factors)
      Sum += evalFactorLogPdf(F, Ctx);
    return Sum;
  };
  const double H = 1e-6;
  // Scalars sigma2 and b.
  for (const char *Var : {"sigma2", "b"}) {
    Env E2 = E;
    double Orig = E2.at(Var).asReal();
    E2[Var] = Value::realScalar(Orig + H);
    double Up = RestrictedLL(E2);
    E2[Var] = Value::realScalar(Orig - H);
    double Down = RestrictedLL(E2);
    double Fd = (Up - Down) / (2 * H);
    EXPECT_NEAR(E.at(std::string("adj_") + Var).asReal(), Fd,
                1e-4 * (1 + std::abs(Fd)))
        << Var;
  }
  // Vector theta.
  for (int64_t J = 0; J < 3; ++J) {
    Env E2 = E;
    double Orig = E2.at("theta").realVec().at(J);
    E2["theta"].realVec().at(J) = Orig + H;
    double Up = RestrictedLL(E2);
    E2["theta"].realVec().at(J) = Orig - H;
    double Down = RestrictedLL(E2);
    E2["theta"].realVec().at(J) = Orig;
    double Fd = (Up - Down) / (2 * H);
    EXPECT_NEAR(E.at("adj_theta").realVec().at(J), Fd,
                1e-4 * (1 + std::abs(Fd)))
        << "theta[" << J << "]";
  }
}

TEST(GradGen, GmmMuGradientMatchesFiniteDifferences) {
  // The paper's running AD example: grad of the GMM joint wrt mu uses
  // an AtmPar loop over data with atomic accumulation into adj_mu.
  DensityModel DM = loadModel(models::GMM, gmmTypes());
  Env E = gmmEnv(3, 25, 19);
  RNG Rng(19);
  ASSERT_TRUE(forwardSampleModel(DM, E, Rng, true).ok());

  std::vector<std::string> Targets = {"mu"};
  BlockCond BC = restrictJoint(DM, Targets);
  auto Grad = genGradProc("grad_mu", BC, Targets);
  ASSERT_TRUE(Grad.ok()) << Grad.message();
  EXPECT_NE(Grad->str().find("loop AtmPar (n <- 0 until N)"),
            std::string::npos);

  E["adj_mu"] = zerosLike(E.at("mu"));
  Interp I(E, Rng);
  I.run(*Grad);

  auto RestrictedLL = [&](const Env &Env2) {
    EvalCtx Ctx(Env2);
    double Sum = 0.0;
    for (const auto &F : BC.Factors)
      Sum += evalFactorLogPdf(F, Ctx);
    return Sum;
  };
  const double H = 1e-6;
  for (int64_t K = 0; K < 3; ++K)
    for (int64_t D = 0; D < 2; ++D) {
      Env E2 = E;
      double Orig = E2.at("mu").realVec().at(K, D);
      E2["mu"].realVec().at(K, D) = Orig + H;
      double Up = RestrictedLL(E2);
      E2["mu"].realVec().at(K, D) = Orig - H;
      double Down = RestrictedLL(E2);
      double Fd = (Up - Down) / (2 * H);
      EXPECT_NEAR(E.at("adj_mu").realVec().at(K, D), Fd,
                  1e-4 * (1 + std::abs(Fd)))
          << K << "," << D;
    }
}

namespace {

/// Visits every expression a statement tree reads (right-hand sides,
/// distribution arguments, adjoint multipliers, bounds, indices).
void forEachExpr(const std::vector<LStmtPtr> &Body,
                 const std::function<void(const ExprPtr &)> &Fn) {
  auto Visit = [&](const ExprPtr &E) {
    if (E)
      Fn(E);
  };
  for (const auto &S : Body) {
    Visit(S->Rhs);
    Visit(S->At);
    Visit(S->Adj);
    Visit(S->Lo);
    Visit(S->Hi);
    for (const auto &E : S->Params)
      Visit(E);
    for (const auto &E : S->Dims)
      Visit(E);
    for (const auto &E : S->Dest.Idxs)
      Visit(E);
    for (const auto &G : S->Guards) {
      Visit(G.Lhs);
      Visit(G.Rhs);
    }
    forEachExpr(S->Then, Fn);
    forEachExpr(S->Body, Fn);
  }
}

/// Number of prim nodes with operator \p Op under \p Body.
int countPrims(const std::vector<LStmtPtr> &Body, PrimOp Op) {
  int N = 0;
  std::function<void(const ExprPtr &)> Count = [&](const ExprPtr &E) {
    if (E->kind() == Expr::Kind::Prim && E->primOp() == Op)
      ++N;
    if (E->kind() == Expr::Kind::Prim || E->kind() == Expr::Kind::Index)
      for (const auto &A : E->args())
        Count(A);
  };
  forEachExpr(Body, Count);
  return N;
}

/// The loop over \p Var at any depth of \p Body, or null.
const LStmt *findLoop(const std::vector<LStmtPtr> &Body,
                      const std::string &Var) {
  for (const auto &S : Body) {
    if (S->K == LStmt::Kind::Loop && S->LoopVar == Var)
      return S.get();
    if (const LStmt *L = findLoop(S->Body, Var))
      return L;
    if (const LStmt *L = findLoop(S->Then, Var))
      return L;
  }
  return nullptr;
}

uint64_t bitsOf(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof U);
  return U;
}

/// Composite parameters over every differentiable prim: Exp, Sqrt,
/// Div, Sub, Neg, Log and a nested Sigmoid, with targets reaching both
/// sides of Div, Mul and Sub.
const char *CompositeModel = R"model(
(N, K, x) => {
  param a ~ Normal(0.0, 1.0) ;
  param c ~ Exponential(1.0) ;
  param w[k] ~ Normal(0.0, 1.0)
    for k <- 0 until K ;
  data y[n] ~ Normal(exp(a) / (1.0 + sqrt(c)) - log(c + 1.0) * dot(x[n], w),
                     sqrt(c) + sigmoid(-sigmoid(a * x[n][0])))
    for n <- 0 until N ;
}
)model";

std::map<std::string, Type> compositeTypes() {
  return {{"N", Type::intTy()},
          {"K", Type::intTy()},
          {"x", Type::vec(Type::vec(Type::realTy()))}};
}

Env compositeEnv(int64_t N, int64_t K, uint64_t Seed) {
  RNG Rng(Seed);
  Env E;
  E["N"] = Value::intScalar(N);
  E["K"] = Value::intScalar(K);
  BlockedReal X = BlockedReal::rect(N, K, 0.0);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < K; ++J)
      X.at(I, J) = Rng.gauss();
  E["x"] = Value::realVec(std::move(X),
                          Type::vec(Type::vec(Type::realTy())));
  return E;
}

} // namespace

TEST(LowppAd, HlrGradientEvaluatesEachForwardValueOnce) {
  DensityModel DM = loadModel(models::HLR, hlrTypes());
  std::vector<std::string> Targets = {"sigma2", "b", "theta"};
  BlockCond BC = restrictJoint(DM, Targets);
  auto Grad = genGradProc("grad_hlr", BC, Targets);
  ASSERT_TRUE(Grad.ok()) << Grad.message();

  // One row of the likelihood: sigmoid(dot(x[n], theta) + b) is
  // evaluated once, and its single dot product with it.
  const LStmt *Row = findLoop(Grad->Body, "n");
  ASSERT_NE(Row, nullptr) << Grad->str();
  EXPECT_EQ(countPrims(Row->Body, PrimOp::Sigmoid), 1) << Grad->str();
  EXPECT_EQ(countPrims(Row->Body, PrimOp::Dot), 1) << Grad->str();

  // The per-feature adjoint loop reads only the bound row adjoint and
  // the data: no forward expression, and no parameter, sits inside it.
  const LStmt *Feature = nullptr;
  for (const auto &S : Row->Body)
    if (S->K == LStmt::Kind::Loop)
      Feature = S.get();
  ASSERT_NE(Feature, nullptr) << Grad->str();
  for (PrimOp Op : {PrimOp::Sigmoid, PrimOp::Dot, PrimOp::Add, PrimOp::Sub})
    EXPECT_EQ(countPrims(Feature->Body, Op), 0)
        << primOpName(Op) << " in\n" << Grad->str();
  forEachExpr(Feature->Body, [&](const ExprPtr &E) {
    EXPECT_FALSE(E->mentionsVar("theta") || E->mentionsVar("b"))
        << E->str();
  });
}

TEST(LowppAd, CompositeParametersMatchFiniteDifferencesAndNative) {
  DensityModel DM = loadModel(CompositeModel, compositeTypes());
  Env E = compositeEnv(9, 3, 23);
  RNG Rng(23);
  ASSERT_TRUE(forwardSampleModel(DM, E, Rng, true).ok());

  std::vector<std::string> Targets = {"a", "c", "w"};
  BlockCond BC = restrictJoint(DM, Targets);
  auto Grad = genGradProc("grad_comp", BC, Targets);
  ASSERT_TRUE(Grad.ok()) << Grad.message();
  for (PrimOp Op : {PrimOp::Exp, PrimOp::Sqrt, PrimOp::Div, PrimOp::Sub,
                    PrimOp::Neg, PrimOp::Log, PrimOp::Sigmoid})
    EXPECT_GT(countPrims(Grad->Body, Op), 0) << primOpName(Op);

  InterpEngine Ref(29);
  for (auto &KV : E)
    Ref.env()[KV.first] = KV.second;
  for (const auto &T : Targets)
    Ref.env()["adj_" + T] = zerosLike(E.at(T));
  Ref.addProc(*Grad);
  Ref.runProc("grad_comp");
  const Env &Got = Ref.env();

  auto RestrictedLL = [&](const Env &Env2) {
    EvalCtx Ctx(Env2);
    double Sum = 0.0;
    for (const auto &F : BC.Factors)
      Sum += evalFactorLogPdf(F, Ctx);
    return Sum;
  };
  const double H = 1e-6;
  for (const char *Var : {"a", "c"}) {
    Env E2 = E;
    double Orig = E2.at(Var).asReal();
    E2[Var] = Value::realScalar(Orig + H);
    double Up = RestrictedLL(E2);
    E2[Var] = Value::realScalar(Orig - H);
    double Down = RestrictedLL(E2);
    double Fd = (Up - Down) / (2 * H);
    EXPECT_NEAR(Got.at(std::string("adj_") + Var).asReal(), Fd,
                1e-4 * (1 + std::abs(Fd)))
        << Var;
  }
  for (int64_t J = 0; J < 3; ++J) {
    Env E2 = E;
    double Orig = E2.at("w").realVec().at(J);
    E2["w"].realVec().at(J) = Orig + H;
    double Up = RestrictedLL(E2);
    E2["w"].realVec().at(J) = Orig - H;
    double Down = RestrictedLL(E2);
    double Fd = (Up - Down) / (2 * H);
    EXPECT_NEAR(Got.at("adj_w").realVec().at(J), Fd,
                1e-4 * (1 + std::abs(Fd)))
        << "w[" << J << "]";
  }

  // Emitted C evaluates the same bound locals: bitwise equal adjoints.
  NativeEngine Nat(29);
  for (auto &KV : E)
    Nat.env()[KV.first] = KV.second;
  for (const auto &T : Targets)
    Nat.env()["adj_" + T] = zerosLike(E.at(T));
  Nat.addProc(*Grad);
  Nat.runProc("grad_comp");
  ASSERT_TRUE(Nat.isNative("grad_comp")) << Nat.fallbackReason("grad_comp");
  for (const char *Var : {"adj_a", "adj_c"})
    EXPECT_EQ(bitsOf(Nat.env().at(Var).asReal()),
              bitsOf(Got.at(Var).asReal()))
        << Var;
  for (int64_t J = 0; J < 3; ++J)
    EXPECT_EQ(bitsOf(Nat.env().at("adj_w").realVec().at(J)),
              bitsOf(Got.at("adj_w").realVec().at(J)))
        << "adj_w[" << J << "]";
}

TEST(ConjGibbsGen, ScalarNormalMeanPosteriorIsAnalytic) {
  // m ~ Normal(0, 100); y_n ~ Normal(m, 1). Conjugate posterior:
  // var* = 1/(1/100 + N), mean* = var* * sum(y).
  DensityModel DM = loadModel(
      "(N) => { param m ~ Normal(0.0, 100.0) ; "
      "data y[n] ~ Normal(m, 1.0) for n <- 0 until N ; }",
      {{"N", Type::intTy()}});
  const int64_t N = 50;
  Env E;
  E["N"] = Value::intScalar(N);
  RNG DataRng(23);
  BlockedReal Y = BlockedReal::flat(N, 0.0);
  double SumY = 0.0;
  for (int64_t I = 0; I < N; ++I) {
    Y.at(I) = DataRng.gauss(3.0, 1.0);
    SumY += Y.at(I);
  }
  E["y"] = Value::realVec(std::move(Y));
  E["m"] = Value::realScalar(0.0);

  auto C = computeConditional(DM, "m").take();
  auto Rel = detectConjugacy(C);
  ASSERT_TRUE(Rel.has_value());
  auto Proc = genConjGibbsProc("gibbs_m", C, *Rel);
  ASSERT_TRUE(Proc.ok()) << Proc.message();

  RNG Rng(29);
  Interp I(E, Rng);
  const int Draws = 20000;
  double Sum = 0.0, SumSq = 0.0;
  for (int It = 0; It < Draws; ++It) {
    I.run(*Proc);
    double M = E.at("m").asReal();
    Sum += M;
    SumSq += M * M;
  }
  double PostVar = 1.0 / (1.0 / 100.0 + N);
  double PostMean = PostVar * SumY;
  EXPECT_NEAR(Sum / Draws, PostMean, 0.01);
  EXPECT_NEAR(SumSq / Draws - (Sum / Draws) * (Sum / Draws), PostVar,
              0.005);
}

TEST(ConjGibbsGen, GmmMuDrawsFromGuardedPosterior) {
  // With fixed z, mu[k]'s posterior only involves the points assigned
  // to cluster k. Check the sampled mean against the analytic formula.
  DensityModel DM = loadModel(models::GMM, gmmTypes());
  Env E = gmmEnv(2, 8, 31);
  // Fixed assignment: first 5 points to cluster 0, rest to cluster 1.
  E["z"] = Value::intVec(BlockedInt::flat({0, 0, 0, 0, 0, 1, 1, 1}));
  BlockedReal X = BlockedReal::rect(8, 2, 0.0);
  for (int64_t I = 0; I < 8; ++I) {
    X.at(I, 0) = I < 5 ? 1.0 : -2.0;
    X.at(I, 1) = I < 5 ? 2.0 : 0.5;
  }
  E["x"] = Value::realVec(std::move(X),
                          Type::vec(Type::vec(Type::realTy())));
  E["mu"] = Value::realVec(BlockedReal::rect(2, 2, 0.0),
                           Type::vec(Type::vec(Type::realTy())));

  auto C = computeConditional(DM, "mu").take();
  auto Rel = detectConjugacy(C);
  ASSERT_TRUE(Rel.has_value());
  auto Proc = genConjGibbsProc("gibbs_mu", C, *Rel);
  ASSERT_TRUE(Proc.ok()) << Proc.message();

  RNG Rng(37);
  Interp I(E, Rng);
  const int Draws = 8000;
  double Mean00 = 0.0, Mean10 = 0.0;
  for (int It = 0; It < Draws; ++It) {
    I.run(*Proc);
    Mean00 += E.at("mu").realVec().at(0, 0);
    Mean10 += E.at("mu").realVec().at(1, 0);
  }
  // Posterior mean for diagonal covariances: (n/s2 * ybar) / (1/s02 +
  // n/s2) with s02=9, s2=1.
  auto PostMean = [](double N, double YBar) {
    return (N * YBar) / (1.0 / 9.0 + N);
  };
  EXPECT_NEAR(Mean00 / Draws, PostMean(5, 1.0), 0.03);
  EXPECT_NEAR(Mean10 / Draws, PostMean(3, -2.0), 0.05);
}

TEST(EnumGibbsGen, GmmZMatchesExactConditional) {
  DensityModel DM = loadModel(models::GMM, gmmTypes());
  Env E = gmmEnv(2, 1, 41);
  E["z"] = Value::intVec(BlockedInt::flat({0}));
  E["mu"] = Value::realVec(BlockedReal::ragged({{2.0, 0.0}, {-2.0, 0.0}}),
                           Type::vec(Type::vec(Type::realTy())));
  E["x"] = Value::realVec(BlockedReal::ragged({{1.0, 0.0}}),
                          Type::vec(Type::vec(Type::realTy())));

  auto C = computeConditional(DM, "z").take();
  auto Proc = genEnumGibbsProc("gibbs_z", C);
  ASSERT_TRUE(Proc.ok()) << Proc.message();

  // Exact conditional: p(z=k) propto pi_k * N(x | mu_k, I).
  std::vector<double> LogP(2);
  for (int64_t K = 0; K < 2; ++K) {
    const auto &Mu = E.at("mu").realVec();
    LogP[K] = std::log(0.5) +
              distLogPdf(Dist::MvNormal,
                         {DV::vec(Mu.row(K), 2), DV::mat(E.at("Sigma").mat())},
                         DV::vec(E.at("x").realVec().row(0), 2));
  }
  double Z = std::exp(LogP[0]) + std::exp(LogP[1]);
  double P0 = std::exp(LogP[0]) / Z;

  RNG Rng(43);
  Interp I(E, Rng);
  const int Draws = 40000;
  int Count0 = 0;
  for (int It = 0; It < Draws; ++It) {
    I.run(*Proc);
    Count0 += E.at("z").intVec().at(0) == 0;
  }
  EXPECT_NEAR(double(Count0) / Draws, P0, 0.01);
}

TEST(EnumGibbsGen, LdaZWorksOnRaggedBlocks) {
  Type VecR = Type::vec(Type::realTy());
  DensityModel DM = loadModel(models::LDA,
                              {{"K", Type::intTy()},
                               {"D", Type::intTy()},
                               {"V", Type::intTy()},
                               {"alpha", VecR},
                               {"beta", VecR},
                               {"L", Type::vec(Type::intTy())}});
  Env E;
  E["K"] = Value::intScalar(2);
  E["D"] = Value::intScalar(2);
  E["V"] = Value::intScalar(3);
  E["alpha"] = Value::realVec(BlockedReal::flat(2, 0.5));
  E["beta"] = Value::realVec(BlockedReal::flat(3, 0.5));
  E["L"] = Value::intVec(BlockedInt::flat({3, 2}));
  RNG Rng(47);
  ASSERT_TRUE(forwardSampleModel(DM, E, Rng, true).ok());

  auto C = computeConditional(DM, "z").take();
  auto Proc = genEnumGibbsProc("gibbs_z", C);
  ASSERT_TRUE(Proc.ok()) << Proc.message();
  Interp I(E, Rng);
  I.run(*Proc);
  // All assignments stay in range after the update.
  const BlockedInt &ZV = E.at("z").intVec();
  for (int64_t D = 0; D < 2; ++D)
    for (int64_t J = 0; J < ZV.rowLen(D); ++J) {
      EXPECT_GE(ZV.at(D, J), 0);
      EXPECT_LT(ZV.at(D, J), 2);
    }
  // And the joint stays finite.
  EXPECT_TRUE(std::isfinite(evalLogJoint(DM, E)));
}

TEST(ConjGibbsGen, LdaThetaCountsPosterior) {
  Type VecR = Type::vec(Type::realTy());
  DensityModel DM = loadModel(models::LDA,
                              {{"K", Type::intTy()},
                               {"D", Type::intTy()},
                               {"V", Type::intTy()},
                               {"alpha", VecR},
                               {"beta", VecR},
                               {"L", Type::vec(Type::intTy())}});
  Env E;
  E["K"] = Value::intScalar(2);
  E["D"] = Value::intScalar(1);
  E["V"] = Value::intScalar(3);
  E["alpha"] = Value::realVec(BlockedReal::flat({1.0, 1.0}));
  E["beta"] = Value::realVec(BlockedReal::flat(3, 0.5));
  E["L"] = Value::intVec(BlockedInt::flat({4}));
  // Fixed z: topics {0,0,0,1}. Posterior for theta[0]:
  // Dirichlet(1+3, 1+1) with mean (4/6, 2/6).
  E["z"] = Value::intVec(BlockedInt::ragged({{0, 0, 0, 1}}),
                         Type::vec(Type::vec(Type::intTy())));
  E["theta"] = Value::realVec(BlockedReal::rect(1, 2, 0.5),
                              Type::vec(Type::vec(Type::realTy())));
  E["phi"] = Value::realVec(BlockedReal::rect(2, 3, 1.0 / 3),
                            Type::vec(Type::vec(Type::realTy())));
  E["w"] = Value::intVec(BlockedInt::ragged({{0, 1, 2, 0}}),
                         Type::vec(Type::vec(Type::intTy())));

  auto C = computeConditional(DM, "theta").take();
  auto Rel = detectConjugacy(C);
  ASSERT_TRUE(Rel.has_value());
  auto Proc = genConjGibbsProc("gibbs_theta", C, *Rel);
  ASSERT_TRUE(Proc.ok()) << Proc.message();

  RNG Rng(53);
  Interp I(E, Rng);
  const int Draws = 20000;
  double Mean0 = 0.0;
  for (int It = 0; It < Draws; ++It) {
    I.run(*Proc);
    Mean0 += E.at("theta").realVec().at(0, 0);
  }
  EXPECT_NEAR(Mean0 / Draws, 4.0 / 6.0, 0.01);
}
