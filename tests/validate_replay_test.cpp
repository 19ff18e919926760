//===- tests/validate_replay_test.cpp - Pooled streams replay -*- C++ -*-===//
//
// The replay invariant of pooled execution (DESIGN.md section 16): an
// HMC chain over hierarchical logistic regression, whose likelihood and
// gradient sums run as pooled map-reduce regions, replays bit for bit
// from run to run at every pool width, and the interpreter and the
// native engine agree bit for bit at each width.
//
// Under Reduce=Auto the gradient's prior loop over the Kf features
// stays atomic: its sum into adj_sigma2 is far below the contention
// threshold. With Kf no larger than the default grain that loop runs as
// one chunk and cannot reorder; a larger Kf splits it into concurrent
// chunks whose float adds may, so this test does not cover that shape.
//
// Suites are named "Validate*" so the tests/CMakeLists.txt discovery
// pass gives them the `validate` label.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/Infer.h"
#include "cgen/Native.h"
#include "models/PaperModels.h"

using namespace augur;

namespace {

struct HlrCase {
  std::vector<Value> Args;
  Env Data;

  HlrCase(int64_t N, int64_t Kf) {
    RNG Rng(71);
    BlockedReal X = BlockedReal::rect(N, Kf, 0.0);
    BlockedInt Y = BlockedInt::flat(N, 0);
    for (int64_t I = 0; I < N; ++I) {
      double Dot = 0.2;
      for (int64_t J = 0; J < Kf; ++J) {
        X.at(I, J) = Rng.gauss();
        Dot += X.at(I, J) * (J % 3 == 0 ? 1.0 : -0.5);
      }
      Y.at(I) = Rng.uniform() < 1.0 / (1.0 + std::exp(-Dot)) ? 1 : 0;
    }
    Args = {Value::realScalar(1.0), Value::intScalar(N), Value::intScalar(Kf),
            Value::realVec(std::move(X),
                           Type::vec(Type::vec(Type::realTy())))};
    Data["y"] = Value::intVec(std::move(Y));
  }
};

/// Every recorded draw of one chain, flattened in a fixed order.
std::vector<double> runHlr(const HlrCase &C, bool Native, int Threads) {
  Infer Aug(models::HLR);
  CompileOptions O;
  O.Seed = 0x5EED5;
  O.NativeCpu = Native;
  O.Par.NumThreads = Threads;
  O.Hmc.StepSize = 0.02;
  O.Hmc.LeapfrogSteps = 5;
  Aug.setCompileOpt(O);
  Status St = Aug.compile(C.Args, C.Data);
  EXPECT_TRUE(St.ok()) << St.message();
  if (!St.ok())
    return {};
  Result<SampleSet> S = Aug.sample(6);
  EXPECT_TRUE(S.ok()) << S.message();
  if (!S.ok())
    return {};

  if (Native) {
    auto *NE = dynamic_cast<NativeEngine *>(&Aug.program().engine());
    EXPECT_NE(NE, nullptr);
    for (const auto &CU : Aug.program().updates()) {
      // The HMC procedures must run as emitted C at every width, and a
      // procedure that does fall back must say why.
      for (const std::string *P : {&CU.LLProc, &CU.GradProc}) {
        if (NE && !P->empty()) {
          EXPECT_TRUE(NE->isNative(*P))
              << *P << " at " << Threads << " threads: "
              << NE->fallbackReason(*P);
        }
      }
      for (const std::string *P :
           {&CU.GibbsProc, &CU.LLProc, &CU.GradProc}) {
        if (NE && !P->empty() && !NE->isNative(*P)) {
          EXPECT_FALSE(NE->fallbackReason(*P).empty()) << *P;
        }
      }
    }
  }

  std::vector<double> Flat;
  for (const char *Var : {"theta", "b", "sigma2"}) {
    const auto &Draws = S->Draws.at(Var);
    for (const Value &V : Draws) {
      if (V.isRealScalar())
        Flat.push_back(V.asReal());
      else
        for (double D : V.realVec().flat())
          Flat.push_back(D);
    }
  }
  return Flat;
}

bool bitEqual(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

} // namespace

TEST(ValidatePooledReplay, HlrHmcReplaysAndExecutorsAgreeAtEveryWidth) {
  HlrCase C(/*N=*/400, /*Kf=*/6);
  for (int Threads : {1, 2, 4}) {
    std::vector<double> Interp1 = runHlr(C, false, Threads);
    std::vector<double> Interp2 = runHlr(C, false, Threads);
    std::vector<double> Native1 = runHlr(C, true, Threads);
    std::vector<double> Native2 = runHlr(C, true, Threads);
    ASSERT_FALSE(Interp1.empty());
    EXPECT_TRUE(bitEqual(Interp1, Interp2))
        << "interp does not replay at " << Threads << " threads";
    EXPECT_TRUE(bitEqual(Native1, Native2))
        << "native does not replay at " << Threads << " threads";
    EXPECT_TRUE(bitEqual(Interp1, Native1))
        << "interp and native differ at " << Threads << " threads";
  }
}
