//===- perfbench/Workloads.h - The benchmark's workloads -------*- C++ -*-===//
///
/// \file
/// Entry points of the three workloads (why each was chosen is recorded
/// in BENCHMARK.json and perfbench/layers.json), plus the LDA pieces the
/// batch and serving workloads share: the hand-written C floor of the
/// z update.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <vector>

#include "Harness.h"
#include "compile/Compiler.h"

namespace perfbench {

void runGibbsLda(const RunOptions &RO, NativeDirs &Dirs, Report &R);
void runHmcHlr(const RunOptions &RO, NativeDirs &Dirs, Report &R);
void runServeMix(const RunOptions &RO, NativeDirs &Dirs, Report &R);

/// Data for the HLR model (paper Section 7.2): N rows of Kf
/// standard-normal features, labels drawn through the logistic link from
/// generating coefficients of magnitude 0.5-1.0 with random signs, all
/// from \p Seed. Args are the model's formals (lambda, N, Kf, x).
struct HlrData {
  std::vector<augur::Value> Args;
  augur::Env Data;
  std::vector<double> Truth;
};
HlrData makeHlrData(int64_t N, int64_t Kf, uint64_t Seed);

/// The compiled LDA z update's time per token over the hand-written C
/// floor's (lda_floor.c), both on the probe program's current theta and
/// phi. \p Lens and \p Words are the corpus (document lengths, words in
/// document order). Returns 0 when the state does not have LDA's shape.
double ldaFloorRatio(augur::MCMCProgram &P, const std::vector<int64_t> &Lens,
                     const std::vector<int64_t> &Words, int64_t K, int64_t V,
                     double ZUpdateMs);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
