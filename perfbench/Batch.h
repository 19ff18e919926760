//===- perfbench/Batch.h - Batch multi-chain workloads ---------*- C++ -*-===//
///
/// \file
/// The runner both batch workloads (gibbs-lda, hmc-hlr) share: repeated
/// jobs of Infer::compile + Infer::sampleChains on the workload's
/// generated inputs, timed from the per-draw stream, with the traced
/// run's per-layer probes on top.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BATCH_H
#define PERFBENCH_BATCH_H

#include <functional>
#include <string>
#include <vector>

#include "Harness.h"
#include "Probes.h"
#include "api/Infer.h"

namespace perfbench {

/// One batch workload: the model, its generated inputs and options, and
/// the checks and extra probes particular to it.
struct BatchWorkload {
  std::string Source;
  augur::CompileOptions Opts; ///< chains, pool width, backend, diag, HMC
  std::vector<augur::Value> Args;
  augur::Env Data;
  int Draws = 20;     ///< retained draws per chain per job
  double Elems = 1.0; ///< data elements one sweep visits (ns/element)
  /// Output check over one job's chains: "" when right, else why not.
  std::function<std::string(const std::vector<augur::SampleSet> &)> Check;
  /// Workload-specific per-layer probes on the probe program (after the
  /// shared probes ran on it).
  std::function<void(augur::MCMCProgram &, const UpdateProbe &, Layers &)>
      ExtraLayers;
  /// Anti-hollow guard: the workload must run native procedures.
  bool ExpectNative = false;
};

/// Runs the workload for the run's time budget and fills \p R.
void runBatch(const RunOptions &RO, BatchWorkload &W, NativeDirs &Dirs,
              Report &R);

} // namespace perfbench

#endif // PERFBENCH_BATCH_H
