//===- perfbench/Probes.h - Per-layer measurements -------------*- C++ -*-===//
///
/// \file
/// The traced run's per-layer probes. Each one calls a layer's public
/// entry points directly on the workload's own inputs and times them, so
/// a layer's number needs no instrumentation inside the code under test:
/// the compiler phases one by one, each base update through
/// runBaseUpdate, the factor-cache log joint, the diagnostics observer,
/// the first-sweep native build, and the serving frame encoder.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "compile/Compiler.h"

namespace perfbench {

/// Median milliseconds of each compiler phase over several repetitions.
struct CompilePhases {
  double FrontendMs = 0; ///< parseModel + typeCheck
  double DensityMs = 0;  ///< lowerToDensity + DepGraph
  double KernelMs = 0;   ///< heuristicSchedule / parseUserSchedule
  double LowppMs = 0;    ///< compileUpdate for every update + ll_joint
  double TotalMs = 0;    ///< Compiler::compile end to end
};

augur::Result<CompilePhases>
timeCompilePhases(const std::string &Src, const augur::CompileOptions &O,
                  const std::vector<augur::Value> &Args,
                  const augur::Env &Data, int Reps);

/// Runs \p Fn the way sampleChains runs a chain: on a pool lane when the
/// options pool the chains (so the program's parallel loops execute
/// inline on that lane), on the calling thread otherwise.
void onChainLane(const augur::CompileOptions &O,
                 const std::function<void()> &Fn);

/// Base updates timed one at a time through runBaseUpdate.
struct UpdateProbe {
  /// Median ms per sweep, keyed "hmc" for gradient updates and by the
  /// target variable otherwise.
  std::map<std::string, double> UpdateMs;
  double GradEvalsPerSweep = 0; ///< gradient procedure runs per sweep
  double AcceptRate = 1;        ///< mean over the updates that can reject
};
UpdateProbe probeUpdates(augur::MCMCProgram &P, int Sweeps);

/// Sweep-level probes on a freshly compiled, initialized program.
struct SweepProbe {
  double FirstMs = 0;    ///< first step(): includes lazy native builds
  double SteadyMs = 0;   ///< median of the following steps
  double LogJointUs = 0; ///< MCMCProgram::logJoint after a sweep
  double FcHitRatio = 0; ///< FactorCache hits / (hits + evaluations)
  double ObserveUs = 0;  ///< ChainDiag::observeSweep
  double NativeShare = 0;///< compiled procedures that ran natively
};
SweepProbe probeSweeps(augur::MCMCProgram &P, int Sweeps);

/// Microseconds to encode the program's current state as one served
/// draw frame (drawFrame + Json::dump).
double frameEncodeUs(augur::MCMCProgram &P, int Reps);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
