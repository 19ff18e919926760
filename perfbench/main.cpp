//===- perfbench/main.cpp - Benchmark entry point -------------*- C++ -*-===//
///
/// \file
/// perfbench --workload gibbs-lda|hmc-hlr|serve-mix --seed N --seconds S
///           --trace 0|1 [--spans PATH]
///
/// Generates the workload's inputs from the seed, measures for about S
/// seconds, checks the outputs, and ends stdout with one JSON result
/// line. --trace 0 reports the end-to-end metrics; --trace 1 reports the
/// per-layer metrics, prints self time per layer, and writes the spans
/// it recorded to PATH. Exits nonzero when an output check or an
/// anti-hollow guard fails. Usually run through perfbench/run.py, which
/// builds this program first.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "Harness.h"
#include "Workloads.h"

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "gibbs-lda|hmc-hlr|serve-mix --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions RO;
  std::string SpansPath;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      RO.Workload = Val;
    else if (Key == "--seed")
      RO.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      RO.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      RO.Trace = Val == "1";
    else if (Key == "--spans")
      SpansPath = Val;
    else
      return usage(("unknown argument " + Key).c_str());
  }
  if (Argc % 2 != 1)
    return usage("arguments come in --key value pairs");
  if (!(RO.Seconds > 0))
    return usage("--seconds must be positive");
  void (*Run)(const RunOptions &, NativeDirs &, Report &) = nullptr;
  if (RO.Workload == "gibbs-lda")
    Run = runGibbsLda;
  else if (RO.Workload == "hmc-hlr")
    Run = runHmcHlr;
  else if (RO.Workload == "serve-mix")
    Run = runServeMix;
  else
    return usage("unknown --workload");

  std::printf("perfbench: workload %s, seed %llu, %.0f s, %s run\n",
              RO.Workload.c_str(), (unsigned long long)RO.Seed, RO.Seconds,
              RO.Trace ? "traced" : "untraced");
  Report R;
  {
    NativeDirs Dirs;
    Run(RO, Dirs, R);
    // Only the directories this run created, so repeated runs do not
    // accumulate thousands of them.
    Dirs.cleanup();
  }
  if (R.Attempted == 0)
    R.fail("no work was attempted");
  if (RO.Trace && !SpansPath.empty()) {
    if (Tracer::get().write(SpansPath))
      std::printf("  spans: %zu written to %s\n", Tracer::get().size(),
                  SpansPath.c_str());
    else
      R.fail("could not write spans to " + SpansPath);
  }
  return R.finish();
}
