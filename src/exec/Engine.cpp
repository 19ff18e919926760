//===- exec/Engine.cpp ----------------------------------------*- C++ -*-===//

#include "exec/Engine.h"

#include <cassert>

using namespace augur;

Engine::~Engine() = default;

vec::VecPlan *InterpEngine::planFor(const std::string &Name) {
  auto Hit = Plans.find(Name);
  if (Hit != Plans.end())
    return Hit->second.get();
  auto It = Procs.find(Name);
  if (It == Procs.end())
    return nullptr;
  auto Plan = vec::VecPlan::tryCompile(It->second, Globals);
  return Plans.emplace(Name, std::move(Plan)).first->second.get();
}

void InterpEngine::runProc(const std::string &Name) {
  auto It = Procs.find(Name);
  assert(It != Procs.end() && "unknown procedure");
  if (SimdOn) {
    // All three vec_* keys are recorded (zero-delta creates a key), so
    // the exported schema is a function of the SIMD decision alone and
    // stays identical across backends and proc mixes.
    Recorder *R = I.telemetry();
    bool Rec = R && R->enabled();
    const ExecTelemetryKeys &K = I.telemetryKeys();
    if (vec::VecPlan *Plan = planFor(Name)) {
      Plan->run(Rng, PooledMode, I.counters());
      if (Rec) {
        R->count(K.VecRuns, 1);
        R->count(K.VecFallback, 0);
        R->count(K.VecAlias, Plan->takeAliasDraws());
        // Like the interpreter, only procs with map-reduce regions
        // create the reduce_* keys.
        vec::VecPlan::ReduceProfile RP = Plan->takeReduceProfile();
        if (RP.Regions) {
          R->count(K.ReduceRegions, RP.Regions);
          R->count(K.ReduceBytes, RP.Bytes);
        }
      }
      return;
    }
    if (Rec) {
      R->count(K.VecRuns, 0);
      R->count(K.VecFallback, 1);
      R->count(K.VecAlias, 0);
    }
  }
  I.run(It->second);
}

void InterpEngine::addProc(LowppProc P) {
  Plans.erase(P.Name);
  Procs[P.Name] = std::move(P);
}

CpuReduceReport InterpEngine::planReductions(const CpuReduceOptions &O) {
  // The pass rewrites loop annotations (and may commute nests): plans
  // compiled from the old procedure bodies are stale.
  Plans.clear();
  CpuReduceReport R;
  for (auto &[Name, P] : Procs)
    R.merge(planCpuReductions(P, Globals, O));
  return R;
}
