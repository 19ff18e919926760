//===- exec/Engine.h - Execution engine abstraction ------------*- C++ -*-===//
///
/// \file
/// The interface MCMC library code uses to run compiled procedures.
/// Engines own the model state (the environment) and an RNG. The
/// interpreter engine executes Low++ directly on the CPU; the GPU
/// device simulator (exec/GpuSim.h) additionally accounts modeled
/// device time; the native engine (cgen) dlopens compiled C code.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_EXEC_ENGINE_H
#define AUGUR_EXEC_ENGINE_H

#include <map>
#include <string>

#include "blk/Passes.h"
#include "exec/Interp.h"
#include "exec/VecKernels.h"

namespace augur {

/// Abstract execution engine: a named-procedure runner over an owned
/// environment.
class Engine {
public:
  virtual ~Engine();

  /// Runs the procedure registered under \p Name.
  virtual void runProc(const std::string &Name) = 0;

  virtual Env &env() = 0;
  virtual RNG &rng() = 0;

  /// Registers a procedure (engines may lower it further).
  virtual void addProc(LowppProc P) = 0;

  /// True if a procedure named \p Name is registered.
  virtual bool hasProc(const std::string &Name) const = 0;

  /// Attaches the parallel runtime: Par/AtmPar loops (and, for the
  /// native engine, emitted C loops) execute over \p Pool with the
  /// configured grain. Default is a no-op (engine stays sequential).
  virtual void setParallel(ThreadPool *Pool, const ParallelConfig &Cfg) {
    (void)Pool;
    (void)Cfg;
  }

  /// Attaches a telemetry sink for execution-layer metrics, recorded
  /// under `<Prefix>...` keys (e.g. "chain0/exec/"). Default no-op.
  virtual void setTelemetry(Recorder *R, const std::string &Prefix) {
    (void)R;
    (void)Prefix;
  }

  /// Enables the vectorized proc plans (exec/VecKernels.h). Resolved by
  /// the compiler from CompileOptions::Simd / AUGUR_SIMD; default no-op
  /// for engines without a vector path.
  virtual void setSimd(bool On) { (void)On; }

  /// Vectorization status of a registered proc: 1 = runs through a
  /// compiled plan, 0 = interpreted (SIMD off or plan rejected),
  /// -1 = unknown proc / engine has no vector path.
  virtual int procVectorized(const std::string &Name) {
    (void)Name;
    return -1;
  }
};

/// CPU engine: direct Low++ interpretation.
class InterpEngine : public Engine {
public:
  explicit InterpEngine(uint64_t Seed) : Rng(Seed), I(Globals, Rng) {}

  void runProc(const std::string &Name) override;
  Env &env() override { return Globals; }
  RNG &rng() override { return Rng; }
  void addProc(LowppProc P) override;
  bool hasProc(const std::string &Name) const override {
    return Procs.count(Name) != 0;
  }
  void setParallel(ThreadPool *Pool, const ParallelConfig &Cfg) override {
    I.setParallel(Pool, Cfg.Grain);
    PooledMode = Pool != nullptr;
  }
  void setTelemetry(Recorder *R, const std::string &Prefix) override {
    I.setTelemetry(R, Prefix);
  }
  void setSimd(bool On) override { SimdOn = On; }
  bool simdEnabled() const { return SimdOn; }
  int procVectorized(const std::string &Name) override {
    if (!Procs.count(Name))
      return -1;
    if (!SimdOn)
      return 0;
    return planFor(Name) ? 1 : 0;
  }

  /// Runs the contention-aware CPU reduce pass (blk/Passes.h,
  /// planCpuReductions) over every registered procedure against the
  /// current environment. Call once after data binding and procedure
  /// registration: the pass evaluates loop extents at their runtime
  /// values. The native engine compiles modules lazily, so annotations
  /// placed here are visible to the C emitter as well. \p TM sizes the
  /// adjoints of parameters not bound yet (planCpuReductions).
  CpuReduceReport planReductions(const CpuReduceOptions &O,
                                 const TypedModel *TM = nullptr);

  const LowppProc &proc(const std::string &Name) const {
    return Procs.at(Name);
  }
  ExecCounters &counters() { return I.counters(); }
  Recorder *telemetry() const { return I.telemetry(); }
  const ExecTelemetryKeys &telemetryKeys() const { return I.telemetryKeys(); }

private:
  /// Plan cache: nullptr entries record procs the plan compiler
  /// rejected so they are not re-attempted every sweep. addProc
  /// invalidates the proc's entry.
  vec::VecPlan *planFor(const std::string &Name);

  Env Globals;
  RNG Rng;
  Interp I;
  std::map<std::string, LowppProc> Procs;
  std::map<std::string, std::unique_ptr<vec::VecPlan>> Plans;
  bool SimdOn = false;
  bool PooledMode = false;
};

} // namespace augur

#endif // AUGUR_EXEC_ENGINE_H
