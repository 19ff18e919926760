//===- cgen/Native.h - Native CPU engine (compile + dlopen) ----*- C++ -*-===//
///
/// \file
/// The native CPU execution path: emitted C is compiled with the host C
/// compiler into a shared library and loaded with dlopen, exactly the
/// paper's deployment ("compiled using ... Clang into a shared library",
/// Section 2.3). Procedures outside the native subset (sampling
/// statements, matrix runtime) transparently fall back to the
/// interpreter, which keeps the hot likelihood/gradient primitives
/// native while library sampling stays in the engine.
///
/// Emitted modules own no threads: a pooled loop is outlined into a
/// chunk function that the engine runs on its ThreadPool through the
/// host table every frame points at, with the interpreter's block
/// geometry and pinned fold for map-reduce loops.
///
/// Each distinct module is built once per process: the built image is
/// kept in NativeImageCache, keyed by compiler, flags and source, and
/// every engine loads its own instance of it.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_CGEN_NATIVE_H
#define AUGUR_CGEN_NATIVE_H

#include <condition_variable>
#include <exception>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>

#include "cgen/CEmit.h"
#include "exec/Engine.h"

namespace augur {

/// Process-wide store of built native modules: the shared-object bytes
/// of each module, keyed by the exact compiler, flags and emitted C it
/// was built from. Bounded by a fixed byte budget (key plus image per
/// entry) with least-recently-used eviction. Nothing is persisted: the
/// cache lives and dies with the process.
class NativeImageCache {
public:
  using Image = std::shared_ptr<const std::string>;
  /// Byte budget of the process-wide cache.
  static constexpr size_t BudgetBytes = size_t(64) << 20;

  explicit NativeImageCache(size_t Budget) : Budget(Budget) {}
  ~NativeImageCache();
  NativeImageCache(const NativeImageCache &) = delete;
  NativeImageCache &operator=(const NativeImageCache &) = delete;

  static NativeImageCache &global();

  /// Returns the image for \p Key, marking it most recently used, or
  /// calls \p Build to make it. At most one caller builds a key at a
  /// time; concurrent callers for the same key wait for it and share
  /// the result. A built image is inserted with least-recently-used
  /// eviction down to the budget; one larger than the whole budget, or
  /// a failed build (null image), is not cached. \p Hit reports whether
  /// no build ran in this call.
  Image getOrBuild(const std::string &Key,
                   const std::function<Image()> &Build, bool &Hit);

  /// Drops every image.
  void clear();

  size_t entries() const;
  /// Bytes charged against the budget: key plus image of every entry.
  size_t bytes() const;

  /// Fork hygiene: a forked child runs only the forking thread, so the
  /// inherited lock may be held forever and inherited in-flight builds
  /// never finish. Swaps in a fresh lock and an empty cache, leaking
  /// the inherited ones on purpose (they may be mid-update).
  void reinitAfterFork();

  /// Takes the cache lock (tests use it to fork while it is held).
  std::unique_lock<std::mutex> debugLock() {
    return std::unique_lock<std::mutex>(*Mu);
  }

private:
  struct Entry {
    std::string Key;
    Image Img;
  };
  struct State {
    std::list<Entry> Lru; ///< most recently used first
    std::unordered_map<std::string, std::list<Entry>::iterator> Index;
    std::set<std::string> Building;
    size_t Bytes = 0;
  };

  void insertLocked(const std::string &Key, Image I);

  const size_t Budget;
  // Behind pointers so reinitAfterFork can abandon the inherited ones.
  std::mutex *Mu = new std::mutex;
  std::condition_variable *Cv = new std::condition_variable;
  State *S = new State;
};

/// Engine that runs native-emittable procedures as compiled C and
/// interprets the rest.
class NativeEngine : public InterpEngine {
public:
  explicit NativeEngine(uint64_t Seed, std::string Compiler = "cc")
      : InterpEngine(Seed), Cc(std::move(Compiler)) {}
  ~NativeEngine() override;

  void runProc(const std::string &Name) override;

  /// Parallel mode: pooled loops run on \p P, in the interpreter
  /// (fallback path) and in modules compiled after this call, which are
  /// emitted pooled. Must first be set before the first runProc
  /// (already-compiled sequential modules are not recompiled); setting
  /// it again swaps the pool, as a forked worker must, and must not
  /// detach it.
  void setParallel(ThreadPool *P, const ParallelConfig &Cfg) override {
    InterpEngine::setParallel(P, Cfg);
    Pool = P;
    Grain = Cfg.Grain;
  }

  /// True if \p Name executed natively on its last run.
  bool isNative(const std::string &Name) const {
    auto It = Compiled.find(Name);
    return It != Compiled.end() && It->second.Entry != nullptr;
  }

  /// Why a procedure fell back to interpretation (empty if native).
  std::string fallbackReason(const std::string &Name) const;

private:
  struct NativeProc {
    using FnTy = void (*)(void *);
    FnTy Entry = nullptr;
    std::vector<FrameField> Fields;
    void *Handle = nullptr;
    std::string Reason; ///< fallback reason if Entry is null
  };

  /// The C side of the host table (`augur_red`, `augur_chunk_fn` and
  /// `augur_host` in the emitted prelude, cgen/CEmit.cpp).
  struct RedTarget {
    void *Base;
    int64_t Len; ///< flat scalar count
    int64_t IsInt;
  };
  using ChunkFn = void (*)(void *Frame, int64_t Lo, int64_t Hi,
                           char *const *Rows);
  /// Layout-compatible with `augur_host`, whose one member is Run; the
  /// engine pointer rides behind it.
  struct HostTable {
    void (*Run)(HostTable *H, void *Frame, int64_t Lo, int64_t Hi,
                ChunkFn Fn, const RedTarget *Targets, int64_t NumTargets);
    NativeEngine *Eng;
  };
  struct AlignedFree {
    void operator()(char *P) const;
  };

  NativeProc &getOrCompile(const std::string &Name);
  void buildFrame(const NativeProc &NP, std::vector<char> &Buf);
  /// The host table's entry. Exceptions must not unwind through the
  /// module's C frames: the first one is parked in ChunkError, later
  /// loops of the same call are skipped, and runProc rethrows it once
  /// the entry has returned.
  static void hostRun(HostTable *H, void *Frame, int64_t Lo, int64_t Hi,
                      ChunkFn Fn, const RedTarget *Targets,
                      int64_t NumTargets) noexcept;
  /// Runs one outlined loop on Pool, recording the interpreter's par_*
  /// and reduce_* telemetry (Interp::execParallelLoop and
  /// execMapReduceLoop).
  void runChunks(void *Frame, int64_t Lo, int64_t Hi, ChunkFn Fn,
                 const RedTarget *Targets, int64_t NumTargets);

  std::string Cc;
  ThreadPool *Pool = nullptr;
  int64_t Grain = 16;
  std::map<std::string, NativeProc> Compiled;
  HostTable Host{&hostRun, this};
  std::exception_ptr ChunkError;
  /// Map-reduce partial rows: one 64B-padded row per block and target,
  /// grow-only across regions.
  std::unique_ptr<char[], AlignedFree> Partials;
  int64_t PartialsCap = 0;
  std::vector<char *> BlockRows; ///< row pointers, NumTargets per block
};

} // namespace augur

#endif // AUGUR_CGEN_NATIVE_H
