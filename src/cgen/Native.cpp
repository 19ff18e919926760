//===- cgen/Native.cpp ----------------------------------------*- C++ -*-===//

#include "cgen/Native.h"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "exec/ExecError.h"
#include "math/Simd.h"
#include "robust/FaultInject.h"
#include "support/Format.h"

using namespace augur;

//===----------------------------------------------------------------------===//
// NativeImageCache
//===----------------------------------------------------------------------===//

NativeImageCache::~NativeImageCache() {
  delete S;
  delete Cv;
  delete Mu;
}

NativeImageCache &NativeImageCache::global() {
  // Never destroyed: engines may outlive static destruction order.
  static NativeImageCache *G = new NativeImageCache(BudgetBytes);
  return *G;
}

namespace {
size_t charge(const std::string &Key, const std::string &Img) {
  return Key.size() + Img.size();
}
} // namespace

NativeImageCache::Image
NativeImageCache::getOrBuild(const std::string &Key,
                             const std::function<Image()> &Build,
                             bool &Hit) {
  Hit = false;
  {
    std::unique_lock<std::mutex> Lock(*Mu);
    for (;;) {
      if (auto It = S->Index.find(Key); It != S->Index.end()) {
        S->Lru.splice(S->Lru.begin(), S->Lru, It->second);
        Hit = true;
        return It->second->Img;
      }
      if (!S->Building.count(Key))
        break;
      Cv->wait(Lock);
    }
    S->Building.insert(Key);
  }
  Image Built;
  // Clears the in-flight mark on every exit, so waiters never hang.
  auto Finish = [&] {
    std::lock_guard<std::mutex> Lock(*Mu);
    S->Building.erase(Key);
    if (Built)
      insertLocked(Key, Built);
    Cv->notify_all();
  };
  try {
    Built = Build();
  } catch (...) {
    Finish();
    throw;
  }
  Finish();
  return Built;
}

void NativeImageCache::clear() {
  std::lock_guard<std::mutex> Lock(*Mu);
  S->Lru.clear();
  S->Index.clear();
  S->Bytes = 0;
}

size_t NativeImageCache::entries() const {
  std::lock_guard<std::mutex> Lock(*Mu);
  return S->Lru.size();
}

size_t NativeImageCache::bytes() const {
  std::lock_guard<std::mutex> Lock(*Mu);
  return S->Bytes;
}

void NativeImageCache::reinitAfterFork() {
  Mu = new std::mutex;
  Cv = new std::condition_variable;
  S = new State;
}

void NativeImageCache::insertLocked(const std::string &Key, Image I) {
  if (charge(Key, *I) > Budget)
    return;
  S->Bytes += charge(Key, *I);
  S->Lru.push_front({Key, std::move(I)});
  S->Index[Key] = S->Lru.begin();
  while (S->Bytes > Budget) {
    const Entry &Old = S->Lru.back();
    S->Bytes -= charge(Old.Key, *Old.Img);
    S->Index.erase(Old.Key);
    S->Lru.pop_back();
  }
}

//===----------------------------------------------------------------------===//
// Building and loading images
//===----------------------------------------------------------------------===//

namespace {

/// Leading bytes of the compiler's output kept in a fallback reason.
constexpr size_t MaxDiagnosticBytes = 2048;

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Runs the host compiler \p CcCmd (compiler and flags) on \p Source in
/// a fresh build directory and returns the built shared object, or null
/// with \p Reason set. The directory is removed on every path. It stays
/// under the literal /tmp, not $TMPDIR: the benchmark harness counts
/// host-cc builds by watching /tmp for augur_native_* directories.
NativeImageCache::Image buildImage(const std::string &CcCmd,
                                   const std::string &Name,
                                   const std::string &Source,
                                   std::string &Reason) {
  char Dir[] = "/tmp/augur_native_XXXXXX";
  if (!mkdtemp(Dir)) {
    Reason = "mkdtemp failed";
    return nullptr;
  }
  std::string D = Dir;
  std::string CPath = D + "/" + Name + ".c";
  std::string SoPath = D + "/" + Name + ".so";
  std::string LogPath = D + "/cc.log";
  {
    std::ofstream Out(CPath);
    Out << Source;
  }
  Recorder::global().count("cgen/cc_builds");
  std::string Cmd = CcCmd + " -o " + SoPath + " " + CPath + " -lm > " +
                    LogPath + " 2>&1";
  NativeImageCache::Image Img;
  if (std::system(Cmd.c_str()) != 0) {
    std::string Log = readFile(LogPath);
    if (Log.size() > MaxDiagnosticBytes)
      Log.resize(MaxDiagnosticBytes);
    while (!Log.empty() && std::isspace((unsigned char)Log.back()))
      Log.pop_back();
    Reason = "host C compiler failed";
    if (!Log.empty())
      Reason += ": " + Log;
  } else {
    Img = std::make_shared<const std::string>(readFile(SoPath));
    if (Img->empty()) {
      Reason = "host C compiler produced no library";
      Img = nullptr;
    }
  }
  std::error_code EC;
  std::filesystem::remove_all(D, EC);
  return Img;
}

/// Loads a private instance of \p Img: writes it to a fresh file,
/// dlopens that and unlinks it. Distinct files make distinct module
/// instances. Returns null with \p Reason set on failure.
void *loadImage(const std::string &Img, std::string &Reason) {
  char Path[] = "/tmp/augur_image_XXXXXX";
  int Fd = mkstemp(Path);
  if (Fd < 0) {
    Reason = "mkstemp failed";
    return nullptr;
  }
  size_t Off = 0;
  while (Off < Img.size()) {
    ssize_t N = ::write(Fd, Img.data() + Off, Img.size() - Off);
    if (N <= 0)
      break;
    Off += size_t(N);
  }
  ::close(Fd);
  void *H = nullptr;
  if (Off != Img.size())
    Reason = "writing the native image failed";
  else if (!(H = dlopen(Path, RTLD_NOW | RTLD_LOCAL)))
    Reason = strFormat("dlopen failed: %s", dlerror());
  ::unlink(Path);
  return H;
}

} // namespace

//===----------------------------------------------------------------------===//
// NativeEngine
//===----------------------------------------------------------------------===//

NativeEngine::~NativeEngine() {
  for (auto &KV : Compiled)
    if (KV.second.Handle)
      dlclose(KV.second.Handle);
}

std::string NativeEngine::fallbackReason(const std::string &Name) const {
  auto It = Compiled.find(Name);
  return It == Compiled.end() ? "not yet compiled" : It->second.Reason;
}

NativeEngine::NativeProc &
NativeEngine::getOrCompile(const std::string &Name) {
  auto It = Compiled.find(Name);
  if (It != Compiled.end())
    return It->second;
  NativeProc NP;

  // Outputs must exist before the frame layout is fixed.
  for (const auto &Out : proc(Name).Outputs) {
    if (env().count(Out))
      continue;
    if (startsWith(Out, "adj_") && env().count(Out.substr(4)))
      env()[Out] = zerosLike(env().at(Out.substr(4)));
    else
      env()[Out] = Value::realScalar(0.0);
  }

  // The lazy Low-- / C-emission / host-cc phase of the pipeline; spans
  // land next to the eager compile/* phases in the trace.
  ScopedSpan CgenSpan(Recorder::global(), "compile/cgen/" + Name,
                      "compile");

  // Fault-injection probe: a native toolchain failure (missing cc,
  // emit bug, dlopen error). Must degrade to the interpreter with a
  // structured reason, never crash or abort the run.
  if (robust::faultFire(robust::FaultClass::NativeCompileFail)) {
    NP.Reason = "fault-injected native compile failure";
    return Compiled.emplace(Name, std::move(NP)).first->second;
  }

  CEmitOptions EmitOpts;
  EmitOpts.Pooled = Pool != nullptr;
  EmitOpts.Simd = simdEnabled();
  Result<CModule> Mod = emitC(proc(Name), env(), EmitOpts);
  if (!Mod.ok()) {
    NP.Reason = Mod.message();
    return Compiled.emplace(Name, std::move(NP)).first->second;
  }
  CgenSpan.arg("source_bytes", double(Mod->Source.size()));

  std::string Flags = " -O2 -fPIC -shared";
  if (simdEnabled()) {
    // Vector codegen for the annotated Par loops. No -ffast-math: the
    // emitted arithmetic must stay bit-compatible with the interpreter
    // (the differential harness compares streams exactly), so only
    // reorderings that preserve IEEE semantics are allowed.
    Flags += " -ftree-vectorize -ffp-contract=off";
    if (simd::cpuHasAvx2())
      Flags += " -mavx2";
  }
  if (EmitOpts.Pooled)
    Flags += " -fno-strict-aliasing"; // the atomic adds type-pun doubles

  bool Hit = false;
  NativeImageCache::Image Img = NativeImageCache::global().getOrBuild(
      Cc + '\n' + Flags + '\n' + Mod->Source,
      [&] { return buildImage(Cc + Flags, Name, Mod->Source, NP.Reason); },
      Hit);
  CgenSpan.arg("cached", Hit ? 1.0 : 0.0);
  if (Hit)
    Recorder::global().count("cgen/image_hits");
  if (!Img)
    return Compiled.emplace(Name, std::move(NP)).first->second;

  NP.Handle = loadImage(*Img, NP.Reason);
  if (!NP.Handle)
    return Compiled.emplace(Name, std::move(NP)).first->second;
  NP.Entry = reinterpret_cast<NativeProc::FnTy>(
      dlsym(NP.Handle, Name.c_str()));
  if (!NP.Entry) {
    NP.Reason = "symbol not found in compiled library";
    dlclose(NP.Handle);
    NP.Handle = nullptr;
  }
  NP.Fields = Mod->Fields;
  return Compiled.emplace(Name, std::move(NP)).first->second;
}

void NativeEngine::buildFrame(const NativeProc &NP, std::vector<char> &Buf) {
  Buf.clear();
  auto Push = [&Buf](const void *P, size_t N) {
    size_t Off = Buf.size();
    Buf.resize(Off + N);
    std::memcpy(Buf.data() + Off, P, N);
  };
  HostTable *H = &Host;
  Push(&H, sizeof(H));
  for (const auto &F : NP.Fields) {
    Value &V = env()[F.Var];
    switch (F.K) {
    case FrameField::Kind::RealPtr: {
      double *P = nullptr;
      if (V.isRealScalar())
        P = &V.realRef();
      else
        P = V.realVec().flat().data();
      Push(&P, sizeof(P));
      break;
    }
    case FrameField::Kind::IntPtr: {
      int64_t *P = nullptr;
      if (V.isIntScalar())
        P = &V.intRef();
      else
        P = V.intVec().flat().data();
      Push(&P, sizeof(P));
      break;
    }
    case FrameField::Kind::OffsetsPtr: {
      const int64_t *P = V.isRealVec() ? V.realVec().offsets().data()
                                       : V.intVec().offsets().data();
      Push(&P, sizeof(P));
      break;
    }
    case FrameField::Kind::Length: {
      int64_t Len =
          V.isRealVec() ? V.realVec().flatSize() : V.intVec().flatSize();
      Push(&Len, sizeof(Len));
      break;
    }
    }
  }
}

void NativeEngine::AlignedFree::operator()(char *P) const {
  ::operator delete[](P, std::align_val_t(64));
}

void NativeEngine::hostRun(HostTable *H, void *Frame, int64_t Lo,
                           int64_t Hi, ChunkFn Fn, const RedTarget *Targets,
                           int64_t NumTargets) noexcept {
  NativeEngine &E = *H->Eng;
  if (E.ChunkError)
    return;
  try {
    E.runChunks(Frame, Lo, Hi, Fn, Targets, NumTargets);
  } catch (...) {
    E.ChunkError = std::current_exception();
  }
}

void NativeEngine::runChunks(void *Frame, int64_t Lo, int64_t Hi,
                             ChunkFn Fn, const RedTarget *Targets,
                             int64_t NumTargets) {
  if (Hi <= Lo)
    return;
  // Map-reduce geometry, as Interp::execMapReduceLoop: Block depends
  // only on the trip count, one 64B-padded partial row per block and
  // target, so the slot each iteration writes and the fold order are
  // pinned for every pool width.
  auto StrideOf = [](const RedTarget &T) { return (T.Len + 7) / 8 * 8; };
  int64_t N = Hi - Lo;
  int64_t Block = Grain, NB = 0;
  uint64_t RegionBytes = 0;
  if (NumTargets > 0) {
    Block = (N + ReduceShards - 1) / ReduceShards;
    NB = (N + Block - 1) / Block;
    for (int64_t J = 0; J < NumTargets; ++J)
      RegionBytes += uint64_t(StrideOf(Targets[J]) * 8 * NB);
    if (PartialsCap < int64_t(RegionBytes)) {
      Partials.reset(static_cast<char *>(
          ::operator new[](RegionBytes, std::align_val_t(64))));
      PartialsCap = int64_t(RegionBytes);
    }
    BlockRows.resize(size_t(NB * NumTargets));
    char *Row = Partials.get();
    for (int64_t J = 0; J < NumTargets; ++J)
      for (int64_t B = 0; B < NB; ++B, Row += StrideOf(Targets[J]) * 8)
        BlockRows[size_t(B * NumTargets + J)] = Row;
  }

  auto Chunk = [&](int64_t B, int64_t E, int) {
    // Fault-injection probe, as on the interpreter's pooled loops.
    if (robust::faultFire(robust::FaultClass::WorkerFault))
      throw ExecError("NativeLoop", "chunk",
                      "fault-injected worker-thread failure");
    char *const *Rows = nullptr;
    if (NumTargets > 0) {
      // One chunk is one block; its owning lane zeroes the rows.
      Rows = &BlockRows[size_t((B - Lo) / Block * NumTargets)];
      for (int64_t J = 0; J < NumTargets; ++J)
        std::memset(Rows[J], 0, size_t(Targets[J].Len * 8));
    }
    Fn(Frame, B, E, Rows);
  };
  ParForStats St = Pool->parallelFor(Lo, Hi, Block, Chunk);

  // The interpreter's pinned pairwise fold, then one deposit.
  for (int64_t J = 0; J < NumTargets; ++J) {
    const RedTarget &T = Targets[J];
    int64_t Stride = StrideOf(T);
    if (T.IsInt)
      foldPartials(reinterpret_cast<int64_t *>(BlockRows[size_t(J)]), NB,
                   Stride, T.Len, static_cast<int64_t *>(T.Base));
    else
      foldPartials(reinterpret_cast<double *>(BlockRows[size_t(J)]), NB,
                   Stride, T.Len, static_cast<double *>(T.Base));
  }

  Recorder *T = telemetry();
  if (T && T->enabled()) {
    const ExecTelemetryKeys &K = telemetryKeys();
    T->count(K.Loops);
    T->count(K.Iters, uint64_t(N));
    T->count(K.Chunks, St.Chunks);
    T->count(K.Steals, St.Steals);
    T->count(K.Busy, St.BusyNanos);
    T->count(K.Thread,
             St.WallNanos * uint64_t(St.Inline ? 1 : Pool->numThreads()));
    if (NumTargets > 0) {
      T->count(K.ReduceRegions);
      T->count(K.ReduceBytes, RegionBytes);
    }
  }
}

void NativeEngine::runProc(const std::string &Name) {
  NativeProc &NP = getOrCompile(Name);
  if (!NP.Entry) {
    InterpEngine::runProc(Name);
    return;
  }
  std::vector<char> Frame;
  buildFrame(NP, Frame);
  NP.Entry(Frame.data());
  if (ChunkError)
    std::rethrow_exception(std::exchange(ChunkError, nullptr));

  // A natively-executed proc under an armed SIMD policy is the native
  // backend's vector path (ivdep-annotated, host-vectorized module);
  // record the same three vec_* keys the interpreter engine exports so
  // both backends keep an identical metric schema.
  Recorder *T = telemetry();
  if (simdEnabled() && T && T->enabled()) {
    const ExecTelemetryKeys &K = telemetryKeys();
    T->count(K.VecRuns, 1);
    T->count(K.VecFallback, 0);
    T->count(K.VecAlias, 0);
  }
}
