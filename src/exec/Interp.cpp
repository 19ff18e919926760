//===- exec/Interp.cpp ----------------------------------------*- C++ -*-===//

#include "exec/Interp.h"

#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <new>

#include "exec/ExecError.h"
#include "math/Special.h"
#include "robust/FaultInject.h"
#include "runtime/ConjugateOps.h"

using namespace augur;

namespace {

/// Rough size in bytes of a value's payload (for the local high-water
/// mark the size-inference tests compare against).
int64_t payloadBytes(const Value &V) {
  if (V.isIntScalar() || V.isRealScalar())
    return 8;
  if (V.isIntVec())
    return V.intVec().flatSize() * 8;
  if (V.isRealVec())
    return V.realVec().flatSize() * 8;
  if (V.isMatrix())
    return V.mat().rows() * V.mat().cols() * 8;
  return V.matVec().size() * V.matVec().rows() * V.matVec().cols() * 8;
}

void zeroValue(Value &V) {
  if (V.isIntScalar())
    V.intRef() = 0;
  else if (V.isRealScalar())
    V.realRef() = 0.0;
  else if (V.isIntVec())
    std::fill(V.intVec().flat().begin(), V.intVec().flat().end(), 0);
  else if (V.isRealVec())
    std::fill(V.realVec().flat().begin(), V.realVec().flat().end(), 0.0);
  else if (V.isMatrix())
    std::fill(V.mat().data(), V.mat().data() + V.mat().rows() * V.mat().cols(),
              0.0);
  else if (V.isMatVec()) {
    MatVec &MV = V.matVec();
    double *P = MV.at(0);
    std::fill(P, P + MV.size() * MV.rows() * MV.cols(), 0.0);
  }
}

/// Whether executing \p S can consume random bits (directly or in a
/// nested statement). Decides if a pooled loop draws a stream seed.
bool stmtSamples(const LStmt &S) {
  switch (S.K) {
  case LStmt::Kind::Sample:
  case LStmt::Kind::SampleLogits:
  case LStmt::Kind::ConjSample:
    return true;
  case LStmt::Kind::If:
    for (const auto &T : S.Then)
      if (stmtSamples(*T))
        return true;
    return false;
  case LStmt::Kind::Loop:
    for (const auto &B : S.Body)
      if (stmtSamples(*B))
        return true;
    return false;
  default:
    return false;
  }
}

DV readView(const MutDV &M) {
  switch (M.K) {
  case DV::Kind::Real:
    return DV::real(*M.RealSlot);
  case DV::Kind::Int:
    return DV::integer(*M.IntSlot);
  case DV::Kind::Vec:
    return DV::vec(M.Ptr, M.N);
  case DV::Kind::Mat:
    return DV::mat(M.Ptr, M.Rows, M.Cols);
  }
  return DV::real(0.0);
}


} // namespace

DV Interp::evalE(const ExprPtr &E) const {
  return evalExpr(E, Ctx);
}

int64_t Interp::evalInt(const ExprPtr &E) const {
  DV V = evalE(E);
  execCheck(V.K == DV::Kind::Int, "Expr", "",
            "expected an Int-valued expression (index/bound/guard)");
  return V.I;
}

double Interp::evalReal(const ExprPtr &E) const { return evalE(E).asReal(); }

Value &Interp::resolveVar(const std::string &Name) {
  // Shares the pointer-keyed cache with expression evaluation; writes
  // through the same stable map nodes.
  if (const Value *V = Ctx.Lookup(Name))
    return *const_cast<Value *>(V);
  // Output scalars (e.g. "ll") are created on first assignment. A
  // worker must not insert into the shared global map concurrently;
  // its on-demand slot lives in the worker's own locals instead.
  Env &Home = ParentLocals ? Locals : *Globals;
  Home[Name] = Value::realScalar(0.0);
  ResolveCache.clear(); // drop the cached negative entry
  return Home[Name];
}

void Interp::accumReal(double *Slot, double V) const {
  if (!Redirects.empty()) {
    uintptr_t A = reinterpret_cast<uintptr_t>(Slot);
    for (const auto &R : Redirects)
      if (A >= R.Base && A < R.End) {
        *reinterpret_cast<double *>(R.Row + (A - R.Base)) += V;
        return;
      }
  }
  if (atomicMode()) {
    std::atomic_ref<double> A(*Slot);
    double Old = A.load(std::memory_order_relaxed);
    while (!A.compare_exchange_weak(Old, Old + V, std::memory_order_relaxed))
      ;
  } else {
    *Slot += V;
  }
}

void Interp::accumInt(int64_t *Slot, int64_t V) const {
  if (!Redirects.empty()) {
    uintptr_t A = reinterpret_cast<uintptr_t>(Slot);
    for (const auto &R : Redirects)
      if (A >= R.Base && A < R.End) {
        *reinterpret_cast<int64_t *>(R.Row + (A - R.Base)) += V;
        return;
      }
  }
  if (atomicMode())
    std::atomic_ref<int64_t>(*Slot).fetch_add(V, std::memory_order_relaxed);
  else
    *Slot += V;
}

Interp::ReduceTargetBuf::~ReduceTargetBuf() {
  if (Partials)
    ::operator delete[](Partials, std::align_val_t(64));
}

ReducePayload augur::reducePayload(Value &V) {
  if (V.isRealScalar())
    return {reinterpret_cast<char *>(&V.realRef()), 1, false};
  if (V.isIntScalar())
    return {reinterpret_cast<char *>(&V.intRef()), 1, true};
  if (V.isRealVec())
    return {reinterpret_cast<char *>(V.realVec().flat().data()),
            V.realVec().flatSize(), false};
  if (V.isIntVec())
    return {reinterpret_cast<char *>(V.intVec().flat().data()),
            V.intVec().flatSize(), true};
  if (V.isMatrix())
    return {reinterpret_cast<char *>(V.mat().data()),
            V.mat().rows() * V.mat().cols(), false};
  MatVec &MV = V.matVec();
  return {reinterpret_cast<char *>(MV.at(0)),
          MV.size() * MV.rows() * MV.cols(), false};
}

bool Interp::bodySamples(const LStmt &S) const {
  auto It = SamplingCache.find(&S);
  if (It != SamplingCache.end())
    return It->second;
  bool Any = false;
  for (const auto &B : S.Body)
    if (stmtSamples(*B)) {
      Any = true;
      break;
    }
  SamplingCache.emplace(&S, Any);
  return Any;
}

void Interp::execParallelLoop(const LStmt &S, int64_t Lo, int64_t Hi) {
  if (Hi <= Lo)
    return;
  // One sequential draw from the chain's master RNG keys this region's
  // per-iteration streams: iteration I samples from PhiloxRNG(LoopSeed,
  // I) no matter which lane runs it, so the chain is bit-identical for
  // every pool width. Loops that never sample (likelihood/gradient
  // accumulation) must not perturb the chain, hence the draw is gated.
  bool Samples = bodySamples(S);
  uint64_t LoopSeed = Samples ? Rng->next() : 0;

  int N = Pool->numThreads();
  if (int(WorkerInterps.size()) < N)
    WorkerInterps.resize(size_t(N));
  int WorkerDepth = AtmParDepth + (S.LK == LoopKind::AtmPar ? 1 : 0);
  for (int L = 0; L < N; ++L) {
    if (!WorkerInterps[size_t(L)]) {
      WorkerInterps[size_t(L)] = std::make_unique<Interp>(*Globals, *Rng);
      Interp &Fresh = *WorkerInterps[size_t(L)];
      Fresh.Rng = &Fresh.StreamRng; // never the shared master generator
      Fresh.ParentLocals = &Locals;
      Fresh.InParallelRegion = true;
    }
    Interp &W = *WorkerInterps[size_t(L)];
    W.TrackAtomics = TrackAtomics;
    W.AtmParDepth = WorkerDepth;
    W.Ctx.LoopVars = Ctx.LoopVars; // enclosing loop indices
    W.Locals.clear();
    W.ResolveCache.clear();
    W.Counters.reset();
    W.AtomicHist.clear();
  }

  auto Chunk = [&](int64_t B, int64_t E, int Lane) {
    // Fault-injection probe: a worker lane dying mid-region. The pool
    // must drain the region and rethrow on the caller, not deadlock.
    if (robust::faultFire(robust::FaultClass::WorkerFault))
      throw ExecError("ParallelLoop", S.LoopVar,
                      "fault-injected worker-thread failure");
    Interp &W = *WorkerInterps[size_t(Lane)];
    auto [SlotIt, Inserted] = W.Ctx.LoopVars.try_emplace(S.LoopVar, 0);
    (void)Inserted;
    for (int64_t I = B; I < E; ++I) {
      SlotIt->second = I;
      if (Samples)
        W.StreamRng.resetStream(LoopSeed, uint64_t(I));
      ++W.Counters.LoopIters;
      W.execBody(S.Body);
    }
  };
  ParForStats St = Pool->parallelFor(Lo, Hi, Grain, Chunk);

  for (int L = 0; L < N; ++L) {
    Interp &W = *WorkerInterps[size_t(L)];
    Counters.merge(W.Counters);
    for (const auto &[Addr, Count] : W.AtomicHist)
      AtomicHist[Addr] += Count;
  }
  if (Telem && Telem->enabled()) {
    Telem->count(TelemKeys.Loops);
    Telem->count(TelemKeys.Iters, uint64_t(Hi - Lo));
    Telem->count(TelemKeys.Chunks, St.Chunks);
    Telem->count(TelemKeys.Steals, St.Steals);
    Telem->count(TelemKeys.Busy, St.BusyNanos);
    Telem->count(TelemKeys.Thread,
                 St.WallNanos * uint64_t(St.Inline ? 1 : Pool->numThreads()));
  }
}

void Interp::execMapReduceLoop(const LStmt &S, int64_t Lo, int64_t Hi) {
  if (Hi <= Lo)
    return;
  // The reduce pass never converts sampling loops (privatization would
  // not change streams, but the guard keeps the invariant local); if an
  // annotation ever lands on one, run it under the standard semantics.
  if (bodySamples(S) || S.RedTargets.empty()) {
    execParallelLoop(S, Lo, Hi);
    return;
  }

  // Fixed block geometry: Block depends only on the trip count, never
  // on the pool width or grain, so the slot each iteration writes and
  // the fold order below are pinned. This is the bit-identity contract
  // of DESIGN.md section 16.
  int64_t N = Hi - Lo;
  int64_t Block = (N + ReduceShards - 1) / ReduceShards;
  int64_t NB = (N + Block - 1) / Block;

  // Cache keyed by statement address; validate against the target list
  // in case a re-registered proc recycled the node's allocation.
  auto &Bufs = ReduceBufs[&S];
  bool Stale = Bufs.size() != S.RedTargets.size();
  for (size_t I = 0; !Stale && I < Bufs.size(); ++I)
    Stale = Bufs[I].Name != S.RedTargets[I];
  if (Stale) {
    Bufs.clear();
    Bufs.reserve(S.RedTargets.size());
    for (const auto &Name : S.RedTargets) {
      ReduceTargetBuf B;
      B.Name = Name;
      Bufs.push_back(std::move(B));
    }
  }
  // Refresh payload views every region (buffers can be reallocated
  // between sweeps) and size the partial matrix: NB rows, one 64B-
  // padded row per block.
  uint64_t RegionBytes = 0;
  for (auto &T : Bufs) {
    ReducePayload P = reducePayload(resolveVar(T.Name));
    T.Base = P.Base;
    T.Len = P.Len;
    T.IsInt = P.IsInt;
    T.StrideBytes = ((T.Len * 8 + 63) / 64) * 64;
    int64_t Need = T.StrideBytes * NB;
    if (T.Cap < Need) {
      if (T.Partials)
        ::operator delete[](T.Partials, std::align_val_t(64));
      T.Partials = static_cast<char *>(
          ::operator new[](size_t(Need), std::align_val_t(64)));
      T.Cap = Need;
    }
    RegionBytes += uint64_t(Need);
  }

  int NT = Pool->numThreads();
  if (int(WorkerInterps.size()) < NT)
    WorkerInterps.resize(size_t(NT));
  int WorkerDepth = AtmParDepth + (S.LK == LoopKind::AtmPar ? 1 : 0);
  for (int L = 0; L < NT; ++L) {
    if (!WorkerInterps[size_t(L)]) {
      WorkerInterps[size_t(L)] = std::make_unique<Interp>(*Globals, *Rng);
      Interp &Fresh = *WorkerInterps[size_t(L)];
      Fresh.Rng = &Fresh.StreamRng;
      Fresh.ParentLocals = &Locals;
      Fresh.InParallelRegion = true;
    }
    Interp &W = *WorkerInterps[size_t(L)];
    W.TrackAtomics = TrackAtomics;
    W.AtmParDepth = WorkerDepth;
    W.Ctx.LoopVars = Ctx.LoopVars;
    W.Locals.clear();
    W.ResolveCache.clear();
    W.Counters.reset();
    W.AtomicHist.clear();
  }

  auto Chunk = [&](int64_t B, int64_t E, int Lane) {
    if (robust::faultFire(robust::FaultClass::WorkerFault))
      throw ExecError("ParallelLoop", S.LoopVar,
                      "fault-injected worker-thread failure");
    Interp &W = *WorkerInterps[size_t(Lane)];
    // Grain == Block, so one chunk is exactly one block: Slot is its
    // pinned partial-row index. The owning lane zeroes the row at chunk
    // start (first touch — pages land on the worker's node) and every
    // privatized accumulation inside the chunk lands in that row via
    // the address-range redirect in accumReal/accumInt.
    int64_t Slot = (B - Lo) / Block;
    W.Redirects.clear();
    W.Redirects.reserve(Bufs.size());
    for (const auto &T : Bufs) {
      char *Row = T.Partials + Slot * T.StrideBytes;
      std::memset(Row, 0, size_t(T.StrideBytes));
      uintptr_t Base = reinterpret_cast<uintptr_t>(T.Base);
      W.Redirects.push_back({Base, Base + uintptr_t(T.Len) * 8, Row});
    }
    auto [SlotIt, Inserted] = W.Ctx.LoopVars.try_emplace(S.LoopVar, 0);
    (void)Inserted;
    for (int64_t I = B; I < E; ++I) {
      SlotIt->second = I;
      ++W.Counters.LoopIters;
      W.execBody(S.Body);
    }
    W.Redirects.clear();
  };
  ParForStats St = Pool->parallelFor(Lo, Hi, Block, Chunk);

  for (int L = 0; L < NT; ++L) {
    Interp &W = *WorkerInterps[size_t(L)];
    Counters.merge(W.Counters);
    for (const auto &[Addr, Count] : W.AtomicHist)
      AtomicHist[Addr] += Count;
  }

  // Pinned pairwise tree fold, then one deposit into the live payload.
  // The fold order is a function of NB alone — never of which lane ran
  // which block — so the floating-point sum is reproducible.
  for (auto &T : Bufs) {
    int64_t Stride = T.StrideBytes / 8;
    if (T.IsInt)
      foldPartials(reinterpret_cast<int64_t *>(T.Partials), NB, Stride,
                   T.Len, reinterpret_cast<int64_t *>(T.Base));
    else
      foldPartials(reinterpret_cast<double *>(T.Partials), NB, Stride,
                   T.Len, reinterpret_cast<double *>(T.Base));
  }

  if (Telem && Telem->enabled()) {
    Telem->count(TelemKeys.Loops);
    Telem->count(TelemKeys.Iters, uint64_t(Hi - Lo));
    Telem->count(TelemKeys.Chunks, St.Chunks);
    Telem->count(TelemKeys.Steals, St.Steals);
    Telem->count(TelemKeys.Busy, St.BusyNanos);
    Telem->count(TelemKeys.Thread,
                 St.WallNanos * uint64_t(St.Inline ? 1 : Pool->numThreads()));
    Telem->count(TelemKeys.ReduceRegions);
    Telem->count(TelemKeys.ReduceBytes, RegionBytes);
  }
}

MutDV Interp::resolveDest(const LValue &Dest) {
  std::vector<int64_t> Idxs;
  Idxs.reserve(Dest.Idxs.size());
  for (const auto &E : Dest.Idxs)
    Idxs.push_back(evalInt(E));
  return mutViewValue(resolveVar(Dest.Var), Idxs);
}

void Interp::run(const LowppProc &P) {
  beginProcScope();
  execBody(P.Body);
  endProcScope();
}

void Interp::beginProcScope() {
  Locals.clear();
  ResolveCache.clear();
  Counters.LocalBytes = 0;
}

void Interp::endProcScope() {
  Locals.clear();
  ResolveCache.clear();
  Counters.LocalBytes = 0;
}

void Interp::runBody(const std::vector<LStmtPtr> &Body) {
  execBody(Body);
}

void Interp::execBody(const std::vector<LStmtPtr> &Body) {
  for (const auto &S : Body)
    execStmt(*S);
}

void Interp::execDeclLocal(const LStmt &S) {
  std::vector<int64_t> Dims;
  for (const auto &D : S.Dims)
    Dims.push_back(evalInt(D));

  // Reuse an existing allocation of the same shape (zeroed), so locals
  // declared inside parallel loops do not re-allocate per iteration.
  auto It = Locals.find(S.LocalName);
  auto Shaped = [&](const Value &V) -> bool {
    switch (S.LKind) {
    case LocalKind::Int:
      if (Dims.empty())
        return V.isIntScalar();
      if (Dims.size() == 1)
        return V.isIntVec() && !V.intVec().isRagged() &&
               V.intVec().size() == Dims[0];
      return false;
    case LocalKind::Real:
    case LocalKind::RealVec:
      if (Dims.empty())
        return V.isRealScalar();
      if (Dims.size() == 1)
        return V.isRealVec() && !V.realVec().isRagged() &&
               V.realVec().size() == Dims[0];
      if (Dims.size() == 2)
        return V.isRealVec() && V.realVec().isRagged() &&
               V.realVec().size() == Dims[0] &&
               V.realVec().flatSize() == Dims[0] * Dims[1];
      return false;
    case LocalKind::Mat:
      if (Dims.size() == 1)
        return V.isMatrix() && V.mat().rows() == Dims[0];
      if (Dims.size() == 2)
        return V.isMatVec() && V.matVec().size() == Dims[0] &&
               V.matVec().rows() == Dims[1];
      return false;
    }
    return false;
  };
  if (It != Locals.end() && Shaped(It->second)) {
    zeroValue(It->second);
    return;
  }

  // Fault-injection probe: model a failed buffer allocation on the
  // fresh-allocation path (reused locals never allocate).
  if (robust::faultFire(robust::FaultClass::AllocFail))
    throw std::bad_alloc();

  Value V;
  switch (S.LKind) {
  case LocalKind::Int:
    if (Dims.empty())
      V = Value::intScalar(0);
    else if (Dims.size() == 1)
      V = Value::intVec(BlockedInt::flat(Dims[0], 0));
    else
      V = Value::intVec(BlockedInt::rect(Dims[0], Dims[1], 0),
                        Type::vec(Type::vec(Type::intTy())));
    break;
  case LocalKind::Real:
  case LocalKind::RealVec:
    if (Dims.empty())
      V = Value::realScalar(0.0);
    else if (Dims.size() == 1)
      V = Value::realVec(BlockedReal::flat(Dims[0], 0.0));
    else
      V = Value::realVec(BlockedReal::rect(Dims[0], Dims[1], 0.0),
                         Type::vec(Type::vec(Type::realTy())));
    break;
  case LocalKind::Mat:
    execCheck(!Dims.empty(), "DeclLocal", S.LocalName,
              "matrix locals need a dimension");
    if (Dims.size() == 1)
      V = Value::matrix(Matrix(Dims[0], Dims[0]));
    else
      V = Value::matVec(MatVec(Dims[0], Dims[1], Dims[1]));
    break;
  }
  if (It != Locals.end())
    Counters.LocalBytes -= payloadBytes(It->second);
  Counters.LocalBytes += payloadBytes(V);
  Counters.PeakLocalBytes =
      std::max(Counters.PeakLocalBytes, Counters.LocalBytes);
  Locals[S.LocalName] = std::move(V);
  // A new local may shadow what earlier references resolved to.
  ResolveCache.clear();
}

void Interp::execSampleLogits(const LStmt &S) {
  const Value *ScoresP = Ctx.Lookup(S.ScoresVar);
  execCheck(ScoresP != nullptr, "SampleLogits", S.ScoresVar,
            "score buffer not declared");
  const Value &Scores = *ScoresP;
  int64_t N = evalInt(S.Count);
  execCheck(Scores.isRealVec(), "SampleLogits", S.ScoresVar,
            "score buffer must be a real vector");
  const double *Logits = Scores.realVec().flat().data();
  execCheck(Scores.realVec().flatSize() >= N, "SampleLogits", S.ScoresVar,
            "score buffer too small for the enumerated support");
  double Max = Logits[0];
  for (int64_t I = 1; I < N; ++I)
    Max = std::max(Max, Logits[I]);
  double Sum = 0.0;
  for (int64_t I = 0; I < N; ++I)
    Sum += std::exp(Logits[I] - Max);
  double U = Rng->uniform() * Sum;
  int64_t Draw = N - 1;
  double Acc = 0.0;
  for (int64_t I = 0; I < N; ++I) {
    Acc += std::exp(Logits[I] - Max);
    if (U < Acc) {
      Draw = I;
      break;
    }
  }
  MutDV Dest = resolveDest(S.Dest);
  execCheck(Dest.K == DV::Kind::Int, "SampleLogits", S.Dest.Var,
            "discrete draw needs an Int slot");
  *Dest.IntSlot = Draw;
}

void Interp::execConjSample(const LStmt &S) {
  PriorScratch.clear();
  for (const auto &P : S.PriorParams)
    PriorScratch.push_back(evalE(P));
  ExtraScratch.clear();
  for (const auto &E : S.Extra)
    ExtraScratch.push_back(evalE(E));
  StatsScratch.clear();
  for (const auto &R : S.StatRefs)
    StatsScratch.push_back(readView(resolveDest(R)));
  MutDV Dest = resolveDest(S.Dest);
  // ConjKind and ConjOp enumerate the relations in the same order.
  conjPosteriorSample(static_cast<ConjOp>(S.Conj), PriorScratch,
                      ExtraScratch, StatsScratch, *Rng, Dest);
}

void Interp::execStmt(const LStmt &S) {
  ++Counters.Stmts;
  switch (S.K) {
  case LStmt::Kind::Assign: {
    MutDV Dest = resolveDest(S.Dest);
    DV Rhs = evalE(S.Rhs);
    if (S.Accum && AtmParDepth > 0)
      noteAtomic(Dest.K == DV::Kind::Int
                     ? static_cast<const void *>(Dest.IntSlot)
                     : static_cast<const void *>(Dest.RealSlot));
    if (Dest.K == DV::Kind::Int) {
      execCheck(Rhs.K == DV::Kind::Int, "Assign", S.Dest.Var,
                "Int slot needs an Int value");
      if (S.Accum)
        accumInt(Dest.IntSlot, Rhs.I);
      else
        *Dest.IntSlot = Rhs.I;
      return;
    }
    execCheck(Dest.K == DV::Kind::Real, "Assign", S.Dest.Var,
              "assignments are scalar");
    if (S.Accum)
      accumReal(Dest.RealSlot, Rhs.asReal());
    else
      *Dest.RealSlot = Rhs.asReal();
    return;
  }
  case LStmt::Kind::DeclLocal:
    execDeclLocal(S);
    return;
  case LStmt::Kind::If: {
    for (const auto &G : S.Guards)
      if (evalInt(G.Lhs) != evalInt(G.Rhs))
        return;
    execBody(S.Then);
    return;
  }
  case LStmt::Kind::Loop: {
    int64_t Lo = evalInt(S.Lo);
    int64_t Hi = evalInt(S.Hi);
    if (Pool && S.LK != LoopKind::Seq) {
      if (S.Red == ReduceKind::MapReduce)
        execMapReduceLoop(S, Lo, Hi);
      else
        execParallelLoop(S, Lo, Hi);
      return;
    }
    if (S.LK == LoopKind::AtmPar)
      ++AtmParDepth;
    auto [SlotIt, Inserted] = Ctx.LoopVars.try_emplace(S.LoopVar, 0);
    std::optional<int64_t> Saved =
        Inserted ? std::nullopt : std::optional<int64_t>(SlotIt->second);
    for (int64_t I = Lo; I < Hi; ++I) {
      SlotIt->second = I;
      ++Counters.LoopIters;
      execBody(S.Body);
    }
    if (Saved)
      SlotIt->second = *Saved;
    else
      Ctx.LoopVars.erase(SlotIt);
    if (S.LK == LoopKind::AtmPar)
      --AtmParDepth;
    return;
  }
  case LStmt::Kind::AccumLL: {
    ++Counters.DistOps;
    std::vector<DV> &Params = ParamScratch;
    Params.clear();
    for (const auto &P : S.Params)
      Params.push_back(evalE(P));
    DV At = evalE(S.At);
    MutDV Dest = resolveDest(S.Dest);
    execCheck(Dest.K == DV::Kind::Real, "AccumLL", S.Dest.Var,
              "log-likelihood accumulator must be a real scalar slot");
    if (AtmParDepth > 0)
      noteAtomic(Dest.RealSlot);
    accumReal(Dest.RealSlot, distLogPdf(S.D, Params, At));
    return;
  }
  case LStmt::Kind::AccumGrad: {
    ++Counters.DistOps;
    std::vector<DV> &Params = ParamScratch;
    Params.clear();
    for (const auto &P : S.Params)
      Params.push_back(evalE(P));
    DV At = evalE(S.At);
    double Adj = evalReal(S.Adj);
    MutDV Dest = resolveDest(S.Dest);
    double *Out = Dest.K == DV::Kind::Real ? Dest.RealSlot : Dest.Ptr;
    if (AtmParDepth > 0)
      noteAtomic(Out);
    if (atomicMode()) {
      // distAccumGrad does plain `Out[i] +=` over up to N adjoint
      // elements; stage into a private buffer and publish atomically.
      int64_t N = Dest.K == DV::Kind::Real ? 1
                  : Dest.K == DV::Kind::Vec
                      ? Dest.N
                      : Dest.Rows * Dest.Cols;
      GradTmp.assign(size_t(N), 0.0);
      distAccumGrad(S.D, S.GradArg, Params, At, Adj, GradTmp.data());
      for (int64_t I = 0; I < N; ++I)
        if (GradTmp[size_t(I)] != 0.0)
          accumReal(Out + I, GradTmp[size_t(I)]);
    } else {
      distAccumGrad(S.D, S.GradArg, Params, At, Adj, Out);
    }
    return;
  }
  case LStmt::Kind::Sample: {
    ++Counters.DistOps;
    std::vector<DV> &Params = ParamScratch;
    Params.clear();
    for (const auto &P : S.Params)
      Params.push_back(evalE(P));
    distSample(S.D, Params, *Rng, resolveDest(S.Dest));
    return;
  }
  case LStmt::Kind::SampleLogits:
    ++Counters.DistOps;
    execSampleLogits(S);
    return;
  case LStmt::Kind::ConjSample:
    ++Counters.DistOps;
    execConjSample(S);
    return;
  case LStmt::Kind::AccumVec: {
    MutDV Dest = resolveDest(S.Dest);
    execCheck(Dest.K == DV::Kind::Vec, "AccumVec", S.Dest.Var,
              "vector accumulator required");
    DV Src = evalE(S.Rhs);
    execCheck(Src.K == DV::Kind::Vec && Src.N == Dest.N, "AccumVec",
              S.Dest.Var, "source/destination shape mismatch");
    if (AtmParDepth > 0)
      noteAtomic(Dest.Ptr);
    for (int64_t I = 0; I < Dest.N; ++I)
      accumReal(Dest.Ptr + I, Src.Ptr[I]);
    return;
  }
  case LStmt::Kind::AccumOuter: {
    MutDV Dest = resolveDest(S.Dest);
    if (AtmParDepth > 0)
      noteAtomic(Dest.Ptr);
    execCheck(Dest.K == DV::Kind::Mat, "AccumOuter", S.Dest.Var,
              "outer-product accumulator must be a matrix");
    DV Y = evalE(S.OuterY);
    DV M = evalE(S.OuterMean);
    execCheck(Y.K == DV::Kind::Vec && M.K == DV::Kind::Vec &&
                  Y.N == Dest.Rows && M.N == Dest.Rows,
              "AccumOuter", S.Dest.Var, "operand shape mismatch");
    for (int64_t I = 0; I < Dest.Rows; ++I)
      for (int64_t J = 0; J < Dest.Cols; ++J)
        accumReal(Dest.Ptr + I * Dest.Cols + J,
                  (Y.Ptr[I] - M.Ptr[I]) * (Y.Ptr[J] - M.Ptr[J]));
    return;
  }
  }
  throw ExecError("Stmt", "", "unknown statement kind");
}
