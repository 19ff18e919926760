//===- blk/Passes.cpp -----------------------------------------*- C++ -*-===//

#include "blk/Passes.h"

#include <algorithm>
#include <cassert>
#include <thread>

#include "density/Forward.h"
#include "support/Format.h"

using namespace augur;

BlkProc augur::lowerToBlk(const LowppProc &P) {
  BlkProc B;
  B.Name = P.Name;
  Block *CurSeq = nullptr;
  for (const auto &S : P.Body) {
    if (S->K == LStmt::Kind::Loop && S->LK != LoopKind::Seq) {
      Block Par;
      Par.K = Block::Kind::Par;
      Par.LK = S->LK;
      Par.Var = S->LoopVar;
      Par.Lo = S->Lo;
      Par.Hi = S->Hi;
      Par.Body = S->Body;
      B.Blocks.push_back(std::move(Par));
      CurSeq = nullptr;
      continue;
    }
    if (!CurSeq) {
      Block Seq;
      Seq.K = Block::Kind::Seq;
      B.Blocks.push_back(std::move(Seq));
      CurSeq = &B.Blocks.back();
    }
    CurSeq->Body.push_back(S);
  }
  return B;
}

//===----------------------------------------------------------------------===//
// Primitive inlining (Low++ level)
//===----------------------------------------------------------------------===//

namespace {

int InlineCounter = 0;

/// Expands `dest = Dirichlet(alpha).samp` into its loop implementation
/// (the paper's Section 5.4 example): a parallel Gamma loop followed by
/// normalization.
std::vector<LStmtPtr> expandDirichletSample(const LStmt &S) {
  const ExprPtr &Alpha = S.Params[0];
  std::string G = strFormat("dirich_g_%d", InlineCounter);
  std::string Sum = strFormat("dirich_s_%d", InlineCounter);
  std::string V = strFormat("v_%d", InlineCounter);
  ++InlineCounter;
  ExprPtr LenE = Expr::prim(PrimOp::Len, {Alpha});
  ExprPtr VE = Expr::var(V);
  LValue DestElem = S.Dest;
  DestElem.Idxs.push_back(VE);

  std::vector<LStmtPtr> Out;
  Out.push_back(stDeclLocal(G, LocalKind::Real, {LenE}));
  Out.push_back(stDeclLocal(Sum, LocalKind::Real, {}));
  Out.push_back(stLoop(
      LoopKind::Par, V, Expr::intLit(0), LenE,
      {stSample(LValue::indexed(G, {VE}), Dist::Gamma,
                {Expr::index(Alpha, VE), Expr::realLit(1.0)})}));
  Out.push_back(stLoop(LoopKind::AtmPar, V, Expr::intLit(0), LenE,
                       {stAssign(LValue::scalar(Sum),
                                 Expr::index(Expr::var(G), VE), true)}));
  Out.push_back(stLoop(
      LoopKind::Par, V, Expr::intLit(0), LenE,
      {stAssign(DestElem,
                Expr::prim(PrimOp::Div, {Expr::index(Expr::var(G), VE),
                                         Expr::var(Sum)}))}));
  return Out;
}

std::vector<LStmtPtr> inlineBody(const std::vector<LStmtPtr> &Body,
                                 bool &Changed);

ExprPtr lvalueToExpr(const LValue &L) {
  ExprPtr E = Expr::var(L.Var);
  for (const auto &Idx : L.Idxs)
    E = Expr::index(std::move(E), Idx);
  return E;
}

/// Expands a Dirichlet-Categorical posterior draw the same way: the
/// posterior is Dirichlet(alpha + counts), i.e. normalized Gammas with
/// shifted shapes.
std::vector<LStmtPtr> expandDirichletConjSample(const LStmt &S) {
  const ExprPtr &Alpha = S.PriorParams[0];
  ExprPtr Counts = lvalueToExpr(S.StatRefs[0]);
  std::string G = strFormat("dirich_g_%d", InlineCounter);
  std::string Sum = strFormat("dirich_s_%d", InlineCounter);
  std::string V = strFormat("v_%d", InlineCounter);
  ++InlineCounter;
  ExprPtr LenE = Expr::prim(PrimOp::Len, {Alpha});
  ExprPtr VE = Expr::var(V);
  LValue DestElem = S.Dest;
  DestElem.Idxs.push_back(VE);

  std::vector<LStmtPtr> Out;
  Out.push_back(stDeclLocal(G, LocalKind::Real, {LenE}));
  Out.push_back(stDeclLocal(Sum, LocalKind::Real, {}));
  Out.push_back(stLoop(
      LoopKind::Par, V, Expr::intLit(0), LenE,
      {stSample(LValue::indexed(G, {VE}), Dist::Gamma,
                {Expr::add(Expr::index(Alpha, VE),
                           Expr::index(Counts, VE)),
                 Expr::realLit(1.0)})}));
  Out.push_back(stLoop(LoopKind::AtmPar, V, Expr::intLit(0), LenE,
                       {stAssign(LValue::scalar(Sum),
                                 Expr::index(Expr::var(G), VE), true)}));
  Out.push_back(stLoop(
      LoopKind::Par, V, Expr::intLit(0), LenE,
      {stAssign(DestElem,
                Expr::prim(PrimOp::Div, {Expr::index(Expr::var(G), VE),
                                         Expr::var(Sum)}))}));
  return Out;
}

LStmtPtr inlineStmt(const LStmtPtr &S, bool &Changed,
                    std::vector<LStmtPtr> &Expansion) {
  switch (S->K) {
  case LStmt::Kind::Sample:
    if (S->D == Dist::Dirichlet) {
      Changed = true;
      Expansion = expandDirichletSample(*S);
      return nullptr;
    }
    return S;
  case LStmt::Kind::ConjSample:
    if (S->Conj == ConjKind::DirichletCategorical) {
      Changed = true;
      Expansion = expandDirichletConjSample(*S);
      return nullptr;
    }
    return S;
  case LStmt::Kind::If: {
    auto Copy = std::make_shared<LStmt>(*S);
    Copy->Then = inlineBody(S->Then, Changed);
    return Copy;
  }
  case LStmt::Kind::Loop: {
    auto Copy = std::make_shared<LStmt>(*S);
    Copy->Body = inlineBody(S->Body, Changed);
    return Copy;
  }
  default:
    return S;
  }
}

std::vector<LStmtPtr> inlineBody(const std::vector<LStmtPtr> &Body,
                                 bool &Changed) {
  std::vector<LStmtPtr> Out;
  for (const auto &S : Body) {
    std::vector<LStmtPtr> Expansion;
    LStmtPtr New = inlineStmt(S, Changed, Expansion);
    if (New)
      Out.push_back(std::move(New));
    else
      Out.insert(Out.end(), Expansion.begin(), Expansion.end());
  }
  return Out;
}

} // namespace

LowppProc augur::inlinePrimitives(const LowppProc &P, bool *Changed) {
  bool Did = false;
  LowppProc Out;
  Out.Name = P.Name;
  Out.Outputs = P.Outputs;
  Out.Body = inlineBody(P.Body, Did);
  if (Changed)
    *Changed = Did;
  return Out;
}

//===----------------------------------------------------------------------===//
// Loop commuting
//===----------------------------------------------------------------------===//

namespace {

int64_t evalExtent(const ExprPtr &Lo, const ExprPtr &Hi, const Env &E,
                   const std::map<std::string, int64_t> &LoopVars) {
  EvalCtx Ctx(E);
  Ctx.LoopVars = LoopVars;
  return evalIntExpr(Hi, Ctx) - evalIntExpr(Lo, Ctx);
}

/// True if \p Expr can be evaluated against \p E with unknown BARE
/// variables probed as integer loop counters. Any variable consumed as
/// a container — an index-chain root or a Len/Rows/Dot argument — must
/// actually be bound: the evaluator resolves those through the
/// environment only, and planning runs before lazily-created buffers
/// (interpreter locals, adjoint accumulators) exist, so an unguarded
/// eval of e.g. `Lengths[d]` with an unbound root faults.
bool boundEvaluable(const ExprPtr &Expr, const Env &E) {
  switch (Expr->kind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::RealLit:
  case Expr::Kind::Var:
    return true; // probed when unbound
  case Expr::Kind::Index: {
    ExprPtr Cur = Expr;
    while (Cur->kind() == Expr::Kind::Index) {
      if (!boundEvaluable(Cur->idx(), E))
        return false;
      Cur = Cur->base();
    }
    return Cur->kind() == Expr::Kind::Var && E.count(Cur->varName()) > 0;
  }
  case Expr::Kind::Prim: {
    PrimOp Op = Expr->primOp();
    bool NeedsBound = Op == PrimOp::Len || Op == PrimOp::Rows ||
                      Op == PrimOp::Dot;
    for (const auto &A : Expr->args()) {
      if (!boundEvaluable(A, E))
        return false;
      if (NeedsBound && A->kind() == Expr::Kind::Var &&
          !E.count(A->varName()))
        return false;
    }
    return true;
  }
  }
  return false;
}

/// evalExtent with the probedExtent safety contract: unknown bare
/// variables are probed to 0 and bounds the evaluator cannot resolve
/// (unbound container roots) report extent 0 instead of faulting.
int64_t safeExtent(const ExprPtr &Lo, const ExprPtr &Hi, const Env &E) {
  if (!boundEvaluable(Lo, E) || !boundEvaluable(Hi, E))
    return 0;
  std::vector<std::string> Vars;
  Lo->collectVars(Vars);
  Hi->collectVars(Vars);
  std::map<std::string, int64_t> Probe;
  for (const auto &V : Vars)
    if (!E.count(V))
      Probe[V] = 0;
  return evalExtent(Lo, Hi, E, Probe);
}

} // namespace

int augur::commuteLoops(BlkProc &P, const Env &E, const BlkOptions &O) {
  if (!O.CommuteLoops)
    return 0;
  int Count = 0;
  for (auto &B : P.Blocks) {
    if (B.K != Block::Kind::Par || B.Body.size() != 1)
      continue;
    const LStmtPtr &Inner = B.Body[0];
    if (Inner->K != LStmt::Kind::Loop || Inner->LK == LoopKind::Seq)
      continue;
    // A ragged inner bound depending on the block variable cannot be
    // hoisted.
    if (Inner->Lo->mentionsVar(B.Var) || Inner->Hi->mentionsVar(B.Var))
      continue;
    int64_t OuterExt = safeExtent(B.Lo, B.Hi, E);
    int64_t InnerExt = safeExtent(Inner->Lo, Inner->Hi, E);
    if (InnerExt <= 0)
      continue;
    if (InnerExt < O.CommuteFactor * OuterExt)
      continue;
    // Swap: the big extent becomes the thread dimension.
    Block New;
    New.K = Block::Kind::Par;
    New.LK = Inner->LK;
    New.Var = Inner->LoopVar;
    New.Lo = Inner->Lo;
    New.Hi = Inner->Hi;
    New.Body = {stLoop(B.LK, B.Var, B.Lo, B.Hi, Inner->Body)};
    B = std::move(New);
    ++Count;
  }
  return Count;
}

//===----------------------------------------------------------------------===//
// Summation-block conversion
//===----------------------------------------------------------------------===//

namespace {

/// Collects the accumulation destinations of a block body. Returns
/// false if the body performs a write that cannot be privatized (a
/// non-accumulating global write or a sampling statement).
bool collectAccumTargets(const std::vector<LStmtPtr> &Body,
                         std::vector<std::string> &LocalNames,
                         std::vector<const LValue *> &Targets,
                         std::vector<std::string> &InnerVars) {
  for (const auto &S : Body) {
    switch (S->K) {
    case LStmt::Kind::DeclLocal:
      LocalNames.push_back(S->LocalName);
      break;
    case LStmt::Kind::Assign: {
      bool IsLocal =
          std::find(LocalNames.begin(), LocalNames.end(), S->Dest.Var) !=
          LocalNames.end();
      if (IsLocal)
        break;
      if (!S->Accum)
        return false;
      Targets.push_back(&S->Dest);
      break;
    }
    case LStmt::Kind::AccumLL:
    case LStmt::Kind::AccumGrad:
    case LStmt::Kind::AccumOuter:
    case LStmt::Kind::AccumVec: {
      bool IsLocal =
          std::find(LocalNames.begin(), LocalNames.end(), S->Dest.Var) !=
          LocalNames.end();
      if (!IsLocal)
        Targets.push_back(&S->Dest);
      break;
    }
    case LStmt::Kind::Sample:
    case LStmt::Kind::SampleLogits:
    case LStmt::Kind::ConjSample:
      return false;
    case LStmt::Kind::If:
      if (!collectAccumTargets(S->Then, LocalNames, Targets, InnerVars))
        return false;
      break;
    case LStmt::Kind::Loop:
      InnerVars.push_back(S->LoopVar);
      if (!collectAccumTargets(S->Body, LocalNames, Targets, InnerVars))
        return false;
      break;
    }
  }
  return true;
}

/// Extents of the loops inside \p Body, by loop variable (bounds
/// depending on enclosing loop variables are skipped).
void collectInnerExtents(const std::vector<LStmtPtr> &Body, const Env &E,
                         std::map<std::string, int64_t> &Out) {
  for (const auto &S : Body) {
    if (S->K == LStmt::Kind::If) {
      collectInnerExtents(S->Then, E, Out);
      continue;
    }
    if (S->K != LStmt::Kind::Loop)
      continue;
    // Bind enclosing loop variables to 0: extents indexed through them
    // (e.g. len(x[n])) are uniform across the block in generated code.
    // Bounds the evaluator cannot resolve probe to 0.
    Out[S->LoopVar] = safeExtent(S->Lo, S->Hi, E);
    collectInnerExtents(S->Body, E, Out);
  }
}

/// Deep-copies \p Body keeping only the accumulations into \p KeepVar
/// (plus every local/pure statement).
std::vector<LStmtPtr> filterBodyFor(const std::vector<LStmtPtr> &Body,
                                    const std::string &KeepVar,
                                    std::vector<std::string> &LocalNames) {
  std::vector<LStmtPtr> Out;
  for (const auto &S : Body) {
    switch (S->K) {
    case LStmt::Kind::DeclLocal:
      LocalNames.push_back(S->LocalName);
      Out.push_back(S);
      break;
    case LStmt::Kind::Assign:
    case LStmt::Kind::AccumLL:
    case LStmt::Kind::AccumGrad:
    case LStmt::Kind::AccumOuter:
    case LStmt::Kind::AccumVec: {
      bool IsLocal =
          std::find(LocalNames.begin(), LocalNames.end(), S->Dest.Var) !=
          LocalNames.end();
      if (IsLocal || S->Dest.Var == KeepVar)
        Out.push_back(S);
      break;
    }
    case LStmt::Kind::If: {
      auto Copy = std::make_shared<LStmt>(*S);
      Copy->Then = filterBodyFor(S->Then, KeepVar, LocalNames);
      if (!Copy->Then.empty())
        Out.push_back(std::move(Copy));
      break;
    }
    case LStmt::Kind::Loop: {
      auto Copy = std::make_shared<LStmt>(*S);
      Copy->Body = filterBodyFor(S->Body, KeepVar, LocalNames);
      if (!Copy->Body.empty())
        Out.push_back(std::move(Copy));
      break;
    }
    default:
      Out.push_back(S);
      break;
    }
  }
  return Out;
}

} // namespace

int augur::convertSumBlocks(BlkProc &P, const Env &E, const BlkOptions &O) {
  if (!O.ConvertSumBlocks)
    return 0;
  int Count = 0;
  std::vector<Block> NewBlocks;
  for (auto &B : P.Blocks) {
    if (B.K != Block::Kind::Par || B.LK != LoopKind::AtmPar) {
      NewBlocks.push_back(std::move(B));
      continue;
    }
    std::vector<std::string> LocalNames;
    std::vector<const LValue *> Targets;
    std::vector<std::string> InnerVars;
    if (!collectAccumTargets(B.Body, LocalNames, Targets, InnerVars) ||
        Targets.empty()) {
      NewBlocks.push_back(std::move(B));
      continue;
    }
    // Per-target contention estimate (paper: threads / locations).
    // A destination indexed by the block variable cannot be privatized;
    // one indexed only by inner loop variables has one location per
    // inner index value.
    std::map<std::string, int64_t> InnerExtents;
    collectInnerExtents(B.Body, E, InnerExtents);
    int64_t Threads = safeExtent(B.Lo, B.Hi, E);
    bool Convertible = true;
    std::map<std::string, int64_t> LocationsByVar;
    for (const auto *T : Targets) {
      int64_t Locations = 1;
      for (const auto &Idx : T->Idxs) {
        if (Idx->mentionsVar(B.Var)) {
          Convertible = false;
          break;
        }
        std::vector<std::string> IdxVars;
        Idx->collectVars(IdxVars);
        int64_t Extent = 1;
        for (const auto &IV : IdxVars) {
          auto It = InnerExtents.find(IV);
          if (It == InnerExtents.end()) {
            // Not an inner loop variable with a known extent: give up.
            Convertible = false;
            break;
          }
          Extent *= std::max<int64_t>(It->second, 1);
        }
        Locations *= Extent;
      }
      if (!Convertible)
        break;
      auto [It, Inserted] = LocationsByVar.emplace(T->Var, Locations);
      if (!Inserted)
        It->second = std::max(It->second, Locations);
    }
    int64_t MaxLocations = 1;
    for (const auto &KV : LocationsByVar)
      MaxLocations = std::max(MaxLocations, KV.second);
    if (!Convertible || MaxLocations == 0 ||
        Threads / std::max<int64_t>(MaxLocations, 1) <
            O.SumBlockThreshold) {
      NewBlocks.push_back(std::move(B));
      continue;
    }
    // Split into one summation block per target variable: each
    // re-executes the shared computation but reduces only its own
    // destination ("14 map-reduces over 50000 elements").
    for (const auto &KV : LocationsByVar) {
      Block Sum;
      Sum.K = Block::Kind::Sum;
      Sum.LK = B.LK;
      Sum.Var = B.Var;
      Sum.Lo = B.Lo;
      Sum.Hi = B.Hi;
      std::vector<std::string> Locals;
      Sum.Body = filterBodyFor(B.Body, KV.first, Locals);
      Sum.Privatized = KV.second > 1;
      // SumDest: the exact lvalue when unique and scalar-per-block,
      // else the whole variable (per-location reduction).
      const LValue *Exact = nullptr;
      for (const auto *T : Targets)
        if (T->Var == KV.first)
          Exact = T;
      if (!Sum.Privatized && Exact)
        Sum.SumDest = *Exact;
      else
        Sum.SumDest = LValue::scalar(KV.first);
      NewBlocks.push_back(std::move(Sum));
    }
    ++Count;
  }
  P.Blocks = std::move(NewBlocks);
  return Count;
}

//===----------------------------------------------------------------------===//
// CPU reduction planning
//===----------------------------------------------------------------------===//

const char *augur::reduceModeName(ReduceMode M) {
  switch (M) {
  case ReduceMode::Auto:
    return "auto";
  case ReduceMode::Atomic:
    return "atomic";
  case ReduceMode::MapReduce:
    return "mapreduce";
  }
  return "?";
}

bool augur::shouldMapReduce(int64_t Width, int64_t Ops, int64_t Locations,
                            const CpuReduceOptions &O) {
  if (Ops <= 0 || Locations <= 0)
    return false;
  // The paper's contention ratio, with the pool width standing in for
  // the GPU's one-thread-per-iteration width.
  if (Width * Ops / Locations < O.ContentionThreshold)
    return false;
  // Zeroing + folding the partials touches Shards * Locations slots;
  // refuse when that traffic dwarfs the accumulation work itself.
  return O.Shards * Locations <= O.FoldBudget * Ops;
}

namespace {

/// Whether \p S can consume random bits anywhere in its subtree.
bool stmtEverSamples(const LStmt &S) {
  switch (S.K) {
  case LStmt::Kind::Sample:
  case LStmt::Kind::SampleLogits:
  case LStmt::Kind::ConjSample:
    return true;
  case LStmt::Kind::If:
    for (const auto &T : S.Then)
      if (stmtEverSamples(*T))
        return true;
    return false;
  case LStmt::Kind::Loop:
    for (const auto &B : S.Body)
      if (stmtEverSamples(*B))
        return true;
    return false;
  default:
    return false;
  }
}

/// Extent of one loop with unknown (enclosing) variables probed to 0,
/// the same convention as collectInnerExtents.
int64_t probedExtent(const LStmt &L, const Env &E) {
  return std::max<int64_t>(safeExtent(L.Lo, L.Hi, E), 0);
}

/// One global accumulation found under a pooled loop.
struct AccumSite {
  const LValue *Dest = nullptr;
  int64_t Ops = 0;          ///< enclosing-extent product
  bool UnderAtmPar = false; ///< executes with atomic increments
  bool OwnerIndexed = false; ///< leading index == pooled block variable
};

struct LoopScan {
  std::vector<AccumSite> Accums;
  bool HasSampling = false;
};

void scanAccums(const std::vector<LStmtPtr> &Body, const Env &E,
                const std::string &TopVar, int64_t Mult, bool Atm,
                std::vector<std::string> &BodyLocals, LoopScan &Out) {
  ExprPtr TopVarE = Expr::var(TopVar);
  for (const auto &S : Body) {
    switch (S->K) {
    case LStmt::Kind::DeclLocal:
      BodyLocals.push_back(S->LocalName);
      break;
    case LStmt::Kind::Sample:
    case LStmt::Kind::SampleLogits:
    case LStmt::Kind::ConjSample:
      Out.HasSampling = true;
      break;
    case LStmt::Kind::Assign:
      if (!S->Accum)
        break;
      [[fallthrough]];
    case LStmt::Kind::AccumLL:
    case LStmt::Kind::AccumGrad:
    case LStmt::Kind::AccumOuter:
    case LStmt::Kind::AccumVec: {
      bool IsLocal = std::find(BodyLocals.begin(), BodyLocals.end(),
                               S->Dest.Var) != BodyLocals.end();
      if (IsLocal)
        break;
      AccumSite A;
      A.Dest = &S->Dest;
      A.Ops = Mult;
      A.UnderAtmPar = Atm;
      A.OwnerIndexed = !S->Dest.Idxs.empty() &&
                       Expr::structEq(S->Dest.Idxs[0], TopVarE);
      Out.Accums.push_back(A);
      break;
    }
    case LStmt::Kind::If:
      scanAccums(S->Then, E, TopVar, Mult, Atm, BodyLocals, Out);
      break;
    case LStmt::Kind::Loop: {
      int64_t Ext = probedExtent(*S, E);
      scanAccums(S->Body, E, TopVar, Mult * std::max<int64_t>(Ext, 1),
                 Atm || S->LK == LoopKind::AtmPar, BodyLocals, Out);
      break;
    }
    }
  }
}

/// Post-order owner-indexed demotion: an AtmPar loop whose every global
/// accumulation (at any depth) leads with the pooled block variable has
/// one writer per location, so plain increments are race-free and
/// bit-identical to the atomic result. Returns whether the subtree's
/// global accums are all owner-indexed (and records whether any exist).
bool demoteOwnerIndexed(LStmt &L, const std::string &TopVar,
                        std::vector<std::string> BodyLocals, int &Demoted,
                        bool &AnyAccum) {
  ExprPtr TopVarE = Expr::var(TopVar);
  bool AllOwner = true;
  bool SubAny = false;
  for (const auto &S : L.Body) {
    switch (S->K) {
    case LStmt::Kind::DeclLocal:
      BodyLocals.push_back(S->LocalName);
      break;
    case LStmt::Kind::Assign:
      if (!S->Accum)
        break;
      [[fallthrough]];
    case LStmt::Kind::AccumLL:
    case LStmt::Kind::AccumGrad:
    case LStmt::Kind::AccumOuter:
    case LStmt::Kind::AccumVec: {
      bool IsLocal = std::find(BodyLocals.begin(), BodyLocals.end(),
                               S->Dest.Var) != BodyLocals.end();
      if (IsLocal)
        break;
      SubAny = true;
      if (S->Dest.Idxs.empty() || !Expr::structEq(S->Dest.Idxs[0], TopVarE))
        AllOwner = false;
      break;
    }
    case LStmt::Kind::If: {
      // Treat the guard body as part of this loop for the scan.
      LStmt Probe;
      Probe.K = LStmt::Kind::Loop;
      Probe.Body = S->Then;
      bool ChildAny = false;
      if (!demoteOwnerIndexed(Probe, TopVar, BodyLocals, Demoted, ChildAny))
        AllOwner = false;
      SubAny = SubAny || ChildAny;
      break;
    }
    case LStmt::Kind::Loop: {
      bool ChildAny = false;
      if (!demoteOwnerIndexed(*S, TopVar, BodyLocals, Demoted, ChildAny))
        AllOwner = false;
      SubAny = SubAny || ChildAny;
      break;
    }
    default:
      break;
    }
  }
  if (L.K == LStmt::Kind::Loop && L.LK == LoopKind::AtmPar && AllOwner &&
      SubAny) {
    L.LK = LoopKind::Par;
    ++Demoted;
  }
  AnyAccum = AnyAccum || SubAny;
  return AllOwner;
}

/// Whether allocateVar can size the declared variable \p Name against
/// \p E: it has scalar elements (no distribution argument, which may
/// mention unbound parameters, is evaluated) and its comprehension
/// bounds mention only bound names and enclosing indices.
bool sizableFromDecl(const std::string &Name, const Env &E,
                     const TypedModel &TM) {
  const ModelDecl *D = TM.M.findDecl(Name);
  if (!D)
    return false;
  const Type *Elem = &TM.typeOf(Name);
  std::vector<std::string> Vars, Bound;
  for (const auto &C : D->Comps) {
    if (!Elem->isVec())
      return false;
    Elem = &Elem->elem();
    C.Lo->collectVars(Vars);
    C.Hi->collectVars(Vars);
    Bound.push_back(C.Var);
  }
  for (const auto &V : Vars)
    if (!E.count(V) && std::find(Bound.begin(), Bound.end(), V) == Bound.end())
      return false;
  return Elem->isScalar();
}

/// Flat location count of accumulation target \p Name: a bound global,
/// an `adj_<v>` adjoint shaped like its global (or, before \p v is
/// bound, like its declaration in \p TM), a procedure-local stat buffer
/// (declared before the loop), or an output scalar created on first
/// assignment. Returns -1 when the size cannot be bounded.
int64_t targetLocations(const std::string &Name, const Env &E,
                        const std::map<std::string, const LStmt *> &Decls,
                        const LowppProc &P, const TypedModel *TM) {
  auto Size = [](const Value &V) -> int64_t {
    if (V.isIntScalar() || V.isRealScalar())
      return 1;
    if (V.isIntVec())
      return V.intVec().flatSize();
    if (V.isRealVec())
      return V.realVec().flatSize();
    if (V.isMatrix())
      return V.mat().rows() * V.mat().cols();
    if (V.isMatVec())
      return V.matVec().size() * V.matVec().rows() * V.matVec().cols();
    return -1;
  };
  auto It = E.find(Name);
  if (It != E.end())
    return Size(It->second);
  if (Name.rfind("adj_", 0) == 0) {
    auto Base = E.find(Name.substr(4));
    if (Base != E.end())
      return Size(Base->second);
    // Not bound yet: size it from its declaration, the paper's size
    // inference (Section 5.2).
    if (TM && sizableFromDecl(Name.substr(4), E, *TM))
      if (Result<Value> V =
              allocateVar(*TM->M.findDecl(Name.substr(4)), *TM, E);
          V.ok())
        return Size(*V);
  }
  auto D = Decls.find(Name);
  if (D != Decls.end()) {
    EvalCtx Ctx(E);
    int64_t Sz = 1;
    for (const auto &Dim : D->second->Dims)
      Sz *= std::max<int64_t>(evalIntExpr(Dim, Ctx), 0);
    if (D->second->LKind == LocalKind::Mat)
      Sz *= D->second->Dims.empty()
                ? 1
                : std::max<int64_t>(
                      evalIntExpr(D->second->Dims.back(), Ctx), 1);
    return Sz;
  }
  // Output scalars (e.g. "ll_llp_0") exist only at run time; they are
  // scalars exactly when the proc zero-initializes them unindexed.
  for (const auto &S : P.Body)
    if (S->K == LStmt::Kind::Assign && !S->Accum && S->Dest.Var == Name &&
        S->Dest.Idxs.empty())
      return 1;
  return -1;
}

/// Commutes a pooled nest (single inner non-Seq loop, inner bounds free
/// of the outer variable, inner extent >= factor * outer extent) so the
/// large extent feeds the pool. Restricted to non-sampling bodies:
/// commuting a sampling loop would remap its per-iteration RNG streams.
bool commuteTopLoop(LStmt &S, const Env &E, const CpuReduceOptions &O) {
  if (S.Body.size() != 1)
    return false;
  LStmt &Inner = *S.Body[0];
  if (Inner.K != LStmt::Kind::Loop || Inner.LK == LoopKind::Seq)
    return false;
  if (Inner.Lo->mentionsVar(S.LoopVar) || Inner.Hi->mentionsVar(S.LoopVar))
    return false;
  for (const auto &B : S.Body)
    if (stmtEverSamples(*B))
      return false;
  int64_t OuterExt = safeExtent(S.Lo, S.Hi, E);
  int64_t InnerExt = probedExtent(Inner, E);
  if (InnerExt < O.CommuteFactor * std::max<int64_t>(OuterExt, 1))
    return false;
  LStmt OldInner = Inner; // copy fields before overwriting
  LStmtPtr NewInner =
      stLoop(S.LK, S.LoopVar, S.Lo, S.Hi, std::move(Inner.Body));
  S.LK = OldInner.LK;
  S.LoopVar = OldInner.LoopVar;
  S.Lo = OldInner.Lo;
  S.Hi = OldInner.Hi;
  S.Body = {NewInner};
  return true;
}

} // namespace

CpuReduceReport augur::planCpuReductions(LowppProc &P, const Env &E,
                                         const CpuReduceOptions &O,
                                         const TypedModel *TM) {
  CpuReduceReport R;
  int64_t Width = O.EstimatorWidth > 0
                      ? O.EstimatorWidth
                      : int64_t(std::max(1u, std::thread::hardware_concurrency()));

  // Procedure-level locals (stat buffers) visible to the pooled loops.
  std::map<std::string, const LStmt *> Decls;
  for (const auto &S : P.Body)
    if (S->K == LStmt::Kind::DeclLocal)
      Decls.emplace(S->LocalName, S.get());

  for (auto &SP : P.Body) {
    if (SP->K != LStmt::Kind::Loop || SP->LK == LoopKind::Seq)
      continue;
    LStmt &S = *SP;

    if (O.CommuteLoops && commuteTopLoop(S, E, O))
      ++R.CommutedLoops;

    // Owner-indexed demotion is bit-transparent, so it applies under
    // every policy, including Atomic.
    bool AnyAccum = false;
    demoteOwnerIndexed(S, S.LoopVar, {}, R.DemotedSites, AnyAccum);

    LoopScan Scan;
    std::vector<std::string> BodyLocals;
    int64_t OuterExt = probedExtent(S, E);
    scanAccums(S.Body, E, S.LoopVar, std::max<int64_t>(OuterExt, 1),
               S.LK == LoopKind::AtmPar, BodyLocals, Scan);

    bool AnyAtomic = false;
    for (const auto &A : Scan.Accums)
      AnyAtomic = AnyAtomic || A.UnderAtmPar;
    if (!AnyAtomic)
      continue; // nothing contended at this site

    if (O.Mode == ReduceMode::Atomic || Scan.HasSampling) {
      ++R.AtomicSites;
      continue;
    }

    // Aggregate ops/locations per distinct target buffer; privatization
    // is whole-buffer, so data-dependent indices are fine but every
    // buffer must have a statically bounded flat size.
    std::map<std::string, std::pair<int64_t, int64_t>> Targets; // ops, locs
    bool Legal = true;
    for (const auto &A : Scan.Accums) {
      int64_t Locs = targetLocations(A.Dest->Var, E, Decls, P, TM);
      if (Locs < 0) {
        Legal = false;
        break;
      }
      auto [It, Inserted] =
          Targets.emplace(A.Dest->Var, std::make_pair(A.Ops, Locs));
      if (!Inserted)
        It->second.first += A.Ops;
    }
    if (!Legal || Targets.empty()) {
      ++R.AtomicSites;
      continue;
    }

    int64_t TotalOps = 0, TotalLocs = 0;
    for (const auto &[Name, OL] : Targets) {
      TotalOps += OL.first;
      TotalLocs += OL.second;
    }
    // Forced MapReduce converts every legal site; Auto asks the
    // estimator, using the canonical machine width so the decision is
    // identical at every configured pool width.
    bool Convert = O.Mode == ReduceMode::MapReduce ||
                   shouldMapReduce(Width, TotalOps, TotalLocs, O);
    if (!Convert) {
      ++R.AtomicSites;
      continue;
    }

    S.Red = ReduceKind::MapReduce;
    S.RedTargets.clear();
    int64_t Block =
        (std::max<int64_t>(OuterExt, 1) + ReduceShards - 1) / ReduceShards;
    int64_t Blocks =
        (std::max<int64_t>(OuterExt, 1) + Block - 1) / Block;
    for (const auto &[Name, OL] : Targets) {
      S.RedTargets.push_back(Name);
      int64_t StrideDoubles = (OL.second + 7) & ~int64_t(7);
      R.PartialBytes += Blocks * StrideDoubles * 8;
    }
    ++R.MapReduceSites;
  }
  return R;
}

BlkProc augur::optimizeToBlk(const LowppProc &P, const Env &E,
                             const BlkOptions &O) {
  BlkProc Direct = lowerToBlk(P);
  int DirectWins = commuteLoops(Direct, E, O) + convertSumBlocks(Direct, E, O);

  if (!O.InlinePrimitives)
    return Direct;
  bool Changed = false;
  LowppProc Inlined = inlinePrimitives(P, &Changed);
  if (!Changed)
    return Direct;
  BlkProc WithInline = lowerToBlk(Inlined);
  int InlineWins =
      commuteLoops(WithInline, E, O) + convertSumBlocks(WithInline, E, O);
  // The paper's heuristic: keep the inlined form only if inlining
  // enabled an additional commute or summation-block conversion.
  if (InlineWins > DirectWins)
    return WithInline;
  return Direct;
}
