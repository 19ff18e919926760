//===- lowpp/Reify.cpp ----------------------------------------*- C++ -*-===//

#include "lowpp/Reify.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "support/Format.h"

using namespace augur;

namespace {

ExprPtr lit0() { return Expr::realLit(0.0); }
ExprPtr lit1() { return Expr::realLit(1.0); }

/// Wraps \p Inner in the guard/loop structure of \p F: If for the
/// guards, then F's loops inside-out with annotation \p LK.
std::vector<LStmtPtr> wrapFactor(const Factor &F,
                                 std::vector<LStmtPtr> Inner, LoopKind LK) {
  if (!F.Guards.empty())
    Inner = {stIf(F.Guards, std::move(Inner))};
  for (size_t I = F.Loops.size(); I > 0; --I) {
    const LoopBinding &L = F.Loops[I - 1];
    Inner = {stLoop(LK, L.Var, L.Lo, L.Hi, std::move(Inner))};
  }
  return Inner;
}

/// Wraps \p Inner in explicit loop bindings (outermost first).
std::vector<LStmtPtr> wrapLoops(const std::vector<LoopBinding> &Loops,
                                std::vector<LStmtPtr> Inner, LoopKind LK) {
  for (size_t I = Loops.size(); I > 0; --I) {
    const LoopBinding &L = Loops[I - 1];
    Inner = {stLoop(LK, L.Var, L.Lo, L.Hi, std::move(Inner))};
  }
  return Inner;
}

/// Fresh-name generator for locals and loop variables.
class Gensym {
public:
  std::string fresh(const std::string &Base) {
    return strFormat("%s_%d", Base.c_str(), Counter++);
  }

private:
  int Counter = 0;
};

/// If \p E is a direct location (a bare variable in \p Targets, or an
/// index chain rooted at one), returns the corresponding adjoint-buffer
/// lvalue adj_<v>[idxs...].
std::optional<LValue>
directAdjLocation(const ExprPtr &E, const std::vector<std::string> &Targets) {
  std::vector<ExprPtr> Chain;
  ExprPtr Cur = E;
  while (Cur->kind() == Expr::Kind::Index) {
    Chain.push_back(Cur->idx());
    Cur = Cur->base();
  }
  if (Cur->kind() != Expr::Kind::Var)
    return std::nullopt;
  if (std::find(Targets.begin(), Targets.end(), Cur->varName()) ==
      Targets.end())
    return std::nullopt;
  std::reverse(Chain.begin(), Chain.end());
  return LValue::indexed("adj_" + Cur->varName(), std::move(Chain));
}

bool mentionsAny(const ExprPtr &E, const std::vector<std::string> &Targets) {
  for (const auto &T : Targets)
    if (E->mentionsVar(T))
      return true;
  return false;
}

/// Forward values the adjoint code reads, keyed by expression node. A
/// bound node's value lives in a Low++ local computed once, before any
/// adjoint statement of its factor; unbound nodes stand for themselves.
using ForwardValues = std::map<const Expr *, ExprPtr>;

ExprPtr valueOf(const ExprPtr &E, const ForwardValues &Fwd) {
  auto It = Fwd.find(E.get());
  return It == Fwd.end() ? E : It->second;
}

/// Emits `local v : Real; v = E` and returns v.
ExprPtr bindReal(const std::string &Base, ExprPtr E,
                 std::vector<LStmtPtr> &Out, Gensym &Gen) {
  std::string V = Gen.fresh(Base);
  Out.push_back(stDeclLocal(V, LocalKind::Real, {}));
  Out.push_back(stAssign(LValue::scalar(V), std::move(E)));
  return Expr::var(V);
}

/// Binds a non-atomic adjoint that is read more than once.
ExprPtr bindAdjoint(ExprPtr Adj, std::vector<LStmtPtr> &Out, Gensym &Gen) {
  if (Adj->kind() != Expr::Kind::Prim)
    return Adj;
  return bindReal("t_bar", std::move(Adj), Out, Gen);
}

/// Forward sweep over a differentiated expression, children first:
/// binds every node whose value the reverse sweep (emitExprAdjoint)
/// reads, plus \p E itself when \p Needed, so each such value is
/// evaluated once. Only prims that reach a target are bound; those are
/// real scalars (shape queries excepted). Returns \p E's value in terms
/// of the bound locals.
ExprPtr bindForward(const ExprPtr &E, bool Needed,
                    const std::vector<std::string> &Targets,
                    std::vector<LStmtPtr> &Out, Gensym &Gen,
                    ForwardValues &Fwd) {
  if (E->kind() != Expr::Kind::Prim || !mentionsAny(E, Targets) ||
      E->primOp() == PrimOp::Len || E->primOp() == PrimOp::Rows)
    return E;
  auto Seen = Fwd.find(E.get());
  if (Seen != Fwd.end())
    return Seen->second;
  const auto &Args = E->args();
  // Which arguments' values, and whether E's own value, the reverse
  // sweep reads.
  std::vector<bool> ArgNeeded(Args.size(), false);
  switch (E->primOp()) {
  case PrimOp::Mul:
    ArgNeeded[0] = mentionsAny(Args[1], Targets);
    ArgNeeded[1] = mentionsAny(Args[0], Targets);
    break;
  case PrimOp::Div:
    ArgNeeded[1] = true;
    Needed = Needed || mentionsAny(Args[1], Targets);
    break;
  case PrimOp::Log:
    ArgNeeded[0] = true;
    break;
  case PrimOp::Exp:
  case PrimOp::Sqrt:
  case PrimOp::Sigmoid:
    Needed = true;
    break;
  default:
    break;
  }
  std::vector<ExprPtr> NewArgs;
  for (size_t I = 0; I < Args.size(); ++I)
    NewArgs.push_back(
        bindForward(Args[I], ArgNeeded[I], Targets, Out, Gen, Fwd));
  ExprPtr Value = Expr::prim(E->primOp(), std::move(NewArgs));
  if (!Needed)
    return Value;
  ExprPtr V = bindReal("t_fwd", std::move(Value), Out, Gen);
  Fwd.emplace(E.get(), V);
  return V;
}

/// Reverse-mode adjoint propagation through a pure expression (the
/// expression-level chain rule on top of Fig. 8's density translation).
/// Accumulates Adj * dE/d(target leaf) into the adj buffers, reading
/// forward values from \p Fwd (bound by bindForward) and binding each
/// composite adjoint before it fans out, so the emitted code evaluates
/// every intermediate once rather than re-embedding E at every use.
void emitExprAdjoint(const ExprPtr &E, ExprPtr Adj,
                     const std::vector<std::string> &Targets,
                     const ForwardValues &Fwd, std::vector<LStmtPtr> &Out,
                     Gensym &Gen) {
  if (!mentionsAny(E, Targets))
    return;
  if (auto Loc = directAdjLocation(E, Targets)) {
    Out.push_back(stAssign(*Loc, Adj, /*Accum=*/true));
    return;
  }
  if (E->kind() != Expr::Kind::Prim)
    return; // index of a target by a target: discrete, no gradient flows
  const auto &Args = E->args();
  auto Recurse = [&](size_t I, ExprPtr ArgAdj) {
    emitExprAdjoint(Args[I], std::move(ArgAdj), Targets, Fwd, Out, Gen);
  };
  // Binary nodes fan the adjoint out to both sides.
  if (Args.size() == 2 && mentionsAny(Args[0], Targets) &&
      mentionsAny(Args[1], Targets))
    Adj = bindAdjoint(std::move(Adj), Out, Gen);
  switch (E->primOp()) {
  case PrimOp::Add:
    Recurse(0, Adj);
    Recurse(1, Adj);
    return;
  case PrimOp::Sub:
    Recurse(0, Adj);
    Recurse(1, Expr::prim(PrimOp::Neg, {Adj}));
    return;
  case PrimOp::Mul:
    Recurse(0, Expr::mul(Adj, valueOf(Args[1], Fwd)));
    Recurse(1, Expr::mul(Adj, valueOf(Args[0], Fwd)));
    return;
  case PrimOp::Div: {
    // d(a/b)/da = 1/b ; d(a/b)/db = -(a/b)/b.
    ExprPtr B = valueOf(Args[1], Fwd);
    Recurse(0, Expr::prim(PrimOp::Div, {Adj, B}));
    Recurse(1, Expr::prim(PrimOp::Neg,
                          {Expr::prim(PrimOp::Div,
                                      {Expr::mul(Adj, valueOf(E, Fwd)),
                                       B})}));
    return;
  }
  case PrimOp::Neg:
    Recurse(0, Expr::prim(PrimOp::Neg, {Adj}));
    return;
  case PrimOp::Exp:
    Recurse(0, Expr::mul(Adj, valueOf(E, Fwd)));
    return;
  case PrimOp::Log:
    Recurse(0, Expr::prim(PrimOp::Div, {Adj, valueOf(Args[0], Fwd)}));
    return;
  case PrimOp::Sqrt:
    // d sqrt(u) = 1/(2 sqrt(u)).
    Recurse(0, Expr::prim(PrimOp::Div,
                          {Adj, Expr::mul(Expr::realLit(2.0),
                                          valueOf(E, Fwd))}));
    return;
  case PrimOp::Sigmoid: {
    // d sigma(u) = sigma(u)(1 - sigma(u)).
    ExprPtr S = valueOf(E, Fwd);
    Recurse(0, Expr::mul(Adj, Expr::mul(S, Expr::prim(PrimOp::Sub,
                                                      {lit1(), S}))));
    return;
  }
  case PrimOp::Dot: {
    // Each side that reaches a target contributes elementwise:
    // adj(side[j]) += Adj * other[j], with Adj read once per element.
    Adj = bindAdjoint(std::move(Adj), Out, Gen);
    for (int Side = 0; Side < 2; ++Side) {
      const ExprPtr &S = Args[static_cast<size_t>(Side)];
      const ExprPtr &O = Args[static_cast<size_t>(1 - Side)];
      if (!mentionsAny(S, Targets))
        continue;
      std::string J = Gen.fresh("j");
      std::vector<LStmtPtr> Body;
      emitExprAdjoint(Expr::index(S, Expr::var(J)),
                      Expr::mul(Adj, Expr::index(O, Expr::var(J))), Targets,
                      Fwd, Body, Gen);
      Out.push_back(stLoop(LoopKind::AtmPar, J, Expr::intLit(0),
                           Expr::prim(PrimOp::Len, {O}), std::move(Body)));
    }
    return;
  }
  case PrimOp::Len:
  case PrimOp::Rows:
    return; // shape queries carry no gradient
  }
}

} // namespace

LowppProc augur::genLikelihoodProc(const std::string &Name,
                                   const std::vector<Factor> &Factors,
                                   const std::string &OutVar) {
  LowppProc P;
  P.Name = Name;
  P.Outputs = {OutVar};
  P.Body.push_back(stAssign(LValue::scalar(OutVar), lit0()));
  for (const auto &F : Factors) {
    std::vector<LStmtPtr> Inner = {
        stAccumLL(LValue::scalar(OutVar), F.D, F.Params, F.At)};
    // Accumulation into a single location: atomic-parallel loops, which
    // the backend turns into a map-reduce (summation block).
    auto Wrapped = wrapFactor(F, std::move(Inner), LoopKind::AtmPar);
    P.Body.insert(P.Body.end(), Wrapped.begin(), Wrapped.end());
  }
  return P;
}

LowppProc augur::genFactorSliceProc(const std::string &Name,
                                    const Factor &F,
                                    const std::string &SliceVar) {
  LowppProc P;
  P.Name = Name;
  P.Outputs = {SliceVar};
  std::string Row = Name + "_row";
  LValue RowAt = LValue::scalar(Row);

  // Row value: guards and residual (inner) loops fold sequentially into
  // the zero-initialized row local, in program order.
  std::vector<LStmtPtr> Inner = {stAccumLL(RowAt, F.D, F.Params, F.At)};
  if (!F.Guards.empty())
    Inner = {stIf(F.Guards, std::move(Inner))};
  for (size_t I = F.Loops.size(); I > 1; --I) {
    const LoopBinding &L = F.Loops[I - 1];
    Inner = {stLoop(LoopKind::Seq, L.Var, L.Lo, L.Hi, std::move(Inner))};
  }

  ExprPtr SliceIdx =
      F.Loops.empty() ? Expr::intLit(0) : Expr::var(F.Loops[0].Var);
  std::vector<LStmtPtr> Body;
  Body.push_back(stDeclLocal(Row, LocalKind::Real, {}));
  Body.insert(Body.end(), Inner.begin(), Inner.end());
  Body.push_back(stAssign(LValue::indexed(SliceVar, {SliceIdx}),
                          Expr::var(Row)));

  if (F.Loops.empty()) {
    P.Body = std::move(Body);
    return P;
  }
  // Distinct top-loop iterations write distinct slice entries: Par.
  const LoopBinding &Top = F.Loops[0];
  P.Body.push_back(
      stLoop(LoopKind::Par, Top.Var, Top.Lo, Top.Hi, std::move(Body)));
  return P;
}

Result<LowppProc> augur::genGradProc(const std::string &Name,
                                     const BlockCond &BC,
                                     const std::vector<std::string> &Targets) {
  LowppProc P;
  P.Name = Name;
  for (const auto &T : Targets)
    P.Outputs.push_back("adj_" + T);
  Gensym Gen;

  for (const auto &F : BC.Factors) {
    std::vector<LStmtPtr> Inner;
    // Forward sweep: bind each composite parameter that reaches a
    // target, and every intermediate its adjoint reads, once. Every
    // distribution call below reads the bound values.
    ForwardValues Fwd;
    std::vector<ExprPtr> Params;
    for (const auto &Param : F.Params)
      Params.push_back(bindForward(Param, /*Needed=*/true, Targets, Inner,
                                   Gen, Fwd));
    // Adjoint of the variate (argument 0).
    if (mentionsAny(F.At, Targets)) {
      auto Loc = directAdjLocation(F.At, Targets);
      if (!Loc)
        return Status::error(strFormat(
            "cannot differentiate factor '%s': variate is not a direct "
            "location",
            F.str().c_str()));
      Inner.push_back(stAccumGrad(*Loc, F.D, 0, Params, F.At, lit1()));
    }
    // Adjoints of the parameters (arguments 1..n).
    for (size_t I = 0; I < F.Params.size(); ++I) {
      const ExprPtr &Param = F.Params[I];
      if (!mentionsAny(Param, Targets))
        continue;
      if (auto Loc = directAdjLocation(Param, Targets)) {
        Inner.push_back(stAccumGrad(*Loc, F.D, static_cast<int>(I) + 1,
                                    Params, F.At, lit1()));
        continue;
      }
      // Composite scalar expression: compute the distribution's local
      // gradient into a temporary, then chain through the expression.
      std::string T = Gen.fresh("t_adj");
      Inner.push_back(stDeclLocal(T, LocalKind::Real, {}));
      Inner.push_back(stAccumGrad(LValue::scalar(T), F.D,
                                  static_cast<int>(I) + 1, Params, F.At,
                                  lit1()));
      emitExprAdjoint(Param, Expr::var(T), Targets, Fwd, Inner, Gen);
    }
    if (Inner.empty())
      continue;
    auto Wrapped = wrapFactor(F, std::move(Inner), LoopKind::AtmPar);
    P.Body.insert(P.Body.end(), Wrapped.begin(), Wrapped.end());
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Conjugate Gibbs
//===----------------------------------------------------------------------===//

namespace {

/// Shared context while emitting one conjugate update.
struct ConjCtx {
  const Conditional &C;
  const ConjRelation &Rel;
  std::vector<std::string> BlockVars;
  std::vector<ExprPtr> BlockDims;

  explicit ConjCtx(const Conditional &C, const ConjRelation &Rel)
      : C(C), Rel(Rel) {
    for (const auto &L : C.BlockLoops) {
      BlockVars.push_back(L.Var);
      BlockDims.push_back(L.Hi);
    }
  }

  /// Index expressions addressing the stat element for likelihood
  /// factor \p F inside its accumulation loops: the guard right-hand
  /// side where the block variable is guarded, the block variable
  /// itself otherwise.
  std::vector<ExprPtr> statIdxFor(const Factor &F) const {
    std::vector<ExprPtr> Idxs;
    for (const auto &BV : BlockVars) {
      const Guard *Found = nullptr;
      for (const auto &G : F.Guards)
        if (G.Lhs->kind() == Expr::Kind::Var && G.Lhs->varName() == BV)
          Found = &G;
      Idxs.push_back(Found ? Found->Rhs : Expr::var(BV));
    }
    return Idxs;
  }

  /// Block loops that are NOT consumed by a guard of \p F (these must
  /// be iterated explicitly around the accumulation).
  std::vector<LoopBinding> unguardedBlockLoops(const Factor &F) const {
    std::vector<LoopBinding> Loops;
    for (const auto &L : C.BlockLoops) {
      bool Guarded = false;
      for (const auto &G : F.Guards)
        if (G.Lhs->kind() == Expr::Kind::Var && G.Lhs->varName() == L.Var)
          Guarded = true;
      if (!Guarded)
        Loops.push_back(L);
    }
    return Loops;
  }

  /// Rewrites \p E for use inside the accumulation loops: block
  /// variables that are guarded are replaced by the guard expression.
  ExprPtr accumSubst(const Factor &F, ExprPtr E) const {
    for (const auto &G : F.Guards)
      if (G.Lhs->kind() == Expr::Kind::Var)
        E = substVar(E, G.Lhs->varName(), G.Rhs);
    return E;
  }

  /// Rewrites \p E for use inside the *sampling* loop (block variables
  /// in scope): occurrences of a guard's right-hand side are replaced
  /// by the guarded block variable (e.g. Sigma[z[n]] -> Sigma[k]).
  Result<ExprPtr> sampleSubst(const Factor &F, ExprPtr E) const {
    for (const auto &G : F.Guards)
      if (G.Lhs->kind() == Expr::Kind::Var)
        E = substExpr(E, G.Rhs, G.Lhs);
    // The result must be loop-invariant w.r.t. the factor's data loops.
    std::vector<std::string> Vars;
    E->collectVars(Vars);
    for (const auto &L : F.Loops)
      if (std::find(Vars.begin(), Vars.end(), L.Var) != Vars.end())
        return Status::error(strFormat(
            "likelihood parameter '%s' varies within the data loop; this "
            "conjugate update is not realizable",
            E->str().c_str()));
    return E;
  }

  /// Wraps accumulation statements for \p F: unguarded block loops
  /// (Par) around the factor's own loops (AtmPar) around guards other
  /// than block guards.
  std::vector<LStmtPtr> wrapAccum(const Factor &F,
                                  std::vector<LStmtPtr> Inner) const {
    // Guards on block variables are consumed by statIdxFor; any other
    // guard must still be tested.
    std::vector<Guard> Residual;
    for (const auto &G : F.Guards) {
      bool OnBlock = false;
      for (const auto &BV : BlockVars)
        if (G.Lhs->kind() == Expr::Kind::Var && G.Lhs->varName() == BV)
          OnBlock = true;
      if (!OnBlock)
        Residual.push_back(G);
    }
    if (!Residual.empty())
      Inner = {stIf(Residual, std::move(Inner))};
    Inner = wrapLoops(F.Loops, std::move(Inner), LoopKind::AtmPar);
    return wrapLoops(unguardedBlockLoops(F), std::move(Inner),
                     LoopKind::Par);
  }

  LValue statRef(const std::string &Name) const {
    std::vector<ExprPtr> Idxs;
    for (const auto &BV : BlockVars)
      Idxs.push_back(Expr::var(BV));
    return LValue::indexed(Name, Idxs);
  }

  LValue statAt(const std::string &Name, std::vector<ExprPtr> Idxs) const {
    return LValue::indexed(Name, std::move(Idxs));
  }

  LValue target() const {
    std::vector<ExprPtr> Idxs;
    for (const auto &BV : BlockVars)
      Idxs.push_back(Expr::var(BV));
    return LValue::indexed(C.Var, Idxs);
  }
};

} // namespace

Result<LowppProc> augur::genConjGibbsProc(const std::string &Name,
                                          const Conditional &C,
                                          const ConjRelation &Rel) {
  LowppProc P;
  P.Name = Name;
  P.Outputs = {C.Var};
  ConjCtx Ctx(C, Rel);
  Gensym Gen;

  auto DeclStat = [&](const std::string &Base, LocalKind K,
                      std::vector<ExprPtr> ExtraDims) {
    std::string N = Name + "_" + Base;
    std::vector<ExprPtr> Dims = Ctx.BlockDims;
    for (auto &D : ExtraDims)
      Dims.push_back(std::move(D));
    P.Body.push_back(stDeclLocal(N, K, std::move(Dims)));
    return N;
  };

  const std::vector<ExprPtr> &Prior = C.Prior.Params;
  std::vector<ExprPtr> SampleExtra;
  std::vector<LValue> SampleStats;

  switch (Rel.Kind) {
  case ConjKind::NormalMean: {
    std::string SumPrec = DeclStat("sumprec", LocalKind::Real, {});
    std::string SumWY = DeclStat("sumwy", LocalKind::Real, {});
    for (const auto &F : C.Liks) {
      std::vector<ExprPtr> Idx = Ctx.statIdxFor(F);
      ExprPtr Var = Ctx.accumSubst(F, F.Params[1]);
      std::vector<LStmtPtr> Inner = {
          stAssign(Ctx.statAt(SumPrec, Idx),
                   Expr::prim(PrimOp::Div, {lit1(), Var}), true),
          stAssign(Ctx.statAt(SumWY, Idx),
                   Expr::prim(PrimOp::Div, {F.At, Var}), true)};
      auto W = Ctx.wrapAccum(F, std::move(Inner));
      P.Body.insert(P.Body.end(), W.begin(), W.end());
    }
    SampleStats = {Ctx.statRef(SumPrec), Ctx.statRef(SumWY)};
    break;
  }
  case ConjKind::MvNormalMean: {
    ExprPtr DimE = Expr::prim(PrimOp::Len, {Prior[0]});
    std::string Cnt = DeclStat("cnt", LocalKind::Real, {});
    std::string SumY = DeclStat("sumy", LocalKind::RealVec, {DimE});
    for (const auto &F : C.Liks) {
      std::vector<ExprPtr> Idx = Ctx.statIdxFor(F);
      // Vector accumulation through the runtime library (the paper's
      // Cuda/C runtime provides vector operations, Section 6.2).
      std::vector<LStmtPtr> Inner = {
          stAssign(Ctx.statAt(Cnt, Idx), lit1(), true),
          stAccumVec(Ctx.statAt(SumY, Idx), F.At)};
      auto W = Ctx.wrapAccum(F, std::move(Inner));
      P.Body.insert(P.Body.end(), W.begin(), W.end());
    }
    // The likelihood covariance, re-expressed via the block index.
    AUGUR_ASSIGN_OR_RETURN(
        ExprPtr Cov, Ctx.sampleSubst(C.Liks.front(),
                                     C.Liks.front().Params[1]));
    SampleExtra = {Cov};
    SampleStats = {Ctx.statRef(Cnt), Ctx.statRef(SumY)};
    break;
  }
  case ConjKind::DirichletCategorical: {
    ExprPtr DimE = Expr::prim(PrimOp::Len, {Prior[0]});
    std::string Counts = DeclStat("counts", LocalKind::RealVec, {DimE});
    for (const auto &F : C.Liks) {
      std::vector<ExprPtr> Idx = Ctx.statIdxFor(F);
      Idx.push_back(F.At); // count bucket = the categorical value
      std::vector<LStmtPtr> Inner = {
          stAssign(Ctx.statAt(Counts, Idx), lit1(), true)};
      auto W = Ctx.wrapAccum(F, std::move(Inner));
      P.Body.insert(P.Body.end(), W.begin(), W.end());
    }
    SampleStats = {Ctx.statRef(Counts)};
    break;
  }
  case ConjKind::BetaBernoulli: {
    std::string C1 = DeclStat("cnt1", LocalKind::Real, {});
    std::string C0 = DeclStat("cnt0", LocalKind::Real, {});
    for (const auto &F : C.Liks) {
      std::vector<ExprPtr> Idx = Ctx.statIdxFor(F);
      std::vector<LStmtPtr> Inner = {
          stAssign(Ctx.statAt(C1, Idx), F.At, true),
          stAssign(Ctx.statAt(C0, Idx),
                   Expr::prim(PrimOp::Sub, {Expr::intLit(1), F.At}), true)};
      auto W = Ctx.wrapAccum(F, std::move(Inner));
      P.Body.insert(P.Body.end(), W.begin(), W.end());
    }
    SampleStats = {Ctx.statRef(C1), Ctx.statRef(C0)};
    break;
  }
  case ConjKind::GammaPoisson:
  case ConjKind::GammaExponential: {
    std::string Cnt = DeclStat("cnt", LocalKind::Real, {});
    std::string Sum = DeclStat("sum", LocalKind::Real, {});
    for (const auto &F : C.Liks) {
      std::vector<ExprPtr> Idx = Ctx.statIdxFor(F);
      std::vector<LStmtPtr> Inner = {
          stAssign(Ctx.statAt(Cnt, Idx), lit1(), true),
          stAssign(Ctx.statAt(Sum, Idx), F.At, true)};
      auto W = Ctx.wrapAccum(F, std::move(Inner));
      P.Body.insert(P.Body.end(), W.begin(), W.end());
    }
    SampleStats = {Ctx.statRef(Cnt), Ctx.statRef(Sum)};
    break;
  }
  case ConjKind::InvGammaNormalVariance: {
    std::string Cnt = DeclStat("cnt", LocalKind::Real, {});
    std::string SumSq = DeclStat("sumsq", LocalKind::Real, {});
    for (const auto &F : C.Liks) {
      std::vector<ExprPtr> Idx = Ctx.statIdxFor(F);
      ExprPtr Mean = Ctx.accumSubst(F, F.Params[0]);
      ExprPtr Resid = Expr::prim(PrimOp::Sub, {F.At, Mean});
      std::vector<LStmtPtr> Inner = {
          stAssign(Ctx.statAt(Cnt, Idx), lit1(), true),
          stAssign(Ctx.statAt(SumSq, Idx), Expr::mul(Resid, Resid), true)};
      auto W = Ctx.wrapAccum(F, std::move(Inner));
      P.Body.insert(P.Body.end(), W.begin(), W.end());
    }
    SampleStats = {Ctx.statRef(Cnt), Ctx.statRef(SumSq)};
    break;
  }
  case ConjKind::InvWishartMvNormalCov: {
    ExprPtr DimE = Expr::prim(PrimOp::Rows, {Prior[1]});
    std::string Cnt = DeclStat("cnt", LocalKind::Real, {});
    std::string SumO = DeclStat("sumouter", LocalKind::Mat, {DimE});
    for (const auto &F : C.Liks) {
      std::vector<ExprPtr> Idx = Ctx.statIdxFor(F);
      ExprPtr Mean = Ctx.accumSubst(F, F.Params[0]);
      std::vector<LStmtPtr> Inner = {
          stAssign(Ctx.statAt(Cnt, Idx), lit1(), true),
          stAccumOuter(Ctx.statAt(SumO, Idx), F.At, Mean)};
      auto W = Ctx.wrapAccum(F, std::move(Inner));
      P.Body.insert(P.Body.end(), W.begin(), W.end());
    }
    SampleStats = {Ctx.statRef(Cnt), Ctx.statRef(SumO)};
    break;
  }
  }

  // Sampling loop: every block element draws from its closed-form
  // posterior in parallel.
  std::vector<LStmtPtr> SampleBody = {stConjSample(
      Rel.Kind, Ctx.target(), Prior, SampleExtra, SampleStats)};
  auto Wrapped =
      wrapLoops(C.BlockLoops, std::move(SampleBody), LoopKind::Par);
  P.Body.insert(P.Body.end(), Wrapped.begin(), Wrapped.end());
  return P;
}

//===----------------------------------------------------------------------===//
// Enumerated discrete Gibbs
//===----------------------------------------------------------------------===//

Result<LowppProc> augur::genEnumGibbsProc(const std::string &Name,
                                          const Conditional &C,
                                          const EnumFCByproduct *Byp) {
  LowppProc P;
  P.Name = Name;
  P.Outputs = {C.Var};
  Gensym Gen;
  // Byproduct refresh is only sound for exact conditionals (the chosen
  // candidate's factor score is the factor's contribution at exactly
  // this block element); the compiler never plans one otherwise.
  assert((!Byp || !C.Approximate) &&
         "byproduct refresh requires an exact conditional");
  if (C.Approximate)
    Byp = nullptr;

  ExprPtr SupportE;
  if (C.Prior.D == Dist::Categorical)
    SupportE = Expr::prim(PrimOp::Len, {C.Prior.Params[0]});
  else if (C.Prior.D == Dist::Bernoulli)
    SupportE = Expr::intLit(2);
  else
    return Status::error(strFormat(
        "cannot enumerate the support of '%s' (prior %s)", C.Var.c_str(),
        distInfo(C.Prior.D).Name));

  std::vector<std::string> BlockVars;
  for (const auto &L : C.BlockLoops)
    BlockVars.push_back(L.Var);

  std::string Scores = Gen.fresh(Name + "_scores");
  std::string Cand = Gen.fresh("c");
  ExprPtr CandE = Expr::var(Cand);
  LValue ScoreAt = LValue::indexed(Scores, {CandE});
  std::vector<ExprPtr> TargetIdxs;
  for (const auto &BV : BlockVars)
    TargetIdxs.push_back(Expr::var(BV));
  LValue TargetElem = LValue::indexed(C.Var, TargetIdxs);

  // Candidate scoring. When the conditional is *exact*, every
  // occurrence of the target is precisely the block atom, so syntactic
  // substitution of the candidate is valid and cheapest. An
  // *approximate* conditional can hide other occurrence forms (e.g. the
  // literal-indexed h[n][0] of a sigmoid belief network), so the
  // candidate is scored by set-then-evaluate: write c into the element
  // and evaluate the factors as written (the final draw overwrites it).
  ExprPtr TargetAtom = makeIndexedVar(C.Var, BlockVars);
  std::vector<std::string> ByproductDecls;   ///< per-factor score buffers
  std::vector<LStmtPtr> ByproductWriteback;  ///< post-draw slice updates
  std::vector<LStmtPtr> PerCand;
  PerCand.push_back(stAssign(ScoreAt, lit0()));
  if (C.Approximate) {
    PerCand.insert(PerCand.begin(), stAssign(TargetElem, CandE));
    PerCand.push_back(
        stAccumLL(ScoreAt, C.Prior.D, C.Prior.Params, C.Prior.At));
    for (const auto &F : C.Liks) {
      std::vector<LStmtPtr> Inner = {
          stAccumLL(ScoreAt, F.D, F.Params, F.At)};
      auto W = wrapFactor(F, std::move(Inner), LoopKind::Seq);
      PerCand.insert(PerCand.end(), W.begin(), W.end());
    }
  } else {
    // With a byproduct plan, each covered factor scores into its own
    // buffer first and the buffer value is then added to the combined
    // score. Since each per-factor score is a single accumulation into
    // a zeroed slot, `0 + ll` is exact and the combined score receives
    // bit-identical addends in the original order — the sample stream
    // is unchanged by the byproduct machinery.
    std::vector<std::string> FacScores; // per covered factor, decl order
    auto ScoreVia = [&](const std::string &Buf, Dist D,
                        std::vector<ExprPtr> Params, ExprPtr At) {
      LValue BufAt = LValue::indexed(Buf, {CandE});
      PerCand.push_back(stAssign(BufAt, lit0()));
      PerCand.push_back(stAccumLL(BufAt, D, std::move(Params), At));
      PerCand.push_back(stAssign(
          ScoreAt, Expr::index(Expr::var(Buf), CandE), /*Accum=*/true));
    };

    std::vector<ExprPtr> PriorParams;
    for (const auto &Pr : C.Prior.Params)
      PriorParams.push_back(substExpr(Pr, TargetAtom, CandE));
    std::string PriorBuf;
    if (Byp && !Byp->PriorSlice.empty()) {
      PriorBuf = Gen.fresh(Name + "_psc");
      FacScores.push_back(PriorBuf);
      ScoreVia(PriorBuf, C.Prior.D, std::move(PriorParams), CandE);
    } else {
      PerCand.push_back(
          stAccumLL(ScoreAt, C.Prior.D, PriorParams, CandE));
    }
    std::vector<std::string> LikBufs(C.Liks.size());
    for (size_t J = 0; J < C.Liks.size(); ++J) {
      const Factor &F = C.Liks[J];
      std::vector<ExprPtr> Params;
      for (const auto &Pr : F.Params)
        Params.push_back(substExpr(Pr, TargetAtom, CandE));
      ExprPtr At = substExpr(F.At, TargetAtom, CandE);
      bool Covered = Byp && J < Byp->LikSlices.size() &&
                     !Byp->LikSlices[J].empty();
      if (Covered) {
        // Covered factors are fully factored: no residual loops/guards
        // (the compiler's plan requires it), so one accumulation.
        assert(F.Loops.empty() && F.Guards.empty() &&
               "sliced factor must be fully factored");
        LikBufs[J] = Gen.fresh(Name + "_lsc");
        FacScores.push_back(LikBufs[J]);
        ScoreVia(LikBufs[J], F.D, std::move(Params), At);
        continue;
      }
      std::vector<LStmtPtr> Inner = {stAccumLL(ScoreAt, F.D, Params, At)};
      // Residual loops of the likelihood run sequentially inside the
      // candidate loop (they are per-element work).
      auto W = wrapFactor(F, std::move(Inner), LoopKind::Seq);
      PerCand.insert(PerCand.end(), W.begin(), W.end());
    }

    if (Byp) {
      // Slice refresh: zero the covered buffers up front (distinct
      // indices: Par), then have every block element add the chosen
      // candidate's per-factor score at its top-loop slice entry. The
      // resulting slice holds exactly the fold genFactorSliceProc
      // computes, in the same order.
      std::vector<std::string> Slices;
      if (!Byp->PriorSlice.empty())
        Slices.push_back(Byp->PriorSlice);
      for (const auto &S : Byp->LikSlices)
        if (!S.empty())
          Slices.push_back(S);
      std::string Z = Gen.fresh("t");
      std::vector<LStmtPtr> ZBody;
      for (const auto &S : Slices)
        ZBody.push_back(
            stAssign(LValue::indexed(S, {Expr::var(Z)}), lit0()));
      P.Body.push_back(stLoop(LoopKind::Par, Z, C.BlockLoops[0].Lo,
                              C.BlockLoops[0].Hi, std::move(ZBody)));
      for (const auto &S : Slices)
        P.Outputs.push_back(S);
    }

    // Post-draw writeback statements (appended to PerElem below).
    if (Byp) {
      ExprPtr Chosen = makeIndexedVar(C.Var, BlockVars);
      ExprPtr SliceIdx = Expr::var(BlockVars[0]);
      auto Writeback = [&](const std::string &Slice,
                           const std::string &Buf,
                           std::vector<LStmtPtr> &Out) {
        Out.push_back(stAssign(LValue::indexed(Slice, {SliceIdx}),
                               Expr::index(Expr::var(Buf), Chosen),
                               /*Accum=*/true));
      };
      std::vector<LStmtPtr> WB;
      if (!Byp->PriorSlice.empty())
        Writeback(Byp->PriorSlice, PriorBuf, WB);
      for (size_t J = 0; J < C.Liks.size(); ++J)
        if (!LikBufs[J].empty())
          Writeback(Byp->LikSlices[J], LikBufs[J], WB);
      ByproductDecls = std::move(FacScores);
      ByproductWriteback = std::move(WB);
    }
  }

  std::vector<LStmtPtr> PerElem;
  PerElem.push_back(stDeclLocal(Scores, LocalKind::Real, {SupportE}));
  for (const auto &Buf : ByproductDecls)
    PerElem.push_back(stDeclLocal(Buf, LocalKind::Real, {SupportE}));
  PerElem.push_back(stLoop(LoopKind::Seq, Cand, Expr::intLit(0), SupportE,
                           std::move(PerCand)));
  PerElem.push_back(stSampleLogits(TargetElem, Scores, SupportE));
  PerElem.insert(PerElem.end(), ByproductWriteback.begin(),
                 ByproductWriteback.end());

  // Exact conditionals proved the block elements conditionally
  // independent, so they update in parallel. An approximate conditional
  // could not show that (elements of the same block may appear in each
  // other's factors, e.g. sigmoid-belief-network hidden units), so the
  // sweep must be sequential.
  LoopKind BlockLK = C.Approximate ? LoopKind::Seq : LoopKind::Par;
  auto Wrapped = wrapLoops(C.BlockLoops, std::move(PerElem), BlockLK);
  P.Body.insert(P.Body.end(), Wrapped.begin(), Wrapped.end());
  return P;
}
