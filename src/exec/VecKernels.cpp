//===- exec/VecKernels.cpp - Compiled proc plans --------------*- C++ -*-===//
//
// Every execution routine here mirrors a specific interpreter routine
// (exec/Interp.cpp) or evaluator routine (density/Eval.cpp) operation
// for operation: same scalar arithmetic, same association, same RNG
// consumption, same error messages. When editing, change the
// interpreter first and re-derive the mirror — the SIMD differential
// harness (tests/validate_simd_test.cpp) compares the two draw by draw.
//
//===----------------------------------------------------------------------===//

#include "exec/VecKernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exec/ExecError.h"
#include "math/Simd.h"
#include "math/Special.h"
#include "runtime/AliasTable.h"
#include "runtime/ConjugateOps.h"
#include "support/PhiloxRNG.h"

using namespace augur;
using namespace augur::vec;

namespace {

const double NegInf = -std::numeric_limits<double>::infinity();
// Same expression as runtime/Distributions.cpp, hence the same double.
const double Log2Pi = std::log(2.0 * M_PI);

//===----------------------------------------------------------------------===//
// Compiled expression / statement trees
//===----------------------------------------------------------------------===//

struct CExpr;
using CExprP = std::unique_ptr<CExpr>;

struct CExpr {
  enum class K { IntLit, RealLit, Slot, Whole, Index, Prim };
  K Kind = K::IntLit;
  int64_t IVal = 0;
  double RVal = 0.0;
  int Slot = -1;              ///< K::Slot: loop-variable slot
  int Var = -1;               ///< K::Whole / K::Index: variable id
  PrimOp Op = PrimOp::Add;    ///< K::Prim
  std::vector<CExprP> Args;   ///< Prim args; Index: the index chain
};

struct CLValue {
  int Var = -1;
  std::string Name; ///< for error messages (matches interp's S.Dest.Var)
  std::vector<CExprP> Idxs;
};

struct CStmt;
using CStmtP = std::unique_ptr<CStmt>;

/// One privatized target of a map-reduce loop, with the partial rows
/// of its current region (the payload is refreshed per region: it can
/// be reallocated between sweeps).
struct ReduceTarget {
  int Var = -1;
  ReducePayload P;
  std::vector<double> RealRows; ///< NB x Len partials (real targets)
  std::vector<int64_t> IntRows; ///< NB x Len partials (int targets)
};

/// A pooled loop the reduce pass marked MapReduce (lowpp ReduceKind),
/// replayed exactly as Interp::execMapReduceLoop: the range is cut into
/// ReduceShards-derived blocks, accumulations into a target inside a
/// block land in that block's zeroed partial row, and the rows fold
/// pairwise in pinned order into one deposit. The plan runs the blocks
/// in order on the calling lane; the fold, not the schedule, fixes the
/// floating-point sum.
struct MapReduceLoop {
  std::vector<ReduceTarget> Tgts;
};

struct FillTarget {
  int Var = -1;
  bool IntZero = false; ///< rhs was an integer literal
};

struct FillLoop {
  int Slot = -1;
  CExprP Lo, Hi;
  std::vector<FillTarget> Tgts;
  /// The compiled per-element assigns, for the exact fallback when a
  /// target is not a flat vector at runtime.
  std::vector<CStmtP> Body;
};

struct ScoreOp {
  enum class SK {
    CatSelf,        ///< Categorical scored at the candidate itself
    BernSelf,       ///< Bernoulli scored at the candidate itself
    CatGather,      ///< Categorical at a per-element index
    BernGather,     ///< Bernoulli at a per-element value
    NormalGather,   ///< Normal at a per-element value
    MvNormalGather, ///< MvNormal at a per-element vector
  };
  SK Kind = SK::CatSelf;
  bool Covered = false; ///< scored through a per-candidate buffer
  int BufVar = -1;
  Dist D = Dist::Normal;
  std::vector<CExprP> Params;
  CExprP At; ///< null for the Self kinds
  bool PerOuter = false; ///< parameters depend on the outer loop slot
  bool Direct = false;   ///< NormalGather with At = flatvar[elem-slot]
  int AtVar = -1;        ///< Direct: the gathered variable

  // ---- prepared per run / per outer iteration ----
  uint64_t PrepEpoch = 0; ///< run epoch the tables were built in
  int64_t PrepK = -1;
  std::vector<double> A0, A1, A2; ///< kind-specific per-candidate scalars
  std::vector<char> Valid;
  std::vector<double> Tab;        ///< CatGather: concatenated log tables
  std::vector<int64_t> TabOff, TabLen;
  std::vector<double> Chol;       ///< MvNormal: K stacked Dim*Dim factors
  std::vector<const double *> MuPtr;
  std::vector<DV> MuDv, SigDv;    ///< MvNormal: exact lib fallback views
  int64_t Dim = 0;
  bool LibOnly = false;           ///< MvNormal: mixed dims / bad shapes
  std::vector<double> Y;          ///< MvNormal solve scratch
  std::vector<double> Row;        ///< Direct: K x RowLen score rows
  int64_t RowLen = 0;
  bool DirectLive = false;        ///< Direct rows valid for this group
  int64_t GroupLo = 0;

  // ---- per-element caches (non-invariant assembly) ----
  int64_t CachedI = 0;
  double CachedX = 0.0;
  DV CachedAt;
};

struct EnumFused {
  int Slot0 = -1;
  CExprP Lo0, Hi0;
  bool TwoLevel = false;
  int Slot1 = -1;
  CExprP Lo1, Hi1;
  std::vector<CStmtP> Decls; ///< scores + buffer DeclLocals (generic)
  int CandSlot = -1;
  std::vector<ScoreOp> Ops;
  int ScoresVar = -1;
  std::string ScoresName;
  CExprP Count;
  CLValue Target;
  std::vector<CStmtP> Tail; ///< writebacks after the draw (generic)
  bool Invariant = false;   ///< every op is a Self kind
  // Interpreter-equivalent counter constants.
  uint64_t PerCandStmts = 0, PerCandDist = 0;
  // Runtime scratch.
  std::vector<double> SRow, ERow;
  std::vector<std::vector<double>> BufRow; ///< invariant covered-op rows
  AliasTable Alias;
  bool AliasLive = false;
  double HoistMax = 0.0, HoistSum = 0.0;
};

struct CStmt {
  enum class K {
    Assign,
    DeclLocal,
    If,
    Loop,
    AccumLL,
    Sample,
    SampleLogits,
    ConjSample,
    AccumVec,
    AccumOuter,
    Fill,
    Enum,
  };
  K Kind = K::Assign;

  // Assign / dist destinations.
  CLValue Dest;
  bool Accum = false;
  CExprP Rhs;

  // DeclLocal.
  int LocalVar = -1;
  std::string LocalName;
  LocalKind LKind = LocalKind::Real;
  std::vector<CExprP> Dims;

  // If.
  std::vector<std::pair<CExprP, CExprP>> Guards;
  std::vector<CStmtP> Then;

  // Loop.
  LoopKind LK = LoopKind::Seq;
  int Slot = -1;
  CExprP Lo, Hi;
  std::vector<CStmtP> Body;
  bool Samples = false;
  std::unique_ptr<MapReduceLoop> MapReduce; ///< null: plain loop

  // Distribution statements.
  Dist D = Dist::Normal;
  std::vector<CExprP> Params;
  CExprP At;

  // SampleLogits.
  int ScoresVar = -1;
  std::string ScoresName;
  CExprP Count;

  // ConjSample.
  ConjOp Conj = ConjOp::NormalMean;
  std::vector<CExprP> PriorParams, Extra;
  std::vector<CLValue> StatRefs;

  // AccumOuter.
  CExprP OuterY, OuterMean;

  std::unique_ptr<FillLoop> Fill;
  std::unique_ptr<EnumFused> Enum;
};

struct VarInfo {
  std::string Name;
  bool Local = false;
  Value *LocalSlot = nullptr; ///< stable node in PlanImpl::Locals
  /// Run epoch this local was last (re)declared in: the interpreter
  /// clears procedure locals every run, so the first DeclLocal of a run
  /// allocates fresh storage; the plan reuses its allocation but must
  /// mirror the byte accounting.
  uint64_t AcctEpoch = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Plan storage
//===----------------------------------------------------------------------===//

namespace augur {
namespace vec {
namespace detail {

struct PlanImpl {
  Env *Globals = nullptr;
  Env Locals; ///< plan-owned procedure locals (persist across runs)
  std::vector<VarInfo> Vars;
  std::vector<CStmtP> Body;
  int NumSlots = 0;
  int FusedLoops = 0;
  bool UsedAlias = false;
  uint64_t AliasDraws = 0;
  uint64_t Epoch = 0; ///< bumped per run; keys local/table staleness

  // Persistent runtime state (resolved variable pointers, slot values,
  // scratch buffers). Plans are engine-owned and single-threaded.
  std::vector<Value *> RVars;
  std::vector<int64_t> Slots;
  RNG *Master = nullptr;
  RNG *R = nullptr;
  PhiloxRNG Stream;
  bool Pooled = false;
  bool InStream = false;
  int AtmDepth = 0;
  /// Active map-reduce block: accumulations whose destination lies in
  /// [Base, End) land at the same offset in Row (Interp's redirect).
  struct Redirect {
    uintptr_t Base = 0, End = 0;
    char *Row = nullptr;
  };
  std::vector<Redirect> Redirects;
  uint64_t ReduceRegions = 0, ReduceBytes = 0; ///< since last take
  ExecCounters *C = nullptr;
  std::vector<DV> ParamScratch, PriorScratch, ExtraScratch, StatsScratch;
  std::vector<int64_t> IdxScratch;
};

} // namespace detail
} // namespace vec
} // namespace augur

using augur::vec::detail::PlanImpl;

namespace {

//===----------------------------------------------------------------------===//
// Value-view helpers (mirrors of density/Eval.cpp's impl functions,
// with the interpreter's always-on checks instead of asserts)
//===----------------------------------------------------------------------===//

DV viewIdx(const Value &Root, const int64_t *Idxs, int N) {
  if (Root.isRealVec()) {
    const BlockedReal &V = Root.realVec();
    if (!V.isRagged()) {
      execCheck(N == 1, "Expr", "", "flat vector takes one index");
      return DV::real(V.at(Idxs[0]));
    }
    if (N == 1)
      return DV::vec(V.row(Idxs[0]), V.rowLen(Idxs[0]));
    execCheck(N == 2, "Expr", "", "at most two index levels supported");
    return DV::real(V.at(Idxs[0], Idxs[1]));
  }
  if (Root.isIntVec()) {
    const BlockedInt &V = Root.intVec();
    if (!V.isRagged()) {
      execCheck(N == 1, "Expr", "", "flat vector takes one index");
      return DV::integer(V.at(Idxs[0]));
    }
    execCheck(N == 2, "Expr", "", "ragged int vector takes two indices");
    return DV::integer(V.at(Idxs[0], Idxs[1]));
  }
  if (Root.isMatVec()) {
    execCheck(N == 1, "Expr", "", "vector of matrices takes one index");
    const MatVec &MV = Root.matVec();
    return DV::mat(MV.at(Idxs[0]), MV.rows(), MV.cols());
  }
  execCheck(false, "Expr", "", "unsupported indexing");
  return DV::real(0.0);
}

DV viewWhole(const Value &V) {
  if (V.isIntScalar())
    return DV::integer(V.asInt());
  if (V.isRealScalar())
    return DV::real(V.asReal());
  if (V.isRealVec()) {
    const BlockedReal &B = V.realVec();
    execCheck(!B.isRagged(), "Expr", "",
              "ragged vectors can only be used under an index");
    return DV::vec(B.flat().data(), B.flatSize());
  }
  if (V.isMatrix())
    return DV::mat(V.mat());
  execCheck(false, "Expr", "", "value cannot be viewed whole");
  return DV::real(0.0);
}

MutDV mutView(Value &V, const int64_t *Idxs, int N, const std::string &Who) {
  if (N == 0) {
    if (V.isIntScalar())
      return MutDV::integer(&V.intRef());
    if (V.isRealScalar())
      return MutDV::real(&V.realRef());
    if (V.isRealVec()) {
      execCheck(!V.realVec().isRagged(), "Assign", Who,
                "whole view of ragged vector");
      return MutDV::vec(V.realVec().flat().data(), V.realVec().flatSize());
    }
    execCheck(V.isMatrix(), "Assign", Who, "unsupported whole destination");
    return MutDV::mat(V.mat().data(), V.mat().rows(), V.mat().cols());
  }
  if (V.isRealVec()) {
    BlockedReal &B = V.realVec();
    if (!B.isRagged()) {
      execCheck(N == 1, "Assign", Who, "flat vector takes one index");
      return MutDV::real(&B.at(Idxs[0]));
    }
    if (N == 1)
      return MutDV::vec(B.row(Idxs[0]), B.rowLen(Idxs[0]));
    execCheck(N == 2, "Assign", Who, "at most two index levels");
    return MutDV::real(&B.at(Idxs[0], Idxs[1]));
  }
  if (V.isIntVec()) {
    BlockedInt &B = V.intVec();
    if (!B.isRagged()) {
      execCheck(N == 1, "Assign", Who, "flat vector takes one index");
      return MutDV::integer(&B.at(Idxs[0]));
    }
    execCheck(N == 2, "Assign", Who, "ragged int vector takes two indices");
    return MutDV::integer(&B.at(Idxs[0], Idxs[1]));
  }
  execCheck(V.isMatVec() && N == 1, "Assign", Who, "unsupported destination");
  MatVec &MV = V.matVec();
  return MutDV::mat(MV.at(Idxs[0]), MV.rows(), MV.cols());
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
  else if (V.isRealVec()) {
    BlockedReal &B = V.realVec();
    simd::fillZero(B.flat().data(), B.flatSize());
  } else if (V.isMatrix())
    simd::fillZero(V.mat().data(), V.mat().rows() * V.mat().cols());
  else if (V.isMatVec()) {
    MatVec &MV = V.matVec();
    simd::fillZero(MV.at(0), MV.size() * MV.rows() * MV.cols());
  }
}

//===----------------------------------------------------------------------===//
// Runtime: expression evaluation (mirror of density/Eval.cpp evalExpr)
//===----------------------------------------------------------------------===//

Value &val(PlanImpl &T, int Id) {
  Value *&V = T.RVars[size_t(Id)];
  if (!V) {
    // Globals resolve lazily per run; like Interp::resolveVar, a
    // missing output scalar is created on first touch.
    const VarInfo &VI = T.Vars[size_t(Id)];
    auto It = T.Globals->find(VI.Name);
    if (It == T.Globals->end())
      It = T.Globals->emplace(VI.Name, Value::realScalar(0.0)).first;
    V = &It->second;
  }
  return *V;
}

DV evalC(PlanImpl &T, const CExpr &E);

int64_t evalCInt(PlanImpl &T, const CExpr &E) {
  DV V = evalC(T, E);
  execCheck(V.K == DV::Kind::Int, "Expr", "",
            "expected an Int-valued expression (index/bound/guard)");
  return V.I;
}

DV evalC(PlanImpl &T, const CExpr &E) {
  switch (E.Kind) {
  case CExpr::K::IntLit:
    return DV::integer(E.IVal);
  case CExpr::K::RealLit:
    return DV::real(E.RVal);
  case CExpr::K::Slot:
    return DV::integer(T.Slots[size_t(E.Slot)]);
  case CExpr::K::Whole:
    return viewWhole(val(T, E.Var));
  case CExpr::K::Index: {
    int64_t Idxs[2];
    int N = int(E.Args.size());
    for (int I = 0; I < N; ++I)
      Idxs[I] = evalCInt(T, *E.Args[size_t(I)]);
    return viewIdx(val(T, E.Var), Idxs, N);
  }
  case CExpr::K::Prim: {
    PrimOp Op = E.Op;
    if (Op == PrimOp::Len) {
      DV A = evalC(T, *E.Args[0]);
      execCheck(A.K == DV::Kind::Vec, "Expr", "", "len expects a vector view");
      return DV::integer(A.N);
    }
    if (Op == PrimOp::Rows) {
      DV A = evalC(T, *E.Args[0]);
      execCheck(A.K == DV::Kind::Mat, "Expr", "", "rows expects a matrix");
      return DV::integer(A.Rows);
    }
    if (Op == PrimOp::Dot) {
      DV A = evalC(T, *E.Args[0]);
      DV B = evalC(T, *E.Args[1]);
      execCheck(A.K == DV::Kind::Vec && B.K == DV::Kind::Vec && A.N == B.N,
                "Expr", "", "dot expects equal-length vectors");
      return DV::real(dot(A.Ptr, B.Ptr, static_cast<size_t>(A.N)));
    }
    if (Op == PrimOp::Neg) {
      DV A = evalC(T, *E.Args[0]);
      if (A.K == DV::Kind::Int)
        return DV::integer(-A.I);
      return DV::real(-A.D);
    }
    if (Op == PrimOp::Exp || Op == PrimOp::Log || Op == PrimOp::Sqrt ||
        Op == PrimOp::Sigmoid) {
      double A = evalC(T, *E.Args[0]).asReal();
      switch (Op) {
      case PrimOp::Exp:
        return DV::real(std::exp(A));
      case PrimOp::Log:
        return DV::real(std::log(A));
      case PrimOp::Sqrt:
        return DV::real(std::sqrt(A));
      default:
        return DV::real(sigmoid(A));
      }
    }
    DV A = evalC(T, *E.Args[0]);
    DV B = evalC(T, *E.Args[1]);
    bool BothInt = A.K == DV::Kind::Int && B.K == DV::Kind::Int;
    if (BothInt && Op != PrimOp::Div) {
      switch (Op) {
      case PrimOp::Add:
        return DV::integer(A.I + B.I);
      case PrimOp::Sub:
        return DV::integer(A.I - B.I);
      case PrimOp::Mul:
        return DV::integer(A.I * B.I);
      default:
        break;
      }
    }
    double X = A.asReal(), Y = B.asReal();
    switch (Op) {
    case PrimOp::Add:
      return DV::real(X + Y);
    case PrimOp::Sub:
      return DV::real(X - Y);
    case PrimOp::Mul:
      return DV::real(X * Y);
    case PrimOp::Div:
      return DV::real(X / Y);
    default:
      execCheck(false, "Expr", "", "unhandled primitive");
      return DV::real(0.0);
    }
  }
  }
  execCheck(false, "Expr", "", "malformed expression");
  return DV::real(0.0);
}

MutDV resolveDestC(PlanImpl &T, const CLValue &L) {
  int64_t Idxs[2];
  int N = int(L.Idxs.size());
  for (int I = 0; I < N; ++I)
    Idxs[I] = evalCInt(T, *L.Idxs[size_t(I)]);
  return mutView(val(T, L.Var), Idxs, N, L.Name);
}

/// Where an accumulation into \p Slot lands: the active map-reduce
/// block's partial row when the slot lies in a privatized target, else
/// the slot itself (mirror of Interp::accumReal / accumInt).
template <class E> E *accumSlot(const PlanImpl &T, E *Slot) {
  uintptr_t A = reinterpret_cast<uintptr_t>(Slot);
  for (const auto &R : T.Redirects)
    if (A >= R.Base && A < R.End)
      return reinterpret_cast<E *>(R.Row + (A - R.Base));
  return Slot;
}

/// Mirror of Interp::noteAtomic: an increment under AtmPar counts as an
/// atomic unless privatization redirected it.
void noteAtomicC(PlanImpl &T, const void *Addr) {
  if (accumSlot(T, Addr) == Addr)
    ++T.C->Atomics;
}

//===----------------------------------------------------------------------===//
// Runtime: statement execution (mirror of Interp::execStmt)
//===----------------------------------------------------------------------===//

void execC(PlanImpl &T, const CStmt &S);

void execBodyC(PlanImpl &T, const std::vector<CStmtP> &Body) {
  for (const auto &S : Body)
    execC(T, *S);
}

void execDeclLocalC(PlanImpl &T, const CStmt &S) {
  int64_t Dims[2];
  int ND = int(S.Dims.size());
  for (int I = 0; I < ND; ++I)
    Dims[I] = evalCInt(T, *S.Dims[size_t(I)]);

  VarInfo &VI = T.Vars[size_t(S.LocalVar)];
  bool First = VI.AcctEpoch != T.Epoch;
  VI.AcctEpoch = T.Epoch;
  Value &Cur = *VI.LocalSlot;
  auto Shaped = [&]() -> bool {
    switch (S.LKind) {
    case LocalKind::Int:
      if (ND == 0)
        return Cur.isIntScalar();
      if (ND == 1)
        return Cur.isIntVec() && !Cur.intVec().isRagged() &&
               Cur.intVec().size() == Dims[0];
      return false;
    case LocalKind::Real:
    case LocalKind::RealVec:
      if (ND == 0)
        return Cur.isRealScalar();
      if (ND == 1)
        return Cur.isRealVec() && !Cur.realVec().isRagged() &&
               Cur.realVec().size() == Dims[0];
      if (ND == 2)
        return Cur.isRealVec() && Cur.realVec().isRagged() &&
               Cur.realVec().size() == Dims[0] &&
               Cur.realVec().flatSize() == Dims[0] * Dims[1];
      return false;
    case LocalKind::Mat:
      if (ND == 1)
        return Cur.isMatrix() && Cur.mat().rows() == Dims[0];
      if (ND == 2)
        return Cur.isMatVec() && Cur.matVec().size() == Dims[0] &&
               Cur.matVec().rows() == Dims[1];
      return false;
    }
    return false;
  };
  if (Shaped()) {
    if (First) {
      // Interpreter equivalent: the local was cleared at proc entry, so
      // this declaration allocated fresh storage of the same shape.
      T.C->LocalBytes += payloadBytes(Cur);
      T.C->PeakLocalBytes = std::max(T.C->PeakLocalBytes, T.C->LocalBytes);
    }
    zeroValue(Cur);
    return;
  }

  Value V;
  switch (S.LKind) {
  case LocalKind::Int:
    if (ND == 0)
      V = Value::intScalar(0);
    else if (ND == 1)
      V = Value::intVec(BlockedInt::flat(Dims[0], 0));
    else
      V = Value::intVec(BlockedInt::rect(Dims[0], Dims[1], 0),
                        Type::vec(Type::vec(Type::intTy())));
    break;
  case LocalKind::Real:
  case LocalKind::RealVec:
    if (ND == 0)
      V = Value::realScalar(0.0);
    else if (ND == 1)
      V = Value::realVec(BlockedReal::flat(Dims[0], 0.0));
    else
      V = Value::realVec(BlockedReal::rect(Dims[0], Dims[1], 0.0),
                         Type::vec(Type::vec(Type::realTy())));
    break;
  case LocalKind::Mat:
    execCheck(ND != 0, "DeclLocal", S.LocalName,
              "matrix locals need a dimension");
    if (ND == 1)
      V = Value::matrix(Matrix(Dims[0], Dims[0]));
    else
      V = Value::matVec(MatVec(Dims[0], Dims[1], Dims[1]));
    break;
  }
  if (!First) // re-declaration within one run frees the old payload
    T.C->LocalBytes -= payloadBytes(Cur);
  T.C->LocalBytes += payloadBytes(V);
  T.C->PeakLocalBytes = std::max(T.C->PeakLocalBytes, T.C->LocalBytes);
  Cur = std::move(V);
}

void execSampleLogitsC(PlanImpl &T, const CStmt &S) {
  const Value &Scores = val(T, S.ScoresVar);
  int64_t N = evalCInt(T, *S.Count);
  execCheck(Scores.isRealVec(), "SampleLogits", S.ScoresName,
            "score buffer must be a real vector");
  const double *Logits = Scores.realVec().flat().data();
  execCheck(Scores.realVec().flatSize() >= N, "SampleLogits", S.ScoresName,
            "score buffer too small for the enumerated support");
  double Max = Logits[0];
  for (int64_t I = 1; I < N; ++I)
    Max = std::max(Max, Logits[I]);
  double Sum = 0.0;
  for (int64_t I = 0; I < N; ++I)
    Sum += std::exp(Logits[I] - Max);
  double U = T.R->uniform() * Sum;
  int64_t Draw = N - 1;
  double Acc = 0.0;
  for (int64_t I = 0; I < N; ++I) {
    Acc += std::exp(Logits[I] - Max);
    if (U < Acc) {
      Draw = I;
      break;
    }
  }
  MutDV Dest = resolveDestC(T, S.Dest);
  execCheck(Dest.K == DV::Kind::Int, "SampleLogits", S.Dest.Name,
            "discrete draw needs an Int slot");
  *Dest.IntSlot = Draw;
}

void execConjSampleC(PlanImpl &T, const CStmt &S) {
  T.PriorScratch.clear();
  for (const auto &P : S.PriorParams)
    T.PriorScratch.push_back(evalC(T, *P));
  T.ExtraScratch.clear();
  for (const auto &E : S.Extra)
    T.ExtraScratch.push_back(evalC(T, *E));
  T.StatsScratch.clear();
  for (const auto &R : S.StatRefs)
    T.StatsScratch.push_back(readView(resolveDestC(T, R)));
  MutDV Dest = resolveDestC(T, S.Dest);
  conjPosteriorSample(S.Conj, T.PriorScratch, T.ExtraScratch, T.StatsScratch,
                      *T.R, Dest);
}

void execFillC(PlanImpl &T, const CStmt &S);
void execEnumC(PlanImpl &T, const CStmt &S);

/// Mirror of Interp::execMapReduceLoop for a non-empty range: same
/// block geometry, same zeroed rows, same pinned pairwise fold.
void execMapReduceC(PlanImpl &T, const CStmt &S, int64_t Lo, int64_t Hi) {
  MapReduceLoop &M = *S.MapReduce;
  int64_t N = Hi - Lo;
  int64_t Block = (N + ReduceShards - 1) / ReduceShards;
  int64_t NB = (N + Block - 1) / Block;
  for (ReduceTarget &G : M.Tgts) {
    G.P = reducePayload(val(T, G.Var));
    size_t Cells = size_t(NB * G.P.Len);
    if (G.P.IsInt && G.IntRows.size() < Cells)
      G.IntRows.resize(Cells);
    if (!G.P.IsInt && G.RealRows.size() < Cells)
      G.RealRows.resize(Cells);
    // The interpreter's partial bytes: one 64B-padded row per block.
    T.ReduceBytes += uint64_t(((G.P.Len * 8 + 63) / 64) * 64 * NB);
  }
  ++T.ReduceRegions;

  T.InStream = true;
  for (int64_t B = 0; B < NB; ++B) {
    T.Redirects.clear();
    for (ReduceTarget &G : M.Tgts) {
      int64_t Len = G.P.Len;
      char *Row;
      if (G.P.IsInt) {
        int64_t *R = G.IntRows.data() + B * Len;
        std::fill(R, R + Len, int64_t(0));
        Row = reinterpret_cast<char *>(R);
      } else {
        double *R = G.RealRows.data() + B * Len;
        simd::fillZero(R, Len);
        Row = reinterpret_cast<char *>(R);
      }
      uintptr_t Base = reinterpret_cast<uintptr_t>(G.P.Base);
      T.Redirects.push_back({Base, Base + uintptr_t(Len) * 8, Row});
    }
    int64_t BHi = std::min(Hi, Lo + (B + 1) * Block);
    for (int64_t I = Lo + B * Block; I < BHi; ++I) {
      T.Slots[size_t(S.Slot)] = I;
      ++T.C->LoopIters;
      execBodyC(T, S.Body);
    }
  }
  T.Redirects.clear();
  T.InStream = false;

  for (ReduceTarget &G : M.Tgts) {
    const ReducePayload &P = G.P;
    if (P.IsInt)
      foldPartials(G.IntRows.data(), NB, P.Len, P.Len,
                   reinterpret_cast<int64_t *>(P.Base));
    else
      foldPartials(G.RealRows.data(), NB, P.Len, P.Len,
                   reinterpret_cast<double *>(P.Base));
  }
}

void execLoopC(PlanImpl &T, const CStmt &S) {
  int64_t Lo = evalCInt(T, *S.Lo);
  int64_t Hi = evalCInt(T, *S.Hi);
  if (S.LK == LoopKind::AtmPar)
    ++T.AtmDepth;
  bool Streamed = T.Pooled && S.LK != LoopKind::Seq && !T.InStream;
  if (Streamed && Hi <= Lo) {
    // Interp::execParallelLoop returns before drawing the stream seed.
    if (S.LK == LoopKind::AtmPar)
      --T.AtmDepth;
    return;
  }
  if (Streamed && S.MapReduce) {
    execMapReduceC(T, S, Lo, Hi);
  } else if (Streamed) {
    uint64_t Seed = S.Samples ? T.Master->next() : 0;
    T.InStream = true;
    RNG *SavedR = T.R;
    if (S.Samples)
      T.R = &T.Stream;
    for (int64_t I = Lo; I < Hi; ++I) {
      T.Slots[size_t(S.Slot)] = I;
      if (S.Samples)
        T.Stream.resetStream(Seed, uint64_t(I));
      ++T.C->LoopIters;
      execBodyC(T, S.Body);
    }
    T.R = SavedR;
    T.InStream = false;
  } else {
    for (int64_t I = Lo; I < Hi; ++I) {
      T.Slots[size_t(S.Slot)] = I;
      ++T.C->LoopIters;
      execBodyC(T, S.Body);
    }
  }
  if (S.LK == LoopKind::AtmPar)
    --T.AtmDepth;
}

void execC(PlanImpl &T, const CStmt &S) {
  ++T.C->Stmts;
  switch (S.Kind) {
  case CStmt::K::Assign: {
    MutDV Dest = resolveDestC(T, S.Dest);
    DV Rhs = evalC(T, *S.Rhs);
    if (S.Accum && T.AtmDepth > 0)
      noteAtomicC(T, Dest.K == DV::Kind::Int
                         ? static_cast<const void *>(Dest.IntSlot)
                         : static_cast<const void *>(Dest.RealSlot));
    if (Dest.K == DV::Kind::Int) {
      execCheck(Rhs.K == DV::Kind::Int, "Assign", S.Dest.Name,
                "Int slot needs an Int value");
      if (S.Accum)
        *accumSlot(T, Dest.IntSlot) += Rhs.I;
      else
        *Dest.IntSlot = Rhs.I;
      return;
    }
    execCheck(Dest.K == DV::Kind::Real, "Assign", S.Dest.Name,
              "assignments are scalar");
    if (S.Accum)
      *accumSlot(T, Dest.RealSlot) += Rhs.asReal();
    else
      *Dest.RealSlot = Rhs.asReal();
    return;
  }
  case CStmt::K::DeclLocal:
    execDeclLocalC(T, S);
    return;
  case CStmt::K::If: {
    for (const auto &G : S.Guards)
      if (evalCInt(T, *G.first) != evalCInt(T, *G.second))
        return;
    execBodyC(T, S.Then);
    return;
  }
  case CStmt::K::Loop:
    execLoopC(T, S);
    return;
  case CStmt::K::AccumLL: {
    ++T.C->DistOps;
    std::vector<DV> &Params = T.ParamScratch;
    Params.clear();
    for (const auto &P : S.Params)
      Params.push_back(evalC(T, *P));
    DV At = evalC(T, *S.At);
    MutDV Dest = resolveDestC(T, S.Dest);
    execCheck(Dest.K == DV::Kind::Real, "AccumLL", S.Dest.Name,
              "log-likelihood accumulator must be a real scalar slot");
    if (T.AtmDepth > 0)
      noteAtomicC(T, Dest.RealSlot);
    *accumSlot(T, Dest.RealSlot) += distLogPdf(S.D, Params, At);
    return;
  }
  case CStmt::K::Sample: {
    ++T.C->DistOps;
    std::vector<DV> &Params = T.ParamScratch;
    Params.clear();
    for (const auto &P : S.Params)
      Params.push_back(evalC(T, *P));
    distSample(S.D, Params, *T.R, resolveDestC(T, S.Dest));
    return;
  }
  case CStmt::K::SampleLogits:
    ++T.C->DistOps;
    execSampleLogitsC(T, S);
    return;
  case CStmt::K::ConjSample:
    ++T.C->DistOps;
    execConjSampleC(T, S);
    return;
  case CStmt::K::AccumVec: {
    MutDV Dest = resolveDestC(T, S.Dest);
    execCheck(Dest.K == DV::Kind::Vec, "AccumVec", S.Dest.Name,
              "vector accumulator required");
    DV Src = evalC(T, *S.Rhs);
    execCheck(Src.K == DV::Kind::Vec && Src.N == Dest.N, "AccumVec",
              S.Dest.Name, "source/destination shape mismatch");
    if (T.AtmDepth > 0)
      noteAtomicC(T, Dest.Ptr);
    // Per-lane adds in element order: bit-identical to the scalar loop.
    // A view never straddles payloads, so one redirect covers the row.
    double *Out = accumSlot(T, Dest.Ptr);
    simd::vAdd(Out, Out, Src.Ptr, Dest.N);
    return;
  }
  case CStmt::K::AccumOuter: {
    MutDV Dest = resolveDestC(T, S.Dest);
    if (T.AtmDepth > 0)
      noteAtomicC(T, Dest.Ptr);
    execCheck(Dest.K == DV::Kind::Mat, "AccumOuter", S.Dest.Name,
              "outer-product accumulator must be a matrix");
    DV Y = evalC(T, *S.OuterY);
    DV M = evalC(T, *S.OuterMean);
    execCheck(Y.K == DV::Kind::Vec && M.K == DV::Kind::Vec &&
                  Y.N == Dest.Rows && M.N == Dest.Rows,
              "AccumOuter", S.Dest.Name, "operand shape mismatch");
    double *Out = accumSlot(T, Dest.Ptr);
    for (int64_t I = 0; I < Dest.Rows; ++I)
      for (int64_t J = 0; J < Dest.Cols; ++J)
        Out[I * Dest.Cols + J] +=
            (Y.Ptr[I] - M.Ptr[I]) * (Y.Ptr[J] - M.Ptr[J]);
    return;
  }
  case CStmt::K::Fill:
    execFillC(T, S);
    return;
  case CStmt::K::Enum:
    execEnumC(T, S);
    return;
  }
  throw ExecError("Stmt", "", "unknown statement kind");
}

//===----------------------------------------------------------------------===//
// Fused fill loops
//===----------------------------------------------------------------------===//

void execFillC(PlanImpl &T, const CStmt &S) {
  const FillLoop &F = *S.Fill;
  int64_t Lo = evalCInt(T, *F.Lo);
  int64_t Hi = evalCInt(T, *F.Hi);
  if (Hi <= Lo)
    return;
  bool Fast = Lo >= 0;
  for (const FillTarget &G : F.Tgts) {
    if (!Fast)
      break;
    Value &V = val(T, G.Var);
    // A real vector accepts both 0 and 0.0 (the interpreter converts);
    // an int vector only accepts the integer literal.
    if (V.isRealVec() && !V.realVec().isRagged() &&
        Hi <= V.realVec().size())
      continue;
    if (G.IntZero && V.isIntVec() && !V.intVec().isRagged() &&
        Hi <= V.intVec().size())
      continue;
    Fast = false;
  }
  if (Fast) {
    for (const FillTarget &G : F.Tgts) {
      Value &V = val(T, G.Var);
      if (V.isRealVec())
        simd::fillZero(V.realVec().flat().data() + Lo, Hi - Lo);
      else
        std::fill(V.intVec().flat().begin() + Lo,
                  V.intVec().flat().begin() + Hi, int64_t(0));
    }
    T.C->LoopIters += uint64_t(Hi - Lo);
    T.C->Stmts += uint64_t(Hi - Lo) * F.Tgts.size();
    return;
  }
  for (int64_t I = Lo; I < Hi; ++I) {
    T.Slots[size_t(F.Slot)] = I;
    ++T.C->LoopIters;
    execBodyC(T, F.Body);
  }
}

//===----------------------------------------------------------------------===//
// Fused enumeration-Gibbs loops
//===----------------------------------------------------------------------===//

/// Mirror of runtime/Distributions.cpp's Categorical log-pdf at \p V.
double catLpdfAt(const DV &Pi, int64_t V) {
  if (V < 0 || V >= Pi.N)
    return NegInf;
  double P = Pi.Ptr[V];
  return P > 0.0 ? std::log(P) : NegInf;
}

/// Mirror of the Bernoulli log-pdf at \p V.
double bernLpdfAt(double P, int64_t V) {
  if (P < 0.0 || P > 1.0)
    return NegInf;
  if (V != 0 && V != 1)
    return NegInf;
  double Prob = V == 1 ? P : 1.0 - P;
  return Prob > 0.0 ? std::log(Prob) : NegInf;
}

/// Cholesky factor phase of Distributions.cpp smallCholQuad (identical
/// loop structure, so L's entries are bit-identical).
bool cholFactor(const double *Sig, int64_t N, double *L) {
  for (int64_t J = 0; J < N; ++J) {
    double Diag = Sig[J * N + J];
    for (int64_t K = 0; K < J; ++K)
      Diag -= L[J * N + K] * L[J * N + K];
    if (Diag <= 0.0 || !std::isfinite(Diag))
      return false;
    double Ljj = std::sqrt(Diag);
    L[J * N + J] = Ljj;
    for (int64_t I = J + 1; I < N; ++I) {
      double Off = Sig[I * N + J];
      for (int64_t K = 0; K < J; ++K)
        Off -= L[I * N + K] * L[J * N + K];
      L[I * N + J] = Off / Ljj;
    }
  }
  return true;
}

void prepareOp(PlanImpl &T, EnumFused &E, ScoreOp &Op, int64_t K) {
  switch (Op.Kind) {
  case ScoreOp::SK::CatSelf: {
    DV Pi = evalC(T, *Op.Params[0]);
    Op.A0.resize(size_t(K));
    for (int64_t C = 0; C < K; ++C)
      Op.A0[size_t(C)] = catLpdfAt(Pi, C);
    break;
  }
  case ScoreOp::SK::BernSelf: {
    double P = evalC(T, *Op.Params[0]).asReal();
    Op.A0.resize(size_t(K));
    for (int64_t C = 0; C < K; ++C)
      Op.A0[size_t(C)] = bernLpdfAt(P, C);
    break;
  }
  case ScoreOp::SK::BernGather: {
    Op.A0.resize(size_t(K));
    for (int64_t C = 0; C < K; ++C) {
      T.Slots[size_t(E.CandSlot)] = C;
      Op.A0[size_t(C)] = evalC(T, *Op.Params[0]).asReal();
    }
    break;
  }
  case ScoreOp::SK::NormalGather: {
    Op.A0.resize(size_t(K));
    Op.A1.resize(size_t(K));
    Op.A2.resize(size_t(K));
    Op.Valid.resize(size_t(K));
    for (int64_t C = 0; C < K; ++C) {
      T.Slots[size_t(E.CandSlot)] = C;
      double M = evalC(T, *Op.Params[0]).asReal();
      double V = evalC(T, *Op.Params[1]).asReal();
      Op.A0[size_t(C)] = M;
      Op.A1[size_t(C)] = V;
      Op.Valid[size_t(C)] = V > 0.0;
      // Hoisted additive constant; normalLogPdf associates as
      // -0.5 * ((Log2Pi + log(Var)) + Z*Z/Var), so this is exact.
      Op.A2[size_t(C)] = V > 0.0 ? Log2Pi + std::log(V) : 0.0;
    }
    break;
  }
  case ScoreOp::SK::CatGather: {
    Op.Tab.clear();
    Op.TabOff.assign(size_t(K), 0);
    Op.TabLen.assign(size_t(K), 0);
    for (int64_t C = 0; C < K; ++C) {
      T.Slots[size_t(E.CandSlot)] = C;
      DV Pi = evalC(T, *Op.Params[0]);
      execCheck(Pi.K == DV::Kind::Vec, "AccumLL", "",
                "Categorical weights must be a vector");
      Op.TabOff[size_t(C)] = int64_t(Op.Tab.size());
      Op.TabLen[size_t(C)] = Pi.N;
      for (int64_t V = 0; V < Pi.N; ++V) {
        double P = Pi.Ptr[V];
        Op.Tab.push_back(P > 0.0 ? std::log(P) : NegInf);
      }
    }
    break;
  }
  case ScoreOp::SK::MvNormalGather: {
    Op.MuDv.resize(size_t(K));
    Op.SigDv.resize(size_t(K));
    Op.LibOnly = false;
    Op.Dim = 0;
    for (int64_t C = 0; C < K; ++C) {
      T.Slots[size_t(E.CandSlot)] = C;
      DV Mu = evalC(T, *Op.Params[0]);
      DV Sig = evalC(T, *Op.Params[1]);
      Op.MuDv[size_t(C)] = Mu;
      Op.SigDv[size_t(C)] = Sig;
      if (Mu.K != DV::Kind::Vec || Sig.K != DV::Kind::Mat ||
          Sig.Rows != Sig.Cols || Mu.N != Sig.Rows)
        Op.LibOnly = true; // let distLogPdf reproduce interp behavior
      else if (C == 0)
        Op.Dim = Sig.Rows;
      else if (Sig.Rows != Op.Dim)
        Op.LibOnly = true; // mixed dims: no shared factor buffer
    }
    if (Op.LibOnly || Op.Dim > 16 || K == 0)
      break; // per-element exact library calls
    Op.MuPtr.assign(size_t(K), nullptr);
    Op.A2.resize(size_t(K));
    Op.Valid.assign(size_t(K), 0);
    Op.Chol.resize(size_t(K) * size_t(Op.Dim) * size_t(Op.Dim));
    for (int64_t C = 0; C < K; ++C) {
      double *L = Op.Chol.data() + size_t(C) * size_t(Op.Dim * Op.Dim);
      if (!cholFactor(Op.SigDv[size_t(C)].Ptr, Op.Dim, L))
        continue; // stays invalid -> NegInf, like mvNormalLogPdf
      double LogDet = 0.0;
      for (int64_t I = 0; I < Op.Dim; ++I)
        LogDet += std::log(L[I * Op.Dim + I]);
      LogDet *= 2.0;
      Op.MuPtr[size_t(C)] = Op.MuDv[size_t(C)].Ptr;
      // -0.5 * (N*Log2Pi + LogDet + Quad) associates as
      // -0.5 * ((N*Log2Pi + LogDet) + Quad): hoist the left term.
      Op.A2[size_t(C)] = double(Op.Dim) * Log2Pi + LogDet;
      Op.Valid[size_t(C)] = 1;
    }
    Op.Y.resize(size_t(Op.Dim));
    break;
  }
  }
  Op.PrepK = K;
  Op.PrepEpoch = T.Epoch;
}

/// Per-group row preparation for Direct (contiguous-gather) Normal ops.
void prepareDirectRows(PlanImpl &T, ScoreOp &Op, int64_t K, int64_t GLo,
                       int64_t GHi) {
  Op.DirectLive = false;
  if (!Op.Direct || GHi <= GLo)
    return;
  Value &V = val(T, Op.AtVar);
  if (!V.isRealVec() || V.realVec().isRagged() || GLo < 0 ||
      GHi > V.realVec().size())
    return;
  int64_t Len = GHi - GLo;
  if (K * Len > (int64_t(1) << 22))
    return; // cap the row buffer at 32 MiB
  const double *X = V.realVec().flat().data() + GLo;
  Op.RowLen = Len;
  Op.Row.resize(size_t(K * Len));
  for (int64_t C = 0; C < K; ++C) {
    double *Dst = Op.Row.data() + size_t(C * Len);
    if (Op.Valid[size_t(C)])
      simd::normalScoreRow(Dst, X, Len, Op.A0[size_t(C)], Op.A1[size_t(C)],
                           Op.A2[size_t(C)]);
    else
      simd::fillConst(Dst, NegInf, Len);
  }
  Op.GroupLo = GLo;
  Op.DirectLive = true;
}

/// One candidate's score contribution for the current element.
double opValue(PlanImpl &T, ScoreOp &Op, int64_t C, int64_t Elem) {
  switch (Op.Kind) {
  case ScoreOp::SK::CatSelf:
  case ScoreOp::SK::BernSelf:
    return Op.A0[size_t(C)];
  case ScoreOp::SK::BernGather:
    return bernLpdfAt(Op.A0[size_t(C)], Op.CachedI);
  case ScoreOp::SK::CatGather: {
    int64_t V = Op.CachedI;
    if (V < 0 || V >= Op.TabLen[size_t(C)])
      return NegInf;
    return Op.Tab[size_t(Op.TabOff[size_t(C)] + V)];
  }
  case ScoreOp::SK::NormalGather: {
    if (Op.DirectLive)
      return Op.Row[size_t(C * Op.RowLen + (Elem - Op.GroupLo))];
    if (!Op.Valid[size_t(C)])
      return NegInf;
    double Z = Op.CachedX - Op.A0[size_t(C)];
    return -0.5 * (Op.A2[size_t(C)] + Z * Z / Op.A1[size_t(C)]);
  }
  case ScoreOp::SK::MvNormalGather: {
    if (Op.LibOnly || Op.Dim > 16 || Op.CachedAt.K != DV::Kind::Vec ||
        Op.CachedAt.N != Op.Dim) {
      T.ParamScratch.clear();
      T.ParamScratch.push_back(Op.MuDv[size_t(C)]);
      T.ParamScratch.push_back(Op.SigDv[size_t(C)]);
      return distLogPdf(Dist::MvNormal, T.ParamScratch, Op.CachedAt);
    }
    if (!Op.Valid[size_t(C)])
      return NegInf;
    int64_t N = Op.Dim;
    const double *L = Op.Chol.data() + size_t(C) * size_t(N * N);
    const double *X = Op.CachedAt.Ptr;
    const double *Mu = Op.MuPtr[size_t(C)];
    double *Y = Op.Y.data();
    // Forward solve + quad, exactly as smallCholQuad.
    for (int64_t I = 0; I < N; ++I) {
      double Acc = X[I] - Mu[I];
      for (int64_t K2 = 0; K2 < I; ++K2)
        Acc -= L[I * N + K2] * Y[K2];
      Y[I] = Acc / L[I * N + I];
    }
    double Quad = 0.0;
    for (int64_t I = 0; I < N; ++I)
      Quad += Y[I] * Y[I];
    return -0.5 * (Op.A2[size_t(C)] + Quad);
  }
  }
  return NegInf;
}

void prepareGroup(PlanImpl &T, EnumFused &E, int64_t K, int64_t GLo,
                  int64_t GHi) {
  int64_t SavedCand = T.Slots[size_t(E.CandSlot)];
  for (ScoreOp &Op : E.Ops)
    if (Op.PerOuter || Op.PrepEpoch != T.Epoch || Op.PrepK != K)
      prepareOp(T, E, Op, K);
  for (ScoreOp &Op : E.Ops)
    if (Op.Direct)
      prepareDirectRows(T, Op, K, GLo, GHi);
  T.Slots[size_t(E.CandSlot)] = SavedCand;

  if (!E.Invariant)
    return;

  // Element-invariant site: assemble the score row, the covered-buffer
  // rows, and the hoisted softmax pieces once for the whole group,
  // replicating the interpreter's per-candidate accumulation chains.
  E.SRow.resize(size_t(K));
  size_t NumCovered = 0;
  for (const ScoreOp &Op : E.Ops)
    if (Op.Covered)
      ++NumCovered;
  E.BufRow.resize(NumCovered);
  for (auto &R : E.BufRow)
    R.resize(size_t(K));
  for (int64_t C = 0; C < K; ++C) {
    double S = 0.0; // scores[c] = 0
    size_t Cov = 0;
    for (ScoreOp &Op : E.Ops) {
      double V = opValue(T, Op, C, 0);
      if (Op.Covered) {
        double B = 0.0 + V; // buf[c] = 0; buf[c] += ll
        E.BufRow[Cov++][size_t(C)] = B;
        S += B; // scores[c] += buf[c]
      } else {
        S += V; // scores[c] += ll
      }
    }
    E.SRow[size_t(C)] = S;
  }
  double Max = K > 0 ? E.SRow[0] : 0.0;
  for (int64_t I = 1; I < K; ++I)
    Max = std::max(Max, E.SRow[size_t(I)]);
  E.ERow.resize(size_t(K));
  for (int64_t I = 0; I < K; ++I)
    E.ERow[size_t(I)] = std::exp(E.SRow[size_t(I)] - Max);
  double Sum = 0.0;
  for (int64_t I = 0; I < K; ++I)
    Sum += E.ERow[size_t(I)];
  E.HoistMax = Max;
  E.HoistSum = Sum;

  int Ov = simd::aliasOverride();
  bool UseAlias = Ov == 0 ? false
                  : Ov == 1 ? true
                            : K >= simd::aliasMinSupport();
  E.AliasLive = false;
  if (UseAlias) {
    E.Alias.build(E.ERow.data(), K);
    E.AliasLive = E.Alias.ok();
  }
}

void fusedElem(PlanImpl &T, EnumFused &E, int64_t K, int64_t Elem) {
  // The DeclLocal replicas (zeroing scores/buffers) run per element,
  // exactly as the interpreter executes them.
  execBodyC(T, E.Decls);

  // Interpreter-equivalent counters for the fused candidate loop.
  ++T.C->Stmts; // the Seq candidate-loop statement
  T.C->LoopIters += uint64_t(K);
  T.C->Stmts += uint64_t(K) * E.PerCandStmts;
  T.C->DistOps += uint64_t(K) * E.PerCandDist;

  Value &ScoresV = val(T, E.ScoresVar);
  double *SF = ScoresV.realVec().flat().data();

  double Max, Sum;
  if (E.Invariant) {
    std::memcpy(SF, E.SRow.data(), size_t(K) * sizeof(double));
    size_t Cov = 0;
    for (ScoreOp &Op : E.Ops) {
      if (!Op.Covered)
        continue;
      Value &BufV = val(T, Op.BufVar);
      std::memcpy(BufV.realVec().flat().data(), E.BufRow[Cov].data(),
                  size_t(K) * sizeof(double));
      ++Cov;
    }
    Max = E.HoistMax;
    Sum = E.HoistSum;
  } else {
    // Cache the per-element variate of each gather op once (the
    // interpreter re-evaluates it per candidate; it is candidate-free,
    // so one evaluation yields the same view).
    for (ScoreOp &Op : E.Ops) {
      if (!Op.At)
        continue;
      switch (Op.Kind) {
      case ScoreOp::SK::CatGather:
      case ScoreOp::SK::BernGather: {
        DV At = evalC(T, *Op.At);
        Op.CachedI = At.I;
        break;
      }
      case ScoreOp::SK::NormalGather:
        if (!Op.DirectLive)
          Op.CachedX = evalC(T, *Op.At).asReal();
        break;
      case ScoreOp::SK::MvNormalGather:
        Op.CachedAt = evalC(T, *Op.At);
        break;
      default:
        break;
      }
    }
    for (int64_t C = 0; C < K; ++C) {
      double S = 0.0;
      for (ScoreOp &Op : E.Ops) {
        double V = opValue(T, Op, C, Elem);
        if (Op.Covered) {
          double B = 0.0 + V;
          Value &BufV = val(T, Op.BufVar);
          BufV.realVec().flat().data()[C] = B;
          S += B;
        } else {
          S += V;
        }
      }
      SF[C] = S;
    }
    Max = K > 0 ? SF[0] : 0.0;
    for (int64_t I = 1; I < K; ++I)
      Max = std::max(Max, SF[I]);
    E.ERow.resize(size_t(K));
    // One exp per entry serves both the normalizer and the walk (the
    // interpreter calls exp twice on the same input: same bits).
    Sum = 0.0;
    for (int64_t I = 0; I < K; ++I) {
      E.ERow[size_t(I)] = std::exp(SF[I] - Max);
      Sum += E.ERow[size_t(I)];
    }
  }

  // The draw (mirror of execSampleLogits' tail).
  ++T.C->Stmts;
  ++T.C->DistOps;
  int64_t Draw;
  if (E.Invariant && E.AliasLive) {
    Draw = E.Alias.sample(*T.R); // one uniform, like the walk
    ++T.AliasDraws;
    T.UsedAlias = true;
  } else {
    double U = T.R->uniform() * Sum;
    Draw = K - 1;
    double Acc = 0.0;
    for (int64_t I = 0; I < K; ++I) {
      Acc += E.ERow[size_t(I)];
      if (U < Acc) {
        Draw = I;
        break;
      }
    }
  }
  MutDV Dest = resolveDestC(T, E.Target);
  execCheck(Dest.K == DV::Kind::Int, "SampleLogits", E.Target.Name,
            "discrete draw needs an Int slot");
  *Dest.IntSlot = Draw;

  // Writebacks read buffers/draw through the variable table.
  execBodyC(T, E.Tail);
}

void execEnumC(PlanImpl &T, const CStmt &S) {
  EnumFused &E = *S.Enum;
  int64_t Lo0 = evalCInt(T, *E.Lo0);
  int64_t Hi0 = evalCInt(T, *E.Hi0);
  if (Hi0 <= Lo0)
    return; // interp never evaluates dims/Count of an empty loop
  bool Streamed = T.Pooled && !T.InStream;
  uint64_t Seed = 0;
  RNG *SavedR = T.R;
  if (Streamed) {
    Seed = T.Master->next(); // enum loops always sample
    T.InStream = true;
    T.R = &T.Stream;
  }
  if (!E.TwoLevel) {
    int64_t K = evalCInt(T, *E.Count);
    prepareGroup(T, E, K, Lo0, Hi0);
    for (int64_t I = Lo0; I < Hi0; ++I) {
      T.Slots[size_t(E.Slot0)] = I;
      if (Streamed)
        T.Stream.resetStream(Seed, uint64_t(I));
      ++T.C->LoopIters;
      fusedElem(T, E, K, I);
    }
  } else {
    for (int64_t I0 = Lo0; I0 < Hi0; ++I0) {
      T.Slots[size_t(E.Slot0)] = I0;
      if (Streamed)
        T.Stream.resetStream(Seed, uint64_t(I0));
      ++T.C->LoopIters;
      ++T.C->Stmts; // the inner loop statement
      int64_t Lo1 = evalCInt(T, *E.Lo1);
      int64_t Hi1 = evalCInt(T, *E.Hi1);
      if (Hi1 <= Lo1)
        continue; // dims/Count never evaluated for this outer element
      int64_t K = evalCInt(T, *E.Count);
      prepareGroup(T, E, K, Lo1, Hi1);
      for (int64_t I1 = Lo1; I1 < Hi1; ++I1) {
        T.Slots[size_t(E.Slot1)] = I1;
        ++T.C->LoopIters;
        fusedElem(T, E, K, I1);
      }
    }
  }
  if (Streamed) {
    T.R = SavedR;
    T.InStream = false;
  }
}

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

/// Replica of the interpreter's (file-static) stmtSamples: whether a
/// statement draws from the RNG, used for the pooled-stream seed gate.
bool stmtSamplesL(const LStmt &S) {
  switch (S.K) {
  case LStmt::Kind::Sample:
  case LStmt::Kind::SampleLogits:
  case LStmt::Kind::ConjSample:
    return true;
  case LStmt::Kind::If:
    for (const auto &T : S.Then)
      if (stmtSamplesL(*T))
        return true;
    return false;
  case LStmt::Kind::Loop:
    for (const auto &B : S.Body)
      if (stmtSamplesL(*B))
        return true;
    return false;
  default:
    return false;
  }
}

struct PlanComp {
  explicit PlanComp(PlanImpl &T) : T(T) {}
  PlanImpl &T;
  std::map<std::string, int> VarIds;
  /// Active loop variables, innermost last (evalExpr checks LoopVars
  /// before the environment for plain Var references).
  std::vector<std::pair<std::string, int>> Scopes;
  /// Locals whose declaration dominates the current program point. A
  /// local declared inside a loop or If body may never execute (empty
  /// loop, false guard), in which case the interpreter would resolve
  /// the name as a global — so references outside the declaring block
  /// refuse to compile rather than guess.
  std::map<std::string, int> DomCount;
  std::vector<std::vector<std::string>> Frames;
  bool OK = true;
};

void pushFrame(PlanComp &C) { C.Frames.emplace_back(); }

void popFrame(PlanComp &C) {
  for (const std::string &N : C.Frames.back())
    --C.DomCount[N];
  C.Frames.pop_back();
}

bool isDominatedLocal(const PlanComp &C, const std::string &Name) {
  auto It = C.DomCount.find(Name);
  return It != C.DomCount.end() && It->second > 0;
}

/// Id for a name resolved through the environment (Ctx.resolve order:
/// locals shadow globals). Fails when the name maps to a local whose
/// declaration does not dominate this use.
int refId(PlanComp &C, const std::string &Name) {
  auto It = C.VarIds.find(Name);
  if (It != C.VarIds.end()) {
    if (C.T.Vars[size_t(It->second)].Local && !isDominatedLocal(C, Name))
      C.OK = false;
    return It->second;
  }
  int Id = int(C.T.Vars.size());
  VarInfo VI;
  VI.Name = Name;
  C.T.Vars.push_back(std::move(VI));
  C.VarIds.emplace(Name, Id);
  return Id;
}

/// Id for a DeclLocal target. A name already referenced as a non-local
/// would be rebound dynamically mid-run by the interpreter, which a
/// plan cannot mirror — fail and keep interpreting the proc.
int localId(PlanComp &C, const std::string &Name) {
  int Id;
  auto It = C.VarIds.find(Name);
  if (It != C.VarIds.end()) {
    Id = It->second;
    if (!C.T.Vars[size_t(Id)].Local) {
      C.OK = false;
      return Id;
    }
  } else {
    Id = int(C.T.Vars.size());
    VarInfo VI;
    VI.Name = Name;
    VI.Local = true;
    VI.LocalSlot = &C.T.Locals[Name]; // node-stable in std::map
    C.T.Vars.push_back(std::move(VI));
    C.VarIds.emplace(Name, Id);
  }
  ++C.DomCount[Name];
  C.Frames.back().push_back(Name);
  return Id;
}

int slotOf(const PlanComp &C, const std::string &Name) {
  for (auto It = C.Scopes.rbegin(); It != C.Scopes.rend(); ++It)
    if (It->first == Name)
      return It->second;
  return -1;
}

size_t primArity(PrimOp Op) {
  switch (Op) {
  case PrimOp::Neg:
  case PrimOp::Exp:
  case PrimOp::Log:
  case PrimOp::Sqrt:
  case PrimOp::Sigmoid:
  case PrimOp::Len:
  case PrimOp::Rows:
    return 1;
  default:
    return 2;
  }
}

CExprP ce(PlanComp &C, const Expr &E) {
  auto R = std::make_unique<CExpr>();
  switch (E.kind()) {
  case Expr::Kind::IntLit:
    R->Kind = CExpr::K::IntLit;
    R->IVal = E.intValue();
    return R;
  case Expr::Kind::RealLit:
    R->Kind = CExpr::K::RealLit;
    R->RVal = E.realValue();
    return R;
  case Expr::Kind::Var: {
    int Slot = slotOf(C, E.varName()); // loop vars win, as in evalExpr
    if (Slot >= 0) {
      R->Kind = CExpr::K::Slot;
      R->Slot = Slot;
      return R;
    }
    R->Kind = CExpr::K::Whole;
    R->Var = refId(C, E.varName());
    return R;
  }
  case Expr::Kind::Index: {
    // evalExpr flattens the chain and resolves the root through the
    // environment (never through LoopVars).
    std::vector<const Expr *> Chain;
    const Expr *B = &E;
    while (B->kind() == Expr::Kind::Index) {
      Chain.push_back(B->idx().get());
      B = B->base().get();
    }
    if (B->kind() != Expr::Kind::Var || Chain.size() > 2) {
      C.OK = false;
      return R;
    }
    R->Kind = CExpr::K::Index;
    R->Var = refId(C, B->varName());
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It)
      R->Args.push_back(ce(C, **It));
    return R;
  }
  case Expr::Kind::Prim: {
    R->Kind = CExpr::K::Prim;
    R->Op = E.primOp();
    if (E.args().size() != primArity(E.primOp())) {
      C.OK = false;
      return R;
    }
    for (const auto &A : E.args())
      R->Args.push_back(ce(C, *A));
    return R;
  }
  }
  C.OK = false;
  return R;
}

void clv(PlanComp &C, const LValue &L, CLValue &Out) {
  Out.Name = L.Var;
  Out.Var = refId(C, L.Var); // resolveDest goes through the environment
  if (L.Idxs.size() > 2) {
    C.OK = false;
    return;
  }
  for (const auto &I : L.Idxs)
    Out.Idxs.push_back(ce(C, *I));
}

CStmtP cs(PlanComp &C, const LStmt &S);

void csBody(PlanComp &C, const std::vector<LStmtPtr> &In,
            std::vector<CStmtP> &Out) {
  for (const auto &S : In) {
    if (!C.OK)
      return;
    Out.push_back(cs(C, *S));
  }
}

/// Transmutes a compiled loop whose body only zeroes vector elements at
/// the loop index into a fused fill loop. The compiled body is kept for
/// the generic per-element fallback when a target's runtime shape does
/// not admit the bulk path.
void maybeFill(PlanComp &C, CStmt &L) {
  if (L.Body.empty())
    return;
  std::vector<FillTarget> Tgts;
  for (const CStmtP &B : L.Body) {
    const CStmt &S = *B;
    if (S.Kind != CStmt::K::Assign || S.Accum || S.Dest.Idxs.size() != 1 ||
        S.Dest.Idxs[0]->Kind != CExpr::K::Slot ||
        S.Dest.Idxs[0]->Slot != L.Slot)
      return;
    const CExpr &R = *S.Rhs;
    bool IntZero = R.Kind == CExpr::K::IntLit && R.IVal == 0;
    // -0.0 must round-trip bit-exactly; only fuse a positive 0.0.
    bool RealZero = R.Kind == CExpr::K::RealLit && R.RVal == 0.0 &&
                    !std::signbit(R.RVal);
    if (!IntZero && !RealZero)
      return;
    FillTarget G;
    G.Var = S.Dest.Var;
    G.IntZero = IntZero;
    Tgts.push_back(G);
  }
  auto F = std::make_unique<FillLoop>();
  F->Slot = L.Slot;
  F->Lo = std::move(L.Lo);
  F->Hi = std::move(L.Hi);
  F->Tgts = std::move(Tgts);
  F->Body = std::move(L.Body);
  L.Kind = CStmt::K::Fill;
  L.Fill = std::move(F);
  ++C.T.FusedLoops;
}

bool isVarNamed(const Expr &E, const std::string &N) {
  return E.kind() == Expr::Kind::Var && E.varName() == N;
}

/// Matches `dest[loopvar] = 0.0` (no accumulate), the lit0 assignment
/// genEnumGibbsProc emits to reset a score slot.
bool isZeroAssign(const LStmt &S, const std::string &DestVar,
                  const std::string &LoopVar) {
  return S.K == LStmt::Kind::Assign && !S.Accum && S.Dest.Var == DestVar &&
         S.Dest.Idxs.size() == 1 && isVarNamed(*S.Dest.Idxs[0], LoopVar) &&
         S.Rhs->kind() == Expr::Kind::RealLit && S.Rhs->realValue() == 0.0;
}

bool isCandLL(const LStmt &S, const std::string &DestVar,
              const std::string &LoopVar) {
  return S.K == LStmt::Kind::AccumLL && S.Dest.Var == DestVar &&
         S.Dest.Idxs.size() == 1 && isVarNamed(*S.Dest.Idxs[0], LoopVar);
}

struct RawFactor {
  const LStmt *LL = nullptr; ///< the AccumLL carrying dist/params/at
  bool Covered = false;
  std::string Buf;
};

/// Recognizes the exact statement shape genEnumGibbsProc emits for an
/// enumeration-Gibbs update and compiles it into a fused EnumFused
/// statement. Structural mismatches return nullptr with C.OK intact
/// (the loop then compiles generically); genuine compile failures set
/// C.OK = false, in which case the generic path would fail identically.
CStmtP tryEnum(PlanComp &C, const LStmt &S0) {
  const LStmt *ElemL = &S0;
  bool TwoLevel = false;
  if (S0.Body.size() == 1 && S0.Body[0]->K == LStmt::Kind::Loop) {
    if (S0.Body[0]->LK != LoopKind::Par)
      return nullptr; // Seq block loop = approximate update: interpretable only
    ElemL = S0.Body[0].get();
    TwoLevel = true;
  }
  const std::vector<LStmtPtr> &PB = ElemL->Body;
  size_t P = 0;
  std::vector<const LStmt *> DeclsRaw;
  while (P < PB.size() && PB[P]->K == LStmt::Kind::DeclLocal)
    DeclsRaw.push_back(PB[P++].get());
  if (DeclsRaw.empty() || P + 1 >= PB.size() ||
      PB[P]->K != LStmt::Kind::Loop)
    return nullptr;
  const LStmt &CandL = *PB[P++];
  if (CandL.LK != LoopKind::Seq || CandL.Lo->kind() != Expr::Kind::IntLit ||
      CandL.Lo->intValue() != 0)
    return nullptr;
  if (PB[P]->K != LStmt::Kind::SampleLogits)
    return nullptr;
  const LStmt &SL = *PB[P++];
  std::vector<const LStmt *> TailRaw;
  for (; P < PB.size(); ++P) {
    if (PB[P]->K != LStmt::Kind::Assign)
      return nullptr;
    TailRaw.push_back(PB[P].get());
  }

  const std::string &OuterVar = S0.LoopVar;
  const std::string &ElemVar = ElemL->LoopVar;
  const std::string &CandVar = CandL.LoopVar;
  const std::string &ScoresName = SL.ScoresVar;
  const Expr &Count = *SL.Count;
  if ((TwoLevel && OuterVar == ElemVar) || CandVar == ElemVar ||
      CandVar == OuterVar)
    return nullptr; // shadowed loop variables: not worth fusing
  if (!Expr::structEq(*CandL.Hi, Count))
    return nullptr;
  if (Count.mentionsVar(ElemVar) || Count.mentionsVar(CandVar))
    return nullptr; // support size must be stable across the group

  // Declared buffers: all must be flat real vectors.
  std::map<std::string, const Expr *> DeclDims;
  for (const LStmt *D : DeclsRaw) {
    if ((D->LKind != LocalKind::Real && D->LKind != LocalKind::RealVec) ||
        D->Dims.size() != 1)
      return nullptr;
    if (!DeclDims.emplace(D->LocalName, D->Dims[0].get()).second)
      return nullptr;
    if (Count.mentionsVar(D->LocalName))
      return nullptr;
  }
  auto ScD = DeclDims.find(ScoresName);
  if (ScD == DeclDims.end() || !Expr::structEq(*ScD->second, Count))
    return nullptr;

  // Parse the candidate loop: the leading reset, then direct AccumLL
  // factors or ScoreVia triplets.
  const std::vector<LStmtPtr> &CB = CandL.Body;
  if (CB.empty() || !isZeroAssign(*CB[0], ScoresName, CandVar))
    return nullptr;
  std::vector<RawFactor> Factors;
  for (size_t I = 1; I < CB.size();) {
    if (isCandLL(*CB[I], ScoresName, CandVar)) {
      RawFactor RF;
      RF.LL = CB[I].get();
      Factors.push_back(RF);
      ++I;
      continue;
    }
    if (I + 3 <= CB.size() && CB[I]->K == LStmt::Kind::Assign) {
      const LStmt &Z = *CB[I];
      const LStmt &A = *CB[I + 1];
      const LStmt &W = *CB[I + 2];
      const std::string &Buf = Z.Dest.Var;
      auto BD = DeclDims.find(Buf);
      if (Buf != ScoresName && isZeroAssign(Z, Buf, CandVar) &&
          isCandLL(A, Buf, CandVar) && W.K == LStmt::Kind::Assign &&
          W.Accum && W.Dest.Var == ScoresName && W.Dest.Idxs.size() == 1 &&
          isVarNamed(*W.Dest.Idxs[0], CandVar) &&
          W.Rhs->kind() == Expr::Kind::Index &&
          W.Rhs->base()->kind() == Expr::Kind::Var &&
          W.Rhs->base()->varName() == Buf &&
          isVarNamed(*W.Rhs->idx(), CandVar) && BD != DeclDims.end() &&
          Expr::structEq(*BD->second, Count)) {
        RawFactor RF;
        RF.LL = &A;
        RF.Covered = true;
        RF.Buf = Buf;
        Factors.push_back(RF);
        I += 3;
        continue;
      }
    }
    return nullptr; // residual-loop factor or foreign statement
  }
  if (Factors.empty())
    return nullptr;

  // Everything the fused loop writes per element. Hoisted parameters
  // (and the support size) must not read any of it, or the per-group
  // tables would go stale where the interpreter sees fresh values.
  std::vector<std::string> Written;
  Written.push_back(SL.Dest.Var);
  for (const LStmt *Tl : TailRaw)
    Written.push_back(Tl->Dest.Var);
  for (const std::string &W : Written)
    if (Count.mentionsVar(W))
      return nullptr;

  struct RawOp {
    ScoreOp::SK Kind = ScoreOp::SK::CatSelf;
    const RawFactor *RF = nullptr;
    bool PerOuter = false;
    bool Direct = false;
    std::string AtVarName;
  };
  std::vector<RawOp> RawOps;
  for (const RawFactor &RF : Factors) {
    const LStmt &F = *RF.LL;
    RawOp RO;
    RO.RF = &RF;
    bool Self = F.At && isVarNamed(*F.At, CandVar);
    size_t Want = 0;
    if (Self) {
      if (F.D == Dist::Categorical)
        RO.Kind = ScoreOp::SK::CatSelf;
      else if (F.D == Dist::Bernoulli)
        RO.Kind = ScoreOp::SK::BernSelf;
      else
        return nullptr;
      Want = 1;
    } else {
      if (!F.At || F.At->mentionsVar(CandVar))
        return nullptr;
      switch (F.D) {
      case Dist::Categorical:
        RO.Kind = ScoreOp::SK::CatGather;
        Want = 1;
        break;
      case Dist::Bernoulli:
        RO.Kind = ScoreOp::SK::BernGather;
        Want = 1;
        break;
      case Dist::Normal:
        RO.Kind = ScoreOp::SK::NormalGather;
        Want = 2;
        break;
      case Dist::MvNormal:
        RO.Kind = ScoreOp::SK::MvNormalGather;
        Want = 2;
        break;
      default:
        return nullptr;
      }
    }
    if (F.Params.size() != Want)
      return nullptr;
    for (const auto &Pm : F.Params) {
      if (Pm->mentionsVar(ElemVar))
        return nullptr; // cannot hoist element-varying parameters
      if (Self && Pm->mentionsVar(CandVar))
        return nullptr;
      for (const std::string &W : Written)
        if (Pm->mentionsVar(W))
          return nullptr;
      for (const auto &DD : DeclDims)
        if (Pm->mentionsVar(DD.first))
          return nullptr;
      if (TwoLevel && Pm->mentionsVar(OuterVar))
        RO.PerOuter = true;
    }
    if (RO.Kind == ScoreOp::SK::NormalGather &&
        F.At->kind() == Expr::Kind::Index &&
        F.At->base()->kind() == Expr::Kind::Var &&
        isVarNamed(*F.At->idx(), ElemVar)) {
      RO.Direct = true;
      RO.AtVarName = F.At->base()->varName();
      // Precomputed rows read the gathered vector once per group; skip
      // the bulk path if the loop itself could mutate it.
      for (const std::string &W : Written)
        if (W == RO.AtVarName)
          RO.Direct = false;
      if (DeclDims.count(RO.AtVarName))
        RO.Direct = false;
    }
    RawOps.push_back(std::move(RO));
  }

  bool Invariant = true;
  for (const RawOp &RO : RawOps)
    if (RO.Kind != ScoreOp::SK::CatSelf && RO.Kind != ScoreOp::SK::BernSelf)
      Invariant = false;

  // ---- Compile phase (only genuine failures from here on). ----
  auto E = std::make_unique<EnumFused>();
  E->TwoLevel = TwoLevel;
  E->Lo0 = ce(C, *S0.Lo);
  E->Hi0 = ce(C, *S0.Hi);
  E->Slot0 = C.T.NumSlots++;
  C.Scopes.emplace_back(OuterVar, E->Slot0);
  pushFrame(C);
  if (TwoLevel) {
    E->Lo1 = ce(C, *ElemL->Lo);
    E->Hi1 = ce(C, *ElemL->Hi);
    E->Slot1 = C.T.NumSlots++;
    C.Scopes.emplace_back(ElemVar, E->Slot1);
  }
  for (const LStmt *D : DeclsRaw)
    E->Decls.push_back(cs(C, *D));
  E->CandSlot = C.T.NumSlots++;
  E->ScoresName = ScoresName;
  {
    auto It = C.VarIds.find(ScoresName);
    if (It == C.VarIds.end() || !C.T.Vars[size_t(It->second)].Local)
      C.OK = false;
    else
      E->ScoresVar = It->second;
  }
  E->Count = ce(C, *SL.Count);
  clv(C, SL.Dest, E->Target);
  C.Scopes.emplace_back(CandVar, E->CandSlot);
  for (const RawOp &RO : RawOps) {
    ScoreOp Op;
    Op.Kind = RO.Kind;
    Op.Covered = RO.RF->Covered;
    Op.D = RO.RF->LL->D;
    Op.PerOuter = RO.PerOuter;
    Op.Direct = RO.Direct;
    if (Op.Covered) {
      auto It = C.VarIds.find(RO.RF->Buf);
      Op.BufVar = It == C.VarIds.end() ? -1 : It->second;
      if (Op.BufVar < 0)
        C.OK = false;
    }
    for (const auto &Pm : RO.RF->LL->Params)
      Op.Params.push_back(ce(C, *Pm));
    if (RO.Kind != ScoreOp::SK::CatSelf && RO.Kind != ScoreOp::SK::BernSelf)
      Op.At = ce(C, *RO.RF->LL->At);
    if (RO.Direct)
      Op.AtVar = refId(C, RO.AtVarName);
    E->Ops.push_back(std::move(Op));
  }
  C.Scopes.pop_back(); // candidate
  for (const LStmt *Tl : TailRaw)
    E->Tail.push_back(cs(C, *Tl));
  if (TwoLevel)
    C.Scopes.pop_back();
  popFrame(C);
  C.Scopes.pop_back();
  if (!C.OK)
    return nullptr;

  E->Invariant = Invariant;
  E->PerCandStmts = uint64_t(CandL.Body.size());
  E->PerCandDist = uint64_t(Factors.size());
  ++C.T.FusedLoops;
  auto R = std::make_unique<CStmt>();
  R->Kind = CStmt::K::Enum;
  R->Enum = std::move(E);
  return R;
}

CStmtP csLoop(PlanComp &C, const LStmt &S) {
  // The fused peepholes would bypass the partial rows, so a map-reduce
  // loop always compiles generically.
  bool MapReduce = S.Red == ReduceKind::MapReduce;
  if (C.Scopes.empty() && S.LK == LoopKind::Par && !MapReduce) {
    CStmtP E = tryEnum(C, S);
    if (E || !C.OK)
      return E;
  }
  auto R = std::make_unique<CStmt>();
  R->Kind = CStmt::K::Loop;
  R->LK = S.LK;
  R->Lo = ce(C, *S.Lo);
  R->Hi = ce(C, *S.Hi);
  R->Slot = C.T.NumSlots++;
  for (const auto &B : S.Body)
    if (stmtSamplesL(*B)) {
      R->Samples = true;
      break;
    }
  // Interp::execMapReduceLoop runs a sampling or target-less annotated
  // loop as a plain pooled loop, and resolves the targets in the
  // enclosing scope at region start.
  if (MapReduce && !R->Samples && !S.RedTargets.empty()) {
    R->MapReduce = std::make_unique<MapReduceLoop>();
    for (const std::string &Name : S.RedTargets) {
      ReduceTarget G;
      G.Var = refId(C, Name);
      R->MapReduce->Tgts.push_back(std::move(G));
    }
  }
  C.Scopes.emplace_back(S.LoopVar, R->Slot);
  pushFrame(C);
  csBody(C, S.Body, R->Body);
  popFrame(C);
  C.Scopes.pop_back();
  if (C.OK && !MapReduce)
    maybeFill(C, *R);
  return R;
}

CStmtP cs(PlanComp &C, const LStmt &S) {
  if (S.K == LStmt::Kind::Loop)
    return csLoop(C, S);
  auto R = std::make_unique<CStmt>();
  switch (S.K) {
  case LStmt::Kind::Assign:
    R->Kind = CStmt::K::Assign;
    clv(C, S.Dest, R->Dest);
    R->Accum = S.Accum;
    R->Rhs = ce(C, *S.Rhs);
    return R;
  case LStmt::Kind::DeclLocal:
    R->Kind = CStmt::K::DeclLocal;
    if (S.Dims.size() > 2) {
      C.OK = false;
      return R;
    }
    R->LocalVar = localId(C, S.LocalName);
    R->LocalName = S.LocalName;
    R->LKind = S.LKind;
    for (const auto &D : S.Dims)
      R->Dims.push_back(ce(C, *D));
    return R;
  case LStmt::Kind::If:
    R->Kind = CStmt::K::If;
    for (const auto &G : S.Guards)
      R->Guards.emplace_back(ce(C, *G.Lhs), ce(C, *G.Rhs));
    pushFrame(C); // declarations under a guard do not dominate outside
    csBody(C, S.Then, R->Then);
    popFrame(C);
    return R;
  case LStmt::Kind::AccumLL:
    R->Kind = CStmt::K::AccumLL;
    clv(C, S.Dest, R->Dest);
    R->D = S.D;
    for (const auto &Pm : S.Params)
      R->Params.push_back(ce(C, *Pm));
    R->At = ce(C, *S.At);
    return R;
  case LStmt::Kind::AccumGrad:
    C.OK = false; // the HMC path stays interpreted
    return R;
  case LStmt::Kind::Sample:
    R->Kind = CStmt::K::Sample;
    clv(C, S.Dest, R->Dest);
    R->D = S.D;
    for (const auto &Pm : S.Params)
      R->Params.push_back(ce(C, *Pm));
    return R;
  case LStmt::Kind::SampleLogits: {
    R->Kind = CStmt::K::SampleLogits;
    clv(C, S.Dest, R->Dest);
    R->ScoresName = S.ScoresVar;
    // The interpreter looks the buffer up without creating it; compile
    // only when it is a local whose declaration dominates this draw.
    auto It = C.VarIds.find(S.ScoresVar);
    if (It == C.VarIds.end() || !C.T.Vars[size_t(It->second)].Local ||
        !isDominatedLocal(C, S.ScoresVar)) {
      C.OK = false;
      return R;
    }
    R->ScoresVar = It->second;
    R->Count = ce(C, *S.Count);
    return R;
  }
  case LStmt::Kind::ConjSample:
    R->Kind = CStmt::K::ConjSample;
    clv(C, S.Dest, R->Dest);
    // ConjKind and ConjOp enumerate the relations in the same order.
    R->Conj = static_cast<ConjOp>(S.Conj);
    for (const auto &Pm : S.PriorParams)
      R->PriorParams.push_back(ce(C, *Pm));
    for (const auto &Ex : S.Extra)
      R->Extra.push_back(ce(C, *Ex));
    for (const auto &SR : S.StatRefs) {
      R->StatRefs.emplace_back();
      clv(C, SR, R->StatRefs.back());
    }
    return R;
  case LStmt::Kind::AccumOuter:
    R->Kind = CStmt::K::AccumOuter;
    clv(C, S.Dest, R->Dest);
    R->OuterY = ce(C, *S.OuterY);
    R->OuterMean = ce(C, *S.OuterMean);
    return R;
  case LStmt::Kind::AccumVec:
    R->Kind = CStmt::K::AccumVec;
    clv(C, S.Dest, R->Dest);
    R->Rhs = ce(C, *S.Rhs);
    return R;
  case LStmt::Kind::Loop:
    break; // handled above
  }
  C.OK = false;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// VecPlan
//===----------------------------------------------------------------------===//

VecPlan::VecPlan() = default;
VecPlan::~VecPlan() = default;

std::unique_ptr<VecPlan> VecPlan::tryCompile(const LowppProc &P,
                                             Env &Globals) {
  auto Impl = std::make_unique<PlanImpl>();
  Impl->Globals = &Globals;
  PlanComp C{*Impl};
  C.Frames.emplace_back(); // procedure-level declaration frame
  for (const auto &S : P.Body) {
    if (!C.OK)
      break;
    Impl->Body.push_back(cs(C, *S));
  }
  if (!C.OK)
    return nullptr;
  Impl->Slots.assign(size_t(std::max(Impl->NumSlots, 1)), 0);
  Impl->RVars.assign(Impl->Vars.size(), nullptr);
  for (size_t I = 0; I < Impl->Vars.size(); ++I)
    if (Impl->Vars[I].Local)
      Impl->RVars[I] = Impl->Vars[I].LocalSlot;
  std::unique_ptr<VecPlan> Plan(new VecPlan());
  Plan->Impl = std::move(Impl);
  return Plan;
}

void VecPlan::run(RNG &Master, bool Pooled, ExecCounters &Counters) {
  PlanImpl &T = *Impl;
  T.Master = &Master;
  T.R = &Master;
  T.Pooled = Pooled;
  T.InStream = false;
  T.AtmDepth = 0;
  T.C = &Counters;
  ++T.Epoch;
  Counters.LocalBytes = 0; // beginProcScope equivalent
  for (const auto &S : T.Body)
    execC(T, *S);
  Counters.LocalBytes = 0; // endProcScope equivalent
}

int VecPlan::fusedLoops() const { return Impl->FusedLoops; }

bool VecPlan::bitIdentical() const { return !Impl->UsedAlias; }

uint64_t VecPlan::takeAliasDraws() {
  uint64_t N = Impl->AliasDraws;
  Impl->AliasDraws = 0;
  return N;
}

VecPlan::ReduceProfile VecPlan::takeReduceProfile() {
  ReduceProfile P{Impl->ReduceRegions, Impl->ReduceBytes};
  Impl->ReduceRegions = 0;
  Impl->ReduceBytes = 0;
  return P;
}
