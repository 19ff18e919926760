//===- cgen/CEmit.cpp -----------------------------------------*- C++ -*-===//

#include "cgen/CEmit.h"

#include <algorithm>
#include <cctype>
#include <cassert>
#include <set>

#include "support/Format.h"

using namespace augur;

namespace {

/// The static runtime every emitted translation unit carries (the CPU
/// side of the paper's Cuda/C runtime library, Section 6.2).
const char *RuntimePrelude = R"c(
#include <math.h>
typedef long long i64;
static const double AUGUR_LOG2PI = 1.8378770664093453;
/* lgamma stores the sign of Gamma(x) in the global signgam, a data race
   between pool lanes; lgamma_r returns the same value and hands the sign
   back instead. Declared here so no feature-test macro is needed. */
double lgamma_r(double, int *);
static inline double augur_lgamma(double x) {
  int sign;
  return lgamma_r(x, &sign);
}
static inline double augur_sigmoid(double x) {
  return x >= 0 ? 1.0 / (1.0 + exp(-x)) : exp(x) / (1.0 + exp(x));
}
static inline double augur_dot(const double *a, const double *b, i64 n) {
  double s = 0.0;
  for (i64 i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}
static inline double augur_normal_ll(double x, double m, double v) {
  double z = x - m;
  return v > 0 ? -0.5 * (AUGUR_LOG2PI + log(v) + z * z / v) : -1.0 / 0.0;
}
static inline double augur_normal_grad0(double x, double m, double v) {
  return -(x - m) / v;
}
static inline double augur_normal_grad1(double x, double m, double v) {
  return (x - m) / v;
}
static inline double augur_normal_grad2(double x, double m, double v) {
  double z = x - m;
  return -0.5 / v + 0.5 * z * z / (v * v);
}
static inline double augur_bernoulli_ll(i64 x, double p) {
  double q = x ? p : 1.0 - p;
  return q > 0 ? log(q) : -1.0 / 0.0;
}
static inline double augur_bernoulli_grad1(i64 x, double p) {
  return x ? 1.0 / p : -1.0 / (1.0 - p);
}
static inline double augur_exponential_ll(double x, double r) {
  return (r > 0 && x >= 0) ? log(r) - r * x : -1.0 / 0.0;
}
static inline double augur_exponential_grad0(double x, double r) {
  return -r;
}
static inline double augur_exponential_grad1(double x, double r) {
  return 1.0 / r - x;
}
static inline double augur_gamma_ll(double x, double a, double r) {
  return (x > 0 && a > 0 && r > 0)
             ? a * log(r) - augur_lgamma(a) + (a - 1.0) * log(x) - r * x
             : -1.0 / 0.0;
}
static inline double augur_gamma_grad0(double x, double a, double r) {
  return (a - 1.0) / x - r;
}
static inline double augur_invgamma_ll(double x, double a, double s) {
  return (x > 0 && a > 0 && s > 0)
             ? a * log(s) - augur_lgamma(a) - (a + 1.0) * log(x) - s / x
             : -1.0 / 0.0;
}
static inline double augur_invgamma_grad0(double x, double a, double s) {
  return -(a + 1.0) / x + s / (x * x);
}
static inline double augur_beta_ll(double x, double a, double b) {
  return (x > 0 && x < 1 && a > 0 && b > 0)
             ? (a - 1.0) * log(x) + (b - 1.0) * log(1.0 - x) +
                   augur_lgamma(a + b) - augur_lgamma(a) - augur_lgamma(b)
             : -1.0 / 0.0;
}
static inline double augur_beta_grad0(double x, double a, double b) {
  return (a - 1.0) / x - (b - 1.0) / (1.0 - x);
}
static inline double augur_uniform_ll(double x, double lo, double hi) {
  return (hi > lo && x >= lo && x <= hi) ? -log(hi - lo) : -1.0 / 0.0;
}
static inline double augur_poisson_ll(i64 x, double r) {
  return (r > 0 && x >= 0) ? x * log(r) - r - augur_lgamma((double)x + 1.0)
                           : -1.0 / 0.0;
}
static inline double augur_poisson_grad1(i64 x, double r) {
  return (double)x / r - 1.0;
}
static inline double augur_categorical_ll(const double *p, i64 n, i64 k) {
  return (k >= 0 && k < n && p[k] > 0) ? log(p[k]) : -1.0 / 0.0;
}
static inline double augur_dirichlet_ll(const double *a, i64 n,
                                        const double *x) {
  double s = 0.0, sa = 0.0, lb = 0.0;
  for (i64 i = 0; i < n; ++i) {
    if (a[i] <= 0 || x[i] <= 0 || x[i] >= 1) return -1.0 / 0.0;
    s += (a[i] - 1.0) * log(x[i]);
    sa += a[i];
    lb += augur_lgamma(a[i]);
  }
  return s + augur_lgamma(sa) - lb;
}
)c";

/// The host interface every emitted module is built against. The
/// frame's first member points at the engine's host table; a pooled
/// loop is outlined into a chunk function and handed to `run`, which
/// executes its chunks on the engine's ThreadPool (cgen/Native.cpp).
/// For a map-reduce loop `red` lists the privatized targets: the host
/// gives every chunk one zeroed partial row per target and folds the
/// rows into the targets after the join. Modules own no threads and
/// keep no mutable statics.
const char *HostPrelude = R"c(
typedef struct { void *base; i64 len, is_int; } augur_red;
typedef void (*augur_chunk_fn)(void *f, i64 lo, i64 hi, char *const *rows);
typedef struct augur_host {
  void (*run)(struct augur_host *h, void *f, i64 lo, i64 hi,
              augur_chunk_fn fn, const augur_red *red, i64 n_red);
} augur_host;
static inline void augur_atomic_add_f64(double *p, double v) {
  unsigned long long *ip = (unsigned long long *)p;
  union { double d; unsigned long long u; } old, want;
  old.u = __atomic_load_n(ip, __ATOMIC_RELAXED);
  do {
    want.d = old.d + v;
  } while (!__atomic_compare_exchange_n(ip, &old.u, want.u, 1,
                                        __ATOMIC_RELAXED, __ATOMIC_RELAXED));
}
static inline void augur_atomic_add_i64(i64 *p, i64 v) {
  __atomic_fetch_add(p, v, __ATOMIC_RELAXED);
}
)c";

struct VecRef {
  std::string Ptr;
  std::string Len;
};

class CEmitter {
public:
  CEmitter(const LowppProc &P, const Env &E, const CEmitOptions &Opts)
      : P(P), E(&E), Pooled(Opts.Pooled), Simd(Opts.Simd) {}

  Result<CModule> run() {
    AUGUR_RETURN_IF_ERROR(collectGlobals());
    std::string Body;
    for (const auto &S : P.Body) {
      AUGUR_ASSIGN_OR_RETURN(std::string Text, emitStmt(*S, 1));
      Body += Text;
    }
    CModule M;
    M.ProcName = P.Name;
    M.Fields = Fields;
    M.Source = RuntimePrelude;
    M.Source += HostPrelude;
    M.Source += "\ntypedef struct {\n  augur_host *host;\n";
    for (const auto &F : Fields) {
      switch (F.K) {
      case FrameField::Kind::RealPtr:
        M.Source += "  double *" + F.CName + ";\n";
        break;
      case FrameField::Kind::IntPtr:
      case FrameField::Kind::OffsetsPtr:
        M.Source += "  i64 *" + F.CName + ";\n";
        break;
      case FrameField::Kind::Length:
        M.Source += "  i64 " + F.CName + ";\n";
        break;
      }
    }
    M.Source += "} augur_frame;\n\n";
    for (const auto &Fn : OutlinedFns)
      M.Source += Fn;
    M.Source += "void " + P.Name + "(augur_frame *f) {\n" + Body + "}\n";
    return M;
  }

private:
  enum class GKind {
    IntScalar,
    RealScalar,
    IntVecFlat,
    RealVecFlat,
    IntVecRagged,
    RealVecRagged,
  };

  struct Global {
    GKind K;
  };

  static void collectStmtVars(const LStmt &S, std::set<std::string> &Vars,
                              std::set<std::string> &Bound) {
    auto AddExpr = [&](const ExprPtr &Ex) {
      if (!Ex)
        return;
      std::vector<std::string> Names;
      Ex->collectVars(Names);
      for (auto &N : Names)
        Vars.insert(N);
    };
    AddExpr(S.Rhs);
    AddExpr(S.Lo);
    AddExpr(S.Hi);
    AddExpr(S.At);
    AddExpr(S.Adj);
    AddExpr(S.Count);
    for (const auto &Ex : S.Params)
      AddExpr(Ex);
    for (const auto &Ex : S.Dims)
      AddExpr(Ex);
    for (const auto &G : S.Guards) {
      AddExpr(G.Lhs);
      AddExpr(G.Rhs);
    }
    if (!S.Dest.Var.empty()) {
      Vars.insert(S.Dest.Var);
      for (const auto &Ex : S.Dest.Idxs)
        AddExpr(Ex);
    }
    if (S.K == LStmt::Kind::DeclLocal)
      Bound.insert(S.LocalName);
    if (S.K == LStmt::Kind::Loop)
      Bound.insert(S.LoopVar);
    for (const auto &Sub : S.Then)
      collectStmtVars(*Sub, Vars, Bound);
    for (const auto &Sub : S.Body)
      collectStmtVars(*Sub, Vars, Bound);
  }

  Status collectGlobals() {
    std::set<std::string> Vars, Bound;
    for (const auto &S : P.Body)
      collectStmtVars(*S, Vars, Bound);
    for (const auto &Out : P.Outputs)
      Vars.insert(Out);
    for (const auto &Name : Vars) {
      if (Bound.count(Name))
        continue; // local or loop variable
      auto It = E->find(Name);
      GKind K;
      if (It == E->end()) {
        // Output scalars created on demand (e.g. "ll_llp_0").
        K = GKind::RealScalar;
      } else {
        const Value &V = It->second;
        if (V.isIntScalar())
          K = GKind::IntScalar;
        else if (V.isRealScalar())
          K = GKind::RealScalar;
        else if (V.isIntVec())
          K = V.intVec().isRagged() ? GKind::IntVecRagged
                                    : GKind::IntVecFlat;
        else if (V.isRealVec())
          K = V.realVec().isRagged() ? GKind::RealVecRagged
                                     : GKind::RealVecFlat;
        else
          return Status::error(strFormat(
              "native C emission does not support the matrix variable "
              "'%s'",
              Name.c_str()));
      }
      Globals.emplace(Name, Global{K});
      switch (K) {
      case GKind::IntScalar:
        Fields.push_back({FrameField::Kind::IntPtr, Name, Name});
        break;
      case GKind::RealScalar:
        Fields.push_back({FrameField::Kind::RealPtr, Name, Name});
        break;
      case GKind::IntVecFlat:
        Fields.push_back({FrameField::Kind::IntPtr, Name, Name});
        Fields.push_back({FrameField::Kind::Length, Name, Name + "_len"});
        break;
      case GKind::RealVecFlat:
        Fields.push_back({FrameField::Kind::RealPtr, Name, Name});
        Fields.push_back({FrameField::Kind::Length, Name, Name + "_len"});
        break;
      case GKind::IntVecRagged:
        Fields.push_back({FrameField::Kind::IntPtr, Name, Name + "_data"});
        Fields.push_back(
            {FrameField::Kind::OffsetsPtr, Name, Name + "_offsets"});
        break;
      case GKind::RealVecRagged:
        Fields.push_back(
            {FrameField::Kind::RealPtr, Name, Name + "_data"});
        Fields.push_back(
            {FrameField::Kind::OffsetsPtr, Name, Name + "_offsets"});
        break;
      }
    }
    return Status::success();
  }

  bool isLoopOrLocalScalar(const std::string &Name) const {
    return LoopVars.count(Name) || ScalarLocals.count(Name);
  }

  Result<std::string> emitScalar(const ExprPtr &Ex) {
    switch (Ex->kind()) {
    case Expr::Kind::IntLit:
      return strFormat("%lldLL", static_cast<long long>(Ex->intValue()));
    case Expr::Kind::RealLit:
      return strFormat("%.17g", Ex->realValue());
    case Expr::Kind::Var: {
      const std::string &N = Ex->varName();
      if (LoopVars.count(N) || ScalarLocals.count(N))
        return N;
      auto It = Globals.find(N);
      if (It == Globals.end())
        return Status::error(
            strFormat("unknown scalar variable '%s'", N.c_str()));
      if (It->second.K == GKind::IntScalar ||
          It->second.K == GKind::RealScalar)
        return "(*f->" + N + ")";
      return Status::error(strFormat(
          "vector '%s' used where a scalar is required", N.c_str()));
    }
    case Expr::Kind::Index: {
      // Resolve the chain.
      std::vector<ExprPtr> Chain;
      ExprPtr Cur = Ex;
      while (Cur->kind() == Expr::Kind::Index) {
        Chain.push_back(Cur->idx());
        Cur = Cur->base();
      }
      std::reverse(Chain.begin(), Chain.end());
      if (Cur->kind() != Expr::Kind::Var)
        return Status::error("index root must be a variable");
      const std::string &N = Cur->varName();
      if (VecLocals.count(N)) {
        if (Chain.size() != 1)
          return Status::error("local buffers are one-dimensional");
        AUGUR_ASSIGN_OR_RETURN(std::string I0, emitScalar(Chain[0]));
        return N + "[" + I0 + "]";
      }
      auto It = Globals.find(N);
      if (It == Globals.end())
        return Status::error(
            strFormat("unknown variable '%s'", N.c_str()));
      if ((It->second.K == GKind::IntVecFlat ||
           It->second.K == GKind::RealVecFlat) &&
          Chain.size() == 1) {
        AUGUR_ASSIGN_OR_RETURN(std::string I0, emitScalar(Chain[0]));
        return "f->" + N + "[" + I0 + "]";
      }
      if ((It->second.K == GKind::IntVecRagged ||
           It->second.K == GKind::RealVecRagged) &&
          Chain.size() == 2) {
        AUGUR_ASSIGN_OR_RETURN(std::string I0, emitScalar(Chain[0]));
        AUGUR_ASSIGN_OR_RETURN(std::string I1, emitScalar(Chain[1]));
        return "f->" + N + "_data[f->" + N + "_offsets[" + I0 + "] + " +
               I1 + "]";
      }
      return Status::error(strFormat(
          "unsupported indexing of '%s' in native C emission", N.c_str()));
    }
    case Expr::Kind::Prim: {
      PrimOp Op = Ex->primOp();
      if (Op == PrimOp::Dot) {
        AUGUR_ASSIGN_OR_RETURN(VecRef A, emitVec(Ex->args()[0]));
        AUGUR_ASSIGN_OR_RETURN(VecRef B, emitVec(Ex->args()[1]));
        return "augur_dot(" + A.Ptr + ", " + B.Ptr + ", " + A.Len + ")";
      }
      if (Op == PrimOp::Len) {
        AUGUR_ASSIGN_OR_RETURN(VecRef A, emitVec(Ex->args()[0]));
        return A.Len;
      }
      if (Op == PrimOp::Rows)
        return Status::error("matrices are not native-emittable");
      if (Op == PrimOp::Neg) {
        AUGUR_ASSIGN_OR_RETURN(std::string A, emitScalar(Ex->args()[0]));
        return "(-" + A + ")";
      }
      if (Op == PrimOp::Exp || Op == PrimOp::Log || Op == PrimOp::Sqrt ||
          Op == PrimOp::Sigmoid) {
        AUGUR_ASSIGN_OR_RETURN(std::string A, emitScalar(Ex->args()[0]));
        const char *Fn = Op == PrimOp::Exp    ? "exp"
                         : Op == PrimOp::Log  ? "log"
                         : Op == PrimOp::Sqrt ? "sqrt"
                                              : "augur_sigmoid";
        return std::string(Fn) + "(" + A + ")";
      }
      AUGUR_ASSIGN_OR_RETURN(std::string A, emitScalar(Ex->args()[0]));
      AUGUR_ASSIGN_OR_RETURN(std::string B, emitScalar(Ex->args()[1]));
      const char *OpStr = Op == PrimOp::Add   ? "+"
                          : Op == PrimOp::Sub ? "-"
                          : Op == PrimOp::Mul ? "*"
                                              : "/";
      if (Op == PrimOp::Div)
        return "((double)(" + A + ") / (double)(" + B + "))";
      return "((" + A + ") " + OpStr + " (" + B + "))";
    }
    }
    return Status::error("malformed expression");
  }

  Result<VecRef> emitVec(const ExprPtr &Ex) {
    if (Ex->kind() == Expr::Kind::Var) {
      const std::string &N = Ex->varName();
      if (VecLocals.count(N))
        return VecRef{N, VecLocals.at(N)};
      auto It = Globals.find(N);
      if (It != Globals.end() && (It->second.K == GKind::RealVecFlat ||
                                  It->second.K == GKind::IntVecFlat))
        return VecRef{"f->" + N, "f->" + N + "_len"};
      return Status::error(strFormat(
          "'%s' cannot be used as a native vector", N.c_str()));
    }
    if (Ex->kind() == Expr::Kind::Index &&
        Ex->base()->kind() == Expr::Kind::Var) {
      const std::string &N = Ex->base()->varName();
      auto It = Globals.find(N);
      if (It != Globals.end() && (It->second.K == GKind::RealVecRagged ||
                                  It->second.K == GKind::IntVecRagged)) {
        AUGUR_ASSIGN_OR_RETURN(std::string I0, emitScalar(Ex->idx()));
        return VecRef{
            "(f->" + N + "_data + f->" + N + "_offsets[" + I0 + "])",
            "(f->" + N + "_offsets[(" + I0 + ") + 1] - f->" + N +
                "_offsets[" + I0 + "])"};
      }
    }
    return Status::error(strFormat(
        "unsupported vector expression '%s' in native C emission",
        Ex->str().c_str()));
  }

  Result<std::string> emitLValue(const LValue &L) {
    if (L.Idxs.empty()) {
      if (ScalarLocals.count(L.Var))
        return L.Var;
      auto It = Globals.find(L.Var);
      if (It == Globals.end())
        return Status::error(
            strFormat("unknown destination '%s'", L.Var.c_str()));
      return "(*f->" + L.Var + ")";
    }
    ExprPtr AsExpr = Expr::var(L.Var);
    for (const auto &I : L.Idxs)
      AsExpr = Expr::index(AsExpr, I);
    return emitScalar(AsExpr);
  }

  Result<std::string> emitDistCall(const char *Op, const LStmt &S) {
    // Argument convention: variate first, then the parameters.
    const DistInfo &Info = distInfo(S.D);
    std::string Name;
    for (const char *C = Info.Name; *C; ++C)
      Name.push_back(static_cast<char>(std::tolower(*C)));
    std::string Call = "augur_" + Name + "_" + Op + "(";
    switch (S.D) {
    case Dist::Normal:
    case Dist::Bernoulli:
    case Dist::Exponential:
    case Dist::Gamma:
    case Dist::InvGamma:
    case Dist::Beta:
    case Dist::Uniform:
    case Dist::Poisson: {
      AUGUR_ASSIGN_OR_RETURN(std::string X, emitScalar(S.At));
      Call += X;
      for (const auto &Pr : S.Params) {
        AUGUR_ASSIGN_OR_RETURN(std::string A, emitScalar(Pr));
        Call += ", " + A;
      }
      return Call + ")";
    }
    case Dist::Categorical: {
      AUGUR_ASSIGN_OR_RETURN(VecRef Pv, emitVec(S.Params[0]));
      AUGUR_ASSIGN_OR_RETURN(std::string X, emitScalar(S.At));
      return Call + Pv.Ptr + ", " + Pv.Len + ", " + X + ")";
    }
    case Dist::Dirichlet: {
      AUGUR_ASSIGN_OR_RETURN(VecRef Av, emitVec(S.Params[0]));
      AUGUR_ASSIGN_OR_RETURN(VecRef Xv, emitVec(S.At));
      return Call + Av.Ptr + ", " + Av.Len + ", " + Xv.Ptr + ")";
    }
    default:
      return Status::error(strFormat(
          "%s is not supported by native C emission", Info.Name));
    }
  }

  Result<std::string> emitStmt(const LStmt &S, int Indent) {
    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    switch (S.K) {
    case LStmt::Kind::Assign: {
      AUGUR_ASSIGN_OR_RETURN(std::string L, emitLValue(S.Dest));
      AUGUR_ASSIGN_OR_RETURN(std::string R, emitScalar(S.Rhs));
      if (S.Accum)
        return emitAccum(S.Dest, L, R, Pad);
      return Pad + L + " = " + R + ";\n";
    }
    case LStmt::Kind::DeclLocal: {
      if (S.Dims.empty()) {
        ScalarLocals[S.LocalName] = S.LKind == LocalKind::Int;
        const char *Ty = S.LKind == LocalKind::Int ? "i64" : "double";
        return Pad + std::string(Ty) + " " + S.LocalName + " = 0;\n";
      }
      if (S.Dims.size() != 1 || S.LKind == LocalKind::Mat)
        return Status::error(
            "only scalar and 1-D locals are native-emittable");
      AUGUR_ASSIGN_OR_RETURN(std::string D, emitScalar(S.Dims[0]));
      VecLocals[S.LocalName] = "(" + D + ")";
      if (S.LKind == LocalKind::Int)
        IntVecLocals.insert(S.LocalName);
      const char *Ty = S.LKind == LocalKind::Int ? "i64" : "double";
      std::string Out =
          Pad + std::string(Ty) + " " + S.LocalName + "[" + D + "];\n";
      Out += Pad + "for (i64 z_ = 0; z_ < (" + D + "); ++z_) " +
             S.LocalName + "[z_] = 0;\n";
      return Out;
    }
    case LStmt::Kind::If: {
      std::string Cond;
      for (const auto &G : S.Guards) {
        AUGUR_ASSIGN_OR_RETURN(std::string A, emitScalar(G.Lhs));
        AUGUR_ASSIGN_OR_RETURN(std::string B, emitScalar(G.Rhs));
        if (!Cond.empty())
          Cond += " && ";
        Cond += "(" + A + ") == (" + B + ")";
      }
      std::string Out = Pad + "if (" + Cond + ") {\n";
      LocalScope Scope(*this); // C block scope: locals die at the brace
      for (const auto &Sub : S.Then) {
        AUGUR_ASSIGN_OR_RETURN(std::string T, emitStmt(*Sub, Indent + 1));
        Out += T;
      }
      return Out + Pad + "}\n";
    }
    case LStmt::Kind::Loop: {
      AUGUR_ASSIGN_OR_RETURN(std::string Lo, emitScalar(S.Lo));
      AUGUR_ASSIGN_OR_RETURN(std::string Hi, emitScalar(S.Hi));
      // Pooled emission: a Par/AtmPar loop whose body closes over
      // nothing but the frame is outlined and run by the host. Loops
      // that reference enclosing locals/loop vars (or nest inside an
      // outlined region) stay sequential for-loops inside their region.
      if (Pooled && S.LK != LoopKind::Seq && !InOutlined &&
          LoopVars.empty() && ScalarLocals.empty() && VecLocals.empty())
        return emitPooledLoop(S, Lo, Hi, Pad);
      if (S.LK == LoopKind::AtmPar)
        ++AtmDepth;
      LoopVars.insert(S.LoopVar);
      LocalScope Scope(*this);
      std::string Out =
          (Simd && S.LK == LoopKind::Par ? "#pragma GCC ivdep\n"
                                         : std::string()) +
          Pad + strFormat("for (i64 %s = ", S.LoopVar.c_str()) + Lo +
          "; " + S.LoopVar + " < " + Hi + "; ++" + S.LoopVar + ") {" +
          (S.LK != LoopKind::Seq
               ? strFormat(" /* %s */\n", loopKindName(S.LK))
               : "\n");
      for (const auto &Sub : S.Body) {
        AUGUR_ASSIGN_OR_RETURN(std::string T, emitStmt(*Sub, Indent + 1));
        Out += T;
      }
      LoopVars.erase(S.LoopVar);
      if (S.LK == LoopKind::AtmPar)
        --AtmDepth;
      return Out + Pad + "}\n";
    }
    case LStmt::Kind::AccumLL: {
      AUGUR_ASSIGN_OR_RETURN(std::string L, emitLValue(S.Dest));
      AUGUR_ASSIGN_OR_RETURN(std::string Call, emitDistCall("ll", S));
      return emitAccum(S.Dest, L, Call, Pad);
    }
    case LStmt::Kind::AccumGrad: {
      if (!distHasGrad(S.D, S.GradArg))
        return Status::error("gradient not native-emittable");
      AUGUR_ASSIGN_OR_RETURN(std::string L, emitLValue(S.Dest));
      AUGUR_ASSIGN_OR_RETURN(std::string Adj, emitScalar(S.Adj));
      std::string Op = strFormat("grad%d", S.GradArg);
      if (S.D == Dist::MvNormal || S.D == Dist::Categorical ||
          S.D == Dist::Dirichlet)
        return Status::error(
            "vector-valued gradients are not native-emittable");
      AUGUR_ASSIGN_OR_RETURN(std::string Call,
                             emitDistCall(Op.c_str(), S));
      return emitAccum(S.Dest, L, "(" + Adj + ") * " + Call, Pad);
    }
    case LStmt::Kind::Sample:
    case LStmt::Kind::SampleLogits:
    case LStmt::Kind::ConjSample:
    case LStmt::Kind::AccumOuter:
    case LStmt::Kind::AccumVec:
      return Status::error(
          "sampling statements are not native-emittable; the library "
          "engine runs them");
    }
    return Status::error("unknown statement");
  }

  /// Emits `L += R`. Inside a map-reduce chunk a privatized target
  /// lands in the chunk's partial row, as in the interpreter. Inside an
  /// outlined chunk under an AtmPar loop any other frame destination is
  /// shared between lanes and takes an atomic add; a chunk-local
  /// temporary has one writer and stays a plain add.
  std::string emitAccum(const LValue &Dest, const std::string &L,
                        const std::string &R, const std::string &Pad) const {
    if (const RedRow *Row = redirectFor(Dest.Var))
      return Pad + Row->Row + "[&(" + L + ") - (" + Row->Base + ")] += " +
             R + ";\n";
    bool Shared = InOutlined && AtmDepth > 0 &&
                  !ScalarLocals.count(Dest.Var) && !VecLocals.count(Dest.Var);
    if (!Shared)
      return Pad + L + " += " + R + ";\n";
    const char *Fn = lvalueIsInt(Dest) ? "augur_atomic_add_i64"
                                       : "augur_atomic_add_f64";
    return Pad + Fn + "(&" + L + ", " + R + ");\n";
  }

  /// Active map-reduce redirect for an accumulation destination, or
  /// nullptr when the variable is not privatized in the current chunk
  /// function.
  struct RedRow {
    std::string Row;  ///< C expr of the chunk's private partial row
    std::string Base; ///< C expr of the shared payload base pointer
  };
  const RedRow *redirectFor(const std::string &Var) const {
    auto It = RedirectRows.find(Var);
    return It == RedirectRows.end() ? nullptr : &It->second;
  }

  /// Whether every privatization target of a MapReduce-annotated loop
  /// is a global scalar or flat vector (the shapes whose payload is one
  /// contiguous block addressable off a single frame pointer). Ragged
  /// targets fall back to atomic emission.
  bool redTargetsEmittable(const LStmt &S) const {
    if (S.RedTargets.empty())
      return false;
    for (const auto &T : S.RedTargets) {
      auto It = Globals.find(T);
      if (It == Globals.end())
        return false;
      switch (It->second.K) {
      case GKind::IntScalar:
      case GKind::RealScalar:
      case GKind::IntVecFlat:
      case GKind::RealVecFlat:
        break;
      default:
        return false;
      }
    }
    return true;
  }

  /// Outlines a top-level pooled loop into a chunk function and emits
  /// its dispatch through the host table. A MapReduce-annotated loop
  /// whose targets are all frame scalars or flat vectors (DESIGN.md
  /// section 16) passes them along: the chunk accumulates into the
  /// partial rows the host hands it, and the host folds the rows in the
  /// interpreter's pinned order, so both executors agree bit for bit at
  /// every pool width. Other shared AtmPar accumulations stay atomic.
  Result<std::string> emitPooledLoop(const LStmt &S, const std::string &Lo,
                                     const std::string &Hi,
                                     const std::string &Pad) {
    std::vector<std::string> Targets;
    if (S.Red == ReduceKind::MapReduce && redTargetsEmittable(S))
      Targets = S.RedTargets;
    std::string FnName =
        strFormat("%s_chunk%d", P.Name.c_str(), int(OutlinedFns.size()));
    std::string Fn = "static void " + FnName +
                     "(void *vf, i64 lo, i64 hi, char *const *rows) {\n"
                     "  augur_frame *f = (augur_frame *)vf;\n"
                     "  (void)rows;\n";
    std::string Red; // the call site's augur_red initializers
    for (size_t J = 0; J < Targets.size(); ++J) {
      const std::string &N = Targets[J];
      GKind K = Globals.at(N).K;
      bool IsInt = K == GKind::IntScalar || K == GKind::IntVecFlat;
      bool Scalar = K == GKind::IntScalar || K == GKind::RealScalar;
      const char *Ty = IsInt ? "i64" : "double";
      std::string Row = strFormat("augur_row%zu", J);
      Fn += strFormat("  %s *%s = (%s *)rows[%zu];\n", Ty, Row.c_str(), Ty,
                      J);
      RedirectRows[N] = {Row, "f->" + N};
      Red += (J ? ", {f->" : "{f->") + N + ", " +
             (Scalar ? std::string("1") : "f->" + N + "_len") +
             (IsInt ? ", 1}" : ", 0}");
    }
    if (Simd && S.LK == LoopKind::Par && Targets.empty())
      Fn += "#pragma GCC ivdep\n";
    Fn += "  for (i64 " + S.LoopVar + " = lo; " + S.LoopVar + " < hi; ++" +
          S.LoopVar + ") { /* " + loopKindName(S.LK) +
          (Targets.empty() ? "" : " map-reduce") + " */\n";

    InOutlined = true;
    if (S.LK == LoopKind::AtmPar)
      ++AtmDepth;
    LoopVars.insert(S.LoopVar);
    Status BodyStatus = Status::success();
    {
      LocalScope Scope(*this);
      for (const auto &Sub : S.Body) {
        Result<std::string> T = emitStmt(*Sub, 2);
        if (!T.ok()) {
          BodyStatus = T.status();
          break;
        }
        Fn += T.value();
      }
    }
    LoopVars.erase(S.LoopVar);
    if (S.LK == LoopKind::AtmPar)
      --AtmDepth;
    InOutlined = false;
    RedirectRows.clear();
    AUGUR_RETURN_IF_ERROR(BodyStatus);
    OutlinedFns.push_back(Fn + "  }\n}\n\n");

    std::string Run = "f->host->run(f->host, f, " + Lo + ", " + Hi + ", " +
                      FnName;
    if (Targets.empty())
      return Pad + Run + ", 0, 0);\n";
    return Pad + "{ /* map-reduce region */\n" + Pad +
           "  const augur_red augur_red_[] = {" + Red + "};\n" + Pad + "  " +
           Run + strFormat(", augur_red_, %zu);\n", Targets.size()) + Pad +
           "}\n";
  }

  /// Whether an accumulation destination holds i64 (else double).
  bool lvalueIsInt(const LValue &L) const {
    auto SIt = ScalarLocals.find(L.Var);
    if (SIt != ScalarLocals.end())
      return SIt->second;
    if (VecLocals.count(L.Var))
      return IntVecLocals.count(L.Var) != 0;
    auto GIt = Globals.find(L.Var);
    if (GIt == Globals.end())
      return false;
    return GIt->second.K == GKind::IntScalar ||
           GIt->second.K == GKind::IntVecFlat ||
           GIt->second.K == GKind::IntVecRagged;
  }

  /// Restores the local-variable registries when a C block scope
  /// closes. Without this a DeclLocal inside a loop or if body would
  /// leak into the registries for the rest of the procedure, wrongly
  /// suppressing outlining of later top-level Par loops (the outlining
  /// guard requires no live locals) and resolving out-of-scope names.
  struct LocalScope {
    CEmitter &Em;
    std::map<std::string, bool> SavedScalars;
    std::map<std::string, std::string> SavedVecs;
    std::set<std::string> SavedIntVecs;
    explicit LocalScope(CEmitter &Em)
        : Em(Em), SavedScalars(Em.ScalarLocals), SavedVecs(Em.VecLocals),
          SavedIntVecs(Em.IntVecLocals) {}
    ~LocalScope() {
      Em.ScalarLocals = std::move(SavedScalars);
      Em.VecLocals = std::move(SavedVecs);
      Em.IntVecLocals = std::move(SavedIntVecs);
    }
  };

  const LowppProc &P;
  const Env *E;
  bool Pooled;
  bool Simd;
  std::map<std::string, Global> Globals;
  std::vector<FrameField> Fields;
  std::set<std::string> LoopVars;
  std::map<std::string, bool> ScalarLocals; // name -> is i64
  std::map<std::string, std::string> VecLocals; // name -> length expr
  std::set<std::string> IntVecLocals;
  std::vector<std::string> OutlinedFns; // chunk fns, emission order
  bool InOutlined = false;
  int AtmDepth = 0;
  std::map<std::string, RedRow> RedirectRows; // active chunk fn only
};

} // namespace

Result<CModule> augur::emitC(const LowppProc &P, const Env &E,
                             const CEmitOptions &Opts) {
  return CEmitter(P, E, Opts).run();
}
