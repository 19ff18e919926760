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

/// The telemetry side of the emitted module: a fixed counter table
/// mirroring the interpreter's parallel-loop occupancy profile, read
/// back (and reset) by the host engine through the exported
/// augur_get_profile. Slots: 0 par_loops, 1 par_iters, 2 par_chunks,
/// 3 par_steals (always 0 — the shared-cursor pool has no steal
/// distinction), 4 par_busy_nanos, 5 par_thread_nanos, 6 reduce
/// regions dispatched, 7 reduce partial-buffer bytes. Emitted into
/// every module so the host can query one uniform schema; a sequential
/// module simply reports zeros.
const char *ProfilePrelude = R"c(
#include <time.h>
static i64 augur_prof[8];
static inline i64 augur_now_nanos(void) {
  struct timespec augur_ts;
  clock_gettime(CLOCK_MONOTONIC, &augur_ts);
  return (i64)augur_ts.tv_sec * 1000000000 + (i64)augur_ts.tv_nsec;
}
void augur_get_profile(i64 *out) {
  for (int i = 0; i < 8; ++i)
    out[i] = __atomic_exchange_n(&augur_prof[i], 0, __ATOMIC_RELAXED);
}
)c";

/// The pthread-backed pool linked into parallel modules: the C-side
/// mirror of parallel/ThreadPool. Workers claim grain-sized chunks off
/// an atomic cursor; the caller participates and then waits on the
/// region's completion latch. augur_set_threads is exported so the host
/// engine can size the pool after dlopen (before the first region).
const char *ParallelPrelude = R"c(
#include <pthread.h>
typedef void (*augur_loop_fn)(void *env, i64 lo, i64 hi);
static i64 augur_num_threads = 1;
static i64 augur_grain = 16;
static struct {
  pthread_mutex_t m;
  pthread_cond_t work_cv, done_cv;
  i64 generation;   /* bumped per region to wake workers */
  i64 active;       /* workers still draining the current region */
  i64 started;      /* worker threads spawned */
  augur_loop_fn fn;
  void *env;
  i64 hi, chunk;
  i64 cursor;       /* next unclaimed index; __atomic advanced */
} augur_pool = {PTHREAD_MUTEX_INITIALIZER, PTHREAD_COND_INITIALIZER,
                PTHREAD_COND_INITIALIZER, 0, 0, 0, 0, 0, 0, 0, 0};
static void augur_run_chunks(void) {
  for (;;) {
    i64 b = __atomic_fetch_add(&augur_pool.cursor, augur_pool.chunk,
                               __ATOMIC_RELAXED);
    if (b >= augur_pool.hi) return;
    i64 e = b + augur_pool.chunk;
    if (e > augur_pool.hi) e = augur_pool.hi;
    i64 c0 = augur_now_nanos();
    augur_pool.fn(augur_pool.env, b, e);
    __atomic_fetch_add(&augur_prof[2], 1, __ATOMIC_RELAXED);
    __atomic_fetch_add(&augur_prof[4], augur_now_nanos() - c0,
                       __ATOMIC_RELAXED);
  }
}
static void *augur_pool_worker(void *arg) {
  i64 seen = 0;
  (void)arg;
  for (;;) {
    pthread_mutex_lock(&augur_pool.m);
    while (augur_pool.generation == seen)
      pthread_cond_wait(&augur_pool.work_cv, &augur_pool.m);
    seen = augur_pool.generation;
    pthread_mutex_unlock(&augur_pool.m);
    augur_run_chunks();
    pthread_mutex_lock(&augur_pool.m);
    if (--augur_pool.active == 0)
      pthread_cond_signal(&augur_pool.done_cv);
    pthread_mutex_unlock(&augur_pool.m);
  }
  return 0;
}
void augur_set_threads(i64 n, i64 grain) {
  if (n >= 1) augur_num_threads = n;
  if (grain >= 1) augur_grain = grain;
}
static void augur_parallel_for(i64 lo, i64 hi, augur_loop_fn fn, void *env) {
  if (hi <= lo) return;
  i64 t0 = augur_now_nanos();
  __atomic_fetch_add(&augur_prof[0], 1, __ATOMIC_RELAXED);
  __atomic_fetch_add(&augur_prof[1], hi - lo, __ATOMIC_RELAXED);
  i64 want = augur_num_threads - 1;
  if (want <= 0 || hi - lo <= augur_grain) {
    fn(env, lo, hi);
    i64 wall = augur_now_nanos() - t0;
    __atomic_fetch_add(&augur_prof[2], 1, __ATOMIC_RELAXED);
    __atomic_fetch_add(&augur_prof[4], wall, __ATOMIC_RELAXED);
    __atomic_fetch_add(&augur_prof[5], wall, __ATOMIC_RELAXED);
    return;
  }
  while (augur_pool.started < want) {
    pthread_t t;
    if (pthread_create(&t, 0, augur_pool_worker, 0) != 0) break;
    pthread_detach(t);
    ++augur_pool.started;
  }
  augur_pool.fn = fn;
  augur_pool.env = env;
  augur_pool.hi = hi;
  augur_pool.chunk = augur_grain;
  __atomic_store_n(&augur_pool.cursor, lo, __ATOMIC_RELEASE);
  pthread_mutex_lock(&augur_pool.m);
  augur_pool.active = augur_pool.started;
  ++augur_pool.generation;
  pthread_cond_broadcast(&augur_pool.work_cv);
  pthread_mutex_unlock(&augur_pool.m);
  augur_run_chunks(); /* caller participates */
  pthread_mutex_lock(&augur_pool.m);
  while (augur_pool.active != 0)
    pthread_cond_wait(&augur_pool.done_cv, &augur_pool.m);
  pthread_mutex_unlock(&augur_pool.m);
  __atomic_fetch_add(&augur_prof[5],
                     (augur_now_nanos() - t0) * (augur_pool.started + 1),
                     __ATOMIC_RELAXED);
}
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
#include <stdlib.h>
/* Grow-only 64B-aligned scratch for map-reduce partial buffers. */
static void *augur_red_grow(void **buf, i64 *cap, i64 need) {
  if (*cap < need) {
    free(*buf);
    *buf = aligned_alloc(64, (size_t)need);
    *cap = need;
  }
  return *buf;
}
/* Map-reduce dispatch: like augur_parallel_for but with an explicit
   per-call grain, and the single-thread path still walks grain-sized
   chunks — every partial row must be zeroed by the chunk that owns it,
   so chunk boundaries are part of the result, not just a schedule. */
static void augur_parallel_for_red(i64 lo, i64 hi, i64 grain,
                                   augur_loop_fn fn, void *env) {
  if (hi <= lo) return;
  i64 t0 = augur_now_nanos();
  __atomic_fetch_add(&augur_prof[0], 1, __ATOMIC_RELAXED);
  __atomic_fetch_add(&augur_prof[1], hi - lo, __ATOMIC_RELAXED);
  i64 want = augur_num_threads - 1;
  if (want <= 0) {
    for (i64 b = lo; b < hi; b += grain) {
      i64 e = b + grain;
      if (e > hi) e = hi;
      i64 c0 = augur_now_nanos();
      fn(env, b, e);
      __atomic_fetch_add(&augur_prof[2], 1, __ATOMIC_RELAXED);
      __atomic_fetch_add(&augur_prof[4], augur_now_nanos() - c0,
                         __ATOMIC_RELAXED);
    }
    __atomic_fetch_add(&augur_prof[5], augur_now_nanos() - t0,
                       __ATOMIC_RELAXED);
    return;
  }
  while (augur_pool.started < want) {
    pthread_t t;
    if (pthread_create(&t, 0, augur_pool_worker, 0) != 0) break;
    pthread_detach(t);
    ++augur_pool.started;
  }
  augur_pool.fn = fn;
  augur_pool.env = env;
  augur_pool.hi = hi;
  augur_pool.chunk = grain;
  __atomic_store_n(&augur_pool.cursor, lo, __ATOMIC_RELEASE);
  pthread_mutex_lock(&augur_pool.m);
  augur_pool.active = augur_pool.started;
  ++augur_pool.generation;
  pthread_cond_broadcast(&augur_pool.work_cv);
  pthread_mutex_unlock(&augur_pool.m);
  augur_run_chunks(); /* caller participates */
  pthread_mutex_lock(&augur_pool.m);
  while (augur_pool.active != 0)
    pthread_cond_wait(&augur_pool.done_cv, &augur_pool.m);
  pthread_mutex_unlock(&augur_pool.m);
  __atomic_fetch_add(&augur_prof[5],
                     (augur_now_nanos() - t0) * (augur_pool.started + 1),
                     __ATOMIC_RELAXED);
}
)c";

struct VecRef {
  std::string Ptr;
  std::string Len;
};

class CEmitter {
public:
  CEmitter(const LowppProc &P, const Env &E, const CEmitOptions &Opts)
      : P(P), E(&E), Parallel(Opts.NumThreads != 1), Simd(Opts.Simd) {}

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
    M.Parallel = Parallel;
    M.Source = RuntimePrelude;
    M.Source += ProfilePrelude;
    if (Parallel)
      M.Source += ParallelPrelude;
    M.Source += "\ntypedef struct {\n";
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
      if (S.Accum && atomicCtx()) {
        if (const RedRow *Row = redirectFor(S.Dest.Var))
          return Pad + Row->Row + "[&(" + L + ") - (" + Row->Base +
                 ")] += " + R + ";\n";
        const char *Fn = lvalueIsInt(S.Dest) ? "augur_atomic_add_i64"
                                             : "augur_atomic_add_f64";
        return Pad + std::string(Fn) + "(&" + L + ", " + R + ");\n";
      }
      return Pad + L + (S.Accum ? " += " : " = ") + R + ";\n";
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
      // nothing but the frame is outlined into a chunk function and
      // dispatched through augur_parallel_for. Loops that reference
      // enclosing locals/loop vars (or nest inside an outlined region)
      // stay sequential for-loops inside their region.
      if (Parallel && S.LK != LoopKind::Seq && !InOutlined &&
          LoopVars.empty() && ScalarLocals.empty() && VecLocals.empty()) {
        // Map-reduce emission (reduce pass annotation, DESIGN.md
        // section 16) when every privatized target is a native global
        // scalar or flat vector; otherwise fall back to the plain
        // atomic outlining below — same samples, contended stores.
        if (S.Red == ReduceKind::MapReduce && redTargetsEmittable(S))
          return emitMapReduceLoop(S, Lo, Hi, Pad);
        std::string FnName =
            strFormat("%s_pbody%d", P.Name.c_str(), int(OutlinedFns.size()));
        InOutlined = true;
        if (S.LK == LoopKind::AtmPar)
          ++AtmDepth;
        LoopVars.insert(S.LoopVar);
        LocalScope Scope(*this);
        std::string Fn = "static void " + FnName +
                         "(void *vf, i64 lo, i64 hi) {\n"
                         "  augur_frame *f = (augur_frame *)vf;\n" +
                         (Simd && S.LK == LoopKind::Par
                              ? std::string("#pragma GCC ivdep\n")
                              : std::string()) +
                         "  for (i64 " +
                         S.LoopVar + " = lo; " + S.LoopVar + " < hi; ++" +
                         S.LoopVar + ") {" +
                         strFormat(" /* %s */\n", loopKindName(S.LK));
        Status BodyStatus = Status::success();
        for (const auto &Sub : S.Body) {
          Result<std::string> T = emitStmt(*Sub, 2);
          if (!T.ok()) {
            BodyStatus = T.status();
            break;
          }
          Fn += T.value();
        }
        LoopVars.erase(S.LoopVar);
        if (S.LK == LoopKind::AtmPar)
          --AtmDepth;
        InOutlined = false;
        AUGUR_RETURN_IF_ERROR(BodyStatus);
        Fn += "  }\n}\n\n";
        OutlinedFns.push_back(Fn);
        return Pad + "augur_parallel_for(" + Lo + ", " + Hi + ", " +
               FnName + ", (void *)f);\n";
      }
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
      if (atomicCtx()) {
        if (const RedRow *Row = redirectFor(S.Dest.Var))
          return Pad + Row->Row + "[&(" + L + ") - (" + Row->Base +
                 ")] += " + Call + ";\n";
        return Pad + "augur_atomic_add_f64(&" + L + ", " + Call + ");\n";
      }
      return Pad + L + " += " + Call + ";\n";
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
      if (atomicCtx()) {
        if (const RedRow *Row = redirectFor(S.Dest.Var))
          return Pad + Row->Row + "[&(" + L + ") - (" + Row->Base +
                 ")] += (" + Adj + ") * " + Call + ";\n";
        return Pad + "augur_atomic_add_f64(&" + L + ", (" + Adj + ") * " +
               Call + ");\n";
      }
      return Pad + L + " += (" + Adj + ") * " + Call + ";\n";
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

  /// True when an accumulation must be emitted as an atomic add: inside
  /// an outlined chunk function, under at least one AtmPar loop.
  bool atomicCtx() const { return InOutlined && AtmDepth > 0; }

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

  /// Emits a MapReduce-annotated pooled loop (DESIGN.md section 16):
  /// per-loop static scratch holds one 64B-padded partial row per
  /// iteration block; the chunk function zeroes its row (first touch)
  /// and accumulates into it via the redirect table; the call site
  /// dispatches with grain == block through augur_parallel_for_red and
  /// folds the rows pairwise in pinned order. Block geometry depends
  /// only on the trip count, so the folded sums are bit-identical for
  /// every pool width — and identical to the interpreter's.
  Result<std::string> emitMapReduceLoop(const LStmt &S,
                                        const std::string &Lo,
                                        const std::string &Hi,
                                        const std::string &Pad) {
    struct Target {
      std::string Name;
      std::string Len;  ///< C expr for the flat element count
      const char *Ty;   ///< element C type
    };
    std::vector<Target> Ts;
    for (const auto &Name : S.RedTargets) {
      const Global &G = Globals.at(Name);
      bool IsInt =
          G.K == GKind::IntScalar || G.K == GKind::IntVecFlat;
      bool Scalar = G.K == GKind::IntScalar || G.K == GKind::RealScalar;
      Ts.push_back({Name, Scalar ? "1" : "f->" + Name + "_len",
                    IsInt ? "i64" : "double"});
    }

    int R = RedCount++;
    std::string FnName = strFormat("%s_redbody%d", P.Name.c_str(), R);
    // Per-loop statics: grow-only scratch plus the row stride, written
    // by the call site and read by the chunk function.
    std::string Pre =
        strFormat("typedef struct { augur_frame *f; i64 lo, block; } "
                  "augur_red%d_env;\n",
                  R);
    for (size_t J = 0; J < Ts.size(); ++J)
      Pre += strFormat("static char *augur_red%d_t%zu; "
                       "static i64 augur_red%d_t%zu_cap; "
                       "static i64 augur_red%d_t%zu_s;\n",
                       R, J, R, J, R, J);

    std::string Fn =
        "static void " + FnName +
        "(void *ve, i64 lo, i64 hi) {\n" +
        strFormat("  augur_red%d_env *e = (augur_red%d_env *)ve;\n", R,
                  R) +
        "  augur_frame *f = e->f;\n"
        "  i64 augur_slot = (lo - e->lo) / e->block;\n";
    for (size_t J = 0; J < Ts.size(); ++J) {
      std::string Row = strFormat("augur_row%d_%zu", R, J);
      Fn += strFormat("  %s *%s = (%s *)(augur_red%d_t%zu + augur_slot * "
                      "augur_red%d_t%zu_s);\n",
                      Ts[J].Ty, Row.c_str(), Ts[J].Ty, R, J, R, J);
      Fn += "  for (i64 z_ = 0; z_ < " + Ts[J].Len + "; ++z_) " + Row +
            "[z_] = 0;\n";
      RedirectRows[Ts[J].Name] = {Row, "f->" + Ts[J].Name};
    }
    Fn += "  for (i64 " + S.LoopVar + " = lo; " + S.LoopVar + " < hi; ++" +
          S.LoopVar + ") { /* " + loopKindName(S.LK) + " map-reduce */\n";

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
    Fn += "  }\n}\n\n";
    OutlinedFns.push_back(Pre + Fn);

    // Call site: geometry, scratch sizing, dispatch, pinned fold.
    std::string Out = Pad + "{ /* map-reduce region */\n";
    std::string P1 = Pad + "  ", P2 = Pad + "    ";
    Out += P1 + "i64 augur_rlo = " + Lo + ", augur_rhi = " + Hi + ";\n";
    Out += P1 + "if (augur_rhi > augur_rlo) {\n";
    Out += P2 + "i64 augur_rn = augur_rhi - augur_rlo;\n";
    Out += P2 + strFormat("i64 augur_rblock = (augur_rn + %lldLL) / "
                          "%lldLL;\n",
                          (long long)(ReduceShards - 1),
                          (long long)ReduceShards);
    Out += P2 + "i64 augur_rnb = (augur_rn + augur_rblock - 1) / "
                "augur_rblock;\n";
    std::string BytesExpr;
    for (size_t J = 0; J < Ts.size(); ++J) {
      Out += P2 + strFormat("i64 augur_len%zu = ", J) + Ts[J].Len + ";\n";
      Out += P2 + strFormat("augur_red%d_t%zu_s = ((augur_len%zu * 8 + "
                            "63) / 64) * 64;\n",
                            R, J, J);
      Out += P2 + strFormat("augur_red_grow((void **)&augur_red%d_t%zu, "
                            "&augur_red%d_t%zu_cap, augur_red%d_t%zu_s * "
                            "augur_rnb);\n",
                            R, J, R, J, R, J);
      if (!BytesExpr.empty())
        BytesExpr += " + ";
      BytesExpr += strFormat("augur_red%d_t%zu_s * augur_rnb", R, J);
    }
    Out += P2 + strFormat("augur_red%d_env augur_re = {f, augur_rlo, "
                          "augur_rblock};\n",
                          R);
    Out += P2 + "augur_parallel_for_red(augur_rlo, augur_rhi, "
                "augur_rblock, " +
           FnName + ", (void *)&augur_re);\n";
    Out += P2 + "__atomic_fetch_add(&augur_prof[6], 1, "
                "__ATOMIC_RELAXED);\n";
    Out += P2 + "__atomic_fetch_add(&augur_prof[7], " + BytesExpr +
           ", __ATOMIC_RELAXED);\n";
    for (size_t J = 0; J < Ts.size(); ++J) {
      Out += P2 + "for (i64 s_ = 1; s_ < augur_rnb; s_ *= 2)\n";
      Out += P2 + "  for (i64 i_ = 0; i_ + s_ < augur_rnb; i_ += 2 * "
                  "s_) {\n";
      Out += P2 + strFormat("    %s *a_ = (%s *)(augur_red%d_t%zu + i_ * "
                            "augur_red%d_t%zu_s);\n",
                            Ts[J].Ty, Ts[J].Ty, R, J, R, J);
      Out += P2 + strFormat("    %s *b_ = (%s *)(augur_red%d_t%zu + (i_ "
                            "+ s_) * augur_red%d_t%zu_s);\n",
                            Ts[J].Ty, Ts[J].Ty, R, J, R, J);
      Out += P2 + strFormat("    for (i64 z_ = 0; z_ < augur_len%zu; "
                            "++z_) a_[z_] += b_[z_];\n",
                            J);
      Out += P2 + "  }\n";
      Out += P2 + strFormat("{ %s *r0_ = (%s *)augur_red%d_t%zu;\n",
                            Ts[J].Ty, Ts[J].Ty, R, J);
      Out += P2 + strFormat("  for (i64 z_ = 0; z_ < augur_len%zu; ++z_) "
                            "f->%s[z_] += r0_[z_]; }\n",
                            J, Ts[J].Name.c_str());
    }
    Out += P1 + "}\n";
    Out += Pad + "}\n";
    return Out;
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
  bool Parallel;
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
  int RedCount = 0;
};

} // namespace

Result<CModule> augur::emitC(const LowppProc &P, const Env &E,
                             const CEmitOptions &Opts) {
  return CEmitter(P, E, Opts).run();
}
