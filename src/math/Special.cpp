//===- math/Special.cpp ---------------------------------------*- C++ -*-===//

#include "math/Special.h"

#include <array>
#include <cassert>
#include <cmath>
#include <math.h> // lgamma_r

using namespace augur;

namespace {

/// Integer-and-half fast path: Gamma/InvGamma/Beta/Dirichlet/Wishart
/// densities call logGamma/digamma overwhelmingly at small arguments of
/// the form k/2 (conjugate posteriors add counts to half-integer
/// shapes). Cache those lazily; the stored values come from the exact
/// same slow-path code, so the fast path is bitwise transparent.
constexpr int HalfTableSize = 512; // covers X in (0, 256] at k/2 grid

/// std::lgamma stores the sign of Gamma(X) in the global `signgam`, a
/// data race when pooled loops evaluate densities concurrently.
/// lgamma_r returns the same value and hands the sign back instead.
double lgammaReentrant(double X) {
  int Sign;
  return ::lgamma_r(X, &Sign);
}

double digammaSlow(double X) {
  double Result = 0.0;
  while (X < 10.0) {
    Result -= 1.0 / X;
    X += 1.0;
  }
  double Inv = 1.0 / X;
  double Inv2 = Inv * Inv;
  // Asymptotic expansion: ln x - 1/(2x) - 1/(12x^2) + 1/(120x^4) - ...
  Result += std::log(X) - 0.5 * Inv -
            Inv2 * (1.0 / 12.0 - Inv2 * (1.0 / 120.0 - Inv2 / 252.0));
  return Result;
}

/// Index into the k/2 grid, or -1 when X is not on it (or too large).
inline int halfIndex(double X) {
  double T = X + X;
  if (T != std::floor(T) || T < 1.0 || T > double(HalfTableSize))
    return -1;
  return int(T) - 1; // k/2 with k in [1, HalfTableSize]
}

const std::array<double, HalfTableSize> &lgammaHalfTable() {
  static const std::array<double, HalfTableSize> Table = [] {
    std::array<double, HalfTableSize> T{};
    for (int K = 1; K <= HalfTableSize; ++K)
      T[size_t(K - 1)] = lgammaReentrant(0.5 * K);
    return T;
  }();
  return Table;
}

const std::array<double, HalfTableSize> &digammaHalfTable() {
  static const std::array<double, HalfTableSize> Table = [] {
    std::array<double, HalfTableSize> T{};
    for (int K = 1; K <= HalfTableSize; ++K)
      T[size_t(K - 1)] = digammaSlow(0.5 * K);
    return T;
  }();
  return Table;
}

} // namespace

double augur::logGamma(double X) {
  assert(X > 0.0 && "logGamma defined for positive arguments");
  int I = halfIndex(X);
  if (I >= 0)
    return lgammaHalfTable()[size_t(I)];
  return lgammaReentrant(X);
}

double augur::digamma(double X) {
  assert(X > 0.0 && "digamma implemented for positive arguments");
  int I = halfIndex(X);
  if (I >= 0)
    return digammaHalfTable()[size_t(I)];
  return digammaSlow(X);
}

double augur::logMvGamma(int P, double X) {
  assert(P >= 1 && "dimension must be positive");
  double Result = 0.25 * P * (P - 1) * std::log(M_PI);
  for (int J = 1; J <= P; ++J)
    Result += logGamma(X + 0.5 * (1 - J));
  return Result;
}

double augur::logSumExp(const double *Xs, size_t N) {
  assert(N > 0 && "logSumExp of an empty sequence");
  double Max = Xs[0];
  for (size_t I = 1; I < N; ++I)
    Max = std::max(Max, Xs[I]);
  if (!std::isfinite(Max))
    return Max; // all -inf (or a stray inf/nan) propagates
  double Sum = 0.0;
  for (size_t I = 0; I < N; ++I)
    Sum += std::exp(Xs[I] - Max);
  return Max + std::log(Sum);
}

double augur::logSumExp(const std::vector<double> &Xs) {
  return logSumExp(Xs.data(), Xs.size());
}

double augur::sigmoid(double X) {
  if (X >= 0.0)
    return 1.0 / (1.0 + std::exp(-X));
  double E = std::exp(X);
  return E / (1.0 + E);
}

double augur::logSigmoid(double X) {
  // log(1/(1+e^-x)) = -log1p(e^-x) for x>=0; x - log1p(e^x) otherwise.
  if (X >= 0.0)
    return -std::log1p(std::exp(-X));
  return X - std::log1p(std::exp(X));
}

double augur::stableSum(const double *Xs, size_t N) {
  double Sum = 0.0;
  double Comp = 0.0;
  for (size_t I = 0; I < N; ++I) {
    double Y = Xs[I] - Comp;
    double T = Sum + Y;
    Comp = (T - Sum) - Y;
    Sum = T;
  }
  return Sum;
}
