#include "la/vector_ops.h"

#include <cmath>

#include "util/error.h"

// Kernel policy (see also matrix.cpp): the elementwise kernels (axpy,
// scale, add, subtract, scaled, lerp) are written as contiguous
// pointer loops with no loop-carried dependence, so the compiler
// auto-vectorizes them outright. The REDUCTIONS (dot, norms, distance)
// deliberately keep one accumulator advancing left-to-right: SIMD-izing
// a float reduction requires reassociation, and every consumer of these
// kernels -- payoff cells, solver trajectories, golden baselines -- is
// gated on bit-stable results.
namespace pg::la {

double dot(const Vector& a, const Vector& b) {
  PG_CHECK(a.size() == b.size(), "dot: size mismatch");
  const std::size_t n = a.size();
  const double* pa = a.data();
  const double* pb = b.data();
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += pa[i] * pb[i];
  return s;
}

double squared_norm(const Vector& a) {
  double s = 0.0;
  for (double x : a) s += x * x;
  return s;
}

double norm(const Vector& a) { return std::sqrt(squared_norm(a)); }

double distance(const Vector& a, const Vector& b) {
  PG_CHECK(a.size() == b.size(), "distance: size mismatch");
  const std::size_t n = a.size();
  const double* pa = a.data();
  const double* pb = b.data();
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = pa[i] - pb[i];
    s += d * d;
  }
  return std::sqrt(s);
}

void axpy(double alpha, const Vector& x, Vector& y) {
  PG_CHECK(x.size() == y.size(), "axpy: size mismatch");
  const std::size_t n = x.size();
  const double* px = x.data();
  double* py = y.data();
  for (std::size_t i = 0; i < n; ++i) py[i] += alpha * px[i];
}

void scale(Vector& x, double alpha) {
  for (double& v : x) v *= alpha;
}

Vector add(const Vector& a, const Vector& b) {
  PG_CHECK(a.size() == b.size(), "add: size mismatch");
  const std::size_t n = a.size();
  Vector out(n);
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
  return out;
}

Vector subtract(const Vector& a, const Vector& b) {
  PG_CHECK(a.size() == b.size(), "subtract: size mismatch");
  const std::size_t n = a.size();
  Vector out(n);
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
  return out;
}

Vector scaled(const Vector& a, double alpha) {
  const std::size_t n = a.size();
  Vector out(n);
  const double* pa = a.data();
  double* po = out.data();
  for (std::size_t i = 0; i < n; ++i) po[i] = alpha * pa[i];
  return out;
}

Vector normalized(const Vector& a) {
  const double n = norm(a);
  PG_CHECK(n > 0.0, "normalized: zero vector");
  return scaled(a, 1.0 / n);
}

Vector lerp(const Vector& a, const Vector& b, double t) {
  PG_CHECK(a.size() == b.size(), "lerp: size mismatch");
  const std::size_t n = a.size();
  Vector out(n);
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  for (std::size_t i = 0; i < n; ++i) po[i] = (1.0 - t) * pa[i] + t * pb[i];
  return out;
}

Vector zeros(std::size_t dim) { return Vector(dim, 0.0); }

}  // namespace pg::la
