#include "game/lp.h"

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace pg::game {

namespace {
constexpr double kEps = 1e-11;
}  // namespace

LpPricing parse_lp_pricing(const std::string& name) {
  if (name == "bland") return LpPricing::kBland;
  if (name == "dantzig") return LpPricing::kDantzig;
  PG_CHECK(false, "unknown LP pricing rule: " + name);
  return LpPricing::kBland;  // unreachable
}

const char* lp_pricing_name(LpPricing pricing) {
  return pricing == LpPricing::kDantzig ? "dantzig" : "bland";
}

LpSolution solve_lp(const LpProblem& problem, const LpConfig& config) {
  obs::Span span("simplex", "solver");
  const std::size_t m = problem.a.rows();
  const std::size_t n = problem.a.cols();
  PG_CHECK(m > 0 && n > 0, "solve_lp: empty problem");
  PG_CHECK(problem.b.size() == m, "solve_lp: b size mismatch");
  PG_CHECK(problem.c.size() == n, "solve_lp: c size mismatch");
  for (double bi : problem.b) {
    PG_CHECK(bi >= 0.0, "solve_lp: requires b >= 0 (all-slack basis)");
  }

  // Tableau layout: columns [0, n) structural, [n, n+m) slack, column n+m
  // is the RHS. Row m is the objective row storing reduced costs
  // (z_j - c_j form: we keep -c and add rows, so entry > -kEps means done).
  const std::size_t cols = n + m + 1;
  std::vector<std::vector<double>> t(m + 1, std::vector<double>(cols, 0.0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) t[i][j] = problem.a(i, j);
    t[i][n + i] = 1.0;
    t[i][cols - 1] = problem.b[i];
  }
  for (std::size_t j = 0; j < n; ++j) t[m][j] = -problem.c[j];

  std::vector<std::size_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = n + i;

  const double* objective_row = t[m].data();

  LpSolution sol;
  const std::size_t max_iters = 50 * (m + n) * (m + n) + 1000;
  // Dantzig pricing has no anti-cycling guarantee; past this (generous,
  // deterministic) pivot budget the solver falls back to Bland, whose
  // guarantee then finishes the solve. Well-behaved problems optimize in
  // O(m + n) pivots and never get near it.
  const std::size_t dantzig_budget = 16 * (m + n) + 256;
  for (;;) {
    // Entering column. Bland: smallest index with negative reduced cost.
    // Dantzig: most negative reduced cost, smallest index on exact ties.
    const bool dantzig = config.pricing == LpPricing::kDantzig &&
                         sol.iterations < dantzig_budget;
    std::size_t enter = cols - 1;
    if (dantzig) {
      std::size_t best = 0;
      for (std::size_t j = 1; j < cols - 1; ++j) {
        if (objective_row[j] < objective_row[best]) best = j;
      }
      if (objective_row[best] < -kEps) enter = best;
    } else {
      for (std::size_t j = 0; j < cols - 1; ++j) {
        if (objective_row[j] < -kEps) {
          enter = j;
          break;
        }
      }
    }
    if (enter == cols - 1) break;  // optimal

    // Leaving row: minimum ratio; ties broken by smallest basis index
    // (Bland).
    std::size_t leave = m;  // sentinel
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      if (t[i][enter] > kEps) {
        const double ratio = t[i][cols - 1] / t[i][enter];
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps &&
             (leave == m || basis[i] < basis[leave]))) {
          best_ratio = ratio;
          leave = i;
        }
      }
    }
    if (leave == m) {
      sol.status = LpStatus::kUnbounded;
      return sol;
    }

    // Pivot on (leave, enter): normalize the pivot row, then eliminate the
    // entering column from every other row.
    const double pivot = t[leave][enter];
    for (double& v : t[leave]) v /= pivot;
    const double* pivot_row = t[leave].data();
    for (std::size_t i = 0; i <= m; ++i) {
      if (i == leave) continue;
      const double factor = t[i][enter];
      if (factor == 0.0) continue;
      double* row = t[i].data();
      for (std::size_t j = 0; j < cols; ++j) row[j] -= factor * pivot_row[j];
    }
    basis[leave] = enter;

    ++sol.iterations;
    PG_ASSERT(sol.iterations <= max_iters,
              "simplex failed to terminate (cycling despite Bland's rule?)");
  }

  {
    static obs::Counter& pivots = obs::counter("obs.lp.pivots");
    pivots.add(sol.iterations);
    if (config.pricing == LpPricing::kDantzig &&
        sol.iterations > dantzig_budget) {
      static obs::Counter& fallbacks =
          obs::counter("obs.lp.dantzig_fallbacks");
      fallbacks.add(1);
    }
  }

  sol.status = LpStatus::kOptimal;
  sol.x.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    if (basis[i] < n) sol.x[basis[i]] = t[i][cols - 1];
  }
  sol.objective = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    sol.objective += problem.c[j] * sol.x[j];
  }
  // Dual prices are the reduced costs of the slack columns at optimum.
  sol.dual.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) sol.dual[i] = t[m][n + i];
  return sol;
}

}  // namespace pg::game
