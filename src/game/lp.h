// Dense primal simplex solver for linear programs in the canonical form
//
//   maximize    c^T x
//   subject to  A x <= b,   x >= 0,   with b >= 0
//
// b >= 0 makes the all-slack basis feasible, which is all the library
// needs: the zero-sum matrix-game reduction produces exactly this form
// (constraints B z <= 1 after shifting the payoff matrix positive).
// Bland's anti-cycling rule guarantees termination. The dual solution is
// recovered from the reduced costs of the slack columns, which is how one
// simplex solve yields BOTH players' equilibrium strategies.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "la/matrix.h"

namespace pg::game {

enum class LpStatus { kOptimal, kUnbounded };

/// Entering-column pricing rule.
enum class LpPricing {
  /// Bland's rule: smallest index with a negative reduced cost. Slower on
  /// big tableaus but carries the anti-cycling termination guarantee, so
  /// it is the default (and the determinism reference).
  kBland,
  /// Dantzig's rule: most negative reduced cost (smallest index on exact
  /// ties), which usually takes far fewer pivots. Dantzig alone can cycle
  /// on degenerate problems, so the solver deterministically switches to
  /// Bland once the pivot count passes a problem-sized threshold -- the
  /// classic hybrid that keeps both speed and termination.
  kDantzig,
};

struct LpConfig {
  LpPricing pricing = LpPricing::kBland;
};

/// Parse "bland" / "dantzig" (exact spelling). Throws
/// std::invalid_argument on anything else.
[[nodiscard]] LpPricing parse_lp_pricing(const std::string& name);
[[nodiscard]] const char* lp_pricing_name(LpPricing pricing);

struct LpSolution {
  LpStatus status = LpStatus::kOptimal;
  double objective = 0.0;
  std::vector<double> x;     // primal solution (size = #variables)
  std::vector<double> dual;  // dual prices, one per constraint
  /// Number of simplex pivots performed. 0 when the all-slack basis is
  /// already optimal.
  std::size_t iterations = 0;
};

struct LpProblem {
  la::Matrix a;            // m x n constraint matrix
  std::vector<double> b;   // m right-hand sides, all >= 0
  std::vector<double> c;   // n objective coefficients (maximize)
};

/// Solve the LP. Throws std::invalid_argument on malformed input
/// (dimension mismatch or negative b).
[[nodiscard]] LpSolution solve_lp(const LpProblem& problem,
                                  const LpConfig& config = {});

}  // namespace pg::game
