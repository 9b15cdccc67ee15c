// Algorithm 1 of the paper: approximate the defender's mixed-strategy NE.
//
// Section 4.2 proves two properties of any defender NE strategy m:
//  (1) m is properly mixed (>= 2 support points with positive probability);
//  (2) for every support point theta with pdf_m(theta) > 0, the product
//      E(theta) * cdf_m(theta) is the same constant, where the cdf counts
//      survival probability from the boundary B toward the centroid.
// In removal-fraction coordinates with support p_1 < ... < p_n, (2) has the
// closed form
//      Q_i := P(filter <= p_i) = E(p_n) / E(p_i),
//      q_1 = Q_1,  q_i = Q_i - Q_{i-1},
// (valid because E is positive and non-increasing, so 0 < Q_1 <= ... <= 1).
// That closed form is findPercentage() below. The defender's loss under an
// indifferent attacker is
//      f(S) = N * E(p_n) + sum_i q_i * Gamma(p_i)
// (the paper's N*E(r_min) + integral of pdf*Gamma), which Algorithm 1
// minimizes over the support S by projected finite-difference gradient
// descent with the epsilon stopping rule.
#pragma once

#include <cstddef>
#include <vector>

#include "core/game_model.h"
#include "core/payoff.h"
#include "defense/mixed_defense.h"

namespace pg::runtime {
class Executor;
}

namespace pg::core {

struct Algorithm1Config {
  /// Number of radii (support size) n in the mixed strategy.
  std::size_t support_size = 3;
  /// Convergence threshold epsilon on |f_t - f_{t-1}|.
  double epsilon = 1e-9;
  /// Safety cap on gradient-descent iterations.
  std::size_t max_iterations = 5000;
  /// Gradient-descent step size on the support fractions.
  double learning_rate = 0.01;
  /// Finite-difference step.
  double fd_step = 1e-4;
  /// Minimum spacing between adjacent support fractions.
  double min_gap = 1e-3;
  /// Lower bound on the weakest support filter. Measured E(p) curves are
  /// often flat near p = 0 (a sub-percent filter removes nothing), which
  /// would let gradient descent park a support point at a meaningless
  /// near-zero strength; the floor keeps every mixture component
  /// operational.
  double support_floor = 0.02;
  /// Damage floor: the support is confined to placements with
  /// E(p) > damage_floor so the indifference ratios stay finite.
  double damage_floor = 1e-6;
};

struct DefenseSolution {
  defense::MixedDefenseStrategy strategy;
  /// f(S): the defender's expected loss (accuracy impact) at the solution;
  /// the paper's "resulting impact to the ML model" U_d(M_d, *).
  double defender_loss = 0.0;
  /// Objective value per iteration (for convergence diagnostics).
  std::vector<double> trace;
  std::size_t iterations = 0;
  bool converged = false;
};

/// The closed-form indifference probabilities for a fixed support.
/// Requires a sorted, strictly increasing support with E(p) > floor on all
/// points. Returns probabilities aligned with the support.
[[nodiscard]] std::vector<double> find_percentages(
    const PayoffCurves& curves, const std::vector<double>& support,
    double damage_floor = 1e-6);

/// The defender objective f(S) for a fixed support.
[[nodiscard]] double defender_objective(const PoisoningGame& game,
                                        const std::vector<double>& support,
                                        double damage_floor = 1e-6);

/// The paper's chooseInitialRadius: n fractions evenly spaced over the
/// profitable placement region (damage > floor).
[[nodiscard]] std::vector<double> choose_initial_support(
    const PoisoningGame& game, std::size_t n, double damage_floor = 1e-6);

/// Algorithm 1. Requires support_size >= 1 (1 degenerates to the best pure
/// strategy, used as the benchmark). Runs serially: each iteration's
/// finite-difference gradient is 2-5 support points of two cheap objective
/// probes each, too little work to pay for a dispatch. The executor is
/// accepted and ignored.
[[nodiscard]] DefenseSolution compute_optimal_defense(
    const PoisoningGame& game, const Algorithm1Config& config = {},
    runtime::Executor* /*ignored*/ = nullptr);

}  // namespace pg::core
