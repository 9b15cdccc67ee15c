#include "core/equilibrium.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace pg::core {

namespace {

/// Clamp-and-sort projection onto the feasible support set:
/// damage-profitable region, strictly increasing with a minimum gap.
void project_support(std::vector<double>& s, double lo, double hi,
                     double min_gap) {
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double floor_i = lo + static_cast<double>(i) * min_gap;
    const double ceil_i =
        hi - static_cast<double>(s.size() - 1 - i) * min_gap;
    s[i] = std::clamp(s[i], floor_i, ceil_i);
    if (i > 0 && s[i] < s[i - 1] + min_gap) s[i] = s[i - 1] + min_gap;
  }
}

}  // namespace

std::vector<double> find_percentages(const PayoffCurves& curves,
                                     const std::vector<double>& support,
                                     double damage_floor) {
  PG_CHECK(!support.empty(), "find_percentages: empty support");
  for (std::size_t i = 0; i < support.size(); ++i) {
    PG_CHECK(support[i] >= 0.0 && support[i] <= 1.0,
             "support fractions must be in [0, 1]");
    if (i > 0) {
      PG_CHECK(support[i] > support[i - 1],
               "support must be strictly increasing");
    }
  }

  const std::size_t n = support.size();
  // E evaluated on the support, floored so ratios stay finite.
  std::vector<double> e(n);
  for (std::size_t i = 0; i < n; ++i) {
    e[i] = std::max(curves.damage(support[i]), damage_floor);
  }
  const double e_last = e[n - 1];

  // Q_i = E(p_n)/E(p_i) must be non-decreasing; enforce monotonicity to
  // absorb small non-monotonicity in measured curves.
  std::vector<double> q_cum(n);
  for (std::size_t i = 0; i < n; ++i) {
    q_cum[i] = std::min(1.0, e_last / e[i]);
    if (i > 0) q_cum[i] = std::max(q_cum[i], q_cum[i - 1]);
  }
  q_cum[n - 1] = 1.0;

  std::vector<double> prob(n);
  prob[0] = q_cum[0];
  for (std::size_t i = 1; i < n; ++i) prob[i] = q_cum[i] - q_cum[i - 1];
  return prob;
}

double defender_objective(const PoisoningGame& game,
                          const std::vector<double>& support,
                          double damage_floor) {
  const auto prob = find_percentages(game.curves(), support, damage_floor);
  // Attacker term: all N points at the strongest-support placement survive
  // every draw; by indifference every support placement yields the same.
  const double e_min_radius = std::max(
      game.curves().damage(support.back()), damage_floor);
  double f = static_cast<double>(game.poison_budget()) * e_min_radius;
  // Defender term: expected genuine-removal cost (the paper's integral of
  // pdf * Gamma collapses to a sum over the finite support).
  for (std::size_t i = 0; i < support.size(); ++i) {
    f += prob[i] * game.curves().cost(support[i]);
  }
  return f;
}

std::vector<double> choose_initial_support(const PoisoningGame& game,
                                           std::size_t n,
                                           double damage_floor) {
  PG_CHECK(n >= 1, "support size must be >= 1");
  const double hi = game.curves().damage_support_limit(damage_floor);
  PG_CHECK(hi > 0.0, "no profitable placement region (E <= floor everywhere)");
  std::vector<double> s(n);
  // Spread over (0, hi]: avoid 0 itself (a zero-strength filter never
  // removes anything and only weakens the mixture).
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = hi * static_cast<double>(i + 1) / static_cast<double>(n);
  }
  return s;
}

DefenseSolution compute_optimal_defense(const PoisoningGame& game,
                                        const Algorithm1Config& config,
                                        runtime::Executor* /*ignored*/) {
  PG_CHECK(config.support_size >= 1, "support_size must be >= 1");
  PG_CHECK(config.epsilon > 0.0, "epsilon must be > 0");
  PG_CHECK(config.learning_rate > 0.0, "learning_rate must be > 0");
  PG_CHECK(config.fd_step > 0.0, "fd_step must be > 0");

  const double hi =
      game.curves().damage_support_limit(config.damage_floor);
  const double lo = std::max(config.support_floor, config.min_gap);
  PG_CHECK(hi > lo + config.min_gap * static_cast<double>(config.support_size),
           "profitable region too small for the requested support size");

  std::vector<double> support =
      choose_initial_support(game, config.support_size, config.damage_floor);
  project_support(support, lo, hi, config.min_gap);

  auto objective = [&](const std::vector<double>& s) {
    return defender_objective(game, s, config.damage_floor);
  };

  DefenseSolution sol{defense::MixedDefenseStrategy::pure(0.0), 0.0, {}, 0,
                      false};
  double f_prev = objective(support);
  sol.trace.push_back(f_prev);

  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    // Finite-difference gradient d f / d S_r: two objective probes per
    // support point. Serial, because an executor dispatch costs more than
    // the 2-5 points' probes.
    std::vector<double> grad(support.size(), 0.0);
    for (std::size_t i = 0; i < support.size(); ++i) {
      std::vector<double> plus = support;
      std::vector<double> minus = support;
      plus[i] = std::min(plus[i] + config.fd_step, hi);
      minus[i] = std::max(minus[i] - config.fd_step, config.min_gap * 0.5);
      const double denom = plus[i] - minus[i];
      if (denom <= 0.0) continue;
      grad[i] = (objective(plus) - objective(minus)) / denom;
    }

    // Descent step with projection (the paper's S_r <- S_r - grad(f)).
    for (std::size_t i = 0; i < support.size(); ++i) {
      support[i] -= config.learning_rate * grad[i];
    }
    project_support(support, lo, hi, config.min_gap);

    const double f = objective(support);
    sol.trace.push_back(f);
    sol.iterations = it + 1;
    if (std::abs(f_prev - f) < config.epsilon) {
      sol.converged = true;
      f_prev = f;
      break;
    }
    f_prev = f;
  }

  const auto prob =
      find_percentages(game.curves(), support, config.damage_floor);
  sol.strategy = defense::MixedDefenseStrategy(support, prob);
  sol.defender_loss = f_prev;
  return sol;
}

}  // namespace pg::core
