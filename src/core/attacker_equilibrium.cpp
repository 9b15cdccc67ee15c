#include "core/attacker_equilibrium.h"

#include <algorithm>
#include <cmath>

#include "game/solvers.h"
#include "util/error.h"

namespace pg::core {

AttackerEquilibrium attacker_equilibrium_lp(const PoisoningGame& game,
                                            std::size_t grid,
                                            double mass_floor,
                                            runtime::Executor* executor) {
  PG_CHECK(grid >= 2, "grid must be >= 2");
  PG_CHECK(mass_floor >= 0.0, "mass_floor must be >= 0");
  const auto placements = game.placement_grid(grid);
  const auto mg = game.discretize(grid, grid, executor);
  const auto eq = game::solve_lp_equilibrium(mg);

  std::vector<double> support;
  std::vector<double> probs;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    if (eq.row_strategy[i] > mass_floor) {
      support.push_back(placements[i]);
      probs.push_back(eq.row_strategy[i]);
    }
  }
  PG_ASSERT(!support.empty(), "LP returned an empty attacker support");
  double total = 0.0;
  for (double p : probs) total += p;
  for (double& p : probs) p /= total;
  return {attack::MixedAttackStrategy(std::move(support), std::move(probs)),
          eq.value};
}

AttackerEquilibrium attacker_equilibrium_structural(
    const PoisoningGame& game,
    const defense::MixedDefenseStrategy& defender, double damage_floor) {
  PG_CHECK(defender.is_properly_mixed(),
           "structural extraction requires a properly mixed defender");
  const auto& fractions = defender.removal_fractions();
  const std::size_t n = fractions.size();
  const double budget = static_cast<double>(game.poison_budget());

  std::vector<double> mass(n, 0.0);
  double remaining = 1.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double e_i =
        std::max(game.curves().damage(fractions[i]), damage_floor);
    const double gamma_step = game.curves().cost(fractions[i + 1]) -
                              game.curves().cost(fractions[i]);
    const double a = std::clamp(gamma_step / (budget * e_i), 0.0, remaining);
    mass[i] = a;
    remaining -= a;
  }
  mass[n - 1] = remaining;

  // Renormalize defensively (clamping can distort the total).
  double total = 0.0;
  for (double m : mass) total += m;
  PG_ASSERT(total > 0.0, "structural attacker mass vanished");
  for (double& m : mass) m /= total;

  attack::MixedAttackStrategy strategy(fractions, mass);
  // Equilibrium value: the defender's loss under this pair.
  double value = budget * std::max(game.curves().damage(fractions.back()),
                                   damage_floor);
  for (std::size_t i = 0; i < n; ++i) {
    value += defender.probabilities()[i] * game.curves().cost(fractions[i]);
  }
  return {std::move(strategy), value};
}

}  // namespace pg::core
