// Unit and property tests for pg::core -- payoff curves, the poisoning
// game, Algorithm 1 and the NE property verifiers. These tests encode the
// paper's theoretical claims on analytic curves where exact answers exist.
#include <gtest/gtest.h>

#include <cmath>

#include "core/equilibrium.h"
#include "core/game_model.h"
#include "core/ne_properties.h"
#include "core/payoff.h"
#include "game/pure_ne.h"
#include "game/solvers.h"
#include "runtime/executor.h"
#include "sim/experiment.h"

namespace pg::core {
namespace {

PayoffCurves standard_curves() {
  // E(p) = 0.002 (1-p)^5 per point, Gamma(p) = 0.06 p^1.4.
  return PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4);
}

PoisoningGame standard_game() { return PoisoningGame(standard_curves(), 100); }

// ----------------------------------------------------------------- payoff

TEST(PayoffTest, AnalyticEndpoints) {
  const auto c = PayoffCurves::analytic(0.01, 2.0, 0.05, 1.0);
  EXPECT_NEAR(c.damage(0.0), 0.01, 1e-12);
  EXPECT_NEAR(c.damage(1.0), 0.0, 1e-12);
  EXPECT_NEAR(c.cost(0.0), 0.0, 1e-12);
  EXPECT_NEAR(c.cost(1.0), 0.05, 1e-12);
}

TEST(PayoffTest, DamageDecreasingCostIncreasing) {
  const auto c = standard_curves();
  double prev_e = c.damage(0.0);
  double prev_g = c.cost(0.0);
  for (double p = 0.05; p <= 1.0; p += 0.05) {
    EXPECT_LE(c.damage(p), prev_e + 1e-12);
    EXPECT_GE(c.cost(p), prev_g - 1e-12);
    prev_e = c.damage(p);
    prev_g = c.cost(p);
  }
}

TEST(PayoffTest, SupportLimitFindsPositiveRegion) {
  const auto c = standard_curves();
  const double limit = c.damage_support_limit(1e-6);
  // 0.002 (1-p)^5 > 1e-6  <=>  p < 1 - (5e-4)^(1/5) ~ 0.781.
  EXPECT_NEAR(limit, 0.781, 0.01);
  EXPECT_GT(c.damage(limit), 1e-6);
}

TEST(PayoffTest, MeasuredCurvesFromKnots) {
  const PayoffCurves c(
      util::PiecewiseLinear({0.0, 0.5, 1.0}, {0.1, 0.05, 0.0}),
      util::PiecewiseLinear({0.0, 0.5, 1.0}, {0.0, 0.01, 0.05}));
  EXPECT_NEAR(c.damage(0.25), 0.075, 1e-12);
  EXPECT_NEAR(c.cost(0.75), 0.03, 1e-12);
  EXPECT_DOUBLE_EQ(c.max_fraction(), 1.0);
}

TEST(PayoffTest, AnalyticValidation) {
  EXPECT_THROW((void)PayoffCurves::analytic(0.0, 1.0, 0.1, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)PayoffCurves::analytic(0.1, 1.0, 0.1, 1.0, 1),
               std::invalid_argument);
}

// ------------------------------------------------------------- game_model

TEST(GameModelTest, PayoffAddsSurvivingDamageAndCost) {
  const auto game = standard_game();
  const Allocation sa{{0.3, 100}};
  // theta = 0.2 <= 0.3: all points survive.
  const double expected_surviving =
      100 * game.curves().damage(0.3) + game.curves().cost(0.2);
  EXPECT_NEAR(game.attacker_payoff(sa, 0.2), expected_surviving, 1e-12);
  // theta = 0.4 > 0.3: filtered out; only Gamma remains.
  EXPECT_NEAR(game.attacker_payoff(sa, 0.4), game.curves().cost(0.4), 1e-12);
}

TEST(GameModelTest, SplitAllocationPartialSurvival) {
  const auto game = standard_game();
  const Allocation sa{{0.1, 40}, {0.5, 60}};
  const double theta = 0.3;  // kills the 0.1 placement, spares the 0.5
  EXPECT_NEAR(game.attacker_payoff(sa, theta),
              60 * game.curves().damage(0.5) + game.curves().cost(theta),
              1e-12);
}

TEST(GameModelTest, BestAttackSitsJustAtTheFilter) {
  const auto game = standard_game();
  const auto br = game.best_attack_against(0.25, 2048);
  // E decreasing: the best surviving placement is the filter boundary.
  EXPECT_NEAR(br.placement, 0.25, 2e-3);
}

TEST(GameModelTest, BestDefenseTradesGammaAgainstDamage) {
  const auto game = standard_game();
  // Attacker all-in at 0.3: the defender either pays Gamma(>0.3) to kill
  // it or tolerates the damage; for these curves killing is cheaper.
  const Allocation sa{{0.3, 100}};
  const auto br = game.best_defense_against(sa, 2048);
  EXPECT_GT(br.theta, 0.3);
  EXPECT_LT(br.attacker_payoff,
            game.attacker_payoff(sa, 0.0) - 1e-6);
}

TEST(GameModelTest, ThresholdMatchesSupportLimit) {
  const auto game = standard_game();
  EXPECT_DOUBLE_EQ(game.attacker_threshold(),
                   game.curves().damage_support_limit());
}

TEST(GameModelTest, DiscretizedGameHasNoPureNe) {
  // Proposition 1 on analytic curves.
  const auto game = standard_game();
  const auto mg = game.discretize(64, 64);
  EXPECT_TRUE(game::find_pure_equilibria(mg).empty());
  EXPECT_GT(game::pure_strategy_gap(mg), 1e-4);
}

TEST(GameModelTest, AnalyzePureEquilibriaReport) {
  const auto report = analyze_pure_equilibria(standard_game(), 48);
  EXPECT_EQ(report.saddle_points, 0u);
  EXPECT_GT(report.gap, 0.0);
  EXPECT_NEAR(report.gap, report.minimax - report.maximin, 1e-12);
}

TEST(GameModelTest, BestResponseDynamicsNeverSettles) {
  // Pure best responses must keep moving (no fixed point): consecutive
  // states never repeat (theta_t+1 != theta_t) for a meaningful horizon.
  const auto game = standard_game();
  const auto trace = best_response_dynamics(game, 0.05, 10, 512);
  ASSERT_EQ(trace.size(), 10u);
  bool any_movement = false;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (std::abs(trace[i].defender_theta - trace[i - 1].defender_theta) >
        1e-6) {
      any_movement = true;
    }
  }
  EXPECT_TRUE(any_movement);
}

TEST(GameModelTest, ZeroBudgetRejected) {
  EXPECT_THROW(PoisoningGame(standard_curves(), 0), std::invalid_argument);
}

// ------------------------------------------------------------ equilibrium

TEST(Algorithm1Test, FindPercentagesClosedForm) {
  const auto curves = standard_curves();
  const std::vector<double> support{0.1, 0.3, 0.5};
  const auto prob = find_percentages(curves, support);
  ASSERT_EQ(prob.size(), 3u);
  // Probabilities form a distribution.
  double total = 0.0;
  for (double q : prob) {
    EXPECT_GE(q, -1e-12);
    total += q;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Closed form: Q_i = E(p_n)/E(p_i).
  const double e_last = curves.damage(0.5);
  EXPECT_NEAR(prob[0], e_last / curves.damage(0.1), 1e-9);
  EXPECT_NEAR(prob[0] + prob[1], e_last / curves.damage(0.3), 1e-9);
}

TEST(Algorithm1Test, FindPercentagesYieldsIndifference) {
  const auto curves = standard_curves();
  const std::vector<double> support{0.05, 0.2, 0.35, 0.5};
  const auto prob = find_percentages(curves, support);
  const defense::MixedDefenseStrategy strategy(support, prob);
  const PoisoningGame game(curves, 100);
  const auto report = check_indifference(game, strategy, 1e-6);
  EXPECT_TRUE(report.properly_mixed);
  EXPECT_TRUE(report.indifferent)
      << "spread " << report.relative_spread;
}

TEST(Algorithm1Test, FindPercentagesValidation) {
  const auto curves = standard_curves();
  EXPECT_THROW((void)find_percentages(curves, {}), std::invalid_argument);
  EXPECT_THROW((void)find_percentages(curves, {0.3, 0.1}),
               std::invalid_argument);
}

TEST(Algorithm1Test, ObjectiveMatchesManualComputation) {
  const auto curves = standard_curves();
  const PoisoningGame game(curves, 100);
  const std::vector<double> support{0.2, 0.4};
  const auto prob = find_percentages(curves, support);
  const double expected = 100 * curves.damage(0.4) +
                          prob[0] * curves.cost(0.2) +
                          prob[1] * curves.cost(0.4);
  EXPECT_NEAR(defender_objective(game, support), expected, 1e-12);
}

TEST(Algorithm1Test, InitialSupportSpansProfitableRegion) {
  const auto game = standard_game();
  const auto s = choose_initial_support(game, 4);
  ASSERT_EQ(s.size(), 4u);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_GT(s[i], s[i - 1]);
  EXPECT_LE(s.back(), game.curves().damage_support_limit() + 1e-12);
  EXPECT_GT(game.curves().damage(s.back()), 0.0);
}

TEST(Algorithm1Test, ConvergesAndImprovesOverInitialSupport) {
  const auto game = standard_game();
  Algorithm1Config cfg;
  cfg.support_size = 3;
  const auto sol = compute_optimal_defense(game, cfg);
  EXPECT_TRUE(sol.converged);
  ASSERT_GE(sol.trace.size(), 2u);
  EXPECT_LE(sol.defender_loss, sol.trace.front() + 1e-9);
  EXPECT_EQ(sol.strategy.support_size(), 3u);
}

TEST(Algorithm1Test, SolutionSatisfiesNeConditions) {
  const auto game = standard_game();
  Algorithm1Config cfg;
  cfg.support_size = 3;
  const auto sol = compute_optimal_defense(game, cfg);
  const auto report = check_indifference(game, sol.strategy, 1e-5);
  EXPECT_TRUE(report.properly_mixed);   // condition 1
  EXPECT_TRUE(report.indifferent);      // condition 2
}

TEST(Algorithm1Test, LossDecreasesWithSupportSize) {
  const auto game = standard_game();
  double prev = 1e300;
  for (std::size_t n : {1, 2, 3, 4}) {
    Algorithm1Config cfg;
    cfg.support_size = n;
    const auto sol = compute_optimal_defense(game, cfg);
    EXPECT_LE(sol.defender_loss, prev + 1e-6) << "n=" << n;
    prev = sol.defender_loss;
  }
}

TEST(Algorithm1Test, MixedBeatsBestPureStrategy) {
  // The paper's headline: the mixed equilibrium loss is lower than any
  // pure filter's worst-case loss. Pure theta loses
  // max(N*E(theta) [attack just inside], ...) + Gamma(theta); the optimal
  // attack against pure theta places just inside, so loss =
  // N*E(theta) + Gamma(theta).
  const auto game = standard_game();
  Algorithm1Config cfg;
  cfg.support_size = 3;
  const auto sol = compute_optimal_defense(game, cfg);

  double best_pure = 1e300;
  for (double theta = 0.0; theta <= 0.99; theta += 0.01) {
    const double loss = 100 * game.curves().damage(theta) +
                        game.curves().cost(theta);
    best_pure = std::min(best_pure, loss);
  }
  EXPECT_LT(sol.defender_loss, best_pure);
}

TEST(Algorithm1Test, AgreesWithLpOnDiscretizedGame) {
  // Cross-check the paper's algorithm against the exact LP equilibrium of
  // the discretized game: defender losses must match within discretization
  // error.
  const auto game = standard_game();
  Algorithm1Config cfg;
  cfg.support_size = 5;
  const auto sol = compute_optimal_defense(game, cfg);

  const auto mg = game.discretize(160, 160);
  const auto eq = game::solve_lp_equilibrium(mg);
  EXPECT_NEAR(sol.defender_loss, eq.value, 0.15 * std::abs(eq.value) + 5e-3);
}

TEST(Algorithm1Test, ExploitabilityNearZero) {
  const auto game = standard_game();
  Algorithm1Config cfg;
  cfg.support_size = 4;
  const auto sol = compute_optimal_defense(game, cfg);
  const auto exploit = attacker_exploitability(game, sol.strategy, 4096);
  // Deviation gain bounded by grid resolution on E * N.
  EXPECT_LT(exploit.gain, 0.02 * exploit.equilibrium_damage + 1e-4);
}

TEST(Algorithm1Test, ConfigValidation) {
  const auto game = standard_game();
  Algorithm1Config cfg;
  cfg.support_size = 0;
  EXPECT_THROW((void)compute_optimal_defense(game, cfg),
               std::invalid_argument);
  cfg.support_size = 1;
  cfg.epsilon = 0.0;
  EXPECT_THROW((void)compute_optimal_defense(game, cfg),
               std::invalid_argument);
}

// Algorithm 1 on the standard game at n = 2..5, captured as hex floats
// from the build whose gradient probes ran through runtime::parallel_for.
// The serial probe loop must reproduce every bit, with or without an
// executor passed in.
struct Algorithm1Bits {
  double defender_loss;
  std::size_t iterations;
  std::vector<double> support;
  std::vector<double> probabilities;
};

const Algorithm1Bits kStandardGameBits[] = {
    {0x1.b2423f9d5164ep-6, 2805,
     {0x1.851d518920293p-2, 0x1.fb3dca6e1a0f5p-2},
     {0x1.6e2c273f64f7ep-2, 0x1.48e9ec604d841p-1}},
    {0x1.9fa32f29ee3fdp-6, 2642,
     {0x1.28f636bbeff6ep-2, 0x1.ae15fe29e2091p-2, 0x1.f7505e33193e4p-2},
     {0x1.820b3588efdb3p-3, 0x1.5196217754728p-2, 0x1.ed6443c4339fep-2}},
    {0x1.94ef65c448ddp-6, 4189,
     {0x1.cc4a667966142p-3, 0x1.7592d40891525p-2, 0x1.c29151c8a13fcp-2,
      0x1.f71ac39d5c6cfp-2},
     {0x1.f236e4f091c3fp-4, 0x1.a97078a582f6p-3, 0x1.2858fcb830ddap-2,
      0x1.86610db8e9366p-2}},
    {0x1.8dfc4dcaeae9ep-6, 5000,
     {0x1.68ae86cad4891p-3, 0x1.4a6f14998cd97p-2, 0x1.999d09e900333p-2,
      0x1.cfaf733e60a68p-2, 0x1.f82de7d3e3644p-2},
     {0x1.6bdd9f6135f35p-4, 0x1.2e8bae3a651acp-3, 0x1.9415c3b478c7cp-3,
      0x1.03778743443a9p-2, 0x1.404057ecff576p-2}}};

TEST(Algorithm1Test, SerialProbesMatchParentBitForBit) {
  const auto game = standard_game();
  const auto exec = sim::make_executor(4);
  for (runtime::Executor* executor : {static_cast<runtime::Executor*>(nullptr),
                                      exec.get()}) {
    const char* what = executor == nullptr ? "no executor" : "width 4";
    for (std::size_t n = 2; n <= 5; ++n) {
      const Algorithm1Bits& want = kStandardGameBits[n - 2];
      Algorithm1Config cfg;
      cfg.support_size = n;
      const auto sol = compute_optimal_defense(game, cfg, executor);
      EXPECT_EQ(sol.defender_loss, want.defender_loss) << what << ", n=" << n;
      EXPECT_EQ(sol.iterations, want.iterations) << what << ", n=" << n;
      const auto& support = sol.strategy.removal_fractions();
      const auto& prob = sol.strategy.probabilities();
      ASSERT_EQ(support.size(), n) << what;
      ASSERT_EQ(prob.size(), n) << what;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(support[i], want.support[i])
            << what << ", n=" << n << ", point " << i;
        EXPECT_EQ(prob[i], want.probabilities[i])
            << what << ", n=" << n << ", point " << i;
      }
    }
  }
}

// ---------------------------------------------------------- ne_properties

TEST(NePropertiesTest, IndifferenceDetectsViolation) {
  const auto game = standard_game();
  // Uniform probabilities over a wide support violate indifference.
  const defense::MixedDefenseStrategy bad({0.05, 0.5}, {0.5, 0.5});
  const auto report = check_indifference(game, bad, 1e-6);
  EXPECT_TRUE(report.properly_mixed);
  EXPECT_FALSE(report.indifferent);
  EXPECT_GT(report.relative_spread, 0.1);
}

TEST(NePropertiesTest, PureStrategyFailsCondition1) {
  const auto game = standard_game();
  const auto report =
      check_indifference(game, defense::MixedDefenseStrategy::pure(0.2));
  EXPECT_FALSE(report.properly_mixed);
}

TEST(NePropertiesTest, ExploitabilityOfPureDefenseIsLarge) {
  const auto game = standard_game();
  // Pure strategy at 0.4: attacker deviates to just inside 0.4 and takes
  // E(0.4) with certainty; against placements > 0.4 nothing changes. The
  // deviation target is placing at 0.4 exactly (survives, max E).
  const auto exploit = attacker_exploitability(
      game, defense::MixedDefenseStrategy::pure(0.4));
  // equilibrium_damage for the degenerate "mixture" equals the deviation
  // optimum here, so instead check a genuinely bad mixture:
  const defense::MixedDefenseStrategy lopsided({0.05, 0.5}, {0.5, 0.5});
  const auto exploit2 = attacker_exploitability(game, lopsided);
  EXPECT_GT(exploit2.gain, 0.0);
  (void)exploit;
}

// Property sweep: for many analytic curve families, Algorithm 1 must
// satisfy both NE conditions and beat the best pure strategy.
struct CurveFamily {
  double e0;
  double epow;
  double g0;
  double gpow;
};

class Algorithm1Property : public ::testing::TestWithParam<CurveFamily> {};

TEST_P(Algorithm1Property, SolutionIsEquilibriumLike) {
  const auto& f = GetParam();
  const auto curves = PayoffCurves::analytic(f.e0, f.epow, f.g0, f.gpow);
  const PoisoningGame game(curves, 100);
  Algorithm1Config cfg;
  cfg.support_size = 3;
  const auto sol = compute_optimal_defense(game, cfg);

  const auto indiff = check_indifference(game, sol.strategy, 1e-4);
  EXPECT_TRUE(indiff.properly_mixed);
  EXPECT_TRUE(indiff.indifferent) << "spread " << indiff.relative_spread;

  double best_pure = 1e300;
  for (double theta = 0.0; theta <= 0.99; theta += 0.005) {
    best_pure = std::min(best_pure, 100 * curves.damage(theta) +
                                        curves.cost(theta));
  }
  EXPECT_LE(sol.defender_loss, best_pure + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    CurveFamilies, Algorithm1Property,
    ::testing::Values(CurveFamily{0.002, 5.0, 0.06, 1.4},
                      CurveFamily{0.001, 3.0, 0.02, 1.0},
                      CurveFamily{0.005, 8.0, 0.10, 2.0},
                      CurveFamily{0.0005, 2.0, 0.01, 1.2},
                      CurveFamily{0.003, 6.0, 0.20, 3.0}));

}  // namespace
}  // namespace pg::core
