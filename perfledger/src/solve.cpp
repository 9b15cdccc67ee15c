// solve: the game and core layers only. Set-up fits payoff curves from a
// pure sweep; each timed pass then solves the paper game (three analytic
// curve families plus the fitted curves) with Algorithm 1 at every
// support size and, discretized at each solver grid, with the LP,
// fictitious play and multiplicative weights; seeded random games go
// through the LP. Every call is on this thread, so spans around the
// calls cover the pass without a probe.
#include <array>
#include <cmath>
#include <memory>
#include <utility>

#include "core/equilibrium.h"
#include "core/game_model.h"
#include "core/payoff.h"
#include "game/best_response.h"
#include "game/solvers.h"
#include "la/matrix.h"
#include "ledger.h"
#include "runtime/executor.h"
#include "sim/curve_fit.h"
#include "sim/experiment.h"
#include "sim/pure_sweep.h"
#include "util/rng.h"

namespace ledger {

namespace {

/// The solver grids every curve family is discretized at.
constexpr std::array<std::size_t, 2> kSolverGrids{128, 256};

/// LP exploitability above this fails the pass.
constexpr double kLpTolerance = 1e-9;

struct Games {
  std::vector<std::pair<std::string, pg::core::PoisoningGame>> paper;
  std::vector<std::pair<std::string, pg::game::MatrixGame>> random;
};

Games build_games(const pg::scenario::ScenarioSpec& spec,
                  pg::runtime::Executor& exec, Spans& spans) {
  pg::sim::ExperimentConfig cfg;
  cfg.seed = spec.seed;
  cfg.corpus.n_instances = spec.instances;
  cfg.svm.epochs = spec.epochs;
  cfg.try_real_corpus = spec.real_corpus;
  pg::sim::ExperimentContext ctx;
  {
    const Spans::Scope s = spans.span("sim.prepare_experiment");
    ctx = pg::sim::prepare_experiment(cfg);
  }
  pg::sim::PureSweepResult sweep;
  {
    const Spans::Scope s = spans.span("sim.run_pure_sweep");
    sweep = pg::sim::run_pure_sweep(
        ctx, pg::sim::sweep_grid(spec.sweep_max, spec.sweep_steps),
        spec.replications, &exec);
  }
  Games games;
  // The analytic families of the pure_ne scenario, at its budget of 100.
  const auto analytic = [](double e0, double ep, double g0, double gp) {
    return pg::core::PoisoningGame(
        pg::core::PayoffCurves::analytic(e0, ep, g0, gp), 100);
  };
  games.paper.emplace_back("analytic_p5", analytic(0.002, 5.0, 0.06, 1.4));
  games.paper.emplace_back("analytic_p3", analytic(0.001, 3.0, 0.02, 1.0));
  games.paper.emplace_back("analytic_p8", analytic(0.005, 8.0, 0.10, 2.0));
  {
    const Spans::Scope s = spans.span("sim.fit_payoff_curves");
    games.paper.emplace_back(
        "fitted", pg::core::PoisoningGame(pg::sim::fit_payoff_curves(sweep),
                                          ctx.poison_budget));
  }
  for (const std::size_t size :
       pg::scenario::parse_size_list(spec.lp_sizes)) {
    pg::util::Rng rng(spec.seed * 1000003ULL + size);
    pg::la::Matrix a(size, size);
    for (std::size_t i = 0; i < size; ++i) {
      for (std::size_t j = 0; j < size; ++j) a(i, j) = rng.uniform(-5.0, 5.0);
    }
    games.random.emplace_back("random_" + std::to_string(size),
                              pg::game::MatrixGame(std::move(a)));
  }
  return games;
}

struct PassCounts {
  std::size_t alg1_iterations = 0;
  double max_exploitability = 0.0;
};

PassCounts solve_pass(const pg::scenario::ScenarioSpec& spec,
                      const Games& games, pg::runtime::Executor& exec,
                      Spans& spans, Ops& ops) {
  PassCounts counts;
  const Spans::Scope root = spans.span("bench.pass");
  const auto exploit = [&](const pg::game::MatrixGame& mg,
                           const pg::game::Equilibrium& eq) {
    const Spans::Scope s = spans.span("game.exploitability");
    const double e =
        pg::game::exploitability(mg, eq.row_strategy, eq.col_strategy);
    counts.max_exploitability = std::max(counts.max_exploitability, e);
    return e;
  };
  const pg::game::IterativeConfig iterative{.iterations =
                                                spec.solver_iterations};
  for (const auto& [name, game] : games.paper) {
    for (std::size_t n = spec.support_min; n <= spec.support_max; ++n) {
      pg::core::Algorithm1Config acfg;
      acfg.support_size = n;
      const pg::core::DefenseSolution sol = [&] {
        const Spans::Scope s = spans.span("core.compute_optimal_defense");
        return pg::core::compute_optimal_defense(game, acfg, &exec);
      }();
      counts.alg1_iterations += sol.iterations;
      ops.record(std::isfinite(sol.defender_loss) &&
                     sol.strategy.support_size() >= 1,
                 name + " alg1 n=" + std::to_string(n) + ": no solution");
    }
    for (const std::size_t grid : kSolverGrids) {
      const std::string where = name + "@" + std::to_string(grid);
      pg::game::MatrixGame mg = [&] {
        const Spans::Scope s = spans.span("game.discretize");
        return game.discretize(grid, grid, &exec);
      }();
      pg::game::Equilibrium lp;
      {
        const Spans::Scope s = spans.span("game.lp");
        lp = pg::game::solve_lp_equilibrium(mg, &exec);
      }
      const double lp_e = exploit(mg, lp);
      ops.record(lp_e <= kLpTolerance,
                 where + " LP exploitability " + std::to_string(lp_e));
      pg::game::Equilibrium fp;
      {
        const Spans::Scope s = spans.span("game.fp");
        fp = pg::game::solve_fictitious_play(mg, iterative, &exec);
      }
      const double fp_e = exploit(mg, fp);
      ops.record(std::abs(fp.value - lp.value) <= fp_e + lp_e,
                 where + " FP value off the LP value by more than its "
                         "exploitability");
      pg::game::Equilibrium mw;
      {
        const Spans::Scope s = spans.span("game.mw");
        mw = pg::game::solve_multiplicative_weights(mg, iterative, &exec);
      }
      const double mw_e = exploit(mg, mw);
      ops.record(std::abs(mw.value - lp.value) <= mw_e + lp_e,
                 where + " MW value off the LP value by more than its "
                         "exploitability");
    }
  }
  for (const auto& [name, mg] : games.random) {
    pg::game::Equilibrium lp;
    {
      const Spans::Scope s = spans.span("game.lp");
      lp = pg::game::solve_lp_equilibrium(mg, &exec);
    }
    const double lp_e = exploit(mg, lp);
    ops.record(lp_e <= kLpTolerance,
               name + " LP exploitability " + std::to_string(lp_e));
  }
  return counts;
}

}  // namespace

WorkloadResult run_solve(const Options& options, Spans& spans) {
  WorkloadResult out;
  const pg::scenario::ScenarioSpec spec =
      load_spec(options, "solve.spec", options.seed);
  out.spec_text = spec.to_text();

  std::unique_ptr<pg::runtime::Executor> exec;
  Games games;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    const Spans::Scope s = spans.span("bench.setup");
    exec.reset();
    exec = pg::sim::make_executor(spec.threads);
    games = build_games(spec, *exec, spans);
    out.setup_s.push_back(seconds_since(start));
  }

  const bool traced = spans.enabled();
  spans.set_enabled(false);
  const double budget = traced ? options.seconds / 2.0 : options.seconds;
  const Clock::time_point timed = Clock::now();
  do {
    const Clock::time_point start = Clock::now();
    (void)solve_pass(spec, games, *exec, spans, out.ops);
    out.wall_s.push_back(seconds_since(start));
  } while (seconds_since(timed) < budget);
  if (!traced) return out;

  // ---- traced run: two passes under spans ---------------------------
  spans.set_enabled(true);
  std::vector<double> traced_wall;
  std::vector<double> unattributed;
  std::vector<PassCounts> counts;
  std::vector<double> pivots;
  auto& layers = out.layers;
  for (int k = 0; k < 2; ++k) {
    spans.set_pass(k);
    ObsWindow obs;
    const Clock::time_point start = Clock::now();
    counts.push_back(solve_pass(spec, games, *exec, spans, out.ops));
    traced_wall.push_back(seconds_since(start));
    obs.stop();
    spans.set_pass(-1);
    const Layer lp_pivots = obs.count("obs.lp.pivots");
    pivots.push_back(lp_pivots.value);
    if (k == 0) {
      layers["game.lp_pivots"] = lp_pivots;
      layers["runtime.exec_dispatch"] = obs.count("obs.exec.dispatch");
      layers["runtime.pool_tasks_stolen"] = obs.count("obs.pool.tasks_stolen");
      layers["runtime.team_generations"] = obs.count("obs.team.generations");
      layers["runtime.coalesced"] = obs.count("obs.cache.coalesced");
    }
    const std::vector<double> self = spans.self_ms();
    for (std::size_t i = 0; i < self.size(); ++i) {
      const Spans::Record& r = spans.records()[i];
      if (r.pass == k && r.name == "bench.pass") unattributed.push_back(self[i]);
    }
  }
  out.ops.record(counts[0].alg1_iterations == counts[1].alg1_iterations &&
                     pivots[0] == pivots[1],
                 "work counts differ between the two traced passes "
                 "(alg1 iterations, LP pivots)");
  layers["core.alg1_iterations"] = {double(counts[0].alg1_iterations), "",
                                    false};
  layers["game.max_exploitability"] = {counts[0].max_exploitability, "",
                                       false};
  layers["bench.unattributed_ms"] = median_layer(unattributed, "no pass");
  layers["bench.trace_overhead_ratio"] = {
      median(traced_wall) / median(out.wall_s), "", false};
  for (const char* name :
       {"core.compute_optimal_defense", "game.discretize", "game.lp",
        "game.fp", "game.mw"}) {
    layers[std::string(name) + "_ms"] =
        median_layer(spans.durations(name, 0, 1), "no traced pass");
  }
  // Set-up spans: the curve-fitting sweep that set-up pays for.
  for (const char* name : {"sim.prepare_experiment", "sim.run_pure_sweep"}) {
    layers[std::string(name) + "_ms"] =
        median_layer(spans.durations(name, -1, -1), "no set-up span");
  }
  return out;
}

}  // namespace ledger
