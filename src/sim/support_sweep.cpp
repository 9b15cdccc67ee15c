#include "sim/support_sweep.h"

#include "runtime/payoff_evaluator.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace pg::sim {

std::vector<SupportSweepRow> run_support_sweep(
    const ExperimentContext& ctx, const core::PoisoningGame& game,
    std::size_t max_n, const core::Algorithm1Config& base_config,
    const MixedEvalConfig& eval, runtime::Executor* executor,
    const runtime::PayoffEvaluator* evaluator) {
  PG_CHECK(max_n >= 1, "max_n must be >= 1");

  runtime::PayoffCache local_cache;
  const runtime::PayoffEvaluator local_evaluator(
      runtime::executor_or_serial(executor), &local_cache);
  const runtime::PayoffEvaluator& eval_through =
      evaluator != nullptr ? *evaluator : local_evaluator;

  std::vector<SupportSweepRow> rows;
  for (std::size_t n = 1; n <= max_n; ++n) {
    core::Algorithm1Config cfg = base_config;
    cfg.support_size = n;

    util::Stopwatch watch;
    const core::DefenseSolution sol =
        core::compute_optimal_defense(game, cfg);
    const double seconds = watch.elapsed_seconds();

    const MixedEvalResult ev =
        evaluate_mixed_defense(ctx, sol.strategy, eval, eval_through);
    rows.push_back({n, sol.strategy, sol.defender_loss,
                    ev.adversarial_accuracy, seconds, sol.iterations});
  }
  return rows;
}

}  // namespace pg::sim
