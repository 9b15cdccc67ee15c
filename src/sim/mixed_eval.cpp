#include "sim/mixed_eval.h"

#include <algorithm>

#include "attack/boundary_attack.h"
#include "defense/distance_filter.h"
#include "defense/pipeline.h"
#include "runtime/rng_stream.h"
#include "util/error.h"
#include "util/logging.h"

namespace pg::sim {

namespace {

/// One sanitize-and-retrain pipeline run; the unit of parallel work and
/// of memoization. `placement < 0` encodes the no-attack arm (no
/// placement knob exists there, and a negative value cannot collide with
/// a real placement in [0, 1]).
struct EvalCell {
  double placement = -1.0;
  double fraction = 0.0;
  std::size_t rep = 0;
};

std::uint64_t cell_key(std::uint64_t fingerprint, const EvalCell& cell) {
  return runtime::ContentKey()
      .mix(fingerprint)
      .mix(cell.placement)
      .mix(cell.fraction)
      .mix(static_cast<std::uint64_t>(cell.rep))
      .digest();
}

double run_cell(const ExperimentContext& ctx, const defense::Pipeline& pipeline,
                const runtime::RngStreamFactory& streams,
                std::uint64_t key, const EvalCell& cell) {
  defense::DistanceFilterConfig fcfg;
  fcfg.removal_fraction = cell.fraction;
  fcfg.centroid = ctx.config.centroid;
  const defense::DistanceFilter filter(fcfg);
  const defense::Filter* filter_ptr = (cell.fraction > 0.0) ? &filter : nullptr;

  // The cell's randomness is a pure function of its content key: same
  // cell -> same stream, whether it runs first, last, or from the cache.
  util::Rng rng = streams.stream(key);

  if (cell.placement < 0.0) {
    return pipeline.run(ctx.train, ctx.test, nullptr, 0, filter_ptr, rng)
        .test_accuracy;
  }

  attack::BoundaryAttackConfig acfg;
  acfg.placement_fraction = cell.placement;
  // Against a MIXED defense the optimal attack places exactly at a
  // support boundary (section 4.2): a deeper slide changes the set of
  // draws survived, which is precisely what the indifference condition
  // already prices. Depth search is the best response to a KNOWN pure
  // filter and belongs to the Fig.-1 sweep only.
  acfg.depth_offsets.clear();
  const attack::BoundaryAttack attack(acfg);
  return pipeline
      .run(ctx.train, ctx.test, &attack, ctx.poison_budget, filter_ptr, rng)
      .test_accuracy;
}

}  // namespace

MixedEvalResult evaluate_mixed_defense(
    const ExperimentContext& ctx,
    const defense::MixedDefenseStrategy& strategy,
    const MixedEvalConfig& config,
    const runtime::PayoffEvaluator& evaluator) {
  PG_CHECK(config.draws >= 1, "draws must be >= 1");

  std::vector<double> placements = config.extra_placements;
  if (config.include_support_placements) {
    for (double p : strategy.removal_fractions()) placements.push_back(p);
  }
  PG_CHECK(!placements.empty(), "no attacker placements to evaluate");
  std::sort(placements.begin(), placements.end());
  placements.erase(std::unique(placements.begin(), placements.end()),
                   placements.end());

  const defense::Pipeline pipeline({ctx.config.svm});
  MixedEvalResult result;
  result.attacker_placements = placements;

  // Expected accuracy = average over the defender's mixture. Rather than
  // Monte-Carlo over the mixture we enumerate the support (it is small and
  // the probabilities are exact); `draws` controls replication per cell
  // to average out SGD noise.
  const auto& fractions = strategy.removal_fractions();
  const auto& probs = strategy.probabilities();

  // Flatten every pipeline run -- attacked arm cells ordered by
  // (placement, support point, replication), then the no-attack arm by
  // (support point, replication) -- and hand the whole batch to the
  // evaluator at once, so even a single placement saturates the pool.
  std::vector<EvalCell> cells;
  for (double placement : placements) {
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      if (probs[i] <= 0.0) continue;
      for (std::size_t rep = 0; rep < config.draws; ++rep) {
        cells.push_back({placement, fractions[i], rep});
      }
    }
  }
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    if (probs[i] <= 0.0) continue;
    for (std::size_t rep = 0; rep < config.draws; ++rep) {
      cells.push_back({-1.0, fractions[i], rep});
    }
  }

  const std::uint64_t fingerprint = context_fingerprint(ctx);
  const runtime::RngStreamFactory streams(ctx.config.seed);
  const auto key_fn = [&](std::size_t c) {
    return cell_key(fingerprint, cells[c]);
  };
  const std::vector<double> accuracies = evaluator.evaluate_cells(
      cells.size(),
      [&](std::size_t c) {
        return run_cell(ctx, pipeline, streams, key_fn(c), cells[c]);
      },
      key_fn);

  // Deterministic reduction: walk the cells in the order they were laid
  // out, independent of how (or whether) they were computed.
  const auto draws = static_cast<double>(config.draws);
  std::size_t cursor = 0;
  for (double placement : placements) {
    double expected = 0.0;
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      if (probs[i] <= 0.0) continue;
      double acc = 0.0;
      for (std::size_t rep = 0; rep < config.draws; ++rep) {
        acc += accuracies[cursor++];
      }
      expected += probs[i] * acc / draws;
    }
    result.accuracy_by_placement.push_back(expected);
    util::log_info() << "mixed eval placement=" << placement
                     << " expected acc=" << expected;
  }

  result.adversarial_accuracy =
      *std::min_element(result.accuracy_by_placement.begin(),
                        result.accuracy_by_placement.end());

  // No-attack arm: expected Gamma cost of the mixture.
  double no_attack = 0.0;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    if (probs[i] <= 0.0) continue;
    double acc = 0.0;
    for (std::size_t rep = 0; rep < config.draws; ++rep) {
      acc += accuracies[cursor++];
    }
    no_attack += probs[i] * acc / draws;
  }
  result.no_attack_accuracy = no_attack;
  PG_ASSERT(cursor == accuracies.size(), "mixed eval cell walk out of sync");
  return result;
}

MixedEvalResult evaluate_mixed_defense(
    const ExperimentContext& ctx,
    const defense::MixedDefenseStrategy& strategy,
    const MixedEvalConfig& config, runtime::Executor* executor) {
  const runtime::PayoffEvaluator evaluator(
      runtime::executor_or_serial(executor));
  return evaluate_mixed_defense(ctx, strategy, config, evaluator);
}

PureBenchmark best_pure_defense(const PureSweepResult& sweep) {
  PG_CHECK(!sweep.points.empty(), "best_pure_defense: empty sweep");
  PureBenchmark best{0.0, -1.0};
  for (const auto& pt : sweep.points) {
    if (pt.accuracy_attacked > best.best_accuracy) {
      best = {pt.removal_fraction, pt.accuracy_attacked};
    }
  }
  return best;
}

}  // namespace pg::sim
