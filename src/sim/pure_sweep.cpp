#include "sim/pure_sweep.h"

#include <atomic>
#include <cstdint>

#include "attack/boundary_attack.h"
#include "defense/distance_filter.h"
#include "defense/pipeline.h"
#include "obs/trace.h"
#include "runtime/rng_stream.h"
#include "util/error.h"
#include "util/logging.h"

namespace pg::sim {

std::vector<double> sweep_grid(double max_fraction, std::size_t steps) {
  PG_CHECK(max_fraction > 0.0 && max_fraction < 1.0,
           "max_fraction must be in (0, 1)");
  PG_CHECK(steps >= 2, "steps must be >= 2");
  std::vector<double> grid(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    grid[i] =
        max_fraction * static_cast<double>(i) / static_cast<double>(steps - 1);
  }
  return grid;
}

namespace {

/// Per-(grid point, replication) measurements, filled cell-parallel.
struct SweepCell {
  double accuracy_no_attack = 0.0;
  double accuracy_attacked = 0.0;
  double poison_survived = 0.0;
};

/// Distinguishes pure-sweep cache keys from every other key family that
/// shares a PayoffCache (mixed-eval cells mix a different word sequence).
constexpr std::uint64_t kSweepKeyTag = 0x50555245'53575045ULL;  // "PURESWPE"

/// Key base covering everything a cell's three measurements depend on:
/// the context, the filter strength, the grid index (the RNG stream is
/// keyed by index, so the same fraction at a different grid position is a
/// different cell), and the replication. The three measurements get
/// sub-keys 0/1/2 off this base.
runtime::ContentKey sweep_cell_key(std::uint64_t fingerprint, double fraction,
                                   std::size_t gi, std::size_t rep) {
  runtime::ContentKey key;
  key.mix(kSweepKeyTag)
      .mix(fingerprint)
      .mix(fraction)
      .mix(static_cast<std::uint64_t>(gi))
      .mix(static_cast<std::uint64_t>(rep));
  return key;
}

std::uint64_t subkey(runtime::ContentKey base, std::uint64_t arm) {
  return base.mix(arm).digest();
}

/// Releases a single-flight claim if the owning cell throws before it can
/// publish, so waiters are promoted instead of sleeping forever.
struct AbandonGuard {
  runtime::PayoffCache* cache = nullptr;
  std::uint64_t key = 0;
  bool active = false;
  ~AbandonGuard() {
    if (active && cache != nullptr) cache->abandon(key);
  }
};

/// Serial reduction in a fixed order, so the floating-point sums are
/// identical no matter how the cells were scheduled.
void reduce_points(const std::vector<double>& grid, std::size_t replications,
                   const std::vector<SweepCell>& out,
                   PureSweepResult& result) {
  const auto reps = static_cast<double>(replications);
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    PureSweepPoint point;
    point.removal_fraction = grid[gi];
    for (std::size_t rep = 0; rep < replications; ++rep) {
      const SweepCell& cell = out[gi * replications + rep];
      point.accuracy_no_attack += cell.accuracy_no_attack;
      point.accuracy_attacked += cell.accuracy_attacked;
      point.poison_survived_fraction += cell.poison_survived;
    }
    point.accuracy_no_attack /= reps;
    point.accuracy_attacked /= reps;
    point.poison_survived_fraction /= reps;
    result.points.push_back(point);
    util::log_info() << "sweep p=" << point.removal_fraction
                     << " clean=" << point.accuracy_no_attack
                     << " attacked=" << point.accuracy_attacked;
  }
}

}  // namespace

PureSweepResult run_pure_sweep(const ExperimentContext& ctx,
                               const std::vector<double>& grid,
                               std::size_t replications,
                               runtime::Executor* executor,
                               runtime::PayoffCache* cache,
                               PureSweepStats* stats) {
  PG_CHECK(!grid.empty(), "run_pure_sweep: empty grid");
  PG_CHECK(replications >= 1, "replications must be >= 1");

  const defense::Pipeline pipeline({ctx.config.svm});
  PureSweepResult result;
  result.clean_accuracy = ctx.clean_accuracy;
  result.poison_budget = ctx.poison_budget;

  const std::uint64_t fingerprint =
      cache != nullptr ? context_fingerprint(ctx) : 0;
  std::atomic<std::size_t> retrained{0};
  std::atomic<std::size_t> hits{0};

  // One retrain task per (grid point, replication) cell. Every cell draws
  // its randomness from a stream keyed by its own id, so results do not
  // depend on which thread runs which cell, or in what order -- and a
  // cached cell is by definition the value the cell would recompute.
  // Nested dispatch: cells are retrain-priced, so they fan out to the
  // shared pool even when this sweep is itself one point of a
  // point-parallel grid.
  const runtime::RngStreamFactory streams(ctx.config.seed);
  const std::size_t cells = grid.size() * replications;
  std::vector<SweepCell> out(cells);
  runtime::parallel_for_nested(executor, 0, cells, 1, [&](std::size_t c) {
    obs::Span span("sweep_cell", "payoff");
    const std::size_t gi = c / replications;
    const std::size_t rep = c % replications;
    const double p = grid[gi];

    const runtime::ContentKey base =
        cache != nullptr ? sweep_cell_key(fingerprint, p, gi, rep)
                         : runtime::ContentKey();
    // Single-flight on sub-key 0: the owner publishes it LAST (after
    // storing 1 and 2), so a hit on 0 implies the siblings are present --
    // concurrent cells coalesce onto one retrain instead of racing.
    bool owner = false;
    if (cache != nullptr) {
      const runtime::PayoffCache::Claim claim =
          cache->claim(subkey(base, 0), out[c].accuracy_no_attack);
      if (claim != runtime::PayoffCache::Claim::kOwner) {
        if (cache->lookup(subkey(base, 1), out[c].accuracy_attacked) &&
            cache->lookup(subkey(base, 2), out[c].poison_survived)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        // Sibling sub-keys missing (a pre-single-flight disk snapshot
        // stored 0 first and died mid-cell): recompute below and store
        // the missing arms; 0 is already published, so no flight state.
      } else {
        owner = true;
      }
    }
    AbandonGuard guard{cache, owner ? subkey(base, 0) : 0, owner};

    util::Rng rng = streams.stream(gi, rep);

    defense::DistanceFilterConfig fcfg;
    fcfg.removal_fraction = p;
    fcfg.centroid = ctx.config.centroid;
    const defense::DistanceFilter filter(fcfg);
    const defense::Filter* filter_ptr = (p > 0.0) ? &filter : nullptr;

    // No-attack arm: Gamma measurement.
    util::Rng rng_clean = rng.fork(1);
    out[c].accuracy_no_attack =
        pipeline.run(ctx.train, ctx.test, nullptr, 0, filter_ptr, rng_clean)
            .test_accuracy;

    // Attacked arm: the optimal pure attack against a known filter p.
    attack::BoundaryAttackConfig acfg;
    acfg.placement_fraction = p;
    const attack::BoundaryAttack attack(acfg);
    util::Rng rng_attack = rng.fork(2);
    const auto res = pipeline.run(ctx.train, ctx.test, &attack,
                                  ctx.poison_budget, filter_ptr, rng_attack);
    out[c].accuracy_attacked = res.test_accuracy;
    out[c].poison_survived = 1.0 - res.detection.recall;

    retrained.fetch_add(1, std::memory_order_relaxed);
    if (cache != nullptr) {
      cache->store(subkey(base, 1), out[c].accuracy_attacked);
      cache->store(subkey(base, 2), out[c].poison_survived);
      if (owner) {
        guard.active = false;
        cache->publish(subkey(base, 0), out[c].accuracy_no_attack);
      }
    }
  });

  if (stats != nullptr) {
    stats->cells_total += cells;
    stats->cells_retrained += retrained.load();
    stats->cache_hits += hits.load();
  }

  reduce_points(grid, replications, out, result);
  return result;
}

}  // namespace pg::sim
