// Cross-dataset generalization of the payoff curves (the paper's stated
// future work: "It is possible that a generalized E(p) and Gamma(p) exists
// across all datasets").
//
// Protocol: fit E/Gamma and solve Algorithm 1 on a SOURCE corpus, then
// evaluate the resulting mixed strategy on a TARGET corpus (different
// seed and optionally different separability), comparing against the
// strategy solved natively on the target. Because both strategies are
// distributions over *removal fractions* -- a scale-free parametrization
// -- transfer is well-defined even when the raw feature scales differ.
#pragma once

#include "core/equilibrium.h"
#include "sim/curve_fit.h"
#include "sim/experiment.h"
#include "sim/mixed_eval.h"
#include "sim/pure_sweep.h"

namespace pg::sim {

struct TransferResult {
  defense::MixedDefenseStrategy source_strategy;  // solved on source
  defense::MixedDefenseStrategy native_strategy;  // solved on target
  double transferred_accuracy = 0.0;  // source strategy on target testbed
  double native_accuracy = 0.0;       // native strategy on target testbed
  /// transferred - native: ~0 means the curves generalize (the paper's
  /// conjecture); strongly negative means they are dataset-specific.
  double transfer_gap = 0.0;
};

struct TransferConfig {
  std::vector<double> sweep_fractions = {0.0,  0.05, 0.10, 0.15, 0.20,
                                         0.25, 0.30, 0.35, 0.40};
  std::size_t sweep_replications = 1;
  std::size_t support_size = 3;
  MixedEvalConfig eval{};
};

/// Run the full transfer protocol. Both contexts must be prepared.
/// `executor` (null -> serial) parallelizes the two solve sweeps and both
/// target evaluations; the evaluations share one payoff cache, so support
/// points common to the transferred and native strategies retrain once.
///
/// The trailing parameters exist for the scenario engine's disk-backed
/// caching: `target_evaluator` replaces the internally-built evaluator for
/// the two target evaluations (bring your own cache and counters), the two
/// sweep caches memoize the source/native solve sweeps (each keyed by its
/// own context fingerprint), and `sweep_stats` accumulates their retrain
/// traffic. All default to the uncached legacy behavior, with values
/// bit-identical either way.
[[nodiscard]] TransferResult run_transfer_experiment(
    const ExperimentContext& source, const ExperimentContext& target,
    const TransferConfig& config = {}, runtime::Executor* executor = nullptr,
    const runtime::PayoffEvaluator* target_evaluator = nullptr,
    runtime::PayoffCache* source_sweep_cache = nullptr,
    runtime::PayoffCache* target_sweep_cache = nullptr,
    PureSweepStats* sweep_stats = nullptr);

}  // namespace pg::sim
