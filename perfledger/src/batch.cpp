// paper_cold and sanitize: one scenario spec per pass, run cold into a
// fresh disk-cache directory and then again warm from that directory.
//
// The traced run adds a serial probe, because the cell-level layers run
// on executor threads that spans around the pass cannot reach: it calls
// each attack's generate, each filter's apply, Pipeline::prepare,
// SvmTrainer::train and Pipeline::finish once per grid point (paper_cold)
// or per (attack, filter) cell (sanitize), on the workload's own corpus.
// paper_cold's probe also runs the mixed_table steps one sim/core entry
// point at a time. Per-layer values scaled up by cells_retrained are
// marked as computed.
#include <filesystem>
#include <memory>
#include <utility>

#include "attack/boundary_attack.h"
#include "attack/label_flip.h"
#include "attack/noise_attack.h"
#include "core/equilibrium.h"
#include "core/game_model.h"
#include "data/dataset.h"
#include "defense/distance_filter.h"
#include "defense/knn_filter.h"
#include "defense/pca_filter.h"
#include "defense/pipeline.h"
#include "defense/roni.h"
#include "ledger.h"
#include "ml/svm.h"
#include "runtime/executor.h"
#include "runtime/payoff_evaluator.h"
#include "scenario/cache_bundle.h"
#include "scenario/engine.h"
#include "sim/curve_fit.h"
#include "sim/experiment.h"
#include "sim/mixed_eval.h"
#include "sim/pure_sweep.h"
#include "util/rng.h"

namespace ledger {

namespace {

using pg::scenario::EngineContext;
using pg::scenario::ScenarioResult;
using pg::scenario::ScenarioSpec;
using pg::scenario::ShardStore;

constexpr int kProbePass = 1000;

/// Seed step between the untraced passes of one run.
constexpr std::uint64_t kPassSeedStride = 1000003;

struct Pass {
  ScenarioResult cold;
  ScenarioResult warm;
  double cold_s = 0.0;
  double warm_s = 0.0;
  std::size_t entries_saved = 0;
};

/// The spec cold into a fresh cache dir (run, then spill to disk), then
/// warm from that dir through a new store.
Pass run_pass(const ScenarioSpec& spec, pg::runtime::Executor& exec,
              const std::string& dir, Spans& spans) {
  std::filesystem::remove_all(dir);
  Pass pass;
  Clock::time_point start = Clock::now();
  {
    const Spans::Scope root = spans.span("bench.cold");
    ShardStore store(true, dir, 0);
    EngineContext context{&exec, &store};
    {
      const Spans::Scope s = spans.span("scenario.run_scenario");
      pass.cold = pg::scenario::run_scenario(spec, context);
    }
    const Spans::Scope s = spans.span("scenario.cache_spill");
    pass.entries_saved = store.spill().entries_saved;
  }
  pass.cold_s = seconds_since(start);
  start = Clock::now();
  {
    const Spans::Scope root = spans.span("bench.warm");
    ShardStore store(true, dir, 0);
    EngineContext context{&exec, &store};
    const Spans::Scope s = spans.span("scenario.run_scenario");
    pass.warm = pg::scenario::run_scenario(spec, context);
  }
  pass.warm_s = seconds_since(start);
  return pass;
}

pg::sim::ExperimentConfig experiment_config(const ScenarioSpec& spec) {
  pg::sim::ExperimentConfig cfg;
  cfg.seed = spec.seed;
  cfg.corpus.n_instances = spec.instances;
  cfg.corpus.class_separation = spec.class_separation;
  cfg.svm.epochs = spec.epochs;
  cfg.train_fraction = spec.train_fraction;
  cfg.poison_fraction = spec.poison_fraction;
  cfg.try_real_corpus = spec.real_corpus;
  return cfg;
}

/// What the probe saw, beyond its spans.
struct Probe {
  double train_rows = 0.0;  // summed over probe trainings
  double trainings = 0.0;
  double removed = 0.0;     // rows removed by probe filter applies
  double filtered = 0.0;    // rows those applies were given
};

/// One cell's chain of public calls, each under its layer's span.
void probe_cell(const pg::sim::ExperimentContext& ctx,
                const pg::attack::PoisoningAttack& attack,
                const std::string& attack_span,
                const pg::defense::Filter* filter,
                const std::string& filter_span, pg::util::Rng rng,
                Spans& spans, Probe& probe) {
  pg::data::Dataset poison;
  {
    const Spans::Scope s = spans.span(attack_span);
    poison = attack.generate(ctx.train, ctx.poison_budget, rng);
  }
  if (filter != nullptr) {
    const pg::data::Dataset poisoned = pg::data::concatenate(ctx.train, poison);
    const Spans::Scope s = spans.span(filter_span);
    const pg::defense::FilterResult kept = filter->apply(poisoned, rng);
    probe.removed += static_cast<double>(kept.removed_indices.size());
    probe.filtered += static_cast<double>(poisoned.size());
  }
  const pg::defense::Pipeline pipeline({ctx.config.svm});
  pg::defense::Pipeline::Prepared prep;
  {
    const Spans::Scope s = spans.span("defense.pipeline_prepare");
    prep = pipeline.prepare(ctx.train, ctx.test, &attack, ctx.poison_budget,
                            filter, rng);
  }
  probe.train_rows += static_cast<double>(prep.train.size());
  probe.trainings += 1.0;
  pg::ml::LinearModel model;
  {
    const Spans::Scope s = spans.span("ml.svm_train");
    model = pg::ml::SvmTrainer(ctx.config.svm).train(prep.train,
                                                     prep.train_rng);
  }
  const Spans::Scope s = spans.span("defense.pipeline_finish");
  (void)pg::defense::Pipeline::finish(std::move(prep), std::move(model));
}

pg::sim::ExperimentContext probe_context(const ScenarioSpec& spec,
                                         Spans& spans) {
  const Spans::Scope s = spans.span("sim.prepare_experiment");
  return pg::sim::prepare_experiment(experiment_config(spec));
}

/// paper_cold: the mixed_table steps through the sim/core entry points
/// (cold, no cache, same executor), then the boundary attack and the
/// distance filter once per sweep grid point.
Probe probe_paper(const ScenarioSpec& spec, pg::runtime::Executor& exec,
                  Spans& spans) {
  Probe probe;
  const pg::sim::ExperimentContext ctx = probe_context(spec, spans);
  const std::vector<double> grid =
      pg::sim::sweep_grid(spec.sweep_max, spec.sweep_steps);
  pg::sim::PureSweepResult sweep;
  {
    const Spans::Scope s = spans.span("sim.run_pure_sweep");
    sweep = pg::sim::run_pure_sweep(ctx, grid, spec.replications, &exec);
  }
  pg::core::PayoffCurves curves;
  {
    const Spans::Scope s = spans.span("sim.fit_payoff_curves");
    curves = pg::sim::fit_payoff_curves(sweep);
  }
  const pg::core::PoisoningGame game(curves, ctx.poison_budget);
  const pg::runtime::PayoffEvaluator evaluator(exec);
  for (std::size_t n = spec.support_min; n <= spec.support_max; ++n) {
    pg::core::Algorithm1Config acfg;
    acfg.support_size = n;
    const pg::core::DefenseSolution sol = [&] {
      const Spans::Scope s = spans.span("core.compute_optimal_defense");
      return pg::core::compute_optimal_defense(game, acfg, &exec);
    }();
    pg::sim::MixedEvalConfig ecfg;
    ecfg.draws = spec.draws;
    const Spans::Scope s = spans.span("sim.evaluate_mixed_defense");
    (void)pg::sim::evaluate_mixed_defense(ctx, sol.strategy, ecfg, evaluator);
  }
  const pg::util::Rng base(spec.seed);
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    const double p = grid[gi];
    const pg::attack::BoundaryAttack attack({.placement_fraction = p});
    const pg::defense::DistanceFilter filter(
        {.removal_fraction = p, .centroid = ctx.config.centroid});
    probe_cell(ctx, attack, "attack.boundary", p > 0.0 ? &filter : nullptr,
               "defense.distance", base.fork(gi), spans, probe);
  }
  return probe;
}

/// sanitize: every (attack, filter) cell of the defense_ablation spec,
/// with the families configured as that runner configures them.
Probe probe_sanitize(const ScenarioSpec& spec, pg::runtime::Executor&,
                     Spans& spans) {
  Probe probe;
  const pg::sim::ExperimentContext ctx = probe_context(spec, spans);
  const pg::attack::BoundaryAttack boundary({.placement_fraction = 0.10});
  const pg::attack::LabelFlipAttack label_flip(
      {pg::attack::FlipSelection::kNearCentroid});
  const pg::attack::NoiseAttack noise;
  const std::vector<std::pair<const pg::attack::PoisoningAttack*, std::string>>
      attacks{{&boundary, "attack.boundary"},
              {&label_flip, "attack.label_flip"},
              {&noise, "attack.noise"}};
  const pg::defense::DistanceFilter distance({.removal_fraction = 0.15});
  const pg::defense::KnnFilter knn({.k = 10, .agreement_threshold = 0.5});
  const pg::defense::PcaFilter pca(
      {.components = 5, .removal_fraction = 0.15});
  const pg::defense::RoniFilter roni(pg::defense::RoniConfig{});
  const std::vector<std::pair<const pg::defense::Filter*, std::string>>
      filters{{&distance, "defense.distance"},
              {&knn, "defense.knn"},
              {&pca, "defense.pca"},
              {&roni, "defense.roni"}};
  const pg::util::Rng base(spec.seed + 1);
  std::uint64_t salt = 0;
  for (const auto& [attack, attack_span] : attacks) {
    for (const auto& [filter, filter_span] : filters) {
      probe_cell(ctx, *attack, attack_span, filter, filter_span,
                 base.fork(++salt), spans, probe);
    }
  }
  return probe;
}

using ProbeFn = Probe (*)(const ScenarioSpec&, pg::runtime::Executor&,
                          Spans&);

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Σ of one numeric column of a result table; 0 when absent.
double table_sum(const ScenarioResult& result, const std::string& table,
                 const std::string& column) {
  double total = 0.0;
  for (const pg::scenario::ResultTable& t : result.tables) {
    if (t.name != table) continue;
    for (std::size_t c = 0; c < t.columns.size(); ++c) {
      if (t.columns[c] != column) continue;
      for (const auto& row : t.rows) total += row[c].number();
    }
  }
  return total;
}

WorkloadResult run_batch(const Options& options, Spans& spans,
                         const std::string& workload, ProbeFn probe_fn) {
  WorkloadResult out;
  const std::string spec_text =
      read_file(options.specs_dir + "/" + workload + ".spec");
  const ScenarioSpec spec = spec_from_text(spec_text, options.seed);
  const ScenarioSpec warmup = spec_from_text(
      spec_text + "\n" + read_file(options.specs_dir + "/warmup.spec"),
      options.seed);
  out.spec_text = spec.to_text() + "# untraced pass k > 0: seed = " +
                  std::to_string(options.seed) + " + k * " +
                  std::to_string(kPassSeedStride) +
                  "\n# set-up warm-up run:\n" + warmup.to_text();

  // Set-up: executor construction, the reference artifact, and one small
  // warm-up run on the same code path (lazy initialisation, page faults).
  std::unique_ptr<pg::runtime::Executor> exec;
  std::string reference;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    const Spans::Scope s = spans.span("bench.setup");
    exec.reset();
    exec = pg::sim::make_executor(spec.threads);
    if (options.seed == kDefaultSeed) {
      reference = read_file(options.reference_dir + "/" + workload + ".json");
    }
    ShardStore store(false, "", 0);
    EngineContext context{exec.get(), &store};
    (void)pg::scenario::run_scenario(warmup, context);
    out.setup_s.push_back(seconds_since(start));
  }

  const std::string dir = options.work_dir + "/cache-" + workload;
  // The first pass at the run's own seed; a later pass at that seed must
  // equal it.
  std::string first_cold;
  const auto check = [&](const Pass& pass, std::string& cold_json) {
    {
      const Spans::Scope s = spans.span("scenario.write_json");
      cold_json = to_json(pass.cold);
    }
    const std::string warm_json = to_json(pass.warm);
    std::string problem;
    if (pass.cold.spec.seed != options.seed) {
      // A rotated seed: no earlier result to compare with.
    } else if (first_cold.empty()) {
      first_cold = cold_json;
      if (!reference.empty()) {
        const std::string d = result_mismatch(reference, cold_json);
        if (!d.empty()) problem = "cold pass vs reference: " + d;
      }
    } else if (const std::string d = result_mismatch(first_cold, cold_json);
               !d.empty()) {
      problem = "cold pass vs the first at this seed: " + d;
    }
    if (const std::string d = result_mismatch(cold_json, warm_json);
        problem.empty() && !d.empty()) {
      problem = "warm rerun vs cold pass: " + d;
    }
    const auto& cold = pass.cold.cache;
    const auto& warm = pass.warm.cache;
    if (problem.empty() &&
        (cold.cells_retrained == 0 || warm.cells_retrained != 0 ||
         pass.entries_saved == 0 ||
         warm.disk_entries_loaded != pass.entries_saved)) {
      problem = "cache: the cold pass must retrain and spill, and the warm "
                "rerun must load every spilled entry and retrain nothing";
    }
    out.ops.record(problem.empty(), workload + " pass: " + problem);
  };

  const bool traced = spans.enabled();
  spans.set_enabled(false);
  const double budget = traced ? options.seconds / 2.0 : options.seconds;
  const Clock::time_point timed = Clock::now();
  // Untraced, pass k runs at its own seed, so a run's median covers
  // several corpora and does not hinge on how much work one seed's
  // strategy needs. Traced, every pass runs at the run's seed, so the
  // traced passes repeat the untraced ones exactly.
  std::uint64_t next_pass = 0;
  do {
    const std::uint64_t seed =
        traced ? options.seed : options.seed + next_pass++ * kPassSeedStride;
    const Pass pass =
        run_pass(seed == options.seed ? spec : spec_from_text(spec_text, seed),
                 *exec, dir, spans);
    out.wall_s.push_back(pass.cold_s);
    out.warm_wall_s.push_back(pass.warm_s);
    std::string json;
    check(pass, json);
  } while (seconds_since(timed) < budget);
  if (!traced) return out;

  // ---- traced run: two passes under spans, then the probe ------------
  spans.set_enabled(true);
  std::vector<double> traced_cold;
  std::size_t counts_first[2] = {0, 0};
  auto& layers = out.layers;
  for (int k = 0; k < 2; ++k) {
    spans.set_pass(k);
    ObsWindow obs;
    const Pass pass = run_pass(spec, *exec, dir, spans);
    obs.stop();
    spans.set_pass(-1);
    traced_cold.push_back(pass.cold_s);
    std::string json;
    check(pass, json);

    const auto& cold = pass.cold.cache;
    const auto& warm = pass.warm.cache;
    const std::size_t alg1 = static_cast<std::size_t>(
        table_sum(pass.cold, "summary", "iterations"));
    if (k == 0) {
      counts_first[0] = cold.cells_retrained;
      counts_first[1] = alg1;
      layers["runtime.cells_total"] = {double(cold.cells_total), "", false};
      layers["runtime.cells_retrained"] = {double(cold.cells_retrained), "",
                                           false};
      layers["runtime.cache_hit_ratio"] = {
          double(cold.cache_hits + warm.cache_hits) /
              double(cold.cells_total + warm.cells_total),
          "", false};
      layers["runtime.disk_entries_loaded"] = {
          double(warm.disk_entries_loaded), "", false};
      layers["runtime.disk_entries_saved"] = {double(pass.entries_saved), "",
                                              false};
      layers["runtime.exec_dispatch"] = obs.count("obs.exec.dispatch");
      layers["runtime.pool_tasks_stolen"] = obs.count("obs.pool.tasks_stolen");
      layers["runtime.team_generations"] = obs.count("obs.team.generations");
      layers["runtime.coalesced"] = obs.count("obs.cache.coalesced");
      layers["scenario.result_bytes"] = {double(json.size()), "", false};
      if (alg1 > 0) layers["core.alg1_iterations"] = {double(alg1), "", false};
    } else if (counts_first[0] != cold.cells_retrained ||
               counts_first[1] != alg1) {
      out.ops.record(false, "work counts differ between the two traced "
                            "passes (cells_retrained, alg1 iterations)");
    }
  }
  // Per traced pass: the self time of its two roots (cold, warm), i.e.
  // the wall time no scenario-boundary span covers.
  const std::vector<double> self = spans.self_ms();
  std::vector<double> unattributed;
  for (int k = 0; k < 2; ++k) {
    double total = 0.0;
    for (std::size_t i = 0; i < spans.records().size(); ++i) {
      const Spans::Record& r = spans.records()[i];
      if (r.pass == k && r.parent < 0 && r.name.starts_with("bench.")) {
        total += self[i];
      }
    }
    unattributed.push_back(total);
  }
  layers["bench.unattributed_ms"] = median_layer(unattributed, "no traced pass");
  layers["bench.trace_overhead_ratio"] = {
      median(traced_cold) / median(out.wall_s), "", false};
  layers["scenario.run_scenario_ms"] = median_layer(
      spans.durations("scenario.run_scenario", 0, 1, "bench.cold"), "no pass");
  layers["scenario.write_json_ms"] = median_layer(
      spans.durations("scenario.write_json", -1, -1), "no pass");

  spans.set_pass(kProbePass);
  Probe probe;
  {
    const Spans::Scope root = spans.span("bench.probe");
    probe = probe_fn(spec, *exec, spans);
  }
  spans.set_pass(-1);
  const auto per_call = [&](const std::string& name) {
    return median_layer(spans.durations(name, kProbePass, kProbePass),
                        "not called on this workload's path");
  };
  for (const char* name :
       {"sim.prepare_experiment", "sim.run_pure_sweep",
        "sim.evaluate_mixed_defense", "core.compute_optimal_defense",
        "ml.svm_train", "attack.boundary", "attack.label_flip",
        "attack.noise", "defense.distance", "defense.knn", "defense.pca",
        "defense.roni", "defense.pipeline_prepare"}) {
    const Layer layer = per_call(name);
    if (layer.absent.empty()) layers[std::string(name) + "_ms"] = layer;
  }
  if (probe.filtered > 0) {
    layers["defense.removed_ratio"] = {probe.removed / probe.filtered, "",
                                       false};
  }
  const double epochs = static_cast<double>(spec.epochs);
  const double train_s =
      sum(spans.durations("ml.svm_train", kProbePass, kProbePass)) / 1000.0;
  layers["ml.sgd_steps_per_s"] = {epochs * probe.train_rows / train_s, "",
                                  false};
  // Computed: the probe's mean training rows times the pass's retrained
  // cells, at the spec's epochs.
  layers["ml.sgd_steps"] = {
      epochs * probe.train_rows / probe.trainings *
          layers["runtime.cells_retrained"].value,
      "", true};
  return out;
}

}  // namespace

WorkloadResult run_paper_cold(const Options& options, Spans& spans) {
  return run_batch(options, spans, "paper_cold", &probe_paper);
}

WorkloadResult run_sanitize(const Options& options, Spans& spans) {
  return run_batch(options, spans, "sanitize", &probe_sanitize);
}

}  // namespace ledger
