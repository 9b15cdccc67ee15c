// google-benchmark microbenchmarks for the library's hot paths: SVM
// training, attack generation, sanitization filters, the simplex and
// Hedge solvers, Algorithm 1, and the core kernels they sit on.
//
// This is the one bench that keeps its own harness (google-benchmark owns
// main and the timing loop); the registered "micro" scenario
// (`pg_run --scenario micro`) covers the engine-native subset -- the
// payoff grid fill's speedup_vs_serial with the bit-identity assertion
// -- for environments without libbenchmark.
#include <benchmark/benchmark.h>

#include <atomic>
#include <utility>

#include "attack/boundary_attack.h"
#include "core/equilibrium.h"
#include "core/game_model.h"
#include "data/synthetic.h"
#include "defense/distance_filter.h"
#include "defense/knn_filter.h"
#include "defense/pca_filter.h"
#include "defense/pipeline.h"
#include "game/matrix_game.h"
#include "game/solvers.h"
#include "la/matrix.h"
#include "ml/svm.h"
#include "runtime/executor.h"
#include "runtime/payoff_evaluator.h"
#include "runtime/rng_stream.h"
#include "sim/experiment.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace pg;

data::Dataset corpus(std::size_t n) {
  data::SpambaseLikeConfig cfg;
  cfg.n_instances = n;
  util::Rng rng(42);
  return data::make_spambase_like(cfg, rng);
}

void BM_RngUniform(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Vector a(n, 1.5);
  la::Vector b(n, -0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::dot(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Dot)->Arg(57)->Arg(1024);

void BM_Matvec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Matrix m(n, 57, 0.5);
  la::Vector x(57, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.matvec(x));
  }
}
BENCHMARK(BM_Matvec)->Arg(1000);

void BM_MatvecTransposed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Matrix m(n, n, 0.5);
  la::Vector x(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.matvec_transposed(x));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(0));
}
BENCHMARK(BM_MatvecTransposed)->Arg(256);

void BM_SynthesizeCorpus(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    util::Rng rng(42);
    data::SpambaseLikeConfig cfg;
    cfg.n_instances = n;
    benchmark::DoNotOptimize(data::make_spambase_like(cfg, rng));
  }
}
BENCHMARK(BM_SynthesizeCorpus)->Arg(1000)->Arg(4601);

void BM_SvmTrainEpochs(benchmark::State& state) {
  const auto d = corpus(1000);
  ml::SvmConfig cfg;
  cfg.epochs = static_cast<std::size_t>(state.range(0));
  const ml::SvmTrainer trainer(cfg);
  for (auto _ : state) {
    util::Rng rng(7);
    benchmark::DoNotOptimize(trainer.train(d, rng));
  }
}
BENCHMARK(BM_SvmTrainEpochs)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_BoundaryAttack(benchmark::State& state) {
  const auto d = corpus(1000);
  attack::BoundaryAttackConfig cfg;
  cfg.placement_fraction = 0.1;
  cfg.depth_offsets.clear();  // isolate placement cost from probe cost
  const attack::BoundaryAttack atk(cfg);
  for (auto _ : state) {
    util::Rng rng(7);
    benchmark::DoNotOptimize(atk.generate(d, 200, rng));
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_BoundaryAttack)->Unit(benchmark::kMillisecond);

void BM_DistanceFilter(benchmark::State& state) {
  const auto d = corpus(static_cast<std::size_t>(state.range(0)));
  defense::DistanceFilterConfig cfg;
  cfg.removal_fraction = 0.2;
  const defense::DistanceFilter f(cfg);
  for (auto _ : state) {
    util::Rng rng(7);
    benchmark::DoNotOptimize(f.apply(d, rng));
  }
}
BENCHMARK(BM_DistanceFilter)->Arg(1000)->Arg(4601)
    ->Unit(benchmark::kMillisecond);

void BM_KnnFilter(benchmark::State& state) {
  const auto d = corpus(static_cast<std::size_t>(state.range(0)));
  defense::KnnFilterConfig cfg;
  cfg.k = 10;
  const defense::KnnFilter f(cfg);
  for (auto _ : state) {
    util::Rng rng(7);
    benchmark::DoNotOptimize(f.apply(d, rng));
  }
}
BENCHMARK(BM_KnnFilter)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_PcaFilter(benchmark::State& state) {
  const auto d = corpus(1000);
  defense::PcaFilterConfig cfg;
  cfg.components = 5;
  cfg.removal_fraction = 0.15;
  const defense::PcaFilter f(cfg);
  for (auto _ : state) {
    util::Rng rng(7);
    benchmark::DoNotOptimize(f.apply(d, rng));
  }
}
BENCHMARK(BM_PcaFilter)->Unit(benchmark::kMillisecond);

void BM_LpEquilibrium(benchmark::State& state) {
  const auto curves = core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4);
  const core::PoisoningGame game(curves, 100);
  const auto grid = static_cast<std::size_t>(state.range(0));
  const auto mg = game.discretize(grid, grid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(game::solve_lp_equilibrium(mg));
  }
}
BENCHMARK(BM_LpEquilibrium)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_FictitiousPlay(benchmark::State& state) {
  const auto curves = core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4);
  const core::PoisoningGame game(curves, 100);
  const auto mg = game.discretize(64, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        game::solve_fictitious_play(mg, {.iterations = 10000}));
  }
}
BENCHMARK(BM_FictitiousPlay)->Unit(benchmark::kMillisecond);

void BM_MultiplicativeWeights(benchmark::State& state) {
  const auto curves = core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4);
  const core::PoisoningGame game(curves, 100);
  const auto grid = static_cast<std::size_t>(state.range(0));
  const auto mg = game.discretize(grid, grid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        game::solve_multiplicative_weights(mg, {.iterations = 2000}));
  }
}
BENCHMARK(BM_MultiplicativeWeights)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_Algorithm1(benchmark::State& state) {
  const auto curves = core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4);
  const core::PoisoningGame game(curves, 100);
  core::Algorithm1Config cfg;
  cfg.support_size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_optimal_defense(game, cfg));
  }
}
BENCHMARK(BM_Algorithm1)->Arg(2)->Arg(3)->Arg(5)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------ runtime: parallel grids

void BM_ParallelForOverhead(benchmark::State& state) {
  // Dispatch cost of the runtime: 16k empty tasks, grain 64.
  runtime::ThreadPoolExecutor exec(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::atomic<std::size_t> sink{0};
    exec.parallel_for(0, 16384, 64,
                      [&](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); });
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_DiscretizeGrid(benchmark::State& state) {
  // Analytic 256x256 payoff grid through the PayoffEvaluator (cheap
  // closed-form cells: measures the grid plumbing, not retraining).
  const core::PoisoningGame game(
      core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4), 100);
  runtime::ThreadPoolExecutor exec(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(game.discretize(256, 256, &exec));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 256);
}
BENCHMARK(BM_DiscretizeGrid)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// The headline workload of the runtime: the paper's attacker x defender
// EMPIRICAL payoff grid, one sanitize-and-retrain pipeline run per cell
// (the object every sweep, Table-1 evaluation, and ablation is built
// from). Cells are independent and RNG streams are content-keyed, so the
// grid is bit-identical at every thread count; the benchmark reports
// speedup_vs_serial = serial seconds / threaded seconds for the same grid
// (>= 2x expected on a 12x12 grid with 4+ threads on 4+ cores).
const sim::ExperimentContext& grid_ctx() {
  static const sim::ExperimentContext ctx = [] {
    sim::ExperimentConfig cfg = sim::fast_config(42);
    cfg.corpus.n_instances = 600;
    cfg.svm.epochs = 40;
    return sim::prepare_experiment(cfg);
  }();
  return ctx;
}

double& empirical_grid_serial_secs() {
  static double secs = 0.0;
  return secs;
}

void BM_EmpiricalPayoffGrid(benchmark::State& state) {
  const auto& ctx = grid_ctx();
  const std::size_t grid = 12;
  const defense::Pipeline pipeline({ctx.config.svm});
  const runtime::RngStreamFactory streams(ctx.config.seed);
  const auto exec = sim::make_executor(static_cast<std::size_t>(state.range(0)));
  const runtime::PayoffEvaluator evaluator(*exec);  // uncached: measure compute

  const auto cell = [&](std::size_t flat) {
    const std::size_t i = flat / grid;  // attacker placement index
    const std::size_t j = flat % grid;  // defender filter index
    const double placement = 0.40 * static_cast<double>(i) / (grid - 1);
    const double fraction = 0.40 * static_cast<double>(j) / (grid - 1);
    defense::DistanceFilterConfig fcfg;
    fcfg.removal_fraction = fraction;
    fcfg.centroid = ctx.config.centroid;
    const defense::DistanceFilter filter(fcfg);
    attack::BoundaryAttackConfig acfg;
    acfg.placement_fraction = placement;
    acfg.depth_offsets.clear();
    const attack::BoundaryAttack attack(acfg);
    util::Rng rng = streams.stream(flat);
    return pipeline
        .run(ctx.train, ctx.test, &attack, ctx.poison_budget,
             fraction > 0.0 ? &filter : nullptr, rng)
        .test_accuracy;
  };

  double total_secs = 0.0;
  std::size_t iters = 0;
  for (auto _ : state) {
    util::Stopwatch watch;
    benchmark::DoNotOptimize(evaluator.evaluate_matrix(grid, grid, cell));
    total_secs += watch.elapsed_seconds();
    ++iters;
  }
  const double per_iter = total_secs / static_cast<double>(iters);
  if (state.range(0) == 1) empirical_grid_serial_secs() = per_iter;
  if (empirical_grid_serial_secs() > 0.0) {
    state.counters["speedup_vs_serial"] =
        empirical_grid_serial_secs() / per_iter;
  }
  state.counters["threads"] = static_cast<double>(exec->concurrency());
  state.SetItemsProcessed(state.iterations() * grid * grid);
}
// Arg order matters: the 1-thread run records the serial baseline the
// later runs report their speedup against.
BENCHMARK(BM_EmpiricalPayoffGrid)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

}  // namespace
