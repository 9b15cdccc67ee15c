// Tests for the parallel execution runtime: thread pool and parallel_for
// semantics (coverage, exception propagation, reusability), RNG stream
// decorrelation, payoff-evaluator memoization, and the determinism
// contract -- multi-threaded sweeps and payoff grids must be bit-identical
// to their serial counterparts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/equilibrium.h"
#include "core/game_model.h"
#include "runtime/executor.h"
#include "runtime/payoff_disk_cache.h"
#include "runtime/payoff_evaluator.h"
#include "runtime/rng_stream.h"
#include "runtime/task_group.h"
#include "runtime/thread_pool.h"
#include "sim/experiment.h"
#include "sim/mixed_eval.h"
#include "sim/pure_sweep.h"

namespace pg {
namespace {

// ---------------------------------------------------------- thread_pool.h

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    runtime::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    // Destructor blocks until started tasks finish; busy-wait for the
    // queue to drain so none are discarded at shutdown.
    while (count.load() < 100) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  runtime::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), runtime::default_thread_count());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, WorkStealingDrainsHeterogeneousTasks) {
  // Round-robin submission lands cheap and expensive tasks on every
  // deque; stealing must drain all of them even though one worker's own
  // queue holds most of the slow ones.
  std::atomic<int> count{0};
  {
    runtime::ThreadPool pool(4);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&count, i] {
        if (i % 8 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        count.fetch_add(1);
      });
    }
    while (count.load() < 64) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  // A running task enqueueing follow-up work must not deadlock or lose
  // tasks (solver call sites do this through nested evaluator calls).
  std::atomic<int> count{0};
  {
    runtime::ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.submit([&pool, &count] {
        pool.submit([&count] { count.fetch_add(1); });
        count.fetch_add(1);
      });
    }
    while (count.load() < 16) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, TryRunOneHelpsWhileWorkerIsBusy) {
  runtime::ThreadPool pool(1);
  std::atomic<bool> first_started{false};
  std::atomic<bool> release_first{false};
  pool.submit([&] {
    first_started.store(true);
    while (!release_first.load()) std::this_thread::yield();
  });
  while (!first_started.load()) std::this_thread::yield();

  // The only worker is pinned inside the first task, so the second task
  // can only run if the calling thread steals it.
  std::atomic<bool> second_ran{false};
  pool.submit([&] { second_ran.store(true); });
  EXPECT_TRUE(pool.try_run_one());
  EXPECT_TRUE(second_ran.load());
  EXPECT_FALSE(pool.try_run_one()) << "no queued tasks should remain";
  release_first.store(true);
}

// ------------------------------------------------------------- executor.h

TEST(ExecutorTest, SerialCoversEveryIndexInOrder) {
  runtime::SerialExecutor exec;
  std::vector<std::size_t> seen;
  exec.parallel_for(3, 10, 2, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 4, 5, 6, 7, 8, 9}));
}

TEST(ExecutorTest, PoolCoversEveryIndexExactlyOnce) {
  runtime::ThreadPoolExecutor exec(4);
  for (std::size_t grain : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    std::vector<std::atomic<int>> hits(37);
    exec.parallel_for(0, 37, grain,
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
    }
  }
}

TEST(ExecutorTest, EmptyRangeIsANoop) {
  runtime::ThreadPoolExecutor exec(2);
  bool ran = false;
  exec.parallel_for(5, 5, 1, [&](std::size_t) { ran = true; });
  exec.parallel_for(7, 3, 1, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ExecutorTest, ExceptionPropagatesToCaller) {
  runtime::ThreadPoolExecutor exec(4);
  EXPECT_THROW(
      exec.parallel_for(0, 64, 1,
                        [](std::size_t i) {
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);

  // The executor must stay usable after a failed loop.
  std::atomic<int> count{0};
  exec.parallel_for(0, 16, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

TEST(ExecutorTest, SerialExceptionPropagatesToo) {
  runtime::SerialExecutor exec;
  EXPECT_THROW(exec.parallel_for(0, 4, 1,
                                 [](std::size_t i) {
                                   if (i == 2) throw std::invalid_argument("x");
                                 }),
               std::invalid_argument);
}

TEST(ExecutorTest, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // A loop body calling parallel_for on its OWN executor must not wait on
  // sub-chunks that could only run on already-blocked workers; the nested
  // call runs inline on the worker.
  runtime::ThreadPoolExecutor exec(2);
  std::vector<std::atomic<int>> hits(8 * 8);
  exec.parallel_for(0, 8, 1, [&](std::size_t i) {
    exec.parallel_for(0, 8, 1,
                      [&](std::size_t j) { hits[i * 8 + j].fetch_add(1); });
  });
  for (std::size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "cell " << k;
  }
}

TEST(ExecutorTest, CallerChunkExceptionPropagates) {
  // The calling thread runs chunk 0 itself (caller participation); a
  // throw there must propagate exactly like a worker-chunk throw, after
  // the remaining chunks finish.
  runtime::ThreadPoolExecutor exec(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      exec.parallel_for(0, 64, 16,
                        [&](std::size_t i) {
                          if (i == 0) throw std::runtime_error("chunk 0");
                          ran.fetch_add(1);
                        }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 48) << "sibling chunks must still run to completion";

  std::atomic<int> count{0};
  exec.parallel_for(0, 16, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16) << "executor must stay usable after a failure";
}

TEST(ExecutorTest, NullExecutorResolvesToSerial) {
  EXPECT_EQ(&runtime::executor_or_serial(nullptr),
            &runtime::serial_executor());
  runtime::SerialExecutor mine;
  EXPECT_EQ(&runtime::executor_or_serial(&mine), &mine);
}

// ----------------------------------------------------------- rng_stream.h

TEST(RngStreamTest, DerivedSeedsAreUniqueAcrossIndices) {
  const runtime::RngStreamFactory factory(42);
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    seeds.insert(factory.derive_seed(i));
  }
  EXPECT_EQ(seeds.size(), 4096u);
}

TEST(RngStreamTest, TwoDimensionalSeedsDoNotCollideWithFlatOnes) {
  const runtime::RngStreamFactory factory(7);
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 64; ++i) {
    seeds.insert(factory.derive_seed(i));
    for (std::uint64_t j = 0; j < 64; ++j) {
      seeds.insert(factory.derive_seed(i, j));
    }
  }
  EXPECT_EQ(seeds.size(), 64u + 64u * 64u);
}

TEST(RngStreamTest, StreamsAreDeterministicInIndex) {
  const runtime::RngStreamFactory factory(123);
  util::Rng a = factory.stream(5);
  util::Rng b = factory.stream(5);
  for (int k = 0; k < 32; ++k) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngStreamTest, DecorrelationSmoke) {
  // Adjacent indices (the worst case for weak mixing) must produce
  // streams that look independent: each stream's mean is near 1/2 and the
  // empirical correlation of paired draws is small.
  const runtime::RngStreamFactory factory(99);
  constexpr int kDraws = 4096;
  util::Rng a = factory.stream(0);
  util::Rng b = factory.stream(1);
  double mean_a = 0.0, mean_b = 0.0, cross = 0.0;
  for (int k = 0; k < kDraws; ++k) {
    const double x = a.uniform();
    const double y = b.uniform();
    mean_a += x;
    mean_b += y;
    cross += (x - 0.5) * (y - 0.5);
  }
  mean_a /= kDraws;
  mean_b /= kDraws;
  // Correlation of n uniform pairs has sd ~ 1/sqrt(n) ~ 0.016; 5 sigma.
  const double corr = cross / kDraws / (1.0 / 12.0);
  EXPECT_NEAR(mean_a, 0.5, 0.03);
  EXPECT_NEAR(mean_b, 0.5, 0.03);
  EXPECT_LT(std::abs(corr), 0.08);
}

// ----------------------------------------------------- payoff_evaluator.h

TEST(ContentKeyTest, OrderAndValueSensitive) {
  const std::uint64_t a =
      runtime::ContentKey().mix(std::uint64_t{1}).mix(2.0).digest();
  const std::uint64_t b =
      runtime::ContentKey().mix(std::uint64_t{2}).mix(1.0).digest();
  const std::uint64_t c =
      runtime::ContentKey().mix(std::uint64_t{1}).mix(2.0).digest();
  EXPECT_NE(a, b);
  EXPECT_EQ(a, c);
  // Near-equal doubles (adjacent grid fractions) get unrelated keys.
  EXPECT_NE(runtime::ContentKey().mix(0.05).digest(),
            runtime::ContentKey().mix(0.05 + 1e-12).digest());
}

TEST(PayoffEvaluatorTest, MatrixMatchesCellFunction) {
  runtime::ThreadPoolExecutor exec(4);
  const runtime::PayoffEvaluator evaluator(exec);
  const la::Matrix m = evaluator.evaluate_matrix(
      7, 5, [](std::size_t flat) { return static_cast<double>(flat) * 1.5; });
  ASSERT_EQ(m.rows(), 7u);
  ASSERT_EQ(m.cols(), 5u);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_DOUBLE_EQ(m(r, c), static_cast<double>(r * 5 + c) * 1.5);
    }
  }
}

TEST(PayoffEvaluatorTest, CacheSkipsRecomputation) {
  runtime::SerialExecutor exec;
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(exec, &cache);

  std::atomic<int> computed{0};
  const auto cell = [&](std::size_t i) {
    computed.fetch_add(1);
    return static_cast<double>(i) * 2.0;
  };
  const auto key = [](std::size_t i) {
    return runtime::ContentKey().mix(static_cast<std::uint64_t>(i)).digest();
  };

  const auto first = evaluator.evaluate_cells(10, cell, key);
  EXPECT_EQ(computed.load(), 10);
  EXPECT_EQ(cache.size(), 10u);

  const auto second = evaluator.evaluate_cells(10, cell, key);
  EXPECT_EQ(computed.load(), 10) << "all cells must come from the cache";
  EXPECT_EQ(second, first);
  EXPECT_EQ(evaluator.cache_hits(), 10u);
  EXPECT_EQ(evaluator.cells_computed(), 10u);
}

TEST(PayoffEvaluatorTest, DiscretizeMatchesSerialReference) {
  const core::PoisoningGame game(
      core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4), 100);
  const game::MatrixGame serial = game.discretize(33, 17);

  runtime::ThreadPoolExecutor exec(8);
  const game::MatrixGame parallel = game.discretize(33, 17, &exec);

  ASSERT_EQ(parallel.num_rows(), serial.num_rows());
  ASSERT_EQ(parallel.num_cols(), serial.num_cols());
  for (std::size_t i = 0; i < serial.num_rows(); ++i) {
    for (std::size_t j = 0; j < serial.num_cols(); ++j) {
      EXPECT_EQ(parallel.payoff_at(i, j), serial.payoff_at(i, j))
          << "cell (" << i << ", " << j << ")";
    }
  }
}

// ------------------------------------------------- determinism contract

const sim::ExperimentContext& small_ctx() {
  static const sim::ExperimentContext ctx = [] {
    sim::ExperimentConfig cfg = sim::fast_config(42);
    cfg.corpus.n_instances = 300;
    cfg.svm.epochs = 25;
    return sim::prepare_experiment(cfg);
  }();
  return ctx;
}

TEST(RuntimeDeterminismTest, PureSweepBitIdenticalAcrossThreadCounts) {
  const auto& ctx = small_ctx();
  const std::vector<double> grid = {0.0, 0.1, 0.25, 0.4};

  const auto serial = sim::run_pure_sweep(ctx, grid, 2, nullptr);
  runtime::ThreadPoolExecutor one(1);
  const auto threaded1 = sim::run_pure_sweep(ctx, grid, 2, &one);
  runtime::ThreadPoolExecutor eight(8);
  const auto threaded8 = sim::run_pure_sweep(ctx, grid, 2, &eight);

  ASSERT_EQ(serial.points.size(), grid.size());
  for (const auto* run : {&threaded1, &threaded8}) {
    ASSERT_EQ(run->points.size(), serial.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      // EXPECT_EQ, not NEAR: the contract is bit-identity.
      EXPECT_EQ(run->points[i].accuracy_no_attack,
                serial.points[i].accuracy_no_attack);
      EXPECT_EQ(run->points[i].accuracy_attacked,
                serial.points[i].accuracy_attacked);
      EXPECT_EQ(run->points[i].poison_survived_fraction,
                serial.points[i].poison_survived_fraction);
    }
  }
}

TEST(RuntimeDeterminismTest, MixedEvalBitIdenticalAcrossThreadCountsAndCache) {
  const auto& ctx = small_ctx();
  const defense::MixedDefenseStrategy strategy({0.1, 0.25, 0.4},
                                               {0.5, 0.3, 0.2});
  sim::MixedEvalConfig ecfg;
  ecfg.draws = 2;

  const auto serial = sim::evaluate_mixed_defense(ctx, strategy, ecfg);

  runtime::ThreadPoolExecutor eight(8);
  const auto threaded =
      sim::evaluate_mixed_defense(ctx, strategy, ecfg, &eight);

  // Cached evaluator, evaluated twice: the second pass runs entirely from
  // the cache and must reproduce the first bit-for-bit.
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(eight, &cache);
  const auto cached1 =
      sim::evaluate_mixed_defense(ctx, strategy, ecfg, evaluator);
  const auto cached2 =
      sim::evaluate_mixed_defense(ctx, strategy, ecfg, evaluator);
  EXPECT_GT(evaluator.cache_hits(), 0u);

  for (const auto* run : {&threaded, &cached1, &cached2}) {
    EXPECT_EQ(run->adversarial_accuracy, serial.adversarial_accuracy);
    EXPECT_EQ(run->no_attack_accuracy, serial.no_attack_accuracy);
    ASSERT_EQ(run->accuracy_by_placement.size(),
              serial.accuracy_by_placement.size());
    for (std::size_t i = 0; i < serial.accuracy_by_placement.size(); ++i) {
      EXPECT_EQ(run->accuracy_by_placement[i],
                serial.accuracy_by_placement[i]);
    }
  }
}

// ------------------------------------------------- payoff cache counters

TEST(PayoffCacheTest, CountsHitsAndMisses) {
  runtime::PayoffCache cache;
  double value = 0.0;
  EXPECT_FALSE(cache.lookup(1, value));
  cache.store(1, 0.5);
  EXPECT_TRUE(cache.lookup(1, value));
  EXPECT_EQ(value, 0.5);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  cache.clear();
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PayoffCacheTest, SnapshotIsSortedAndPreloadDoesNotCount) {
  runtime::PayoffCache cache;
  cache.store(9, 0.9);
  cache.store(3, 0.3);
  cache.preload({{5, 0.5}, {3, 777.0}});  // existing key 3 keeps its value
  const auto entries = cache.snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (std::pair<std::uint64_t, double>{3, 0.3}));
  EXPECT_EQ(entries[1], (std::pair<std::uint64_t, double>{5, 0.5}));
  EXPECT_EQ(entries[2], (std::pair<std::uint64_t, double>{9, 0.9}));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

// ------------------------------------------------- payoff_disk_cache.h

TEST(DiskPayoffCacheTest, EncodeDecodeRoundTrip) {
  const std::vector<std::pair<std::uint64_t, double>> entries = {
      {1, 0.25}, {0xFFFFFFFFFFFFFFFFULL, -1e300}, {42, 0.0}};
  const std::string bytes = runtime::DiskPayoffCache::encode(entries);
  std::vector<std::pair<std::uint64_t, double>> decoded;
  ASSERT_TRUE(runtime::DiskPayoffCache::decode(bytes, decoded));
  EXPECT_EQ(decoded, entries);
}

TEST(DiskPayoffCacheTest, DecodeRejectsCorruption) {
  const std::string bytes =
      runtime::DiskPayoffCache::encode({{1, 0.25}, {2, 0.5}});
  std::vector<std::pair<std::uint64_t, double>> decoded;
  EXPECT_FALSE(runtime::DiskPayoffCache::decode("", decoded));
  EXPECT_FALSE(runtime::DiskPayoffCache::decode("garbage", decoded));
  // Truncated body.
  EXPECT_FALSE(
      runtime::DiskPayoffCache::decode(bytes.substr(0, bytes.size() - 8),
                                       decoded));
  // One flipped payload byte breaks the checksum.
  std::string flipped = bytes;
  flipped[20] = static_cast<char>(flipped[20] ^ 0x01);
  EXPECT_FALSE(runtime::DiskPayoffCache::decode(flipped, decoded));
  EXPECT_TRUE(decoded.empty());
  // A crafted count near 2^61 would overflow the size arithmetic; the
  // decoder must reject it instead of over-reserving or reading past
  // the buffer.
  std::string huge_count = runtime::DiskPayoffCache::encode({});
  for (int b = 0; b < 8; ++b) huge_count[8 + b] = '\xFF';
  EXPECT_FALSE(runtime::DiskPayoffCache::decode(huge_count, decoded));
}

TEST(DiskPayoffCacheTest, DisabledCacheIsANoOp) {
  runtime::DiskPayoffCache disk("");
  EXPECT_FALSE(disk.enabled());
  runtime::PayoffCache cache;
  cache.store(1, 1.0);
  EXPECT_EQ(disk.load(1, cache), 0u);
  EXPECT_EQ(disk.save(1, cache), 0u);
}

TEST(DiskPayoffCacheTest, SaveLoadRoundTripsAcrossCaches) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pg_disk_cache_test")
          .string();
  std::filesystem::remove_all(dir);
  {
    runtime::DiskPayoffCache disk(dir);
    runtime::PayoffCache cache;
    cache.store(10, 0.125);
    cache.store(11, 0.625);
    EXPECT_EQ(disk.save(77, cache), 2u);

    runtime::PayoffCache reloaded;
    EXPECT_EQ(disk.load(77, reloaded), 2u);
    double value = 0.0;
    EXPECT_TRUE(reloaded.lookup(10, value));
    EXPECT_EQ(value, 0.125);
    // Different shard: untouched.
    runtime::PayoffCache other;
    EXPECT_EQ(disk.load(78, other), 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(DiskPayoffCacheTest, UnwritableDirDegradesToColdRun) {
  // The cache dir path sits UNDER a regular file, so create_directories
  // and every open fail no matter the uid. Nothing may throw: save/load
  // report zero traffic and the caller just runs cold.
  const std::string base =
      (std::filesystem::temp_directory_path() / "pg_disk_cache_unwritable")
          .string();
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  { std::ofstream blocker(base + "/blocker"); blocker << "x"; }

  runtime::DiskPayoffCache disk(base + "/blocker/cache");
  EXPECT_TRUE(disk.enabled());  // configured, just not writable
  runtime::PayoffCache cache;
  cache.store(1, 0.5);
  EXPECT_NO_THROW({
    EXPECT_EQ(disk.save(42, cache), 0u);
    EXPECT_EQ(disk.load(42, cache), 0u);
    EXPECT_EQ(disk.enforce_max_bytes(), 0u);
  });
  std::filesystem::remove_all(base);
}

TEST(DiskPayoffCacheTest, EnforceMaxBytesEvictsOldestShards) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pg_disk_cache_evict")
          .string();
  std::filesystem::remove_all(dir);
  {
    runtime::PayoffCache cache;
    for (std::uint64_t k = 0; k < 8; ++k) cache.store(k, 0.5);
    // Three shards of identical size, with explicit mtimes so the
    // oldest-first order is unambiguous even on coarse filesystems.
    runtime::DiskPayoffCache writer(dir);
    ASSERT_EQ(writer.save(1, cache), 8u);
    ASSERT_EQ(writer.save(2, cache), 8u);
    ASSERT_EQ(writer.save(3, cache), 8u);
    const auto now = std::filesystem::file_time_type::clock::now();
    using std::chrono::hours;
    std::filesystem::last_write_time(writer.shard_path(1), now - hours(3));
    std::filesystem::last_write_time(writer.shard_path(2), now - hours(2));
    std::filesystem::last_write_time(writer.shard_path(3), now - hours(1));

    const auto shard_bytes = std::filesystem::file_size(writer.shard_path(1));

    // Uncapped: nothing happens.
    EXPECT_EQ(writer.enforce_max_bytes(), 0u);

    // Cap fits exactly two shards: the oldest (shard 1) goes.
    runtime::DiskPayoffCache capped(dir, 2 * shard_bytes);
    EXPECT_EQ(capped.enforce_max_bytes(), 1u);
    EXPECT_FALSE(std::filesystem::exists(capped.shard_path(1)));
    EXPECT_TRUE(std::filesystem::exists(capped.shard_path(2)));
    EXPECT_TRUE(std::filesystem::exists(capped.shard_path(3)));
    // Already within the cap: idempotent.
    EXPECT_EQ(capped.enforce_max_bytes(), 0u);

    // Tighter cap than any single shard: everything must go -- the cap
    // is a hard bound, not a suggestion.
    runtime::DiskPayoffCache tiny(dir, shard_bytes / 2);
    EXPECT_EQ(tiny.enforce_max_bytes(), 2u);
    EXPECT_FALSE(std::filesystem::exists(tiny.shard_path(2)));
    EXPECT_FALSE(std::filesystem::exists(tiny.shard_path(3)));

    // Foreign files in the directory are never candidates.
    { std::ofstream foreign(dir + "/notes.txt"); foreign << "keep me"; }
    ASSERT_EQ(writer.save(4, cache), 8u);
    runtime::DiskPayoffCache zero(dir, 1);
    EXPECT_EQ(zero.enforce_max_bytes(), 1u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/notes.txt"));
  }
  std::filesystem::remove_all(dir);
}

TEST(DiskPayoffCacheTest, ConcurrentEvictionCountsOnlyOwnRemovals) {
  // Two cache instances (standing in for two worker processes sharing a
  // --cache-dir) race enforce_max_bytes over one directory. Each removal
  // must be counted by exactly one racer -- a shard that vanished under a
  // racer's feet is the OTHER side's eviction, not an error -- so the two
  // counts sum to exactly the number of files that disappeared, and the
  // "cannot evict" warning never fires for the vanished-shard case.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pg_disk_cache_race")
          .string();
  std::filesystem::remove_all(dir);
  runtime::PayoffCache cache;
  for (std::uint64_t k = 0; k < 8; ++k) cache.store(k, 0.25);
  runtime::DiskPayoffCache writer(dir);
  constexpr std::uint64_t kShards = 40;
  for (std::uint64_t s = 1; s <= kShards; ++s) {
    ASSERT_EQ(writer.save(s, cache), 8u);
  }
  const auto shard_bytes = std::filesystem::file_size(writer.shard_path(1));

  const auto live_shards = [&dir]() {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".pgpc") ++n;
    }
    return n;
  };
  ASSERT_EQ(live_shards(), kShards);

  // Capture stderr: the race must stay silent apart from the final
  // "evicted N oldest shard(s)" summary each racer prints.
  std::ostringstream captured;
  std::streambuf* old_cerr = std::cerr.rdbuf(captured.rdbuf());

  // Cap fits two shards: 38 must go, split between the racers.
  runtime::DiskPayoffCache a(dir, 2 * shard_bytes);
  runtime::DiskPayoffCache b(dir, 2 * shard_bytes);
  std::size_t evicted_a = 0;
  std::size_t evicted_b = 0;
  std::thread ta([&] { evicted_a = a.enforce_max_bytes(); });
  std::thread tb([&] { evicted_b = b.enforce_max_bytes(); });
  ta.join();
  tb.join();
  std::cerr.rdbuf(old_cerr);

  const std::size_t after = live_shards();
  EXPECT_LE(after, 2u);
  EXPECT_EQ(evicted_a + evicted_b, kShards - after);
  EXPECT_EQ(captured.str().find("cannot evict"), std::string::npos)
      << captured.str();
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------- nested parallel_for
// The depth-tagged nested scheduler: outer tasks submit inner chunks to
// the SAME pool; joins help-drain instead of sleeping, so saturation can
// slow things down but never deadlock, and determinism survives any
// interleaving.

TEST(NestedParallelTest, NestedLoopsCoverEveryIndexUnderExhaustion) {
  // 2 workers, 8 outer tasks each fanning out 8 inner chunks: far more
  // live fork-joins than threads. Every (outer, inner) pair must run
  // exactly once.
  runtime::ThreadPoolExecutor exec(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 8;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  exec.parallel_for_nested(0, kOuter, 1, [&](std::size_t o) {
    exec.parallel_for_nested(0, kInner, 1, [&](std::size_t i) {
      hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t c = 0; c < hits.size(); ++c) {
    EXPECT_EQ(hits[c].load(), 1) << "cell " << c;
  }
}

TEST(NestedParallelTest, ThreeLevelNestingTerminates) {
  runtime::ThreadPoolExecutor exec(4);
  std::atomic<int> leaves{0};
  exec.parallel_for_nested(0, 4, 1, [&](std::size_t) {
    exec.parallel_for_nested(0, 4, 1, [&](std::size_t) {
      exec.parallel_for_nested(0, 4, 1,
                               [&](std::size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(NestedParallelTest, InnerExceptionPropagatesThroughOuterJoin) {
  runtime::ThreadPoolExecutor exec(4);
  EXPECT_THROW(
      exec.parallel_for_nested(0, 4, 1,
                               [&](std::size_t o) {
                                 exec.parallel_for_nested(
                                     0, 4, 1, [&](std::size_t i) {
                                       if (o == 2 && i == 3) {
                                         throw std::runtime_error("inner");
                                       }
                                     });
                               }),
      std::runtime_error);
  // The executor stays usable after a failed nested loop.
  std::atomic<int> count{0};
  exec.parallel_for_nested(0, 8, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(NestedParallelTest, NestedGridBitIdenticalAcrossThreadCounts) {
  // An outer x inner grid where every cell derives its value from its own
  // RNG stream: the nested schedule (1, 2, 4, hw threads) must reproduce
  // the serial result bit for bit.
  const auto compute = [](runtime::Executor& exec) {
    constexpr std::size_t kOuter = 6;
    constexpr std::size_t kInner = 16;
    const runtime::RngStreamFactory streams(1234);
    std::vector<double> cells(kOuter * kInner, 0.0);
    exec.parallel_for_nested(0, kOuter, 1, [&](std::size_t o) {
      exec.parallel_for_nested(0, kInner, 1, [&](std::size_t i) {
        util::Rng rng = streams.stream(o, i);
        double acc = 0.0;
        for (int k = 0; k < 50; ++k) acc += rng.normal();
        cells[o * kInner + i] = acc;
      });
    });
    return cells;
  };
  runtime::SerialExecutor serial;
  const auto expected = compute(serial);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4},
        runtime::default_thread_count()}) {
    runtime::ThreadPoolExecutor exec(threads);
    EXPECT_EQ(compute(exec), expected) << threads << " threads";
  }
}

// ------------------------------------------------------------ task_group.h

TEST(TaskGroupTest, RunsEveryTaskAndWaits) {
  runtime::ThreadPoolExecutor exec(4);
  std::atomic<int> count{0};
  runtime::TaskGroup group(&exec);
  for (int i = 0; i < 32; ++i) {
    group.run([&count] { count.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(count.load(), 32);
  EXPECT_EQ(group.pending(), 0u);
}

TEST(TaskGroupTest, NullExecutorRunsInline) {
  std::atomic<int> count{0};
  runtime::TaskGroup group(nullptr);
  group.run([&count] { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1) << "inline task must run before wait()";
  group.wait();
}

TEST(TaskGroupTest, FirstExceptionSurfacesAtWaitAndGroupIsReusable) {
  runtime::ThreadPoolExecutor exec(2);
  runtime::TaskGroup group(&exec);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    group.run([&count, i] {
      if (i == 5) throw std::invalid_argument("task 5");
      count.fetch_add(1);
    });
  }
  EXPECT_THROW(group.wait(), std::invalid_argument);
  EXPECT_EQ(count.load(), 7) << "non-throwing tasks still complete";

  // A failed wait clears the error; the group keeps working.
  group.run([&count] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 8);
}

TEST(TaskGroupTest, GroupsNestInsidePoolTasksWithoutDeadlock) {
  runtime::ThreadPoolExecutor exec(2);
  std::atomic<int> inner_total{0};
  runtime::TaskGroup outer(&exec);
  for (int o = 0; o < 6; ++o) {
    outer.run([&] {
      runtime::TaskGroup inner(&exec);
      for (int i = 0; i < 6; ++i) {
        inner.run([&inner_total] { inner_total.fetch_add(1); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(inner_total.load(), 36);
}

}  // namespace
}  // namespace pg
