// Fault-tolerance suite: the deterministic fault-injection grammar, the
// crash-safe atomic file writer, disk-cache quarantine, the --shard-exec
// retry orchestrator (a worker SIGKILLed mid-write must not change the
// merged numbers), --merge's machine-readable missing-shards contract,
// and serve-layer resilience (ping health checks, client retry across an
// injected response-write fault).
//
// Every test arms rules through robust::configure and disarms in a
// guard's destructor, so the suite leaves the process fault-free for
// whoever runs next in the binary.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "robust/atomic_file.h"
#include "robust/faultpoint.h"
#include "runtime/payoff_disk_cache.h"
#include "runtime/payoff_evaluator.h"
#include "scenario/cli.h"
#include "scenario/diff.h"
#include "scenario/engine.h"
#include "scenario/result.h"
#include "scenario/spec.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace pg {
namespace {

/// Arm a fault table for one test; disarm on scope exit no matter how
/// the test ends.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) { robust::configure(spec); }
  ~FaultGuard() { robust::reset(); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

std::string fresh_dir(const std::string& stem) {
  std::mt19937_64 rng(std::random_device{}());
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       (stem + "_" + std::to_string(rng())))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out)) << "cannot write " << path;
  out << content;
}

// ------------------------------------------------------------- grammar

TEST(FaultPointTest, IdleIsDisarmedAndFree) {
  robust::reset();
  EXPECT_FALSE(robust::armed());
  const robust::FaultHit hit = robust::faultpoint("anything", 7);
  EXPECT_FALSE(hit.short_write);
}

TEST(FaultPointTest, ThrowActionFiresEveryHit) {
  const FaultGuard guard("t.always:throw");
  EXPECT_TRUE(robust::armed());
  EXPECT_THROW(robust::faultpoint("t.always"), robust::InjectedFault);
  EXPECT_THROW(robust::faultpoint("t.always"), robust::InjectedFault);
  // Other sites stay untouched.
  EXPECT_NO_THROW(robust::faultpoint("t.other"));
}

TEST(FaultPointTest, NthHitFiresExactlyOnce) {
  const FaultGuard guard("t.nth:throw@3");
  EXPECT_NO_THROW(robust::faultpoint("t.nth"));
  EXPECT_NO_THROW(robust::faultpoint("t.nth"));
  EXPECT_THROW(robust::faultpoint("t.nth"), robust::InjectedFault);
  EXPECT_NO_THROW(robust::faultpoint("t.nth"));
}

TEST(FaultPointTest, FromNthFiresForever) {
  const FaultGuard guard("t.from:throw@2+");
  EXPECT_NO_THROW(robust::faultpoint("t.from"));
  EXPECT_THROW(robust::faultpoint("t.from"), robust::InjectedFault);
  EXPECT_THROW(robust::faultpoint("t.from"), robust::InjectedFault);
}

TEST(FaultPointTest, ArgSelectorScopesTheRule) {
  const FaultGuard guard("t.arg[2]:throw");
  EXPECT_NO_THROW(robust::faultpoint("t.arg", 0));
  EXPECT_NO_THROW(robust::faultpoint("t.arg", 1));
  EXPECT_THROW(robust::faultpoint("t.arg", 2), robust::InjectedFault);
}

TEST(FaultPointTest, AttemptTriggerGatesOnRetryNumber) {
  const FaultGuard guard("t.attempt:throw@a0");
  robust::set_attempt(0);
  EXPECT_THROW(robust::faultpoint("t.attempt"), robust::InjectedFault);
  robust::set_attempt(1);  // the relaunch: same rule, no longer armed
  EXPECT_NO_THROW(robust::faultpoint("t.attempt"));
  robust::set_attempt(0);
}

TEST(FaultPointTest, ProbabilityIsSeededAndDeterministic) {
  const auto pattern = [] {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      bool f = false;
      try {
        robust::faultpoint("t.prob");
      } catch (const robust::InjectedFault&) {
        f = true;
      }
      fired.push_back(f);
    }
    return fired;
  };
  robust::configure("t.prob:throw@p0.5/1234");
  const std::vector<bool> first = pattern();
  robust::configure("t.prob:throw@p0.5/1234");  // fresh hit counter
  const std::vector<bool> second = pattern();
  robust::reset();
  EXPECT_EQ(first, second);
  const std::size_t fires =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, first.size());

  // p1 always fires; p0 never does.
  {
    const FaultGuard guard("t.p1:throw@p1");
    EXPECT_THROW(robust::faultpoint("t.p1"), robust::InjectedFault);
  }
  {
    const FaultGuard guard("t.p0:throw@p0");
    for (int i = 0; i < 16; ++i) EXPECT_NO_THROW(robust::faultpoint("t.p0"));
  }
}

TEST(FaultPointTest, MalformedEntriesAreRejected) {
  robust::reset();
  EXPECT_THROW(robust::configure("noaction"), std::invalid_argument);
  EXPECT_THROW(robust::configure("x:frobnicate"), std::invalid_argument);
  EXPECT_THROW(robust::configure("x:throw@p2"), std::invalid_argument);
  EXPECT_THROW(robust::configure("x:throw@0"), std::invalid_argument);
  EXPECT_THROW(robust::configure("x[a]:throw"), std::invalid_argument);
  EXPECT_THROW(robust::configure("x:delay=abc"), std::invalid_argument);
  // A failed configure must not leave the process armed.
  EXPECT_FALSE(robust::armed());
}

// --------------------------------------------------------- atomic_file

TEST(AtomicFileTest, WritesAndOverwrites) {
  const std::string dir = fresh_dir("pg_robust_atomic");
  const std::string path = dir + "/artifact.json";
  robust::atomic_write_file(path, "first");
  EXPECT_EQ(read_file(path), "first");
  robust::atomic_write_file(path, "second, longer content");
  EXPECT_EQ(read_file(path), "second, longer content");
  // No temp droppings on the happy path.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

TEST(AtomicFileTest, InjectedShortWriteTearsTheFinalFile) {
  const std::string dir = fresh_dir("pg_robust_torn");
  const std::string path = dir + "/artifact.json";
  const FaultGuard guard("torn.site:short-write");
  robust::atomic_write_file(path, "0123456789", "torn.site");
  // Truncated to half and renamed anyway -- the simulated legacy torn
  // write loaders must survive.
  EXPECT_EQ(read_file(path), "01234");
  std::filesystem::remove_all(dir);
}

TEST(AtomicFileTest, CrashLeavesTheFinalPathAbsentNeverTorn) {
  const std::string dir = fresh_dir("pg_robust_crash");
  const std::string path = dir + "/artifact.json";
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    robust::configure("crash.site:crash");
    try {
      robust::atomic_write_file(path, "doomed content", "crash.site");
    } catch (...) {
    }
    std::_Exit(0);  // unreachable: the fault point SIGKILLs first
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  // The crash hit between write and rename: the final path never
  // existed, so a reader sees "no artifact", not garbage.
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(AtomicFileTest, InjectedThrowDuringUpdateBaselineKeepsTheBaseline) {
  const std::string dir = fresh_dir("pg_robust_baseline");
  const std::string baseline = dir + "/baseline.json";
  const std::string candidate = dir + "/candidate.json";
  const std::string before =
      "{\"scenario\": \"t\", \"kind\": \"pure_sweep\", "
      "\"metrics\": {\"clean_accuracy\": 0.5}, \"tables\": []}";
  write_file(baseline, before);
  write_file(candidate,
             "{\"scenario\": \"t\", \"kind\": \"pure_sweep\", "
             "\"metrics\": {\"clean_accuracy\": 0.75}, \"tables\": []}");

  const FaultGuard guard("artifact.write:throw");
  scenario::CliOptions options;
  options.compare = true;
  options.compare_baseline = baseline;
  options.compare_candidate = candidate;
  options.update_baseline = true;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_NE(scenario::run_cli(options, out, err), 0);
  EXPECT_NE(err.str().find("artifact.write"), std::string::npos) << err.str();
  // The rewrite failed before its rename: the baseline is untouched and
  // no temp file is left beside it.
  EXPECT_EQ(read_file(baseline), before);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------- cache quarantine

TEST(DiskCacheQuarantineTest, CorruptShardIsQuarantinedOnLoad) {
  const std::string dir = fresh_dir("pg_robust_quarantine");
  const runtime::DiskPayoffCache cache(dir);
  runtime::PayoffCache mem;
  mem.preload({{1, 0.5}, {2, 0.25}, {3, 1.5}});
  ASSERT_EQ(cache.save(7, mem), 3u);

  // Tear the shard the way a crashed legacy writer would.
  const std::string path = cache.shard_path(7);
  const std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() / 2));

#ifndef PG_OBS_DISABLED
  const std::uint64_t before = obs::counter("obs.cache.quarantined").value();
#endif
  runtime::PayoffCache fresh;
  EXPECT_EQ(cache.load(7, fresh), 0u);  // degrades cold, never throws
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
#ifndef PG_OBS_DISABLED
  EXPECT_EQ(obs::counter("obs.cache.quarantined").value(), before + 1);
#endif

  // The poisoned bytes are out of the way: the next save/load round-trip
  // is healthy again.
  ASSERT_EQ(cache.save(7, mem), 3u);
  runtime::PayoffCache again;
  EXPECT_EQ(cache.load(7, again), 3u);
  std::filesystem::remove_all(dir);
}

TEST(DiskCacheQuarantineTest, InjectedShortWriteStoreDegradesNextRunCold) {
  const std::string dir = fresh_dir("pg_robust_shortstore");
  const runtime::DiskPayoffCache cache(dir);
  runtime::PayoffCache mem;
  mem.preload({{10, 1.0}, {11, 2.0}, {12, 3.0}, {13, 4.0}});
  {
    const FaultGuard guard("cache.store:short-write");
    ASSERT_EQ(cache.save(9, mem), 4u);  // store "succeeds" -- torn bytes
  }
  runtime::PayoffCache fresh;
  EXPECT_EQ(cache.load(9, fresh), 0u);
  EXPECT_TRUE(std::filesystem::exists(cache.shard_path(9) + ".corrupt"));
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------- shard-exec chaos

/// A small but real two-axis sweep (4 plan points), the chaos twin of
/// tests/golden/sweep_grid.spec.
std::string chaos_spec_text() {
  return
      "name = chaos_grid\n"
      "kind = pure_sweep\n"
      "description = chaos harness grid\n"
      "seed = 9\n"
      "instances = 140\n"
      "epochs = 8\n"
      "train_fraction = 0.7\n"
      "poison_fraction = 0.2\n"
      "class_separation = 1\n"
      "real_corpus = false\n"
      "sweep_steps = 2\n"
      "replications = 1\n"
      "sweep = epochs=6..10:2; seed=1,2\n"
      "attacks = boundary,label_flip\n"
      "defenses = distance,knn\n"
      "threads = 1\n"
      "use_cache = true\n";
}

TEST(ShardExecChaosTest, WorkerKilledMidWriteIsRetriedAndMergeIsExact) {
  const std::string dir = fresh_dir("pg_robust_shardexec");
  const std::string spec_path = dir + "/chaos.spec";
  write_file(spec_path, chaos_spec_text());

  // Kill worker 1 inside its partial's atomic write, FIRST launch only
  // (@a0): the retry -- stamped attempt 1 -- runs clean. The crash lands
  // between write and rename, so the parent sees a missing partial plus
  // a SIGKILLed child.
  const FaultGuard guard("artifact.partial[1]:crash@a0");

  scenario::CliOptions sharded;
  sharded.spec_file = spec_path;
  sharded.shard_exec = 3;
  sharded.shard_retries = 2;
  sharded.out_format = "json";
  sharded.out_file = dir + "/merged.json";
  sharded.overrides.emplace_back("cache_dir", dir + "/cache");
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(scenario::run_cli(sharded, out, err), 0) << err.str();
  EXPECT_NE(err.str().find("killed by signal 9"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("retrying 1 shard(s)"), std::string::npos)
      << err.str();

  // Tolerance 0 against a single-process run of the same spec: the
  // injected crash and the retry must be invisible in the numbers.
  scenario::CliOptions single;
  single.spec_file = spec_path;
  single.out_format = "json";
  single.out_file = dir + "/single.json";
  single.overrides.emplace_back("cache_dir", dir + "/cache_single");
  std::ostringstream out2;
  std::ostringstream err2;
  ASSERT_EQ(scenario::run_cli(single, out2, err2), 0) << err2.str();

  scenario::DiffOptions exact;
  exact.tolerance = 0.0;
  const scenario::ResultDiff diff = scenario::diff_results(
      scenario::parse_json(read_file(single.out_file)),
      scenario::parse_json(read_file(sharded.out_file)), exact);
  std::ostringstream report;
  scenario::write_diff_report(diff, exact, report);
  EXPECT_TRUE(diff.clean()) << report.str();
  std::filesystem::remove_all(dir);
}

TEST(ShardExecChaosTest, ExhaustedRetriesFailPermanentlyWithCleanError) {
  const std::string dir = fresh_dir("pg_robust_permanent");
  const std::string spec_path = dir + "/chaos.spec";
  write_file(spec_path, chaos_spec_text());

  // No attempt gate: shard 2's startup crashes on EVERY launch.
  const FaultGuard guard("shard.worker.start[2]:crash");
  scenario::CliOptions sharded;
  sharded.spec_file = spec_path;
  sharded.shard_exec = 3;
  sharded.shard_retries = 1;
  sharded.out_format = "json";
  sharded.out_file = dir + "/merged.json";
  sharded.overrides.emplace_back("cache_dir", dir + "/cache");
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(scenario::run_cli(sharded, out, err), 1);
  EXPECT_NE(err.str().find("shard(s) 2 failed permanently after 1 retry"),
            std::string::npos)
      << err.str();
  EXPECT_FALSE(std::filesystem::exists(sharded.out_file));
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- merge contract

TEST(MergeChaosTest, MissingShardsAreMachineReadableWithExitFour) {
  const std::string dir = fresh_dir("pg_robust_merge");
  const scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::parse(chaos_spec_text());
  std::vector<std::string> paths;
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const scenario::ScenarioResult part =
        scenario::run_scenario_shard(spec, {i, 3});
    std::ostringstream json;
    scenario::write_json(part, json);
    paths.push_back(dir + "/part-" + std::to_string(i) + ".json");
    write_file(paths.back(), json.str());
  }
  scenario::CliOptions merge;
  merge.merge = true;
  merge.merge_inputs = paths;  // shard 1 absent
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(scenario::run_cli(merge, out, err), scenario::kExitMissingShards);
  EXPECT_NE(out.str().find("missing_shards=1\n"), std::string::npos)
      << out.str();
  EXPECT_NE(err.str().find("missing shard(s): 1"), std::string::npos)
      << err.str();

  // A torn partial names its likely cause instead of a bare parse error.
  const std::string partial_bytes = read_file(paths[0]);
  write_file(paths[0], partial_bytes.substr(0, partial_bytes.size() / 2));
  std::ostringstream out2;
  std::ostringstream err2;
  EXPECT_EQ(scenario::run_cli(merge, out2, err2), 1);
  EXPECT_NE(err2.str().find("truncated or torn write"), std::string::npos)
      << err2.str();
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- serve resilience

class ServeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir("pg_robust_serve");
    options_.socket_path = dir_ + "/serve.sock";
    options_.threads = 1;
    options_.request_workers = 1;
    options_.cache_dir = dir_ + "/cache";
  }

  void Start() {
    server_ = std::make_unique<serve::ScenarioServer>(options_);
    server_->start();
  }

  void TearDown() override {
    robust::reset();  // BEFORE stop(): drain writes pass fault points too
    if (server_ != nullptr) server_->stop();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string dir_;
  serve::ServeOptions options_;
  std::unique_ptr<serve::ScenarioServer> server_;
};

TEST_F(ServeChaosTest, PingAnswersPongWithoutTouchingTheQueue) {
  Start();
  serve::Client client =
      serve::Client::connect_retry(options_.socket_path, 15000);
  const serve::Client::Response response = client.ping();
  EXPECT_TRUE(response.ok()) << response.body;
  EXPECT_NE(response.body.find("\"pong\": true"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"minor\": " +
                               std::to_string(serve::kProtocolMinor)),
            std::string::npos)
      << response.body;
  // Pings are health checks, not served requests.
  EXPECT_EQ(server_->requests_served(), 0u);
}

TEST_F(ServeChaosTest, ClientRetrySurvivesAnInjectedResponseWriteFault) {
  Start();
  // First response write on the server throws (connection drops mid
  // round-trip); the client's second attempt -- a fresh connection --
  // gets through. kMaxHeaderBytes-style transport faults are exactly
  // what request_retry is for; a structured error would NOT retry.
  const FaultGuard guard("serve.write:throw@1");
  serve::Client::RetryPolicy policy;
  policy.attempts = 3;
  policy.backoff_ms = 10;
  const serve::Client::Response response = serve::Client::request_retry(
      options_.socket_path, "name = health\nkind = serve_metrics\n", policy);
  EXPECT_TRUE(response.ok()) << response.body;
}

TEST_F(ServeChaosTest, SingleAttemptPolicyRethrowsTheTransportError) {
  Start();
  const FaultGuard guard("serve.write:throw");
  serve::Client::RetryPolicy policy;
  policy.attempts = 1;
  EXPECT_THROW(serve::Client::request_retry(
                   options_.socket_path,
                   "name = health\nkind = serve_metrics\n", policy),
               std::runtime_error);
}

}  // namespace
}  // namespace pg
