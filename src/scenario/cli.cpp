#include "scenario/cli.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "robust/atomic_file.h"
#include "robust/faultpoint.h"
#include "scenario/diff.h"
#include "scenario/engine.h"
#include "scenario/registry.h"
#include "scenario/request.h"
#include "scenario/result.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/table.h"

namespace pg::scenario {

namespace {

std::string flag_value(const std::vector<std::string>& args, std::size_t& i,
                       const std::string& flag) {
  PG_CHECK(i + 1 < args.size(), flag + " requires a value");
  return args[++i];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PG_CHECK(static_cast<bool>(in), "cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Fail fast on an unwritable output path, BEFORE the run: opening for
/// append creates the file if missing but leaves existing content alone,
/// so probing costs nothing and a hours-long sweep cannot die at the
/// write-out step (mirroring the unwritable-cache-dir degradation
/// contract -- except outputs are the point of the run, so this is a
/// hard error, not a downgrade).
void ensure_writable(const std::string& path, const std::string& what) {
  // Probe in append mode (never clobbers existing bytes), and remove the
  // probe file again when it did not exist before: a failed run must not
  // leave a zero-byte artifact that reads as a torn write -- the final
  // path appears only via atomic_write_file's rename.
  const bool existed = std::filesystem::exists(path);
  std::ofstream probe(path, std::ios::app);
  PG_CHECK(static_cast<bool>(probe),
           "cannot write " + what + ": " + path);
  probe.close();
  if (!existed) std::filesystem::remove(path);
}

/// `pg_run --compare baseline candidate`: structured regression diff.
/// Exit 0 when every aligned value is within tolerance, 1 on drift or
/// shape changes -- unless --update-baseline, which accepts the
/// candidate by overwriting the baseline file and exits 0.
int run_compare(const CliOptions& options, std::ostream& out,
                std::ostream& err) {
  const std::string baseline_text = read_file(options.compare_baseline);
  const JsonValue baseline = parse_json(baseline_text);
  const JsonValue candidate = parse_json(read_file(options.compare_candidate));

  DiffOptions diff_options;
  diff_options.tolerance = options.tolerance;
  diff_options.ignore_timing = !options.with_timing;
  diff_options.ignore_telemetry = !options.with_telemetry;
  const ResultDiff diff = diff_results(baseline, candidate, diff_options);

  out << "comparing " << options.compare_baseline << " (baseline) vs "
      << options.compare_candidate << " (candidate)\n";
  write_diff_report(diff, diff_options, out);
  if (diff.clean()) return 0;

  if (options.update_baseline) {
    robust::atomic_write_file(options.compare_baseline,
                              read_file(options.compare_candidate));
    out << "baseline updated: " << options.compare_baseline << " now matches "
        << options.compare_candidate << "\n";
    return 0;
  }
  err << "error: results differ past tolerance (see report above)\n";
  return 1;
}

/// Parse a JSON artifact with a loader-side diagnosis: artifacts this
/// tree writes go through robust::atomic_write_file, so a file that
/// exists but does not parse is almost always a truncated or torn write
/// from a crashed legacy/foreign producer -- name that cause instead of
/// surfacing a bare parse error.
JsonValue parse_artifact(const std::string& path) {
  try {
    return parse_json(read_file(path));
  } catch (const std::exception& e) {
    throw std::runtime_error("cannot parse artifact " + path +
                             " (truncated or torn write?): " + e.what());
  }
}

/// Strict base-10 parse for shard counts/indices (no signs, no spaces).
std::size_t parse_count(const std::string& token, const std::string& what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  PG_CHECK(!token.empty() && end != nullptr && *end == '\0' &&
               token.find_first_not_of("0123456789") == std::string::npos,
           what + ", got '" + token + "'");
  return static_cast<std::size_t>(v);
}

/// `pg_run --merge a.json b.json ... [--out-file merged.json]`: stitch
/// shard partials into the canonical merged artifact. All validation
/// (schema, disjointness, completeness) lives in merge_partials; the
/// one failure this layer decorates is absent shards, which becomes the
/// machine-readable `missing_shards=i,j,...` stdout line plus exit code
/// kExitMissingShards so a retry wrapper can relaunch exactly those
/// shards without scraping prose.
int run_merge(const CliOptions& options, std::ostream& out,
              std::ostream& err) {
  std::vector<std::pair<std::string, JsonValue>> partials;
  partials.reserve(options.merge_inputs.size());
  for (const std::string& path : options.merge_inputs) {
    partials.emplace_back(path, parse_artifact(path));
  }
  ScenarioResult merged;
  try {
    merged = merge_partials(partials);
  } catch (const MissingShardsError& e) {
    std::string list;
    for (const std::size_t index : e.missing) {
      if (!list.empty()) list += ',';
      list += std::to_string(index);
    }
    out << "missing_shards=" << list << "\n";
    err << "error: " << e.what() << "\n";
    return kExitMissingShards;
  }
  if (!options.out_file.empty()) {
    std::ostringstream sink;
    write_result(merged, options.out_format, sink);
    robust::atomic_write_file(options.out_file, sink.str(),
                              "artifact.merged");
    out << "merged " << options.merge_inputs.size()
        << " shard partial(s) -> " << options.out_file << "\n";
  } else {
    write_result(merged, options.out_format, out);
  }
  return 0;
}

/// Fork one shard worker. The child stamps its attempt number into the
/// robust layer FIRST (so `@aN` fault triggers can arm "first launch
/// only" rules -- the chaos tests' way of making a crash that a retry
/// survives), passes the shard.worker.start fault point, then re-enters
/// run_cli as `--shard index/workers` writing `path`. Workers stay
/// quiet on stdout (the parent prints the summary); their error lines
/// go to the shared stderr. _Exit skips atexit and static destructors
/// -- correct for a forked worker.
pid_t spawn_shard_worker(const CliOptions& options, std::size_t index,
                         std::size_t workers, const std::string& path,
                         std::uint64_t attempt) {
  const pid_t pid = ::fork();
  PG_CHECK(pid >= 0, "--shard-exec: fork failed");
  if (pid != 0) return pid;
  robust::set_attempt(attempt);
  int code = 1;
  try {
    robust::faultpoint("shard.worker.start", index);
    CliOptions child = options;
    child.shard_exec = 0;
    child.shard_retries = 0;
    child.shard_index = index;
    child.shard_total = workers;
    child.out_file = path;
    child.out_format = "json";
    if (!options.metrics_out.empty()) {
      child.metrics_out = options.metrics_out + ".shard-" + std::to_string(index);
    }
    std::ostringstream quiet;
    code = run_cli(child, quiet, std::cerr);
  } catch (...) {
  }
  std::_Exit(code);
}

/// A worker's partial is usable iff it exists AND parses as JSON. A
/// worker that died inside atomic_write_file leaves NO final file (the
/// temp never renamed), so "missing" is the common crash signature;
/// "present but unparseable" catches torn writes from legacy producers
/// and the injected short-write action.
bool partial_usable(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  try {
    (void)parse_json(text.str());
  } catch (...) {
    return false;
  }
  return true;
}

/// `pg_run --shard-exec N [--shard-retries K]`: the single-machine
/// orchestrator. Fork N worker processes BEFORE this process creates
/// any executor threads (fork + threads do not mix); each worker
/// re-enters run_cli as `--shard i/N` writing `<out-file>.shard-<i>`,
/// all of them sharing the run's cache dir -- so cross-worker cell
/// reuse goes through DiskPayoffCache::claim/publish for real.
///
/// Failure handling: after each round the parent inspects every
/// launched worker -- nonzero exit, death by signal, or a
/// missing/unparseable partial all mark that shard failed. With
/// --shard-retries K, exactly the failed shards relaunch (up to K extra
/// rounds) after an exponential backoff with jitter; shards are
/// deterministic, so a retried partial is bit-identical to what the
/// first launch would have written. Shards still failing after the
/// budget are reported per-index and the run exits 1
/// (obs.shard.failed_permanent counts them; obs.shard.retried counts
/// every relaunch). The parent finally merges in-process and writes the
/// merged artifact; the partials stay on disk for inspection.
int run_shard_exec(const CliOptions& options, std::ostream& out,
                   std::ostream& err) {
  const std::size_t workers = options.shard_exec;
  ensure_writable(options.out_file, "output file");
  std::vector<std::string> paths(workers);
  std::vector<std::size_t> pending(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    paths[i] = options.out_file + ".shard-" + std::to_string(i);
    pending[i] = i;
  }
  // Jitter decorrelates workers relaunched by SIBLING orchestrators
  // sharing one cache dir, so the seed must differ per process -- the
  // pid is exactly that (and this is scheduling, not results, so the
  // nondeterminism is contained).
  util::Rng jitter(static_cast<std::uint64_t>(::getpid()));
  std::vector<std::size_t> failed_permanent;
  for (std::uint64_t attempt = 0;; ++attempt) {
    std::vector<pid_t> pids(pending.size(), -1);
    for (std::size_t j = 0; j < pending.size(); ++j) {
      // Drop any stale partial first: a worker that failed AFTER
      // renaming its artifact into place must not satisfy the
      // usability probe below with last attempt's bytes.
      if (attempt > 0) std::remove(paths[pending[j]].c_str());
      pids[j] = spawn_shard_worker(options, pending[j], workers,
                                   paths[pending[j]], attempt);
    }
    std::vector<std::size_t> failures;
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const std::size_t i = pending[j];
      int status = 0;
      const pid_t waited = ::waitpid(pids[j], &status, 0);
      std::string why;
      if (waited != pids[j]) {
        why = "waitpid failed";
      } else if (WIFSIGNALED(status)) {
        why = "killed by signal " + std::to_string(WTERMSIG(status));
      } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        why = "exited with code " +
              std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      } else if (!partial_usable(paths[i])) {
        why = "exited cleanly but its partial is missing or unparseable";
      }
      if (why.empty()) continue;
      err << "error: --shard-exec worker " << i << "/" << workers << " "
          << why << " (attempt " << (attempt + 1) << "/"
          << (options.shard_retries + 1) << ")\n";
      failures.push_back(i);
    }
    if (failures.empty()) break;
    if (attempt >= options.shard_retries) {
      failed_permanent = std::move(failures);
      break;
    }
    static obs::Counter& retried = obs::counter("obs.shard.retried");
    retried.add(failures.size());
    const std::uint64_t base =
        std::min<std::uint64_t>(std::uint64_t{100} << attempt, 2000);
    const std::uint64_t sleep_ms =
        base / 2 + jitter.uniform_index(static_cast<std::size_t>(base / 2) + 1);
    err << "--shard-exec: retrying " << failures.size() << " shard(s) after "
        << sleep_ms << " ms backoff\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    pending = std::move(failures);
  }
  if (!failed_permanent.empty()) {
    static obs::Counter& permanent =
        obs::counter("obs.shard.failed_permanent");
    permanent.add(failed_permanent.size());
    std::string list;
    for (const std::size_t index : failed_permanent) {
      if (!list.empty()) list += ',';
      list += std::to_string(index);
    }
    PG_CHECK(false, "--shard-exec: shard(s) " + list +
                        " failed permanently after " +
                        std::to_string(options.shard_retries) +
                        " retr" +
                        (options.shard_retries == 1 ? "y" : "ies") +
                        " (worker error output is above)");
  }
  std::vector<std::pair<std::string, JsonValue>> partials;
  partials.reserve(workers);
  for (const std::string& path : paths) {
    partials.emplace_back(path, parse_artifact(path));
  }
  const ScenarioResult merged = merge_partials(partials);
  std::ostringstream sink;
  write_result(merged, options.out_format, sink);
  robust::atomic_write_file(options.out_file, sink.str(), "artifact.merged");
  out << "merged " << workers << " shard partial(s) -> " << options.out_file
      << "\n";
  if (!options.metrics_out.empty()) {
    // The orchestrator's own snapshot: obs.shard.* live HERE, not in any
    // worker's metrics file, so chaos harnesses assert on this one.
    std::ostringstream metrics;
    write_metrics_json("shard-exec", metrics);
    robust::atomic_write_file(options.metrics_out, metrics.str(),
                              "artifact.metrics");
    out << "wrote " << options.metrics_out << "\n";
  }
  return 0;
}

}  // namespace

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--print-spec") {
      options.print_spec = true;
    } else if (arg == "--scenario") {
      options.scenario = flag_value(args, i, arg);
    } else if (arg == "--spec") {
      options.spec_file = flag_value(args, i, arg);
    } else if (arg == "--set") {
      const std::string kv = flag_value(args, i, arg);
      const std::size_t eq = kv.find('=');
      PG_CHECK(eq != std::string::npos && eq > 0,
               "--set expects key=value, got '" + kv + "'");
      options.overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (arg == "--sweep") {
      // Appends one grid axis; see CliOptions for the "sweep+" marker.
      options.overrides.emplace_back("sweep+", flag_value(args, i, arg));
    } else if (arg == "--compare") {
      options.compare = true;
      options.compare_baseline = flag_value(args, i, arg);
      options.compare_candidate = flag_value(args, i, "--compare <baseline>");
    } else if (arg == "--tolerance") {
      const std::string value = flag_value(args, i, arg);
      char* end = nullptr;
      options.tolerance = std::strtod(value.c_str(), &end);
      PG_CHECK(!value.empty() && end != nullptr && *end == '\0' &&
                   options.tolerance >= 0.0,
               "--tolerance expects a non-negative number, got '" + value +
                   "'");
    } else if (arg == "--update-baseline") {
      options.update_baseline = true;
    } else if (arg == "--with-timing") {
      options.with_timing = true;
    } else if (arg == "--with-telemetry") {
      options.with_telemetry = true;
    } else if (arg == "--cache-max-bytes") {
      options.overrides.emplace_back("cache_max_bytes",
                                     flag_value(args, i, arg));
    } else if (arg == "--threads") {
      options.overrides.emplace_back("threads", flag_value(args, i, arg));
    } else if (arg == "--cache-dir") {
      options.overrides.emplace_back("cache_dir", flag_value(args, i, arg));
    } else if (arg == "--no-cache") {
      options.overrides.emplace_back("use_cache", "false");
    } else if (arg == "--out") {
      options.out_format = flag_value(args, i, arg);
    } else if (arg == "--out-file") {
      options.out_file = flag_value(args, i, arg);
    } else if (arg == "--trace") {
      options.overrides.emplace_back("trace", flag_value(args, i, arg));
    } else if (arg == "--metrics-out") {
      options.metrics_out = flag_value(args, i, arg);
      options.overrides.emplace_back("metrics", "true");
    } else if (arg == "--shard") {
      const std::string value = flag_value(args, i, arg);
      const std::size_t slash = value.find('/');
      PG_CHECK(slash != std::string::npos && slash > 0 &&
                   slash + 1 < value.size(),
               "--shard expects i/N (e.g. 0/3), got '" + value + "'");
      options.shard_index = parse_count(
          value.substr(0, slash), "--shard expects i/N (e.g. 0/3)");
      options.shard_total = parse_count(
          value.substr(slash + 1), "--shard expects i/N (e.g. 0/3)");
      PG_CHECK(options.shard_total >= 1,
               "--shard: total shard count must be >= 1, got '" + value +
                   "'");
      PG_CHECK(options.shard_index < options.shard_total,
               "--shard: index " + std::to_string(options.shard_index) +
                   " out of range for " +
                   std::to_string(options.shard_total) + " shard(s)");
    } else if (arg == "--shard-exec") {
      options.shard_exec = parse_count(
          flag_value(args, i, arg), "--shard-exec expects a worker count");
      PG_CHECK(options.shard_exec >= 1 && options.shard_exec <= 1024,
               "--shard-exec expects 1-1024 workers, got " +
                   std::to_string(options.shard_exec));
    } else if (arg == "--shard-retries") {
      options.shard_retries = parse_count(
          flag_value(args, i, arg), "--shard-retries expects a retry count");
      PG_CHECK(options.shard_retries <= 16,
               "--shard-retries expects 0-16, got " +
                   std::to_string(options.shard_retries));
    } else if (arg == "--fault") {
      options.faults.push_back(flag_value(args, i, arg));
    } else if (arg == "--merge") {
      options.merge = true;
    } else if (options.merge && arg.rfind("--", 0) != 0) {
      // Trailing non-flag arguments after --merge are the partials.
      options.merge_inputs.push_back(arg);
    } else {
      PG_CHECK(false, "unknown argument: " + arg + "\n" + cli_usage());
    }
  }
  PG_CHECK(options.scenario.empty() || options.spec_file.empty(),
           "--scenario and --spec are mutually exclusive");
  PG_CHECK(!options.compare ||
               (options.scenario.empty() && options.spec_file.empty()),
           "--compare does not combine with --scenario/--spec");
  PG_CHECK(options.compare || !options.update_baseline,
           "--update-baseline only applies to --compare");
  PG_CHECK(options.out_format == "text" || options.out_format == "json" ||
               options.out_format == "csv",
           "--out expects json, csv, or text");
  if (options.merge) {
    PG_CHECK(options.scenario.empty() && options.spec_file.empty(),
             "--merge does not combine with --scenario/--spec");
    PG_CHECK(!options.compare, "--merge does not combine with --compare");
    PG_CHECK(options.shard_total == 0 && options.shard_exec == 0,
             "--merge does not combine with --shard/--shard-exec");
    PG_CHECK(!options.merge_inputs.empty(),
             "--merge needs at least one partial artifact "
             "(pg_run --merge a.json b.json ...)");
    PG_CHECK(options.metrics_out.empty(),
             "--metrics-out does not apply to --merge (merging runs no "
             "scenario)");
  }
  if (options.shard_total > 0) {
    PG_CHECK(!options.compare, "--shard does not combine with --compare");
  }
  PG_CHECK(options.shard_retries == 0 || options.shard_exec > 0,
           "--shard-retries only applies to --shard-exec (nothing else "
           "relaunches workers)");
  if (options.shard_exec > 0) {
    PG_CHECK(options.shard_total == 0,
             "--shard-exec and --shard are mutually exclusive (the "
             "orchestrator assigns worker shards itself)");
    PG_CHECK(!options.compare, "--shard-exec does not combine with "
                               "--compare");
    PG_CHECK(!options.out_file.empty(),
             "--shard-exec needs --out-file (the merged artifact "
             "destination; partials land next to it)");
    PG_CHECK(!options.print_spec,
             "--print-spec does not combine with --shard-exec");
    for (const auto& [key, value] : options.overrides) {
      (void)value;
      PG_CHECK(key != "trace",
               "--trace does not combine with --shard-exec (N workers "
               "would race on one trace file)");
    }
  }
  return options;
}

std::string cli_usage() {
  return
      "pg_run -- unified scenario driver for the poisongame reproduction\n"
      "\n"
      "usage:\n"
      "  pg_run --list                      show the scenario catalog\n"
      "  pg_run --scenario <name> [opts]    run a registered scenario\n"
      "  pg_run --spec <file> [opts]        run a key=value spec file\n"
      "  pg_run --compare A.json B.json     diff two JSON result artifacts\n"
      "  pg_run --merge P0.json P1.json ... stitch --shard partials into\n"
      "                                     the canonical merged result\n"
      "                                     (absent shards print\n"
      "                                     missing_shards=i,j,... and\n"
      "                                     exit 4)\n"
      "\n"
      "run options:\n"
      "  --set key=value   override one spec field (repeatable, last wins)\n"
      "  --sweep CLAUSE    add a grid axis: key=lo..hi[:steps] (steps\n"
      "                    default 5) or key=v1,v2,... (repeatable; the\n"
      "                    run becomes the cross product of all axes,\n"
      "                    merged into one result)\n"
      "  --threads N       executor width (0 = all cores, 1 = serial)\n"
      "  --cache-dir DIR   payoff disk-cache directory (default $PG_CACHE_DIR)\n"
      "  --cache-max-bytes N  evict oldest disk-cache shards past N bytes\n"
      "  --no-cache        disable payoff memoization entirely\n"
      "  --out FORMAT      json | csv | text (default text)\n"
      "  --out-file PATH   write the sink there instead of stdout\n"
      "  --trace PATH      record a Chrome Trace Event JSON of the run\n"
      "                    (open in chrome://tracing or Perfetto)\n"
      "  --metrics-out PATH  write the run's counter/timer snapshot as\n"
      "                    JSON (implies --set metrics=true)\n"
      "  --shard i/N       run the deterministic stride {i, i+N, i+2N, ...}\n"
      "                    of the sweep grid (plan indices) and emit a\n"
      "                    partial artifact; point workers at ONE shared\n"
      "                    --cache-dir so they reuse each other's retrains,\n"
      "                    then stitch the N partials with --merge\n"
      "  --shard-exec N    single-machine orchestrator: fork N local shard\n"
      "                    workers over the shared cache dir, wait, merge,\n"
      "                    and write the merged artifact to --out-file\n"
      "                    (partials stay at <out-file>.shard-<i>)\n"
      "  --shard-retries K with --shard-exec: relaunch a failed worker\n"
      "                    (crash, nonzero exit, missing/torn partial) up\n"
      "                    to K more times with exponential backoff before\n"
      "                    giving up (default 0 = fail fast)\n"
      "  --fault SPEC      arm one deterministic fault-injection rule\n"
      "                    (repeatable; flags replace $PG_FAULTS). Grammar:\n"
      "                    site[arg]:action[@trigger], e.g.\n"
      "                    'cache.store:short-write' or\n"
      "                    'shard.worker.start[1]:crash@a0' -- see\n"
      "                    src/robust/faultpoint.h\n"
      "  --print-spec      print the resolved spec and exit\n"
      "\n"
      "compare options (regression triage; exits 1 past tolerance):\n"
      "  --tolerance T       accept |a-b| <= T or relative delta <= T\n"
      "  --update-baseline   overwrite A.json with B.json when they differ\n"
      "  --with-timing       also compare _ms/_seconds wall-clock values\n"
      "  --with-telemetry    also compare telemetry* tables and obs.*\n"
      "                    metric keys (skipped by default)\n"
      "\n"
      "Scenario sizes honor the historical PG_BENCH_* env knobs; --set\n"
      "overrides take precedence over both.\n";
}

int run_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  try {
    if (!options.faults.empty()) {
      // --fault flags REPLACE any $PG_FAULTS table (flags win, like
      // every other env/flag pair in this CLI). Forked shard workers
      // re-run this line with the same entries, which just resets their
      // per-process hit counters -- each worker counts its own hits.
      std::string joined;
      for (const std::string& entry : options.faults) {
        if (!joined.empty()) joined += ',';
        joined += entry;
      }
      robust::configure(joined);
    }
    if (options.help) {
      out << cli_usage();
      return 0;
    }
    if (options.list) {
      util::TextTable table({"scenario", "kind", "description"});
      for (const ScenarioEntry& e : ScenarioRegistry::instance().entries()) {
        table.add_row({e.name, e.kind, e.description});
      }
      out << table.str();
      return 0;
    }

    if (options.compare) {
      return run_compare(options, out, err);
    }
    if (options.merge) {
      return run_merge(options, out, err);
    }

    PG_CHECK(!options.scenario.empty() || !options.spec_file.empty(),
             "nothing to run: pass --list, --scenario, --spec, --merge, "
             "or --compare\n" +
                 cli_usage());
    // Resolution (name/spec-text + overrides -> runnable spec) lives in
    // RequestOptions so pg_serve requests follow the exact same
    // precedence rules as this CLI.
    RequestOptions request;
    request.scenario = options.scenario;
    if (!options.spec_file.empty()) {
      request.spec_text = read_file(options.spec_file);
    }
    request.overrides = options.overrides;
    ScenarioSpec spec = request.resolve();

    if (options.print_spec) {
      out << spec.to_text();
      return 0;
    }

    if (options.shard_exec > 0) {
      // Fork the workers BEFORE any executor threads exist in this
      // process (each worker builds its own runtime after the fork).
      return run_shard_exec(options, out, err);
    }

    // Probe every output path BEFORE the run: a typo'd --out-file/--trace/
    // --metrics-out must be a one-line error now, not a dead artifact
    // after minutes of compute.
    if (!options.out_file.empty()) {
      ensure_writable(options.out_file, "output file");
    }
    if (!spec.trace.empty()) ensure_writable(spec.trace, "trace file");
    if (!options.metrics_out.empty()) {
      ensure_writable(options.metrics_out, "metrics file");
    }

    const ScenarioResult result =
        options.shard_total > 0
            ? run_scenario_shard(spec,
                                 {options.shard_index, options.shard_total})
            : run_scenario(spec);
    if (!options.out_file.empty()) {
      // Shard partials and plain result artifacts carry distinct fault
      // sites so chaos specs can kill exactly the write they mean to;
      // the arg is the shard index (0 for unsharded runs).
      std::ostringstream sink;
      write_result(result, options.out_format, sink);
      robust::atomic_write_file(
          options.out_file, sink.str(),
          options.shard_total > 0 ? "artifact.partial" : "artifact.out",
          options.shard_index);
      out << "wrote " << options.out_file << "\n";
    } else {
      write_result(result, options.out_format, out);
    }
    if (!options.metrics_out.empty()) {
      std::ostringstream sink;
      write_metrics_json(result.spec.name, sink);
      robust::atomic_write_file(options.metrics_out, sink.str(),
                                "artifact.metrics", options.shard_index);
      out << "wrote " << options.metrics_out << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace pg::scenario
