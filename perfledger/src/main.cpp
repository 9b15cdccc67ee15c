// pg_ledger: the performance ledger program. One workload per process:
//
//   pg_ledger --workload paper_cold|sanitize|solve|serve_mixed
//             --seed N --seconds S --trace 0|1
//             --specs DIR --reference DIR --work DIR --out DIR
//
// It prints every metric by name with its unit and sample count, writes
// a report file (and, traced, a span file) under --out, and prints as its
// last stdout line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics untraced, the per-layer metrics traced. It exits
// 1 when a correctness check failed and 2 when it could not run.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "la/simd.h"
#include "ledger.h"

extern char** environ;

namespace ledger {

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kPerLayer[] = {
    {"sim.prepare_experiment_ms", "ms"},
    {"sim.run_pure_sweep_ms", "ms"},
    {"sim.evaluate_mixed_defense_ms", "ms"},
    {"ml.svm_train_ms", "ms"},
    {"ml.sgd_steps", "count"},
    {"ml.sgd_steps_per_s", "1/s"},
    {"attack.boundary_ms", "ms"},
    {"attack.label_flip_ms", "ms"},
    {"attack.noise_ms", "ms"},
    {"defense.distance_ms", "ms"},
    {"defense.knn_ms", "ms"},
    {"defense.pca_ms", "ms"},
    {"defense.roni_ms", "ms"},
    {"defense.pipeline_prepare_ms", "ms"},
    {"defense.removed_ratio", "ratio"},
    {"runtime.cells_total", "count"},
    {"runtime.cells_retrained", "count"},
    {"runtime.cache_hit_ratio", "ratio"},
    {"runtime.disk_entries_loaded", "count"},
    {"runtime.disk_entries_saved", "count"},
    {"runtime.exec_dispatch", "count"},
    {"runtime.pool_tasks_stolen", "count"},
    {"runtime.team_generations", "count"},
    {"runtime.coalesced", "count"},
    {"core.compute_optimal_defense_ms", "ms"},
    {"core.alg1_iterations", "count"},
    {"game.discretize_ms", "ms"},
    {"game.lp_ms", "ms"},
    {"game.lp_pivots", "count"},
    {"game.fp_ms", "ms"},
    {"game.mw_ms", "ms"},
    {"game.max_exploitability", "payoff"},
    {"scenario.run_scenario_ms", "ms"},
    {"scenario.write_json_ms", "ms"},
    {"scenario.result_bytes", "bytes"},
    {"serve.request_wall_mean_ms", "ms"},
    {"serve.queue_wait_mean_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"bench.unattributed_ms", "ms"},
};

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "pg_ledger: " << problem
            << "\nusage: pg_ledger --workload W --seed N --seconds S "
               "--trace 0|1 --specs DIR --reference DIR --work DIR --out DIR\n";
  std::exit(2);
}

struct Args {
  Options options;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  Options& o = args.options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") o.workload = value;
      else if (flag == "--seed") o.seed = std::stoull(value);
      else if (flag == "--seconds") o.seconds = std::stod(value);
      else if (flag == "--trace") o.trace = value == "1";
      else if (flag == "--specs") o.specs_dir = value;
      else if (flag == "--reference") o.reference_dir = value;
      else if (flag == "--work") o.work_dir = value;
      else if (flag == "--out") args.out_dir = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.specs_dir.empty() || o.reference_dir.empty() || o.work_dir.empty() ||
      args.out_dir.empty() || !(o.seconds > 0)) {
    usage("missing arguments");
  }
  return args;
}

/// Hidden inputs: PG_BENCH_* resize registry specs, PG_CACHE_DIR adds a
/// disk cache, PG_FAULTS injects faults, PG_SIMD and PG_TEAM_MIN_WORK
/// pick execution paths. The ledger refuses to run with any PG_ variable
/// set (run.py clears them).
void refuse_hidden_inputs() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PG_", 3) == 0) {
      usage(std::string("refusing to run with ") + *e +
            " set: it would change what the program computes");
    }
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

#ifndef PG_LEDGER_BUILD_TYPE
#define PG_LEDGER_BUILD_TYPE "unknown"
#endif

}  // namespace

}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  const Args args = parse_args(argc, argv);
  const Options& options = args.options;
  refuse_hidden_inputs();

  WorkloadResult (*run)(const Options&, Spans&) = nullptr;
  if (options.workload == "paper_cold") run = &run_paper_cold;
  if (options.workload == "sanitize") run = &run_sanitize;
  if (options.workload == "solve") run = &run_solve;
  if (options.workload == "serve_mixed") run = &run_serve_mixed;
  if (run == nullptr) usage("unknown workload '" + options.workload + "'");

  Spans spans(options.trace);
  WorkloadResult result;
  try {
    std::filesystem::create_directories(options.work_dir);
    std::filesystem::create_directories(args.out_dir);
    result = run(options, spans);
  } catch (const std::exception& e) {
    std::cerr << "pg_ledger: " << options.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }
  const double rss = peak_rss_mb();

  const std::string meta =
      "\"workload\": " + str(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + num(options.seconds) +
      ", \"trace\": " + (options.trace ? "true" : "false") +
      ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"simd_tier\": " +
      str(pg::la::simd::tier_name(pg::la::simd::resolve_tier(""))) +
      ", \"build_type\": " + str(PG_LEDGER_BUILD_TYPE) +
      ", \"pg_obs\": " + (obs_compiled() ? "true" : "false") +
      ", \"spec_text\": " + str(result.spec_text);

  // ---- every metric, by name, with unit and sample count -------------
  std::cout << "ledger " << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n";
  std::ostringstream report;
  report << "{" << meta << ",\n \"end_to_end\": {";
  const char* sep = "";
  // One end-to-end metric: its value, unit, and the samples it is the
  // median (or rate, or quantile) of.
  const auto e2e = [&](const std::string& name, const std::string& unit,
                       const std::string& better,
                       const std::vector<double>& samples, double value) {
    std::cout << "  " << name << " = ";
    report << sep << "\n  " << str(name) << ": ";
    sep = ",";
    if (samples.empty()) {
      std::cout << "absent (not measured on this workload)\n";
      report << "null";
      return;
    }
    std::cout << num(value) << " " << unit << " (n=" << samples.size() << ", "
              << better << " is better)\n";
    report << "{\"value\": " << num(value) << ", \"unit\": " << str(unit)
           << ", \"n\": " << samples.size() << ", \"samples\": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      report << (i ? ", " : "") << num(samples[i]);
    }
    report << "]}";
  };
  const Ops& ops = result.ops;
  if (!options.trace) {
    const std::vector<double>& req = result.req_ms;
    e2e("wall_s", "s", "lower", result.wall_s, median(result.wall_s));
    e2e("warm_wall_s", "s", "lower", result.warm_wall_s,
        median(result.warm_wall_s));
    e2e("req_per_s", "1/s", "higher", req,
        static_cast<double>(req.size()) / result.req_window_s);
    e2e("req_p50_ms", "ms", "lower", req, quantile(req, 0.5));
    e2e("req_p95_ms", "ms", "lower", req, quantile(req, 0.95));
    e2e("setup_s", "s", "lower", result.setup_s, median(result.setup_s));
    // Every operation is a sample: 0 when it passed, 1 when it failed.
    std::vector<double> outcomes(ops.attempted, 0.0);
    std::fill_n(outcomes.begin(), ops.failed, 1.0);
    e2e("error_ratio", "ratio", "lower", outcomes,
        ops.attempted == 0 ? 0.0
                           : static_cast<double>(ops.failed) /
                                 static_cast<double>(ops.attempted));
    e2e("peak_rss_mb", "MB", "lower", {rss}, rss);
  }
  report << "\n },\n \"per_layer\": {";
  sep = "";
  std::string line = "{\"correct\": ";
  line += ops.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ops.attempted) +
          ", \"failed\": " + std::to_string(ops.failed) + ", \"metrics\": {";
  const char* msep = "";
  const auto emit = [&](const Metric& m, double value) {
    line += msep;
    line += str(m.name) + ": {\"value\": " + num(value) +
            ", \"unit\": " + str(m.unit) + "}";
    msep = ", ";
  };
  if (options.trace) {
    for (const Metric& m : kPerLayer) {
      const auto it = result.layers.find(m.name);
      const Layer layer = it != result.layers.end()
                        ? it->second
                        : Layer{0.0, "not on this workload's path", false};
      std::cout << "  " << m.name << " = ";
      report << sep << "\n  " << str(m.name) << ": ";
      sep = ",";
      if (!layer.absent.empty()) {
        std::cout << "absent (" << layer.absent << ")\n";
        report << "{\"absent\": " << str(layer.absent) << "}";
        // The JSON line needs a number for every metric: a layer
        // not on this workload's path did no work on it.
        if (obs_compiled()) emit(m, 0.0);
        continue;
      }
      std::cout << num(layer.value) << " " << m.unit
                << (layer.computed ? " (computed from the probe)" : "")
                << "\n";
      report << "{\"value\": " << num(layer.value) << ", \"unit\": "
             << str(m.unit) << ", \"computed\": "
             << (layer.computed ? "true" : "false") << "}";
      emit(m, layer.value);
    }
  } else {
    // The end-to-end metrics every workload has (see README.md for the
    // others, printed above where they apply).
    emit({"wall_s", "s"}, median(result.wall_s));
    emit({"setup_s", "s"}, median(result.setup_s));
    emit({"peak_rss_mb", "MB"}, rss);
  }
  line += "}}";

  // Per-layer self time of each traced pass (and the probe).
  report << "\n },\n \"self_ms_by_layer\": {";
  if (options.trace) {
    std::map<int, std::map<std::string, double>> by_pass;
    const std::vector<double> self = spans.self_ms();
    for (std::size_t i = 0; i < self.size(); ++i) {
      const Spans::Record& r = spans.records()[i];
      by_pass[r.pass][r.name.substr(0, r.name.find('.'))] += self[i];
    }
    const char* psep = "";
    for (const auto& [pass, layers] : by_pass) {
      report << psep << "\n  \"" << pass << "\": {";
      psep = ",";
      const char* lsep = "";
      for (const auto& [layer, ms] : layers) {
        report << lsep << str(layer) << ": " << num(ms);
        lsep = ", ";
      }
      report << "}";
    }
  }
  report << "\n },\n \"failures\": [";
  for (std::size_t i = 0; i < ops.failures.size(); ++i) {
    report << (i ? ", " : "") << str(ops.failures[i]);
    std::cout << "  FAILED: " << ops.failures[i] << "\n";
  }
  report << "],\n \"attempted\": " << ops.attempted
         << ", \"failed\": " << ops.failed << "\n}\n";

  const std::string stem = args.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  std::ofstream(stem + (options.trace ? "-traced" : "") + ".json")
      << report.str();
  if (options.trace) {
    std::ofstream trace(stem + "-spans.json");
    trace << "{" << meta << ",\n \"spans\": [";
    const auto& records = spans.records();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Spans::Record& r = records[i];
      trace << (i ? ",\n  " : "\n  ") << "{\"name\": " << str(r.name)
            << ", \"start_ms\": " << num(r.start_ms)
            << ", \"end_ms\": " << num(r.end_ms) << ", \"parent\": " << r.parent
            << ", \"pass\": " << r.pass << "}";
    }
    trace << "\n ]\n}\n";
  }
  std::cout << line << std::endl;
  return ops.failed == 0 ? 0 : 1;
}
