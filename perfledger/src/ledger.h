// Shared pieces of the performance ledger: run options, the in-memory
// span recorder, operation accounting, obs-counter deltas, and the result
// every workload hands back to main.cpp for reporting.
//
// The ledger measures the program from outside: it times calls into each
// module's public functions and reads the counters the program already
// keeps (ScenarioResult::cache, obs::snapshot_metrics()). It never
// changes a spec's execution-path keys (kernel, simd, lp_pricing), so a
// later change of those defaults is measured rather than bypassed.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "scenario/result.h"
#include "scenario/spec.h"

namespace ledger {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string specs_dir;      // the benchmark's spec texts
  std::string reference_dir;  // reference artifacts (default seed only)
  std::string work_dir;       // scratch: cache dirs, sockets
};

/// The seed at which paper_cold and sanitize compare against the
/// reference artifacts kept beside the benchmark.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// How many times each workload repeats its set-up; setup_s is the
/// median.
inline constexpr std::size_t kSetupReps = 3;

/// In-memory span recorder (name, start, end, parent, pass id), written
/// once at the end of a traced run. Main-thread only. When disabled every
/// scope is a no-op, so untraced passes pay one branch per call.
class Spans {
 public:
  struct Record {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;  // index into records(), -1 = top level
    int pass = -1;    // -1 = outside any timed pass (set-up, checks)
  };

  class Scope {
   public:
    Scope(Spans* owner, int index) : owner_(owner), index_(index) {}
    Scope(Scope&& other) noexcept
        : owner_(other.owner_), index_(other.index_) {
      other.owner_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope() {
      if (owner_ != nullptr) owner_->close(index_);
    }

   private:
    Spans* owner_;
    int index_;
  };

  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] Scope span(std::string name);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_pass(int pass) noexcept { pass_ = pass; }
  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  /// Duration minus the time covered by direct children.
  [[nodiscard]] std::vector<double> self_ms() const;
  /// Durations (ms) of the spans called `name` recorded in passes
  /// [first_pass, last_pass], whose parent is called `parent` when given.
  [[nodiscard]] std::vector<double> durations(
      const std::string& name, int first_pass, int last_pass,
      const std::string& parent = "") const;

 private:
  void close(int index);

  bool enabled_;
  Clock::time_point origin_;
  int pass_ = -1;
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// Operations attempted and failed. A failure is an error, a refused
/// request, or an output that did not pass its correctness check.
struct Ops {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // the first few messages

  void record(bool ok, const std::string& what);
};

/// One per-layer number of a traced run. `absent` names why a metric has
/// no value on this workload or build; `computed` marks a value scaled
/// up from a serial probe instead of measured in the pass.
struct Layer {
  double value = 0.0;
  std::string absent;
  bool computed = false;
};

struct WorkloadResult {
  std::string spec_text;  // every resolved spec the run executed
  std::vector<double> setup_s;
  std::vector<double> wall_s;       // one sample per timed pass
  std::vector<double> warm_wall_s;  // paper_cold, sanitize
  std::vector<double> req_ms;       // serve_mixed: one per OK request
  double req_window_s = 0.0;        // timed time those requests took
  std::map<std::string, Layer> layers;  // traced run only
  Ops ops;
};

[[nodiscard]] WorkloadResult run_paper_cold(const Options& options,
                                            Spans& spans);
[[nodiscard]] WorkloadResult run_sanitize(const Options& options,
                                          Spans& spans);
[[nodiscard]] WorkloadResult run_solve(const Options& options, Spans& spans);
[[nodiscard]] WorkloadResult run_serve_mixed(const Options& options,
                                             Spans& spans);

// ------------------------------------------------------------- helpers

[[nodiscard]] std::string read_file(const std::string& path);

/// Parse spec text of the benchmark, then pin the seed and the hidden
/// corpus input: a `data/spambase.data` in the working directory would
/// otherwise replace the synthetic corpus.
[[nodiscard]] pg::scenario::ScenarioSpec spec_from_text(std::string text,
                                                        std::uint64_t seed);

/// spec_from_text of a file under the specs directory.
[[nodiscard]] pg::scenario::ScenarioSpec load_spec(const Options& options,
                                                   const std::string& file,
                                                   std::uint64_t seed);

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Median of the present values; absent when there are none.
[[nodiscard]] Layer median_layer(const std::vector<double>& values,
                                 const std::string& absent_reason);

/// Whether the program was built with its observability layer (PG_OBS).
[[nodiscard]] constexpr bool obs_compiled() {
#ifdef PG_OBS_DISABLED
  return false;
#else
  return true;
#endif
}

/// Difference of the obs registry between construction and `stop()`.
/// Only traced runs use it: an untraced run reads no obs counter.
class ObsWindow {
 public:
  ObsWindow();
  void stop();
  /// Counter/gauge count delta; absent when obs is compiled out.
  [[nodiscard]] Layer count(const std::string& name) const;
  /// Timer mean over the window, in ms.
  [[nodiscard]] Layer timer_mean_ms(const std::string& name) const;

 private:
  std::map<std::string, pg::obs::MetricSnapshot> begin_;
  std::map<std::string, pg::obs::MetricSnapshot> end_;
};

/// The program's JSON sink form of a result.
[[nodiscard]] std::string to_json(const pg::scenario::ScenarioResult& result);

/// Compare two scenario result JSON documents at tolerance 0 with the
/// program's own differ (timing and telemetry fields excluded). Returns
/// "" when they match, else the first difference.
[[nodiscard]] std::string result_mismatch(const std::string& expected_json,
                                          const std::string& actual_json);

}  // namespace ledger
