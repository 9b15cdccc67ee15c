// Structured scenario output: named tables + scalar metrics + cache
// stats, emitted through pluggable sinks.
//
// Every scenario runner fills one ScenarioResult instead of printf-ing;
// the sinks render it as JSON (machine consumption, the CI artifact
// trail), CSV (external plotting), or aligned text (the human-facing
// format pg_run prints by default). Values are stored raw -- a
// number stays a double all the way to the sink -- so the JSON/CSV
// output is exactly what the engine computed, with no formatting loss.
//
// Determinism note: everything in a result is bit-identical across runs
// and thread counts EXCEPT the fields that measure wall-clock time. By
// convention those live in columns/metrics whose name ends in "_ms" or
// "_seconds", or contains "speedup" (a ratio of wall-clock times), plus
// the top-level elapsed_seconds -- so a comparison tool can strip timing
// by name; tests/scenario_test.cpp and scenario/diff.cpp both do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "scenario/spec.h"

namespace pg::scenario {

/// A table/metric cell: either a double or a string.
class Value {
 public:
  Value() : number_(0.0), is_number_(true) {}
  Value(double v) : number_(v), is_number_(true) {}
  Value(std::size_t v) : number_(static_cast<double>(v)), is_number_(true) {}
  Value(int v) : number_(v), is_number_(true) {}
  Value(std::string s) : text_(std::move(s)), is_number_(false) {}
  Value(const char* s) : text_(s), is_number_(false) {}

  [[nodiscard]] bool is_number() const noexcept { return is_number_; }
  [[nodiscard]] double number() const noexcept { return number_; }
  [[nodiscard]] const std::string& text() const noexcept { return text_; }

  /// Uniform display form: numbers render shortest-exact, strings as-is.
  [[nodiscard]] std::string render() const;

 private:
  double number_ = 0.0;
  std::string text_;
  bool is_number_ = false;
};

struct ResultTable {
  std::string name;
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  /// Append a row; must match the column count (checked).
  void add_row(std::vector<Value> row);
};

/// Aggregated caching behavior of one engine run (summed over every
/// context shard the scenario touched). `cells_retrained == 0` on a warm
/// disk-cached re-run is the cross-process resume guarantee the CI
/// asserts.
struct CacheReport {
  bool enabled = false;       // in-memory memoization on?
  bool disk_enabled = false;  // disk spill configured?
  std::string disk_dir;
  std::size_t shards = 0;
  std::size_t cells_total = 0;
  std::size_t cells_retrained = 0;
  std::size_t cache_hits = 0;
  std::size_t disk_entries_loaded = 0;
  std::size_t disk_entries_saved = 0;
  std::uint64_t disk_max_bytes = 0;  // 0 = unbounded
  std::size_t disk_shards_evicted = 0;
};

/// One grid point's raw output inside a shard's partial envelope: the
/// point's PLAN index plus its un-merged metrics and tables, exactly as
/// the runner produced them. The merge entry point replays these through
/// the same merge_sweep_point fold a single-process run uses, so the
/// stitched artifact is value-identical to never having sharded at all.
struct PartialPoint {
  std::size_t index = 0;
  std::vector<std::pair<std::string, Value>> metrics;
  std::vector<ResultTable> tables;
};

/// The shard identity a `pg_run --shard i/N` partial carries: which
/// stride of which grid this artifact covers, plus the per-point raw
/// data the merge reconstructs from. `spec_text` is the resolved base
/// spec's canonical text -- identical across every shard of one sweep,
/// and the merge's cross-shard consistency check. Inactive
/// (total_shards == 0) on ordinary runs.
struct ShardEnvelope {
  std::size_t shard = 0;
  std::size_t total_shards = 0;  // 0 = not a partial
  std::size_t grid_size = 0;     // full plan size, not this shard's share
  std::string spec_text;
  std::vector<PartialPoint> points;  // ascending plan index

  [[nodiscard]] bool active() const noexcept { return total_shards > 0; }
};

struct ScenarioResult {
  ScenarioSpec spec;
  std::size_t executor_threads = 0;
  double elapsed_seconds = 0.0;
  /// Sweep-grid runs only: the axis keys, in declaration order. Each
  /// table then leads with one coordinate column per axis, so a sink
  /// consumer (or the --compare differ) can align rows across runs by
  /// their grid coordinates. Empty for single-point runs.
  std::vector<std::string> sweep_axes;
  /// Ordered scalar facts (corpus sizes, derived claims, ...).
  std::vector<std::pair<std::string, Value>> metrics;
  std::vector<ResultTable> tables;
  CacheReport cache;
  /// `--shard i/N` runs only: shard identity + per-point raw data. When
  /// active, the JSON sink wraps the normal body in a partial envelope
  /// (under the same schema_version) that `pg_run --merge` consumes.
  ShardEnvelope partial;

  void add_metric(std::string key, Value value) {
    metrics.emplace_back(std::move(key), std::move(value));
  }
};

/// The three sink backends.
void write_json(const ScenarioResult& result, std::ostream& out);
void write_csv(const ScenarioResult& result, std::ostream& out);
void write_text(const ScenarioResult& result, std::ostream& out);

/// Dispatch on "json" | "csv" | "text"; throws std::invalid_argument on
/// anything else.
void write_result(const ScenarioResult& result, const std::string& format,
                  std::ostream& out);

/// Append the current metrics-registry snapshot (src/obs/metrics.h) as
/// two tables: `telemetry_counters` (metric, value -- counters and
/// gauges) and `telemetry_timers` (metric, count, total_ms, mean_ms,
/// min_ms, max_ms). The engine calls this when the spec sets
/// `metrics=true`. The `telemetry` name prefix keeps both tables out of
/// golden comparison by default (scenario/diff.h) -- their values are
/// scheduling-dependent by nature. No-op when PG_OBS is compiled out
/// (empty snapshot adds empty tables so the section is still visible).
void append_metrics_tables(ScenarioResult& result);

/// Write the metrics snapshot as a small standalone JSON document:
/// {"schema_version": 1, "scenario": ..., "metrics": [{name, kind,
/// count, total_ms, mean_ms, min_ms, max_ms}, ...]}. This is the
/// `pg_run --metrics-out FILE` payload and the format committed under
/// bench/snapshots/.
void write_metrics_json(const std::string& scenario, std::ostream& out);

}  // namespace pg::scenario
