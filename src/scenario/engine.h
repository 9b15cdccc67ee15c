// The scenario engine: one loop that executes any ScenarioSpec.
//
// run_scenario resolves the spec's execution envelope (executor width,
// cache layers), dispatches on `spec.kind` to the matching runner, and
// returns a structured ScenarioResult. When the spec carries `sweep`
// axes (scenario/sweep.h) the engine instead expands the cross-product
// grid and runs every point through the same dispatch -- one executor,
// one shared cache bundle -- then merges the per-point results into a
// single ScenarioResult whose tables lead with the axis coordinates. Each runner drives the same sim/
// and core/ entry points the legacy bench binaries called with the same
// parameters and seeds, so at a fixed seed the numbers are bit-identical
// to the pre-refactor benches -- and bit-identical at 1 vs N threads,
// inherited from the runtime's determinism contract.
//
// Caching: when `spec.use_cache` is on, every experiment context gets a
// PayoffCache shard keyed by its context fingerprint; retrain-priced
// cells (sweep cells, mixed-eval cells, ablation pipeline runs) memoize
// into the shard, and when a cache directory is configured (spec field or
// $PG_CACHE_DIR) each shard is preloaded from and spilled back to disk,
// so a re-run -- or a tweaked sweep overlapping the old grid -- reuses
// prior retrains across processes. The resulting traffic is reported in
// ScenarioResult::cache; a warm re-run shows cells_retrained == 0.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/diff.h"
#include "scenario/result.h"
#include "scenario/spec.h"

namespace pg::runtime {
class Executor;
}  // namespace pg::runtime

namespace pg::scenario {

class ShardStore;

/// Execute the spec. Throws std::invalid_argument on an unknown kind or
/// out-of-range knobs (the validation the per-bench mains used to spread
/// across eight copies of main()).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// One worker's slice of a distributed sweep: run plan indices
/// {index, index + total, ...} of the spec's sweep grid.
struct ShardRequest {
  std::size_t index = 0;
  std::size_t total = 0;  // must be >= 1; index < total
};

/// Execute one deterministic shard of a sweep grid (standalone
/// lifecycle, like run_scenario). The result carries an active
/// ShardEnvelope (`result.partial`) with the covered plan indices and
/// every covered point's raw output; its JSON sink form is the partial
/// artifact `merge_partials` stitches. Requires the spec to have sweep
/// axes; throws on index >= total or total == 0. Workers sharing a
/// `cache_dir` coordinate through DiskPayoffCache (content-addressed
/// shards + single-flight claim/publish), nothing else.
[[nodiscard]] ScenarioResult run_scenario_shard(const ScenarioSpec& spec,
                                                const ShardRequest& shard);

/// Stitch shard partials (parsed JSON artifacts, labelled for error
/// messages) back into the canonical merged ScenarioResult -- value-
/// identical to a single-process run of the same spec: points replay
/// through the same plan-order merge fold, then aggregates recompute
/// over the full grid. Validates before touching anything: every input
/// is a partial under the current schema_version, all agree on
/// total_shards/grid_size/spec text, shard indices are distinct, each
/// covers exactly its stride, and the union covers the whole grid
/// (missing or overlapping shards are a hard error naming the label).
[[nodiscard]] ScenarioResult merge_partials(
    const std::vector<std::pair<std::string, JsonValue>>& partials);

/// Thrown by merge_partials when the inputs are valid, mutually
/// consistent partials of one sweep but some shards are absent. Carries
/// the missing indices so a retry wrapper can relaunch exactly those
/// shards; `pg_run --merge` turns it into the machine-readable
/// `missing_shards=i,j,...` stdout line and exit code 4 (other merge
/// failures stay generic exit 1).
struct MissingShardsError : std::runtime_error {
  MissingShardsError(const std::string& message,
                     std::vector<std::size_t> missing_shards)
      : std::runtime_error(message), missing(std::move(missing_shards)) {}
  std::vector<std::size_t> missing;
};

/// Coordinate cells in merged sweep tables: numeric ONLY for finite
/// values whose text is a canonical grid rendering (shortest-roundtrip
/// double or plain integer form) -- so `10` and `0.05` become numbers
/// while `inf`, `nan`, `0x10`, `007`, or `1e3` stay the strings the spec
/// text spelled. Exposed for tests; the merge fold and --merge both use
/// it, so shard and single-process artifacts agree cell-for-cell.
[[nodiscard]] Value coordinate_value(const std::string& text);

/// Shared execution substrate for RE-ENTRANT runs: a resident owner (the
/// pg_serve daemon) builds the executor and shard store once and runs
/// many specs against them. In this mode the engine does NOT manage the
/// process-level observability lifecycle (no metrics reset, no tracer
/// start, no trace-file write -- those belong to the owner, which also
/// spills the shard store at drain), so concurrent run_scenario calls on
/// one context are safe. `spec.trace` must be empty (PG_CHECKed);
/// `spec.threads`/cache keys describe the run but the context's executor
/// and store are what actually execute it -- the owner is expected to
/// force-override those keys (scenario::RequestOptions documents the
/// precedence).
struct EngineContext {
  runtime::Executor* executor = nullptr;
  ShardStore* shards = nullptr;
};

/// Execute the spec on a shared context. Same validation and results as
/// the standalone overload; bit-identical output for the same resolved
/// spec (the cache/timing blocks are the usual non-deterministic
/// exclusions).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          EngineContext& context);

}  // namespace pg::scenario
