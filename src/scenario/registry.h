// Named scenario catalog: every paper reproduction the bench binaries
// used to hard-code, expressed as a ScenarioSpec factory.
//
// The factories read the historical PG_BENCH_* environment knobs
// (seed/instances/epochs/replications/threads, see paper_base() in
// registry.cpp) exactly the way the legacy benches did -- including the per-scenario
// size caps (prop1 ran at min(instances, 1500), etc.) -- so a spec built
// here reproduces the pre-refactor bench configuration bit for bit at any
// env setting. CLI overrides (`--set`) then apply on top of the built
// spec.
#pragma once

#include <string>
#include <vector>

#include "scenario/spec.h"

namespace pg::scenario {

struct ScenarioEntry {
  std::string name;
  std::string kind;
  std::string description;
  /// Build the (env-aware) spec for this scenario.
  ScenarioSpec (*make)();
};

class ScenarioRegistry {
 public:
  /// The process-wide catalog (immutable after construction).
  [[nodiscard]] static const ScenarioRegistry& instance();

  [[nodiscard]] const std::vector<ScenarioEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] bool contains(const std::string& name) const;
  /// Build the named spec. Throws std::invalid_argument on unknown names.
  [[nodiscard]] ScenarioSpec make(const std::string& name) const;

 private:
  ScenarioRegistry();
  std::vector<ScenarioEntry> entries_;
};

}  // namespace pg::scenario
