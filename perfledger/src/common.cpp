#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ledger.h"
#include "scenario/diff.h"

namespace ledger {

Spans::Scope Spans::span(std::string name) {
  if (!enabled_) return Scope(nullptr, -1);
  Record record;
  record.name = std::move(name);
  record.start_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - origin_)
          .count();
  record.parent = open_.empty() ? -1 : open_.back();
  record.pass = pass_;
  records_.push_back(std::move(record));
  const int index = static_cast<int>(records_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

void Spans::close(int index) {
  records_[static_cast<std::size_t>(index)].end_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - origin_)
          .count();
  open_.pop_back();
}

std::vector<double> Spans::self_ms() const {
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] = records_[i].end_ms - records_[i].start_ms;
  }
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      self[static_cast<std::size_t>(r.parent)] -= r.end_ms - r.start_ms;
    }
  }
  return self;
}

std::vector<double> Spans::durations(const std::string& name, int first_pass,
                                     int last_pass,
                                     const std::string& parent) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name != name || r.pass < first_pass || r.pass > last_pass) continue;
    if (!parent.empty() &&
        (r.parent < 0 ||
         records_[static_cast<std::size_t>(r.parent)].name != parent)) {
      continue;
    }
    out.push_back(r.end_ms - r.start_ms);
  }
  return out;
}

void Ops::record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

pg::scenario::ScenarioSpec spec_from_text(std::string text,
                                          std::uint64_t seed) {
  text += "\nseed = " + std::to_string(seed) + "\nreal_corpus = false\n";
  return pg::scenario::ScenarioSpec::parse(text);
}

pg::scenario::ScenarioSpec load_spec(const Options& options,
                                     const std::string& file,
                                     std::uint64_t seed) {
  return spec_from_text(read_file(options.specs_dir + "/" + file), seed);
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Layer median_layer(const std::vector<double>& values,
                   const std::string& absent_reason) {
  if (values.empty()) return {0.0, absent_reason, false};
  return {median(values), "", false};
}

namespace {

std::map<std::string, pg::obs::MetricSnapshot> snapshot() {
  std::map<std::string, pg::obs::MetricSnapshot> out;
  for (pg::obs::MetricSnapshot& m : pg::obs::snapshot_metrics()) {
    std::string name = m.name;
    out.emplace(std::move(name), std::move(m));
  }
  return out;
}

constexpr const char* kObsOff =
    "obs compiled out (-DPG_OBS=OFF): counts from obs::snapshot_metrics() "
    "are absent";

}  // namespace

ObsWindow::ObsWindow() : begin_(snapshot()) {}

void ObsWindow::stop() { end_ = snapshot(); }

Layer ObsWindow::count(const std::string& name) const {
  if (!obs_compiled()) return {0.0, kObsOff, false};
  const auto at = [](const auto& map, const std::string& key) {
    const auto it = map.find(key);
    return it == map.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  return {at(end_, name) - at(begin_, name), "", false};
}

Layer ObsWindow::timer_mean_ms(const std::string& name) const {
  if (!obs_compiled()) return {0.0, kObsOff, false};
  const auto get = [&name](const auto& map) {
    const auto it = map.find(name);
    return it == map.end() ? pg::obs::MetricSnapshot{} : it->second;
  };
  const pg::obs::MetricSnapshot a = get(begin_);
  const pg::obs::MetricSnapshot b = get(end_);
  const double calls = static_cast<double>(b.count - a.count);
  if (calls == 0) return {0.0, "no " + name + " samples in the window", false};
  return {(b.total_ms - a.total_ms) / calls, "", false};
}

std::string to_json(const pg::scenario::ScenarioResult& result) {
  std::ostringstream out;
  pg::scenario::write_json(result, out);
  return out.str();
}

std::string result_mismatch(const std::string& expected_json,
                            const std::string& actual_json) {
  const pg::scenario::ResultDiff diff = pg::scenario::diff_results(
      pg::scenario::parse_json(expected_json),
      pg::scenario::parse_json(actual_json), {.tolerance = 0.0});
  if (diff.clean()) return "";
  const pg::scenario::DiffEntry& first = diff.entries.front();
  return first.location + ": expected " + first.baseline + ", got " +
         first.candidate + " (" + std::to_string(diff.entries.size()) +
         " differences)";
}

}  // namespace ledger
