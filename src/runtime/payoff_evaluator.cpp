#include "runtime/payoff_evaluator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace pg::runtime {

ContentKey& ContentKey::mix(std::uint64_t word) noexcept {
  // FNV-1a, one byte at a time over the word.
  for (int b = 0; b < 8; ++b) {
    state_ ^= (word >> (8 * b)) & 0xFFU;
    state_ *= 0x100000001B3ULL;  // FNV-1a 64-bit prime
  }
  return *this;
}

ContentKey& ContentKey::mix(double value) noexcept {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return mix(bits);
}

std::uint64_t ContentKey::digest() const noexcept {
  // SplitMix64 finalizer: avalanches the FNV state so near-equal inputs
  // (adjacent grid fractions) land in unrelated cache buckets and RNG
  // stream indices.
  std::uint64_t z = state_ + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool PayoffCache::lookup(std::uint64_t key, double& value) const {
  static obs::Counter& obs_hits = obs::counter("obs.cache.hits");
  static obs::Counter& obs_misses = obs::counter("obs.cache.misses");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    obs_misses.add(1);
    return false;
  }
  ++stats_.hits;
  obs_hits.add(1);
  value = it->second;
  return true;
}

void PayoffCache::store(std::uint64_t key, double value) {
  static obs::Counter& obs_stores = obs::counter("obs.cache.stores");
  obs_stores.add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  map_.emplace(key, value);
}

PayoffCache::Claim PayoffCache::claim(std::uint64_t key, double& value) {
  static obs::Counter& obs_hits = obs::counter("obs.cache.hits");
  static obs::Counter& obs_misses = obs::counter("obs.cache.misses");
  static obs::Counter& obs_coalesced = obs::counter("obs.cache.coalesced");
  std::unique_lock<std::mutex> lock(mutex_);
  bool waited = false;
  for (;;) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++stats_.hits;
      obs_hits.add(1);
      if (waited) obs_coalesced.add(1);
      value = it->second;
      return waited ? Claim::kWaited : Claim::kHit;
    }
    if (inflight_.insert(key).second) {
      ++stats_.misses;
      obs_misses.add(1);
      return Claim::kOwner;
    }
    // Someone else owns this key: sleep until it publishes or abandons.
    waited = true;
    flight_cv_.wait(lock);
  }
}

void PayoffCache::publish(std::uint64_t key, double value) {
  static obs::Counter& obs_stores = obs::counter("obs.cache.stores");
  obs_stores.add(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.emplace(key, value);
    inflight_.erase(key);
  }
  flight_cv_.notify_all();
}

void PayoffCache::abandon(std::uint64_t key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
  }
  // A waiter on this key re-runs the claim loop, finds no value and no
  // owner, and is promoted to owner itself.
  flight_cv_.notify_all();
}

std::size_t PayoffCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

void PayoffCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  stats_ = {};
}

PayoffCacheStats PayoffCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<std::pair<std::uint64_t, double>> PayoffCache::snapshot() const {
  std::vector<std::pair<std::uint64_t, double>> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries.assign(map_.begin(), map_.end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

void PayoffCache::preload(
    const std::vector<std::pair<std::uint64_t, double>>& entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, value] : entries) map_.emplace(key, value);
}

std::vector<double> PayoffEvaluator::evaluate_cells(std::size_t count,
                                                    const CellFn& cell,
                                                    const KeyFn& key) const {
  PG_CHECK(cell != nullptr, "PayoffEvaluator: null cell function");
  obs::Span span("evaluate_cells", "payoff");
  static obs::Counter& obs_retrains = obs::counter("obs.cache.retrains");
  std::vector<double> values(count, 0.0);
  // Nesting-aware dispatch: payoff cells are coarse (a retrain each), so
  // even when this evaluator runs inside an outer pool task -- a sweep
  // point under the scenario engine's point-parallel grid -- its cells
  // still fan out to idle workers instead of serializing on one.
  executor_.parallel_for_nested(0, count, grain_, [&](std::size_t i) {
    if (cache_ != nullptr && key) {
      // Single-flight: when two concurrent evaluations (grid points, or
      // server requests on a shared store) hit the same cold cell, one
      // computes and the rest wait for its value instead of retraining.
      const std::uint64_t k = key(i);
      double cached = 0.0;
      const PayoffCache::Claim claim = cache_->claim(k, cached);
      if (claim != PayoffCache::Claim::kOwner) {
        values[i] = cached;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      try {
        values[i] = cell(i);
      } catch (...) {
        cache_->abandon(k);
        throw;
      }
      computed_.fetch_add(1, std::memory_order_relaxed);
      obs_retrains.add(1);
      cache_->publish(k, values[i]);
      return;
    }
    values[i] = cell(i);
    computed_.fetch_add(1, std::memory_order_relaxed);
    obs_retrains.add(1);
  });
  return values;
}

la::Matrix PayoffEvaluator::evaluate_matrix(std::size_t rows,
                                            std::size_t cols,
                                            const CellFn& cell,
                                            const KeyFn& key) const {
  PG_CHECK(rows > 0 && cols > 0, "PayoffEvaluator: empty matrix");
  const std::vector<double> values = evaluate_cells(rows * cols, cell, key);
  la::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = values[r * cols + c];
  }
  return m;
}

std::size_t PayoffEvaluator::cache_hits() const noexcept {
  return hits_.load(std::memory_order_relaxed);
}

std::size_t PayoffEvaluator::cells_computed() const noexcept {
  return computed_.load(std::memory_order_relaxed);
}

}  // namespace pg::runtime
