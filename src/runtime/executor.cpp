#include "runtime/executor.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "util/error.h"

namespace pg::runtime {

void SerialExecutor::parallel_for(std::size_t begin, std::size_t end,
                                  std::size_t grain,
                                  const std::function<void(std::size_t)>& fn) {
  PG_CHECK(fn != nullptr, "parallel_for: null body");
  (void)grain;  // chunking is a scheduling concern; serially it is a no-op
  for (std::size_t i = begin; i < end; ++i) fn(i);
}

namespace {

/// Shared completion state for one parallel_for call.
struct LoopState {
  std::mutex mutex;
  std::condition_variable done;
  std::atomic<std::size_t> pending{0};
  std::exception_ptr error;  // first failure wins; guarded by mutex
};

/// The executor whose pool the current thread is a worker of, if any.
/// Guards against the classic nested-parallel_for deadlock: a loop body
/// that calls parallel_for on its own executor would block a worker on
/// sub-chunks that can only run on (already blocked) workers.
thread_local const ThreadPoolExecutor* tls_running_on = nullptr;

/// Nesting depth of the pool task the current thread is executing:
/// 0 outside the pool, 1 inside a top-level task, 2 inside a chunk that
/// task dispatched, ... . Tasks submitted from this thread are tagged
/// tls_depth + 1, and joins help-drain at that same tag, so a blocked
/// thread only ever picks up work at least as deep as what it waits for.
thread_local std::size_t tls_depth = 0;

void run_chunk(const ThreadPoolExecutor* self, std::size_t depth,
               LoopState& state, std::size_t lo, std::size_t hi,
               const std::function<void(std::size_t)>& fn) {
  const ThreadPoolExecutor* prev = tls_running_on;
  const std::size_t prev_depth = tls_depth;
  tls_running_on = self;
  tls_depth = depth;
  try {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  } catch (...) {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (!state.error) state.error = std::current_exception();
  }
  tls_running_on = prev;
  tls_depth = prev_depth;
}

void finish_chunk(const std::shared_ptr<LoopState>& state) {
  if (state->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last chunk: notify under the mutex so the waiter cannot check the
    // counter and sleep between our decrement and our notify.
    std::lock_guard<std::mutex> lock(state->mutex);
    state->done.notify_all();
  }
}

}  // namespace

void ThreadPoolExecutor::dispatch(std::size_t begin, std::size_t end,
                                  std::size_t grain, std::size_t chunks,
                                  const std::function<void(std::size_t)>& fn) {
  // The depth this call's chunks run at: one level below the caller.
  // The join only helps tasks at least this deep (its own chunks always
  // qualify), so waiting can never stack a fresh outer task on top.
  const std::size_t depth = tls_depth + 1;

  auto state = std::make_shared<LoopState>();
  // The caller runs chunk 0 itself and only waits on the rest: one less
  // dispatch, and the fork-join never idles the issuing thread.
  state->pending.store(chunks - 1, std::memory_order_relaxed);

  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = lo + grain < end ? lo + grain : end;
    pool_.submit(
        [this, depth, state, lo, hi, &fn] {
          run_chunk(this, depth, *state, lo, hi, fn);
          finish_chunk(state);
        },
        depth);
  }

  const std::size_t first_hi = begin + grain < end ? begin + grain : end;
  run_chunk(this, depth, *state, begin, first_hi, fn);

  // Help-first join: drain queued tasks no shallower than our own chunks
  // (chunk bodies never block indefinitely -- any nested join inside them
  // follows this same rule -- so stealing is always safe), then spin
  // briefly before sleeping. The condition-variable fallback costs a
  // futex round-trip -- as long as a whole solver iteration -- so the
  // fine-grained fork-join cadence must normally complete within the spin.
  constexpr int kJoinSpinRounds = 128;
  int spin = 0;
  while (state->pending.load(std::memory_order_acquire) > 0) {
    if (pool_.try_run_one(depth)) {
      spin = 0;
      continue;
    }
    if (spin < kJoinSpinRounds) {
      if (++spin % 16 == 0) std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(state->mutex);
    if (state->pending.load(std::memory_order_acquire) == 0) break;
    state->done.wait(lock, [&state] {
      return state->pending.load(std::memory_order_acquire) == 0;
    });
  }
  if (state->error) std::rethrow_exception(state->error);
}

void ThreadPoolExecutor::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t)>& fn) {
  PG_CHECK(fn != nullptr, "parallel_for: null body");
  if (end <= begin) return;
  if (grain == 0) grain = 1;

  const std::size_t count = end - begin;
  const std::size_t chunks = (count + grain - 1) / grain;
  if (chunks == 1 || pool_.size() == 1 || tls_running_on == this) {
    // Run inline when dispatch buys nothing (one chunk, one worker) or is
    // the wrong trade (nested call from one of our own workers: for the
    // fine-grained loops routed here, inline beats re-dispatch -- coarse
    // bodies use parallel_for_nested instead). Identical results by the
    // determinism contract.
    static obs::Counter& inline_loops = obs::counter("obs.exec.inline");
    inline_loops.add(1);
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  static obs::Counter& dispatched = obs::counter("obs.exec.dispatch");
  dispatched.add(1);
  dispatch(begin, end, grain, chunks, fn);
}

void ThreadPoolExecutor::parallel_for_nested(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t)>& fn) {
  PG_CHECK(fn != nullptr, "parallel_for: null body");
  if (end <= begin) return;
  if (grain == 0) grain = 1;

  const std::size_t count = end - begin;
  const std::size_t chunks = (count + grain - 1) / grain;
  if (chunks == 1 || pool_.size() == 1) {
    static obs::Counter& inline_loops = obs::counter("obs.exec.inline");
    inline_loops.add(1);
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  static obs::Counter& dispatched = obs::counter("obs.exec.dispatch");
  dispatched.add(1);
  dispatch(begin, end, grain, chunks, fn);
}

bool ThreadPoolExecutor::submit_for_group(std::function<void()> task) {
  if (pool_.size() == 1) return false;  // inline is strictly cheaper
  const std::size_t depth = tls_depth + 1;
  pool_.submit(
      [this, depth, task = std::move(task)] {
        const ThreadPoolExecutor* prev = tls_running_on;
        const std::size_t prev_depth = tls_depth;
        tls_running_on = this;
        tls_depth = depth;
        task();  // TaskGroup's wrapper owns exception capture + completion
        tls_running_on = prev;
        tls_depth = prev_depth;
      },
      depth);
  return true;
}

bool ThreadPoolExecutor::help_one() { return pool_.try_run_one(tls_depth + 1); }

Executor& serial_executor() noexcept {
  static SerialExecutor instance;
  return instance;
}

}  // namespace pg::runtime
