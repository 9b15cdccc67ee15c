// Fixed-size worker pool with one work-stealing deque per worker.
//
// The pool is the low-level engine behind runtime::ThreadPoolExecutor; it
// knows nothing about loops, RNG streams, or payoffs -- it just runs
// std::function<void()> tasks on a fixed set of threads. Completion
// tracking, chunking, and exception propagation live in executor.h, where
// the blocking parallel_for is implemented.
//
// Scheduling: every submission is pushed onto one worker's deque
// (round-robin). A worker pops its own deque LIFO (newest chunk is the
// cache-hottest) and, when it runs dry, steals FIFO from the other
// workers' deques, so a burst of heterogeneous tasks -- cheap closed-form
// cells next to retrain-priced ones -- cannot strand work behind one slow
// worker. A thread blocked on completion can help through try_run_one()
// instead of sleeping. Workers spin briefly before sleeping so
// back-to-back fork-join calls do not pay a wake-up on every beat.
//
// NESTING / DEPTH TAGS: every task carries a nesting depth (outer sweep
// points at depth 1, the cell chunks they spawn at depth 2,
// and so on). Workers take any task, but a thread that is BLOCKED
// joining its own tasks helps through try_run_one(min_depth) with the
// depth of the tasks it waits for -- so it only picks up work at least
// that deep. This is what makes nested fork-join safe AND bounded: the
// joining thread can always run its own queued chunks (they carry
// exactly min_depth), and it can never be diverted into a fresh
// outer-level task whose latency (and stack) would be unbounded.
//
// Threads are joined in the destructor after the queues drain of running
// tasks; tasks still queued but not started are discarded on shutdown
// (every user in this library blocks until its own tasks finish, so
// nothing is lost in practice).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pg::runtime {

/// Number of workers to use when the caller does not care: the hardware
/// concurrency, with a floor of 1 (hardware_concurrency may return 0).
[[nodiscard]] std::size_t default_thread_count() noexcept;

class ThreadPool {
 public:
  /// Spawns `threads` workers immediately. 0 means default_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task onto one worker's deque (round-robin). Never blocks.
  /// `depth` is the task's nesting level (see the file comment); plain
  /// top-level submissions use depth 1. Must not be called after
  /// destruction has begun.
  void submit(std::function<void()> task, std::size_t depth = 1);

  /// Pop one queued (not yet started) task with depth >= `min_depth` and
  /// run it on the calling thread; returns false when no eligible task is
  /// queued. This is how a thread blocked on its own tasks' completion
  /// helps drain the pool instead of sleeping -- the caller-participation
  /// half of work stealing. min_depth == 0 takes anything (the worker
  /// loop); a joiner passes the depth of the chunks it waits for.
  bool try_run_one(std::size_t min_depth = 0);

 private:
  struct Task {
    std::function<void()> fn;
    std::size_t depth = 1;
  };

  /// One worker's deque. Heap-allocated so the vector never moves a
  /// mutex; each deque is only touched under its own mutex.
  struct Deque {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t index);

  /// Own deque back (LIFO), then steal the other deques' fronts (FIFO),
  /// skipping entries shallower than `min_depth` (a skipped entry stays
  /// for the unconstrained worker loop to take). `self` == size() means
  /// "external thread": steal-only, fair scan. Returns the whole Task
  /// (empty fn = nothing eligible) so the caller can tag its trace span
  /// with the task's nesting depth.
  [[nodiscard]] Task take_task(std::size_t self, std::size_t min_depth);

  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<std::thread> workers_;

  // Sleep/wake bookkeeping. pending_ counts queued-but-not-started tasks;
  // submit bumps it and pulses sleep_mutex_ so a worker checking the wait
  // predicate can never miss the increment.
  std::mutex sleep_mutex_;
  std::condition_variable cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> next_deque_{0};
};

}  // namespace pg::runtime
