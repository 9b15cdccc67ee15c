// Span tracer emitting Chrome Trace Event Format JSON.
//
// `pg_run --trace out.json` (or `trace=out.json` in a spec) turns the
// tracer on for one scenario run; the file loads directly in
// chrome://tracing or https://ui.perfetto.dev. Spans are recorded around
// scenario phases, sweep-grid points, payoff-cell batches, solver
// solves, and pool worker tasks, each tagged with the recording thread
// and its nesting depth -- so work stealing and idle time show up as
// gaps and interleavings on the per-thread rows.
//
// Recording model:
//  - `obs::Span s("name", "category");` at any scope. When the tracer is
//    inactive (the default) the constructor reads one relaxed atomic and
//    stores nothing -- cheap enough to leave on task-grained paths.
//    (It is NOT free; per-element inner loops should stay uninstrumented.)
//  - Events buffer per thread: a thread_local shared_ptr<ThreadBuf>
//    registered with the tracer on first use. Each buffer has its own
//    mutex -- effectively uncontended (the owner writes, the writer folds
//    after recording stops) but it keeps TSan provably happy and the
//    buffer alive after thread exit.
//  - Buffers cap at kMaxEventsPerThread; overflow increments a dropped
//    counter that write_chrome_trace() reports in trace metadata rather
//    than silently truncating.
//  - start() bumps a generation; a Span constructed before a start/stop
//    boundary and destroyed after it sees the generation mismatch and
//    drops itself, so stale timestamps never cross runs.
//
// Determinism contract: tracing observes, never steers. No scheduling
// decision, RNG draw, or result value may depend on tracer state; the
// golden suite runs with tracing on and compares at tolerance 0 to hold
// the line. Compiled out (PG_OBS_DISABLED), Span is an empty struct and
// the tracer reports inactive forever.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#ifndef PG_OBS_DISABLED
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>
#endif

namespace pg::obs {

#ifndef PG_OBS_DISABLED

/// Per-thread event cap; ~96 bytes/event, so ~6 MiB/thread worst case.
inline constexpr std::size_t kMaxEventsPerThread = 65536;

class Tracer {
 public:
  static Tracer& instance();

  /// Begin a recording: clears all thread buffers, re-anchors the
  /// epoch, and invalidates any in-flight spans from a previous run.
  void start();

  /// Stop recording (spans constructed afterwards store nothing).
  void stop();

  [[nodiscard]] bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Stop if needed, fold every thread buffer, and emit Chrome Trace
  /// Event JSON ("X" complete events on stable per-thread rows, plus "M"
  /// thread_name metadata). Events from dead threads are included.
  void write_chrome_trace(std::ostream& os);

  /// Total events dropped to per-thread caps during the last recording.
  [[nodiscard]] std::uint64_t dropped_events() const noexcept;

 private:
  friend class Span;

  struct Event {
    std::string name;
    const char* cat;
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;
    std::uint32_t depth;
  };

  struct ThreadBuf {
    std::mutex mu;
    std::vector<Event> events;
    std::uint64_t dropped = 0;
    std::uint32_t tid = 0;  // registration order: stable row id
    // Nesting counter. Owner-thread-mostly, but start() zeroes it from
    // the controlling thread, so it is atomic (relaxed) for TSan.
    std::atomic<std::uint32_t> span_depth{0};
  };

  Tracer() = default;
  ThreadBuf& local_buf();
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  std::mutex registry_mu_;
  std::vector<std::shared_ptr<ThreadBuf>> buffers_;
  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> epoch_ns_{0};
};

/// RAII span. Captures the start time in the constructor and appends one
/// complete event in the destructor. Nesting depth is tracked per thread
/// and emitted in the event args, so a flame view distinguishes a
/// top-level grid point from the nested payoff cells it fanned out.
class Span {
 public:
  Span(const char* name, const char* cat) { open(name, cat); }
  Span(const std::string& name, const char* cat) {
    open(name.c_str(), cat);
  }
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* name, const char* cat);

  // Armed spans keep everything needed to emit without re-consulting
  // global state; `buf_ == nullptr` means "tracer was off, do nothing".
  Tracer::ThreadBuf* buf_ = nullptr;
  std::string name_;
  const char* cat_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t generation_ = 0;
};

#else  // PG_OBS_DISABLED

class Tracer {
 public:
  static Tracer& instance();
  void start() {}
  void stop() {}
  [[nodiscard]] bool active() const noexcept { return false; }
  void write_chrome_trace(std::ostream& os);
  [[nodiscard]] std::uint64_t dropped_events() const noexcept { return 0; }
};

class Span {
 public:
  Span(const char*, const char*) {}
  Span(const std::string&, const char*) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif  // PG_OBS_DISABLED

}  // namespace pg::obs
