// The discrete-event simulation engine.
//
// A single Engine owns a binary min-heap of timestamped events. An event is
// either a coroutine resumption (the common case: delays and wakeups of
// sim::Task processes) or a plain callback. The heap holds only small keys
// (time, sequence, payload); the payload is a coroutine frame address or
// the index of a callback parked in a free-listed slab, so dispatch copies
// no type-erased callable. The entire simulation runs on one OS thread:
// determinism comes from strict (time, sequence) ordering across both
// kinds of event, and the design is data-race-free by construction (C++
// Core Guidelines CP.2).
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "fault/hooks.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace hupc::sim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time. Monotonically non-decreasing during run().
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute virtual time `at` (clamped to now()).
  /// Events scheduled for the same instant run in scheduling order.
  void schedule_at(Time at, std::function<void()> fn);

  /// Schedule `fn` to run `delay` from now.
  void schedule_in(Time delay, std::function<void()> fn) {
    schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Resume coroutine `h` at absolute virtual time `at` (clamped to now()).
  /// Orders, clamps and passes through the fault hook exactly like
  /// schedule_at(), without wrapping the handle in a callback.
  void resume_at(Time at, std::coroutine_handle<> h);

  /// Resume coroutine `h` `delay` from now.
  void resume_in(Time delay, std::coroutine_handle<> h) {
    resume_at(now_ + (delay < 0 ? 0 : delay), h);
  }

  /// Run until the event queue is empty. Returns the final virtual time.
  Time run();

  /// Run until the event queue is empty or virtual time would exceed
  /// `deadline`; events after the deadline remain queued.
  Time run_until(Time deadline);

  /// Execute a single event. Returns false if the queue was empty.
  bool step();

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Total events executed so far (useful for tests and perf counters).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Attach a tracer (non-owning, may be null): every dispatched event is
  /// recorded as an engine-category instant. Recording never charges
  /// virtual time, so attaching a tracer cannot change a simulation.
  void set_tracer(trace::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] trace::Tracer* tracer() const noexcept { return tracer_; }

  /// Attach a fault-injection hook (non-owning, may be null): every
  /// scheduled event's timestamp may be perturbed (delayed) by the hook.
  /// The result is clamped to now(), so monotonicity is preserved. Null —
  /// the default — leaves scheduling untouched.
  void set_fault(fault::ScheduleHook* hook) noexcept { fault_ = hook; }
  [[nodiscard]] fault::ScheduleHook* fault() const noexcept { return fault_; }

 private:
  // Payload encoding: a coroutine frame address (frames come from operator
  // new, so bit 0 is clear) or (callback slot << 1) | kCallbackTag.
  static constexpr std::uintptr_t kCallbackTag = 1;

  struct Event {
    Time at;
    std::uint64_t seq;
    std::uintptr_t payload;
  };

  /// Clamp, perturb and enqueue one event.
  void push(Time at, std::uintptr_t payload);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  trace::Tracer* tracer_ = nullptr;
  fault::ScheduleHook* fault_ = nullptr;
  std::vector<Event> heap_;  // min-heap on (at, seq)
  std::vector<std::function<void()>> callbacks_;  // slab indexed by slot
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace hupc::sim
