#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hupc::sim {

namespace {

// Heap order: the event that runs later compares "less", so the heap's
// front is the earliest (time, sequence) pair.
struct Later {
  template <class E>
  bool operator()(const E& a, const E& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

}  // namespace

void Engine::push(Time at, std::uintptr_t payload) {
  if (at < now_) at = now_;
  if (fault_ != nullptr) {
    at = fault_->perturb_schedule(now_, at);
    if (at < now_) at = now_;  // a hook can delay events, never reorder past
  }
  heap_.push_back(Event{at, next_seq_++, payload});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Engine::schedule_at(Time at, std::function<void()> fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  push(at, (static_cast<std::uintptr_t>(slot) << 1) | kCallbackTag);
}

void Engine::resume_at(Time at, std::coroutine_handle<> h) {
  const auto address = reinterpret_cast<std::uintptr_t>(h.address());
  assert((address & kCallbackTag) == 0 && "coroutine frame is misaligned");
  push(at, address);
}

bool Engine::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event ev = heap_.back();
  heap_.pop_back();
  now_ = ev.at;
  ++executed_;
  // Each dispatch resumes one logical process (a context switch in the
  // cooperative scheduler); a0 carries the scheduling sequence number.
  HUPC_TRACE_INSTANT(tracer_, trace::Category::engine, "dispatch",
                     trace::kEngineRank, ev.seq, heap_.size());
  HUPC_TRACE_COUNT(tracer_, "engine.dispatch", trace::kEngineRank);
  if ((ev.payload & kCallbackTag) == 0) {
    std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ev.payload))
        .resume();
    return true;
  }
  // Move the callback out and free its slot before running it: the
  // callback may schedule more callbacks, which can reuse the slot or grow
  // (and so relocate) the slab.
  const auto slot = static_cast<std::uint32_t>(ev.payload >> 1);
  std::function<void()> fn = std::move(callbacks_[slot]);
  free_slots_.push_back(slot);
  fn();
  return true;
}

Time Engine::run() {
  while (step()) {
  }
  return now_;
}

Time Engine::run_until(Time deadline) {
  // If everything finishes early the clock stays where the last event ran;
  // callers that need an exact advance can schedule a no-op at the deadline.
  while (!heap_.empty() && heap_.front().at <= deadline) {
    step();
  }
  return now_;
}

}  // namespace hupc::sim
