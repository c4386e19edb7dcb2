#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/hooks.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace {

using hupc::sim::Engine;
using hupc::sim::kMicrosecond;
using hupc::sim::kSecond;
using hupc::sim::Task;
using hupc::sim::Time;

/// Suspends the awaiting coroutine and hands its handle to the test, which
/// then decides when the engine resumes it.
struct Park {
  std::coroutine_handle<>* out;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept { *out = h; }
  void await_resume() const noexcept {}
};

/// Spawns a process that parks itself, then appends `id` to `order` once
/// resumed. Runs the engine until the process is parked.
std::coroutine_handle<> park_process(Engine& e, std::vector<int>& order,
                                     int id) {
  std::coroutine_handle<> h;
  hupc::sim::spawn(e, [](std::coroutine_handle<>* out, std::vector<int>& o,
                         int i) -> Task<void> {
    co_await Park{out};
    o.push_back(i);
  }(&h, order, id));
  e.run();
  return h;
}

/// Delays every scheduled event by (call index mod 3) * 7 ns and logs the
/// (now, at) pairs it was asked about.
struct StaggerHook final : hupc::fault::ScheduleHook {
  std::vector<std::pair<std::int64_t, std::int64_t>> calls;
  std::int64_t perturb_schedule(std::int64_t now,
                                std::int64_t at) noexcept override {
    const auto extra = static_cast<std::int64_t>(calls.size() % 3) * 7;
    calls.emplace_back(now, at);
    return at + extra;
  }
};

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, PastTimesClampToNow) {
  Engine e;
  Time seen = -1;
  e.schedule_at(50, [&] {
    e.schedule_at(10, [&] { seen = e.now(); });  // in the past
  });
  e.run();
  EXPECT_EQ(seen, 50);
}

TEST(Engine, NestedSchedulingFromEvents) {
  Engine e;
  int hits = 0;
  e.schedule_at(1, [&] {
    ++hits;
    e.schedule_in(1, [&] {
      ++hits;
      e.schedule_in(1, [&] { ++hits; });
    });
  });
  e.run();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(e.now(), 3);
}

TEST(Engine, RunUntilLeavesLaterEventsQueued) {
  Engine e;
  int hits = 0;
  e.schedule_at(1 * kMicrosecond, [&] { ++hits; });
  e.schedule_at(1 * kSecond, [&] { ++hits; });
  e.run_until(kMicrosecond);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(hits, 2);
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 10; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.events_executed(), 10u);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(5, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine e;
  Time at = -1;
  e.schedule_at(10, [&] { e.schedule_in(-5, [&] { at = e.now(); }); });
  e.run();
  EXPECT_EQ(at, 10);
}

TEST(Engine, SameInstantResumesAndCallbacksShareOneOrder) {
  Engine e;
  std::vector<int> order;
  const std::coroutine_handle<> early = park_process(e, order, -1);
  std::vector<std::coroutine_handle<>> parked;
  for (int i = 0; i < 4; ++i) parked.push_back(park_process(e, order, 2 * i));
  ASSERT_TRUE(order.empty());
  // Alternate resume and callback events at one instant; their relative
  // order is the scheduling order regardless of kind.
  for (int i = 0; i < 4; ++i) {
    e.resume_at(100, parked[static_cast<std::size_t>(i)]);
    e.schedule_at(100, [&order, i] { order.push_back(2 * i + 1); });
  }
  e.resume_in(50, early);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, ScheduleHookDelaysResumesLikeCallbacks) {
  // The same schedule built once from callbacks and once from resumes must
  // consult the hook identically and run at the same perturbed times.
  auto drive = [](bool resumes) {
    Engine e;
    std::vector<int> order;
    std::vector<std::coroutine_handle<>> parked;
    if (resumes) {
      for (int i = 0; i < 6; ++i) parked.push_back(park_process(e, order, i));
    }
    StaggerHook hook;
    e.set_fault(&hook);
    std::vector<Time> ran(6, -1);
    for (int i = 0; i < 6; ++i) {
      const Time at = 10 * (i % 2);
      if (resumes) {
        e.resume_at(at, parked[static_cast<std::size_t>(i)]);
      } else {
        e.schedule_at(at, [&order, i] { order.push_back(i); });
      }
    }
    while (e.step()) ran[static_cast<std::size_t>(order.back())] = e.now();
    return std::make_tuple(order, ran, hook.calls);
  };
  const auto callbacks = drive(false);
  const auto resumes = drive(true);
  EXPECT_EQ(std::get<0>(callbacks), std::get<0>(resumes));
  EXPECT_EQ(std::get<1>(callbacks), std::get<1>(resumes));
  EXPECT_EQ(std::get<2>(callbacks), std::get<2>(resumes));
  EXPECT_EQ(std::get<2>(resumes).size(), 6U);
  // Requested 0,10,0,10,0,10 plus 0,7,14,0,7,14 of hook delay.
  EXPECT_EQ(std::get<1>(resumes), (std::vector<Time>{0, 17, 14, 10, 7, 24}));
  EXPECT_EQ(std::get<0>(resumes), (std::vector<int>{0, 4, 3, 2, 1, 5}));
}

TEST(Engine, CallbacksSchedulingCallbacksReuseSlotsSafely) {
  // Each callback owns heap state and schedules two children, one at the
  // same instant (likely to reuse the slot it just vacated) and one later,
  // while the slab grows underneath it. Every payload must arrive intact.
  Engine e;
  int ran = 0;
  int corrupt = 0;
  std::function<void(int, std::shared_ptr<std::vector<int>>)> fire;
  fire = [&](int depth, std::shared_ptr<std::vector<int>> payload) {
    ++ran;
    if (payload->size() != static_cast<std::size_t>(depth) ||
        (depth > 0 && payload->back() != depth - 1)) {
      ++corrupt;
    }
    if (depth == 10) return;
    for (Time d : {Time{0}, Time{depth + 1}}) {
      auto child = std::make_shared<std::vector<int>>(*payload);
      child->push_back(depth);
      e.schedule_in(d, [&fire, depth, child] { fire(depth + 1, child); });
    }
  };
  e.schedule_at(0, [&] { fire(0, std::make_shared<std::vector<int>>()); });
  e.run();
  EXPECT_EQ(ran, (1 << 11) - 1);
  EXPECT_EQ(corrupt, 0);
  EXPECT_EQ(e.events_executed(), static_cast<std::uint64_t>(ran));
  EXPECT_TRUE(e.empty());
}

}  // namespace
