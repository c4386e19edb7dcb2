// Property battery for the async completion primitives, the simulator's one
// completion type (completion ordering). The invariants hammered here:
//   * then-chains of arbitrary depth deliver every stage exactly once, in
//     chain order;
//   * when_all is invariant under completion-order shuffles — values land
//     in INPUT order and the lowest-index exception wins, whatever order
//     the inputs resolved in;
//   * fulfilling before vs after attaching continuations is observably
//     identical (modulo the engine's same-instant deferral);
//   * suspended coroutines, then-callbacks and plain engine events run in
//     attach/schedule order at the fulfilment instant, also under a
//     delaying schedule hook; engine-less futures resume awaiters inline;
//   * sim::spawn's future joins a process: immediately once it is done, and
//     carrying its exception;
//   * no callback ever runs twice;
//   * shared states are counter-balanced: once every future/promise dies,
//     the live-state census returns to its starting value (no leaks, no
//     double frees).
#include "async/future.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/hooks.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace hupc::async {
namespace {

// Deterministic Fisher-Yates (std::shuffle's algorithm is unspecified
// across standard libraries; the repo's RNGs have pinned sequences).
void shuffle(std::vector<int>& v, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

TEST(AsyncFuture, ReadyFutureDeliversInline) {
  auto f = make_ready_future(42);
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.get(), 42);
  int seen = 0;
  f.then([&](int v) { seen = v; });  // engine-less: runs inline
  EXPECT_EQ(seen, 42);
}

TEST(AsyncFuture, VoidFutureFulfilBeforeAndAfterAttach) {
  // After-fulfil attach.
  promise<> p1;
  auto f1 = p1.get_future();
  p1.set_value();
  bool ran1 = false;
  f1.then([&] { ran1 = true; });
  EXPECT_TRUE(ran1);
  // Before-fulfil attach.
  promise<> p2;
  auto f2 = p2.get_future();
  bool ran2 = false;
  f2.then([&] { ran2 = true; });
  EXPECT_FALSE(ran2);
  p2.set_value();
  EXPECT_TRUE(ran2);
}

TEST(AsyncFuture, EngineDefersCallbacksToSameInstantEvents) {
  sim::Engine e;
  promise<int> p(e);
  auto f = p.get_future();
  std::vector<int> order;
  f.then([&](int) { order.push_back(1); });
  p.set_value(7);
  // Nothing runs inline from set_value...
  EXPECT_TRUE(order.empty());
  // ...and a continuation attached AFTER fulfilment still queues behind
  // the earlier one (FIFO even across the ready transition).
  f.then([&](int) { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(f.get(), 7);
}

TEST(AsyncFuture, ThenChainDepthNDeliversEveryStageOnce) {
  for (int depth : {1, 2, 17, 64}) {
    sim::Engine e;
    promise<int> p(e);
    std::vector<int> hits(static_cast<std::size_t>(depth), 0);
    future<int> f = p.get_future();
    for (int i = 0; i < depth; ++i) {
      f = f.then([&hits, i](int v) {
        ++hits[static_cast<std::size_t>(i)];
        return v + 1;
      });
    }
    p.set_value(0);
    e.run();
    ASSERT_TRUE(f.ready()) << "depth " << depth;
    EXPECT_EQ(f.get(), depth);
    for (int i = 0; i < depth; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1)
          << "stage " << i << " of depth " << depth;
    }
  }
}

TEST(AsyncFuture, ThenUnwrapsFutureReturningContinuations) {
  sim::Engine e;
  promise<int> p(e);
  promise<int> inner_p(e);
  auto f = p.get_future().then(
      [&](int v) { return inner_p.get_future().then([v](int w) { return v + w; }); });
  p.set_value(10);
  e.run();
  EXPECT_FALSE(f.ready());  // outer resolved, inner still pending
  inner_p.set_value(32);
  e.run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.get(), 42);
}

TEST(AsyncFuture, ExceptionSkipsContinuationAndPropagates) {
  sim::Engine e;
  promise<int> p(e);
  bool invoked = false;
  auto f = p.get_future().then([&](int v) {
    invoked = true;
    return v;
  });
  p.set_exception(std::make_exception_ptr(std::runtime_error("boom")));
  e.run();
  EXPECT_FALSE(invoked);
  ASSERT_TRUE(f.failed());
  EXPECT_THROW(static_cast<void>(f.get()), std::runtime_error);
}

TEST(AsyncFuture, WhenAllValuesInInputOrderUnderShuffledCompletion) {
  constexpr int kN = 12;
  std::vector<int> baseline;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Engine e;
    std::vector<promise<int>> promises;
    std::vector<future<int>> futures;
    promises.reserve(kN);
    for (int i = 0; i < kN; ++i) {
      promises.emplace_back(e);
      futures.push_back(promises.back().get_future());
    }
    auto all = when_all(std::move(futures));
    std::vector<int> completion(kN);
    std::iota(completion.begin(), completion.end(), 0);
    shuffle(completion, seed);
    for (int idx : completion) {
      promises[static_cast<std::size_t>(idx)].set_value(idx * 100);
      e.run();  // interleave resolution with engine progress
    }
    ASSERT_TRUE(all.ready()) << "seed " << seed;
    const std::vector<int>& got = all.get();
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(i)], i * 100)
          << "input order must survive completion shuffle (seed " << seed
          << ")";
    }
    if (baseline.empty()) {
      baseline = got;
    } else {
      EXPECT_EQ(got, baseline) << "seed " << seed;
    }
  }
}

TEST(AsyncFuture, WhenAllLowestIndexExceptionWinsRegardlessOfOrder) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::Engine e;
    constexpr int kN = 6;
    std::vector<promise<int>> promises;
    std::vector<future<int>> futures;
    for (int i = 0; i < kN; ++i) {
      promises.emplace_back(e);
      futures.push_back(promises.back().get_future());
    }
    auto all = when_all(std::move(futures));
    std::vector<int> completion(kN);
    std::iota(completion.begin(), completion.end(), 0);
    shuffle(completion, seed);
    for (int idx : completion) {
      if (idx == 2 || idx == 4) {
        promises[static_cast<std::size_t>(idx)].set_exception(
            std::make_exception_ptr(
                std::runtime_error("input " + std::to_string(idx))));
      } else {
        promises[static_cast<std::size_t>(idx)].set_value(idx);
      }
      e.run();
    }
    ASSERT_TRUE(all.ready());
    try {
      (void)all.get();
      FAIL() << "expected exception";
    } catch (const std::runtime_error& ex) {
      EXPECT_STREQ(ex.what(), "input 2") << "lowest index must win";
    }
  }
}

TEST(AsyncFuture, WhenAllVoidAndEmpty) {
  sim::Engine e;
  EXPECT_TRUE(when_all(std::vector<future<>>{}).ready());
  EXPECT_TRUE(when_all(std::vector<future<int>>{}).ready());
  std::vector<promise<>> ps;
  std::vector<future<>> fs;
  for (int i = 0; i < 5; ++i) {
    ps.emplace_back(e);
    fs.push_back(ps.back().get_future());
  }
  auto all = when_all(std::move(fs));
  for (int i = 4; i >= 0; --i) {  // reverse completion order
    EXPECT_FALSE(all.ready());
    ps[static_cast<std::size_t>(i)].set_value();
    e.run();
  }
  EXPECT_TRUE(all.ready());
}

TEST(AsyncFuture, NoCallbackRunsTwiceUnderRepeatedEngineRuns) {
  sim::Engine e;
  promise<int> p(e);
  auto f = p.get_future();
  int count = 0;
  f.then([&](int) { ++count; });
  p.set_value(1);
  e.run();
  e.run();  // idle re-run must not re-fire
  f.then([&](int) { ++count; });
  e.run();
  EXPECT_EQ(count, 2);  // two attachments, one firing each
}

TEST(AsyncFuture, CoAwaitIntegratesWithSimTasks) {
  sim::Engine e;
  promise<int> p(e);
  int got = 0;
  auto proc = sim::spawn(e, [](promise<int>& pr, future<int> f, int& out,
                               sim::Engine& eng) -> sim::Task<void> {
    // Resolve after 1us of virtual time from a sibling process.
    eng.schedule_in(1000, [&pr] { pr.set_value(99); });
    out = co_await f;  // operator co_await
    co_return;
  }(p, p.get_future(), got, e));
  e.run();
  EXPECT_TRUE(proc.ready());
  EXPECT_EQ(got, 99);
}

/// Delays every scheduled event by the same 5 ns, so a path that skipped
/// the hook would fall out of order.
struct FixedDelayHook final : fault::ScheduleHook {
  std::int64_t perturb_schedule(std::int64_t /*now*/,
                                std::int64_t at) noexcept override {
    return at + 5;
  }
};

using Log = std::vector<std::pair<char, sim::Time>>;

sim::Task<void> log_after(sim::Engine& e, future<> f, Log& log, char tag) {
  co_await f;
  log.emplace_back(tag, e.now());
}

TEST(AsyncFuture, WaitersCallbacksAndEventsRunInAttachOrder) {
  for (const bool hooked : {false, true}) {
    sim::Engine e;
    FixedDelayHook hook;
    if (hooked) e.set_fault(&hook);
    promise<> p(e);
    const future<> f = p.get_future();
    Log log;
    const auto record = [&e, &log](char tag) {
      return [&e, &log, tag] { log.emplace_back(tag, e.now()); };
    };
    // Waiters a (coroutine), b (then), c (coroutine), each suspended or
    // attached before fulfilment, bracketed by plain events x and y.
    sim::spawn(e, log_after(e, f, log, 'a'));
    e.run();
    f.then(record('b'));
    sim::spawn(e, log_after(e, f, log, 'c'));
    e.run();
    e.schedule_in(0, record('x'));
    const sim::Time fulfilled = e.now();
    p.set_value();
    e.schedule_in(0, record('y'));
    f.then(record('d'));  // late attach: behind y
    ASSERT_TRUE(log.empty()) << "nothing runs inline from set_value";
    e.run();
    const sim::Time at = fulfilled + (hooked ? 5 : 0);
    EXPECT_EQ(log, (Log{{'x', at}, {'a', at}, {'b', at}, {'c', at},
                        {'y', at}, {'d', at}}))
        << (hooked ? "with" : "without") << " the schedule hook";
  }
}

TEST(AsyncFuture, EngineLessFutureResumesAwaiterInline) {
  // when_all's result carries no engine: the last input's arrival callback
  // resumes the awaiting coroutine inside its own event, ahead of an event
  // scheduled at the same instant after the input resolved.
  sim::Engine e;
  promise<> p0(e);
  promise<> p1(e);
  Log log;
  sim::spawn(e, log_after(e, when_all(std::vector<future<>>{p0.get_future(),
                                                            p1.get_future()}),
                          log, 'w'));
  e.run();
  p0.set_value();
  e.run();
  ASSERT_TRUE(log.empty());
  p1.set_value();
  e.schedule_in(0, [&e, &log] { log.emplace_back('m', e.now()); });
  const std::uint64_t before = e.events_executed();
  e.run();
  EXPECT_EQ(log, (Log{{'w', 0}, {'m', 0}}));
  EXPECT_EQ(e.events_executed() - before, 2U)
      << "one arrival event and the marker, no resume event";
}

TEST(Process, JoinFromAnotherCoroutine) {
  sim::Engine e;
  std::vector<int> order;
  future<> worker = sim::spawn(
      e, [](sim::Engine& eng, std::vector<int>& ord) -> sim::Task<void> {
        co_await sim::delay(eng, 100);
        ord.push_back(1);
      }(e, order));
  future<> watcher =
      sim::spawn(e, [](future<> w, std::vector<int>& ord) -> sim::Task<void> {
        co_await w;
        ord.push_back(2);
      }(worker, order));
  e.run();
  EXPECT_TRUE(watcher.ready());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Process, JoinAfterDoneIsImmediate) {
  sim::Engine e;
  future<> quick = sim::spawn(e, []() -> sim::Task<void> { co_return; }());
  e.run();
  ASSERT_TRUE(quick.ready());
  bool joined = false;
  sim::spawn(e, [](future<> q, bool& j) -> sim::Task<void> {
    co_await q;
    j = true;
  }(quick, joined));
  const std::uint64_t before = e.events_executed();
  e.run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(e.events_executed() - before, 1U) << "only the joiner's start";
}

TEST(Process, JoinPropagatesChildException) {
  sim::Engine e;
  future<> bad = sim::spawn(e, []() -> sim::Task<void> {
    throw std::logic_error("bad");
    co_return;
  }());
  bool caught = false;
  sim::spawn(e, [](future<> b, bool& c) -> sim::Task<void> {
    try {
      co_await b;
    } catch (const std::logic_error&) {
      c = true;
    }
  }(bad, caught));
  e.run();
  EXPECT_TRUE(caught);
  ASSERT_TRUE(bad.failed());
  EXPECT_THROW(bad.get(), std::logic_error);
}

TEST(FuturePromise, DeliversValueAcrossProcesses) {
  sim::Engine e;
  promise<int> prom(e);
  int got = 0;
  sim::spawn(e, [](future<int> f, int& g) -> sim::Task<void> {
    g = co_await f;
  }(prom.get_future(), got));
  sim::spawn(e, [](sim::Engine& eng, promise<int> p) -> sim::Task<void> {
    co_await sim::delay(eng, 42);
    p.set_value(17);
  }(e, std::move(prom)));
  e.run();
  EXPECT_EQ(got, 17);
  EXPECT_EQ(e.now(), 42);
}

TEST(FuturePromise, ExceptionPropagates) {
  sim::Engine e;
  promise<> prom(e);
  bool caught = false;
  sim::spawn(e, [](future<> f, bool& c) -> sim::Task<void> {
    try {
      co_await f;
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(prom.get_future(), caught));
  prom.set_exception(std::make_exception_ptr(std::runtime_error("x")));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(WaitAll, CompletesWhenEveryFutureDoes) {
  sim::Engine e;
  std::vector<promise<>> proms;
  std::vector<future<>> futs;
  for (int i = 0; i < 3; ++i) {
    proms.emplace_back(e);
    futs.push_back(proms.back().get_future());
  }
  bool done = false;
  sim::spawn(e, [](std::vector<future<>> fs, bool& d) -> sim::Task<void> {
    co_await when_all(std::move(fs));
    d = true;
  }(futs, done));
  for (int i = 0; i < 3; ++i) {
    sim::spawn(
        e, [](sim::Engine& eng, promise<>& p, int id) -> sim::Task<void> {
          co_await sim::delay(eng, 10 * (id + 1));
          p.set_value();
        }(e, proms[static_cast<std::size_t>(i)], i));
  }
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), 30);
}

TEST(AsyncFuture, SharedStatesAreCounterBalanced) {
  const std::int64_t before = debug_live_states();
  {
    sim::Engine e;
    promise<int> p(e);
    auto f = p.get_future();
    auto g = f.then([](int v) { return v * 2; })
                 .then([](int v) { return v + 1; });
    std::vector<future<int>> many;
    for (int i = 0; i < 10; ++i) many.push_back(f.then([](int v) { return v; }));
    auto all = when_all(std::move(many));
    // Spawned processes and FluidLink transfers complete through the same
    // shared states.
    future<> proc = sim::spawn(e, [](sim::Engine& eng) -> sim::Task<void> {
      co_await sim::delay(eng, 10);
    }(e));
    sim::FluidLink link(e, 1e9);
    future<> xfer = link.transfer_async(1e3);
    sim::spawn(e, [](sim::FluidLink& l) -> sim::Task<void> {
      co_await l.transfer(2e3);
    }(link));
    p.set_value(3);
    e.run();
    EXPECT_EQ(g.get(), 7);
    EXPECT_TRUE(proc.ready());
    EXPECT_TRUE(xfer.ready());
    EXPECT_GT(debug_live_states(), before);  // states alive while handles live
  }
  EXPECT_EQ(debug_live_states(), before)
      << "every shared state must die with its last handle";
}

}  // namespace
}  // namespace hupc::async
