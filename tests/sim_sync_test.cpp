#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace {

using namespace hupc::sim;  // NOLINT: test-local convenience

TEST(Event, BroadcastWakesAllWaiters) {
  Engine e;
  Event ev(e);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    spawn(e, [](Event& event, int& w) -> Task<void> {
      co_await event.wait();
      ++w;
    }(ev, woken));
  }
  spawn(e, [](Engine& eng, Event& event) -> Task<void> {
    co_await delay(eng, 10);
    event.trigger();
  }(e, ev));
  e.run();
  EXPECT_EQ(woken, 3);
  EXPECT_EQ(e.now(), 10);
}

TEST(Event, WaitAfterTriggerIsImmediate) {
  Engine e;
  Event ev(e);
  ev.trigger();
  bool done = false;
  spawn(e, [](Event& event, bool& d) -> Task<void> {
    co_await event.wait();
    d = true;
  }(ev, done));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), 0);
}

TEST(Semaphore, LimitsConcurrency) {
  Engine e;
  Semaphore sem(e, 2);
  int peak = 0, current = 0;
  for (int i = 0; i < 6; ++i) {
    spawn(e, [](Engine& eng, Semaphore& s, int& cur, int& pk) -> Task<void> {
      co_await s.acquire();
      ++cur;
      pk = std::max(pk, cur);
      co_await delay(eng, 10);
      --cur;
      s.release();
    }(e, sem, current, peak));
  }
  e.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(e.now(), 30);  // 6 jobs, width 2, 10 each
}

TEST(Mutex, SerializesCriticalSections) {
  Engine e;
  Mutex m(e);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    spawn(e, [](Engine& eng, Mutex& mu, std::vector<int>& ord, int id) -> Task<void> {
      co_await mu.lock();
      ScopedLock guard(mu);
      ord.push_back(id);
      co_await delay(eng, 5);
      ord.push_back(id + 100);
    }(e, m, order, i));
  }
  e.run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(order[2 * i] + 100, order[2 * i + 1]);  // no interleaving
  }
  EXPECT_EQ(e.now(), 20);
}

TEST(Mutex, TryLockReflectsState) {
  Engine e;
  Mutex m(e);
  EXPECT_TRUE(m.try_lock());
  EXPECT_FALSE(m.try_lock());
  m.unlock();
  EXPECT_TRUE(m.try_lock());
  m.unlock();
}

TEST(Barrier, AllPartiesLeaveTogether) {
  Engine e;
  Barrier bar(e, 4);
  std::vector<Time> leave_times;
  for (int i = 0; i < 4; ++i) {
    spawn(e, [](Engine& eng, Barrier& b, std::vector<Time>& lt, int id) -> Task<void> {
      co_await delay(eng, id * 10);  // staggered arrivals
      co_await b.arrive_and_wait();
      lt.push_back(eng.now());
    }(e, bar, leave_times, i));
  }
  e.run();
  ASSERT_EQ(leave_times.size(), 4u);
  for (Time t : leave_times) EXPECT_EQ(t, 30);  // slowest arrival gates all
  EXPECT_EQ(bar.phase(), 1u);
}

TEST(Barrier, CyclicReuse) {
  Engine e;
  Barrier bar(e, 2);
  int rounds_done = 0;
  for (int i = 0; i < 2; ++i) {
    spawn(e, [](Engine& eng, Barrier& b, int& done, int id) -> Task<void> {
      for (int r = 0; r < 3; ++r) {
        co_await delay(eng, id + 1);
        co_await b.arrive_and_wait();
      }
      ++done;
    }(e, bar, rounds_done, i));
  }
  e.run();
  EXPECT_EQ(rounds_done, 2);
  EXPECT_EQ(bar.phase(), 3u);
}

TEST(Barrier, SinglePartyNeverBlocks) {
  Engine e;
  Barrier bar(e, 1);
  bool done = false;
  spawn(e, [](Barrier& b, bool& d) -> Task<void> {
    co_await b.arrive_and_wait();
    co_await b.arrive_and_wait();
    d = true;
  }(bar, done));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(bar.phase(), 2u);
}

TEST(Barrier, SplitPhaseNotifyWaitOverlapsWork) {
  Engine e;
  Barrier bar(e, 2);
  std::vector<int> log;
  // Thread 0 notifies early, does private work, then waits.
  spawn(e, [](Engine& eng, Barrier& b, std::vector<int>& lg) -> Task<void> {
    const auto ph = b.phase();
    b.notify();
    co_await delay(eng, 5);  // overlapped work
    lg.push_back(0);
    co_await b.wait_phase(ph);
    lg.push_back(100);
  }(e, bar, log));
  spawn(e, [](Engine& eng, Barrier& b, std::vector<int>& lg) -> Task<void> {
    co_await delay(eng, 20);
    const auto ph = b.phase();
    b.notify();
    co_await b.wait_phase(ph);
    lg.push_back(200);
  }(e, bar, log));
  e.run();
  // Thread 0's overlapped work finished before the barrier completed.
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 0);
  EXPECT_EQ(e.now(), 20);
}

}  // namespace
