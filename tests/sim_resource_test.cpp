#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <list>
#include <utility>
#include <vector>

#include "async/future.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace {

using namespace hupc::sim;  // NOLINT: test-local convenience

/// Exact oracle: the original list-based FluidLink that sorts every flow by
/// cap with std::sort on each arrival and departure. FluidLink must
/// reproduce its completion times bit-for-bit, which pins the rate-to-flow
/// mapping among equal caps (see resource.hpp).
class ListFluidLink {
 public:
  ListFluidLink(Engine& engine, double capacity)
      : engine_(&engine), capacity_(capacity) {}

  Task<void> transfer(double bytes, double max_rate = 0.0) {
    hupc::async::promise<> done(*engine_);
    hupc::async::future<> fut = done.get_future();
    if (bytes <= kEpsilonBytes) {
      done.set_value();
    } else {
      advance_progress();
      transfers_.push_back(Xfer{
          bytes,
          max_rate > 0.0 ? max_rate : std::numeric_limits<double>::infinity(),
          0.0, std::move(done)});
      assign_rates();
      schedule_next_completion();
    }
    co_await fut.wait();
  }

 private:
  static constexpr double kEpsilonBytes = 1e-6;
  struct Xfer {
    double remaining;
    double cap;
    double rate;
    hupc::async::promise<> done;
  };

  void advance_progress() {
    const Time now = engine_->now();
    const double elapsed = to_seconds(now - last_update_);
    last_update_ = now;
    if (elapsed <= 0.0) return;
    for (auto& t : transfers_) {
      t.remaining = std::max(0.0, t.remaining - elapsed * t.rate);
    }
  }

  void assign_rates() {
    std::vector<Xfer*> pool;
    pool.reserve(transfers_.size());
    for (auto& t : transfers_) pool.push_back(&t);
    std::sort(pool.begin(), pool.end(),
              [](const Xfer* a, const Xfer* b) { return a->cap < b->cap; });
    double remaining_cap = capacity_;
    std::size_t remaining_n = pool.size();
    for (Xfer* t : pool) {
      const double fair = remaining_cap / static_cast<double>(remaining_n);
      t->rate = std::min(t->cap, fair);
      remaining_cap -= t->rate;
      --remaining_n;
    }
  }

  void schedule_next_completion() {
    ++generation_;
    if (transfers_.empty()) return;
    double min_finish = std::numeric_limits<double>::infinity();
    for (const auto& t : transfers_) {
      if (t.rate <= 0.0) continue;
      min_finish = std::min(min_finish, t.remaining / t.rate);
    }
    if (!std::isfinite(min_finish)) return;
    const Time dt = std::max<Time>(1, from_seconds(min_finish) +
                                          (min_finish > 0.0 ? 1 : 0));
    const std::uint64_t gen = generation_;
    engine_->schedule_in(dt, [this, gen] { on_completion_event(gen); });
  }

  void on_completion_event(std::uint64_t generation) {
    if (generation != generation_) return;
    advance_progress();
    bool removed = false;
    for (auto it = transfers_.begin(); it != transfers_.end();) {
      if (it->remaining <= kEpsilonBytes) {
        it->done.set_value();
        it = transfers_.erase(it);
        removed = true;
      } else {
        ++it;
      }
    }
    if (removed) assign_rates();
    schedule_next_completion();
  }

  Engine* engine_;
  double capacity_;
  Time last_update_ = 0;
  std::uint64_t generation_ = 0;
  std::list<Xfer> transfers_;
};

/// One closed-loop sender: after a staggered start it pushes `count`
/// transfers of 8..64 bytes back to back, so the link sees many arrivals
/// and departures at a concurrency near the number of streams.
struct Stream {
  Time start;
  double cap;  // <= 0: uncapped
};

/// Runs `streams` of 20 transfers each through a fresh link of type L;
/// returns (stream id, completion time) in completion order, plus the
/// engine's event count.
template <class L>
std::pair<std::vector<std::pair<int, Time>>, std::uint64_t> drive_streams(
    const std::vector<Stream>& streams, double capacity) {
  Engine e;
  L link(e, capacity);
  std::vector<std::pair<int, Time>> done;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    spawn(e, [](Engine& eng, L& l, Stream s, int id,
                std::vector<std::pair<int, Time>>& d) -> Task<void> {
      hupc::util::Xoshiro256ss rng(static_cast<std::uint64_t>(id) * 31U + 7U);
      co_await delay(eng, s.start);
      for (int k = 0; k < 20; ++k) {
        co_await l.transfer(8.0 * static_cast<double>(1 + rng.below(8)),
                            s.cap);
        d.emplace_back(id, eng.now());
      }
    }(e, link, streams[i], static_cast<int>(i), done));
  }
  e.run();
  return {done, e.events_executed()};
}

std::vector<Stream> staggered_streams(int n, double cap) {
  std::vector<Stream> streams;
  for (int i = 0; i < n; ++i) streams.push_back(Stream{(i * 37) % 64, cap});
  return streams;
}

TEST(FifoServer, ServesInOrderWithBackToBackTiming) {
  Engine e;
  FifoServer srv(e);
  std::vector<Time> finish;
  for (int i = 0; i < 3; ++i) {
    spawn(e, [](Engine& eng, FifoServer& s, std::vector<Time>& f) -> Task<void> {
      co_await s.serve(10);
      f.push_back(eng.now());
    }(e, srv, finish));
  }
  e.run();
  EXPECT_EQ(finish, (std::vector<Time>{10, 20, 30}));
  EXPECT_EQ(srv.busy_time(), 30);
  EXPECT_EQ(srv.served(), 3u);
}

TEST(FluidLink, SingleTransferTakesBytesOverCapacity) {
  Engine e;
  FluidLink link(e, 1e9);  // 1 GB/s
  Time done_at = 0;
  spawn(e, [](Engine& eng, FluidLink& l, Time& d) -> Task<void> {
    co_await l.transfer(1e6);  // 1 MB -> 1 ms
    d = eng.now();
  }(e, link, done_at));
  e.run();
  EXPECT_NEAR(static_cast<double>(done_at), 1e6, 10.0);  // ~1 ms in ns
}

TEST(FluidLink, TwoEqualTransfersShareBandwidth) {
  Engine e;
  FluidLink link(e, 1e9);
  std::vector<Time> done;
  for (int i = 0; i < 2; ++i) {
    spawn(e, [](Engine& eng, FluidLink& l, std::vector<Time>& d) -> Task<void> {
      co_await l.transfer(1e6);
      d.push_back(eng.now());
    }(e, link, done));
  }
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // Both get C/2, so both finish at ~2 ms.
  EXPECT_NEAR(static_cast<double>(done[0]), 2e6, 100.0);
  EXPECT_NEAR(static_cast<double>(done[1]), 2e6, 100.0);
}

TEST(FluidLink, LateArrivalSlowsEarlyTransfer) {
  Engine e;
  FluidLink link(e, 1e9);
  Time first_done = 0, second_done = 0;
  spawn(e, [](Engine& eng, FluidLink& l, Time& d) -> Task<void> {
    co_await l.transfer(1e6);  // starts alone
    d = eng.now();
  }(e, link, first_done));
  spawn(e, [](Engine& eng, FluidLink& l, Time& d) -> Task<void> {
    co_await delay(eng, 500'000);  // join at 0.5 ms, first is half done
    co_await l.transfer(1e6);
    d = eng.now();
  }(e, link, second_done));
  e.run();
  // First: 0.5 ms alone + 0.5 MB at C/2 = 0.5 + 1.0 = 1.5 ms.
  EXPECT_NEAR(static_cast<double>(first_done), 1.5e6, 200.0);
  // Second: shares C/2 until 1.5 ms (moves 0.5 MB), then full C: +0.5 ms.
  EXPECT_NEAR(static_cast<double>(second_done), 2.0e6, 200.0);
}

TEST(FluidLink, PerTransferCapLimitsRate) {
  Engine e;
  FluidLink link(e, 10e9);  // huge aggregate
  Time done_at = 0;
  spawn(e, [](Engine& eng, FluidLink& l, Time& d) -> Task<void> {
    co_await l.transfer(1e6, /*max_rate=*/1e9);  // capped at 1 GB/s
    d = eng.now();
  }(e, link, done_at));
  e.run();
  EXPECT_NEAR(static_cast<double>(done_at), 1e6, 10.0);
}

TEST(FluidLink, CapsAndFairShareWaterFilling) {
  Engine e;
  FluidLink link(e, 3e9);  // 3 GB/s total
  std::vector<std::pair<int, Time>> done;
  // Transfer 0 capped at 0.5 GB/s; transfers 1 and 2 uncapped split the
  // remaining 2.5 GB/s -> 1.25 GB/s each.
  spawn(e, [](Engine& eng, FluidLink& l, std::vector<std::pair<int, Time>>& d)
            -> Task<void> {
    co_await l.transfer(0.5e6, 0.5e9);  // 1 ms at its cap
    d.emplace_back(0, eng.now());
  }(e, link, done));
  for (int i = 1; i <= 2; ++i) {
    spawn(e, [](Engine& eng, FluidLink& l, std::vector<std::pair<int, Time>>& d,
                int id) -> Task<void> {
      co_await l.transfer(1.25e6);  // 1 ms at 1.25 GB/s
      d.emplace_back(id, eng.now());
    }(e, link, done, i));
  }
  e.run();
  ASSERT_EQ(done.size(), 3u);
  for (const auto& [id, t] : done) {
    EXPECT_NEAR(static_cast<double>(t), 1e6, 1000.0) << "transfer " << id;
  }
}

TEST(FluidLink, ZeroByteTransferIsImmediate) {
  Engine e;
  FluidLink link(e, 1e9);
  bool done = false;
  spawn(e, [](FluidLink& l, bool& d) -> Task<void> {
    co_await l.transfer(0.0);
    d = true;
  }(link, done));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), 0);
}

TEST(FluidLink, ConservationProperty) {
  // Property: sum of offered bytes equals link's total accounting, and all
  // transfers complete, across a randomized schedule.
  Engine e;
  FluidLink link(e, 2.5e9);
  int completed = 0;
  double offered = 0;
  hupc::util::Xoshiro256ss rng(12345);
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    const double bytes = 1000.0 + static_cast<double>(rng.below(1'000'000));
    const Time start = static_cast<Time>(rng.below(2'000'000));
    offered += bytes;
    spawn(e, [](Engine& eng, FluidLink& l, double b, Time s, int& c) -> Task<void> {
      co_await delay(eng, s);
      co_await l.transfer(b, 1.5e9);
      ++c;
    }(e, link, bytes, start, completed));
  }
  e.run();
  EXPECT_EQ(completed, n);
  EXPECT_NEAR(link.total_bytes(), offered, 1.0);
  EXPECT_EQ(link.active_transfers(), 0u);
}

TEST(FluidLink, EqualCapRatesMatchSortedOracleExactly) {
  // Rates among equal caps differ in the last bit, and which stream gets
  // which one decides half-nanosecond roundings of completion times. Above
  // 16 flows std::sort permutes equal keys, so n = 17..64 is where a
  // shortcut (identity order, or C/n for all) diverges from the oracle.
  for (int n = 1; n <= 64; ++n) {
    for (double cap : {0.0, 1e8}) {
      const auto streams = staggered_streams(n, cap);
      const auto want = drive_streams<ListFluidLink>(streams, 3.2e9);
      const auto got = drive_streams<FluidLink>(streams, 3.2e9);
      ASSERT_EQ(got.first.size(), static_cast<std::size_t>(20 * n));
      EXPECT_EQ(got.first, want.first) << "n=" << n << " cap=" << cap;
      EXPECT_EQ(got.second, want.second) << "n=" << n << " cap=" << cap;
    }
  }
}

TEST(FluidLink, MixedCapRatesMatchSortedOracleExactly) {
  // A third of the streams carry a cap too high to bind, the rest none:
  // the sort splits equal fair shares across two keys, and the permutation
  // it leaves them in decides the last bits again.
  for (int n = 17; n <= 64; ++n) {
    std::vector<Stream> streams = staggered_streams(n, 0.0);
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (i % 3 == 0) streams[i].cap = 1e9;
    }
    const auto want = drive_streams<ListFluidLink>(streams, 3.2e9);
    const auto got = drive_streams<FluidLink>(streams, 3.2e9);
    ASSERT_EQ(got.first.size(), 20 * streams.size());
    EXPECT_EQ(got.first, want.first) << "n=" << n;
    EXPECT_EQ(got.second, want.second) << "n=" << n;
  }
}

}  // namespace
