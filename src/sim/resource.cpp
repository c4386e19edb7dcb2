#include "sim/resource.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace hupc::sim {

namespace {
// Bytes below this are considered delivered (absorbs float rounding at
// completion-event boundaries).
constexpr double kEpsilonBytes = 1e-6;
}  // namespace

FluidLink::FluidLink(Engine& engine, double capacity_bytes_per_sec)
    : engine_(&engine), capacity_(capacity_bytes_per_sec) {
  assert(capacity_ > 0.0);
}

async::future<> FluidLink::transfer_async(double bytes, double max_rate) {
  total_bytes_ += bytes;
  async::promise<> done(*engine_);
  async::future<> fut = done.get_future();
  if (bytes <= kEpsilonBytes) {
    done.set_value();
    return fut;
  }
  advance_progress();
  transfers_.push_back(Xfer{
      bytes,
      max_rate > 0.0 ? max_rate : std::numeric_limits<double>::infinity(),
      0.0, std::move(done)});
  rebalance();
  return fut;
}

Task<void> FluidLink::transfer(double bytes, double max_rate) {
  co_await transfer_async(bytes, max_rate);
}

void FluidLink::advance_progress() {
  const Time now = engine_->now();
  const double elapsed = to_seconds(now - last_update_);
  last_update_ = now;
  if (elapsed <= 0.0) return;
  for (auto& t : transfers_) {
    t.remaining = std::max(0.0, t.remaining - elapsed * t.rate);
  }
}

namespace {

/// Water-filling with per-transfer caps: visiting transfers in `order`
/// (ascending cap), give each an equal share of the leftover capacity, or
/// its cap if that is lower. `cap(i)` reads and `set(i, rate)` writes the
/// transfer at arrival position i.
template <class Cap, class Set>
void water_fill(double capacity, const std::vector<std::uint32_t>& order,
                Cap cap, Set set) {
  double remaining_cap = capacity;
  const std::size_t n = order.size();
  for (std::size_t k = 0; k < n; ++k) {
    const double fair = remaining_cap / static_cast<double>(n - k);
    const double rate = std::min(cap(order[k]), fair);
    set(order[k], rate);
    remaining_cap -= rate;
  }
}

/// The order std::sort leaves `n` equal keys in. A comparison sort's
/// permutation depends only on the comparison outcomes, and equal keys
/// compare false both ways, so sorting 0..n-1 with an always-false
/// comparator yields it. Orders up to kCachedOrders keys are kept (per
/// thread, as engines on different threads share no state); larger ones
/// are rebuilt in `scratch`.
const std::vector<std::uint32_t>& equal_key_order(
    std::size_t n, std::vector<std::uint32_t>& scratch) {
  constexpr std::size_t kCachedOrders = 1024;  // at most 2 MiB of orders
  thread_local std::vector<std::vector<std::uint32_t>> cache(kCachedOrders);
  std::vector<std::uint32_t>& order = n < kCachedOrders ? cache[n] : scratch;
  if (order.size() != n) {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0U);
    std::sort(order.begin(), order.end(),
              [](std::uint32_t, std::uint32_t) { return false; });
  }
  return order;
}

}  // namespace

const std::vector<double>& FluidLink::equal_cap_rates(std::size_t n,
                                                      double cap) {
  EqualRates& entry = equal_rates_[n % equal_rates_.size()];
  if (entry.n != n || entry.cap != cap) {
    entry.n = n;
    entry.cap = cap;
    entry.rate.resize(n);
    water_fill(
        capacity_, equal_key_order(n, sorted_),
        [cap](std::uint32_t) { return cap; },
        [&entry](std::uint32_t i, double r) { entry.rate[i] = r; });
  }
  return entry.rate;
}

void FluidLink::rebalance() {
  ++generation_;
  const std::size_t n = transfers_.size();
  if (n == 0) return;

  // Only fault bandwidth dips mix caps on one link. Otherwise every cap is
  // equal and the rates, which depend only on the count and the cap, come
  // from a table.
  const double cap0 = transfers_.front().cap;
  const bool equal_caps =
      std::all_of(transfers_.begin(), transfers_.end(),
                  [cap0](const Xfer& t) { return t.cap == cap0; });
  // Assigning a rate also folds the transfer into the next-completion
  // search (a min, so the visiting order does not matter).
  double min_finish = std::numeric_limits<double>::infinity();
  const auto assign = [this, &min_finish](std::uint32_t i, double rate) {
    Xfer& t = transfers_[i];
    t.rate = rate;
    if (rate > 0.0) min_finish = std::min(min_finish, t.remaining / rate);
  };
  if (equal_caps) {
    const std::vector<double>& rate = equal_cap_rates(n, cap0);
    for (std::uint32_t i = 0; i < n; ++i) assign(i, rate[i]);
  } else {
    sorted_.resize(n);
    std::iota(sorted_.begin(), sorted_.end(), 0U);
    std::sort(sorted_.begin(), sorted_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return transfers_[a].cap < transfers_[b].cap;
              });
    water_fill(
        capacity_, sorted_,
        [this](std::uint32_t i) { return transfers_[i].cap; }, assign);
  }
  if (!std::isfinite(min_finish)) return;  // all rates zero: stalled link

  // Round up to the next nanosecond so remaining provably reaches ~0.
  const Time dt = std::max<Time>(1, from_seconds(min_finish) +
                                        (min_finish > 0.0 ? 1 : 0));
  const std::uint64_t gen = generation_;
  engine_->schedule_in(dt, [this, gen] { on_completion_event(gen); });
}

void FluidLink::on_completion_event(std::uint64_t generation) {
  if (generation != generation_) return;  // superseded by a newer state
  advance_progress();
  // Retire finished transfers in arrival order, compacting the rest.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < transfers_.size(); ++i) {
    if (transfers_[i].remaining <= kEpsilonBytes) {
      transfers_[i].done.set_value();
    } else {
      if (kept != i) transfers_[kept] = std::move(transfers_[i]);
      ++kept;
    }
  }
  transfers_.erase(transfers_.begin() + static_cast<std::ptrdiff_t>(kept),
                   transfers_.end());
  rebalance();
}

}  // namespace hupc::sim
