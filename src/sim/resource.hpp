// Contention-modeling resources.
//
// FifoServer — a serially-reusable resource (e.g. one network connection's
// injection path, a lock-protected steal-stack): requests are serviced one
// at a time in FIFO order, each holding the server for a caller-specified
// virtual duration.
//
// FluidLink — a processor-sharing bandwidth resource (e.g. a NIC, a socket's
// memory controller): concurrent transfers progress simultaneously at
// water-filling fair-share rates, optionally capped per transfer (models a
// per-connection bandwidth limit below the aggregate link capacity). Rates
// are recomputed exactly on every arrival and departure, so the model is a
// piecewise-linear fluid approximation with no time-stepping error.
//
// The water-filling visits transfers in cap order, and the per-transfer
// rates it hands out can differ in the last bit. Which transfer gets which
// rate among equal caps is the permutation std::sort leaves equal keys in,
// and that mapping is part of the model's bit-exact output (work stealing
// turns such last-bit differences into different steal races). In the
// common all-caps-equal case the rates depend only on the transfer count
// and the cap, so they are computed in that permutation once per count and
// cached, instead of being re-sorted and re-divided on every update.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "async/future.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace hupc::sim {

class FifoServer {
 public:
  explicit FifoServer(Engine& engine) : engine_(&engine), mutex_(engine) {}

  /// Occupy the server for `service` virtual time, after waiting in FIFO
  /// order behind earlier requests.
  Task<void> serve(Time service) {
    co_await mutex_.lock();
    ScopedLock guard(mutex_);
    busy_ += service;
    ++served_;
    co_await delay(*engine_, service);
  }

  /// Total busy time and request count (utilization diagnostics).
  [[nodiscard]] Time busy_time() const noexcept { return busy_; }
  [[nodiscard]] std::uint64_t served() const noexcept { return served_; }

 private:
  Engine* engine_;
  Mutex mutex_;
  Time busy_ = 0;
  std::uint64_t served_ = 0;
};

/// Processor-sharing link with capacity in bytes/second.
class FluidLink {
 public:
  FluidLink(Engine& engine, double capacity_bytes_per_sec);
  FluidLink(const FluidLink&) = delete;
  FluidLink& operator=(const FluidLink&) = delete;

  /// Move `bytes` through the link; completes when the transfer's share of
  /// the capacity has carried all bytes. `max_rate` (bytes/sec) caps this
  /// transfer's share; <=0 means uncapped.
  [[nodiscard]] Task<void> transfer(double bytes, double max_rate = 0.0);

  /// Start a transfer immediately and return a future that becomes ready on
  /// completion — lets a caller drive several links in parallel and await
  /// the slowest (e.g. a cross-socket stream occupying memory bus + QPI).
  [[nodiscard]] async::future<> transfer_async(double bytes,
                                               double max_rate = 0.0);

  [[nodiscard]] double capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t active_transfers() const noexcept {
    return transfers_.size();
  }
  [[nodiscard]] double total_bytes() const noexcept { return total_bytes_; }

 private:
  struct Xfer {
    double remaining;
    double cap;   // per-transfer rate cap (or huge)
    double rate;  // current assigned rate
    async::promise<> done;
  };

  void advance_progress();
  /// Water-fill the rates and schedule the next completion event.
  void rebalance();
  /// Water-filled rates of `n` transfers that all have cap `cap`, by
  /// arrival position.
  const std::vector<double>& equal_cap_rates(std::size_t n, double cap);
  void on_completion_event(std::uint64_t generation);

  Engine* engine_;
  double capacity_;
  double total_bytes_ = 0.0;
  Time last_update_ = 0;
  std::uint64_t generation_ = 0;  // invalidates stale completion events
  std::vector<Xfer> transfers_;  // arrival order
  std::vector<std::uint32_t> sorted_;  // scratch: positions in cap order
  // Equal-cap rate tables for the last few transfer counts seen, in slot
  // count % size: the count moves by one per arrival or departure, so the
  // counts a link oscillates between stay cached in bounded memory.
  struct EqualRates {
    std::size_t n = 0;  // 0: empty
    double cap = 0.0;
    std::vector<double> rate;  // by arrival position
  };
  std::array<EqualRates, 8> equal_rates_;
};

}  // namespace hupc::sim
