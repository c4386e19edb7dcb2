#include "gas/runtime.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace hupc::gas {

namespace {

int ceil_log2(int n) {
  if (n <= 1) return 0;
  return std::bit_width(static_cast<unsigned>(n - 1));
}

net::ConnectionMode connection_mode(Backend backend) {
  return backend == Backend::processes ? net::ConnectionMode::per_process
                                       : net::ConnectionMode::per_node;
}

net::ConduitSpec effective_conduit(const Config& config, int ranks_per_node) {
  net::ConduitSpec conduit = config.conduit;
  double eff = config.nic_efficiency;
  if (eff <= 0.0) {
    // Independently polling endpoints erode the achievable NIC bandwidth
    // (thesis §4.3.1 "contention in the lower network API level").
    // Separate processes each own connections and driver state (strong
    // contention); pthreads share one connection and runtime, contending
    // only on internal locks (weak contention).
    const double coeff = config.backend == Backend::processes ? 0.025 : 0.010;
    eff = 1.0 / (1.0 + coeff * std::max(0, ranks_per_node - 1));
  }
  conduit.nic_bw *= eff;
  return conduit;
}

/// Node-local endpoint indices under the ACTUAL placement: the i-th rank
/// placed on a node gets endpoint i (ranks scanned in rank order). Matches
/// `rank % ranks_per_node` exactly for blockwise node fills, and stays
/// correct for any future placement that isn't.
std::vector<int> endpoints_from_placement(
    const std::vector<topo::HwLoc>& placement, int nodes,
    int endpoints_per_node) {
  std::vector<int> ep_of_rank(placement.size(), 0);
  std::vector<int> next(static_cast<std::size_t>(nodes), 0);
  for (std::size_t r = 0; r < placement.size(); ++r) {
    const auto node = static_cast<std::size_t>(placement[r].node);
    ep_of_rank[r] = next[node]++ % endpoints_per_node;
  }
  return ep_of_rank;
}

}  // namespace

Config validated(Config config) {
  const auto& m = config.machine;
  if (config.threads < 1) {
    throw std::invalid_argument("gas::Config: threads must be >= 1 (got " +
                                std::to_string(config.threads) + ")");
  }
  if (m.nodes < 1 || m.sockets_per_node < 1 || m.cores_per_socket < 1 ||
      m.smt_per_core < 1) {
    throw std::invalid_argument(
        "gas::Config: machine shape must have >= 1 node/socket/core/smt "
        "(got " + std::to_string(m.nodes) + "/" +
        std::to_string(m.sockets_per_node) + "/" +
        std::to_string(m.cores_per_socket) + "/" +
        std::to_string(m.smt_per_core) + ")");
  }
  const auto& c = config.costs;
  const struct { const char* name; double value; } costs[] = {
      {"ptr_overhead_s", c.ptr_overhead_s},
      {"shm_copy_overhead_s", c.shm_copy_overhead_s},
      {"loopback_bw", c.loopback_bw},
      {"loopback_overhead_s", c.loopback_overhead_s},
      {"barrier_hop_s", c.barrier_hop_s},
      {"lock_local_s", c.lock_local_s},
      {"vis_region_header_bytes", c.vis_region_header_bytes},
  };
  for (const auto& [name, value] : costs) {
    if (value < 0.0) {
      throw std::invalid_argument(std::string("gas::Config: CostParams.") +
                                  name + " must be >= 0 (got " +
                                  std::to_string(value) + ")");
    }
  }
  if (config.conduit.stage_bw <= 0.0 || config.conduit.conn_bw <= 0.0 ||
      config.conduit.nic_bw <= 0.0) {
    throw std::invalid_argument(
        "gas::Config: conduit bandwidths must be > 0");
  }
  return config;
}

Runtime::Runtime(sim::Engine& engine, Config config)
    : engine_(&engine),
      config_(validated(std::move(config))),
      placement_(topo::place_ranks(config_.machine, config_.threads,
                                   config_.placement)),
      ranks_per_node_((config_.threads + config_.machine.nodes - 1) /
                      config_.machine.nodes),
      nodes_used_((config_.threads + ranks_per_node_ - 1) / ranks_per_node_),
      endpoint_of_rank_(endpoints_from_placement(
          placement_, config_.machine.nodes, ranks_per_node_)),
      slots_(config_.machine),
      memory_(engine, config_.machine),
      network_(engine, config_.machine,
               effective_conduit(config_, ranks_per_node_),
               connection_mode(config_.backend), ranks_per_node_),
      heap_(config_.threads),
      barrier_(engine, config_.threads) {
  threads_.reserve(static_cast<std::size_t>(config_.threads));
  for (int r = 0; r < config_.threads; ++r) {
    slots_.bind(placement_[static_cast<std::size_t>(r)]);
    threads_.push_back(std::make_unique<Thread>(
        *this, r, placement_[static_cast<std::size_t>(r)]));
  }
  // Hand the network the real (node, endpoint) -> rank attribution table so
  // exporters stop guessing blockwise placement (src/net/network.hpp used
  // to document that inaccuracy).
  {
    std::vector<int> table(
        static_cast<std::size_t>(config_.machine.nodes) *
            static_cast<std::size_t>(ranks_per_node_),
        -1);
    for (int r = 0; r < config_.threads; ++r) {
      const std::size_t slot =
          static_cast<std::size_t>(node_of(r)) *
              static_cast<std::size_t>(ranks_per_node_) +
          static_cast<std::size_t>(endpoint_of(r));
      if (table[slot] < 0) table[slot] = r;  // first binder owns the slot
    }
    network_.set_endpoint_ranks(std::move(table));
  }
  if (trace::Tracer* tr = config_.tracer) {
    tr->set_clock([eng = engine_] {
      return static_cast<trace::VTime>(eng->now());
    });
    std::vector<int> nodes;
    nodes.reserve(placement_.size());
    for (const auto& loc : placement_) nodes.push_back(loc.node);
    tr->set_rank_nodes(std::move(nodes));
    engine_->set_tracer(tr);
    network_.set_tracer(tr);
  }
}

void Runtime::install_faults(const fault::Hooks& hooks) {
  fault_hooks_ = hooks;
  engine_->set_fault(hooks.schedule);
  network_.set_fault(hooks.message);
  heap_.set_fault(hooks.alloc);
}

void Runtime::spmd(Kernel kernel) {
  if (launched_) {
    throw std::logic_error("Runtime::spmd: already launched");
  }
  launched_ = true;
  kernel_ = std::move(kernel);
  procs_.reserve(threads_.size());
  for (auto& t : threads_) {
    procs_.push_back(sim::spawn(*engine_, kernel_(*t)));
  }
}

void Runtime::run_to_completion() {
  engine_->run();
  // A rank that died with an exception strands its peers at barriers —
  // surface the root cause, not the symptom.
  for (auto& p : procs_) {
    if (p.failed()) p.get();
  }
  for (auto& p : procs_) {
    if (!p.ready()) {
      throw std::logic_error(
          "Runtime: a rank did not finish (deadlocked barrier or lock?)");
    }
  }
}

bool Runtime::same_supernode(int a, int b) const {
  if (a == b) return true;
  if (node_of(a) != node_of(b)) return false;
  return config_.backend == Backend::pthreads || config_.pshm;
}

sim::Time Runtime::barrier_cost() const {
  const double intra =
      config_.costs.barrier_hop_s * ceil_log2(ranks_per_node_);
  double inter = 0.0;
  if (nodes_used_ > 1) {
    const auto& c = config_.conduit;
    inter = (c.send_overhead_s + c.latency_s + c.recv_overhead_s) *
            ceil_log2(nodes_used_);
  }
  return sim::from_seconds(intra + inter);
}

int Thread::threads() const noexcept { return rt_->threads(); }

bool Thread::remote_node(int owner) const {
  return rt_->node_of(owner) != loc_.node;
}

void Thread::begin_coalesce(const comm::Params& params) {
  if (coalescing_) {
    throw std::logic_error(
        "Thread::begin_coalesce: coalescing epochs do not nest (await "
        "end_coalesce() first)");
  }
  if (coalescer_ == nullptr) {
    coalescer_ = std::make_unique<comm::Coalescer>(
        rt_->network(), rank_, loc_.node, rt_->endpoint_of(rank_),
        rt_->tracer());
  }
  coalescer_->configure(params);
  coalescing_ = true;
  HUPC_TRACE_COUNT(rt_->tracer(), "comm.epoch.begin", rank_);
}

sim::Task<void> Thread::end_coalesce() {
  if (!coalescing_) {
    throw std::logic_error("Thread::end_coalesce: no epoch open");
  }
  HUPC_TRACE_COUNT(rt_->tracer(), "comm.epoch.end", rank_);
  coalescing_ = false;
  co_await coalescer_->flush_all(comm::FlushCause::fence);
}

sim::Task<void> Thread::coalesce_flush() {
  if (coalescing_) {
    co_await coalescer_->flush_all(comm::FlushCause::fence);
  }
}

void Thread::abandon_coalesce() noexcept {
  if (!coalescing_) return;
  coalescing_ = false;
  coalescer_->abandon();
}

void Thread::begin_read_cache(const comm::CacheParams& params) {
  if (caching_) {
    throw std::logic_error(
        "Thread::begin_read_cache: read-cache epochs do not nest (call "
        "end_read_cache() first)");
  }
  if (read_cache_ == nullptr) {
    read_cache_ = std::make_unique<comm::ReadCache>(
        rt_->network(), rank_, loc_.node, rt_->endpoint_of(rank_),
        rt_->tracer());
  }
  read_cache_->configure(params);
  // The cache-pressure seam is read at epoch open (like the steal seam at
  // WorkStealing construction): install fault plans before opening epochs.
  read_cache_->set_fault(rt_->fault_hooks().cache);
  caching_ = true;
  HUPC_TRACE_COUNT(rt_->tracer(), "gas.cache.epoch.begin", rank_);
}

void Thread::end_read_cache() noexcept {
  if (!caching_) return;
  caching_ = false;
  read_cache_->invalidate_all();
  HUPC_TRACE_COUNT(rt_->tracer(), "gas.cache.epoch.end", rank_);
}

void Thread::invalidate_read_cache() noexcept {
  if (caching_) read_cache_->invalidate_all();
}

void Thread::note_shared_store(int owner, const void* addr,
                               std::size_t bytes) noexcept {
  if (!caching_ || !remote_node(owner) || addr == nullptr) return;
  const std::int64_t off = rt_->heap().offset_of(owner, addr);
  if (off >= 0) read_cache_->invalidate_range(owner, off, bytes);
}

sim::Task<void> Thread::barrier() {
  HUPC_TRACE_SCOPE(rt_->tracer(), trace::Category::gas, "barrier", rank_);
  HUPC_TRACE_COUNT(rt_->tracer(), "gas.barrier", rank_);
  co_await coalesce_flush();  // fence: buffered puts visible past the barrier
  invalidate_read_cache();    // fence: peers' pre-barrier writes observable
  co_await rt_->barrier_.arrive_and_wait();
  co_await sim::delay(rt_->engine(), rt_->barrier_cost());
}

std::uint64_t Thread::notify() {
  const std::uint64_t token = rt_->barrier_.phase();
  rt_->barrier_.notify();
  return token;
}

sim::Task<void> Thread::wait(std::uint64_t token) {
  HUPC_TRACE_SCOPE(rt_->tracer(), trace::Category::gas, "barrier.wait", rank_,
                   token);
  co_await coalesce_flush();  // fence, same as the full barrier
  invalidate_read_cache();
  co_await rt_->barrier_.wait_phase(token);
  co_await sim::delay(rt_->engine(), rt_->barrier_cost());
}

sim::Task<void> Thread::compute(double single_thread_seconds) {
  co_await rt_->memory().compute(rt_->slots(), loc_, single_thread_seconds);
}

sim::Task<void> Thread::compute_flops(double flops, double efficiency) {
  co_await rt_->memory().compute_flops(rt_->slots(), loc_, flops, efficiency);
}

sim::Task<void> Thread::stream_local(double bytes) {
  co_await rt_->memory().stream(loc_, loc_, bytes);
}

sim::Task<void> Thread::stream_from(int home_rank, double bytes) {
  const topo::HwLoc home = rt_->loc_of(home_rank);
  if (home.node == loc_.node) {
    co_await rt_->memory().stream(loc_, home, bytes);
  } else {
    // Cross-node bulk pull: the data leg flows home -> here.
    co_await rt_->network().rma({.src_node = home.node,
                                 .src_ep = rt_->endpoint_of(home_rank),
                                 .dst_node = loc_.node,
                                 .bytes = bytes});
  }
}

sim::Task<void> Thread::shared_loop(int home_rank, std::uint64_t count,
                                    double bytes_each, bool privatized) {
  HUPC_TRACE_SCOPE(rt_->tracer(), trace::Category::gas, "shared_loop", rank_,
                   count, static_cast<std::uint64_t>(home_rank));
  HUPC_TRACE_COUNT(rt_->tracer(),
                   privatized ? "gas.access.privatized"
                              : "gas.access.translated",
                   rank_, count);
  // CPU side: the translation overhead is serial work on this core.
  if (!privatized) {
    const double cpu = static_cast<double>(count) * rt_->config().costs.ptr_overhead_s;
    co_await compute(cpu);
  }
  // Memory side: the touched bytes flow through the home socket's pool.
  const topo::HwLoc home = rt_->loc_of(home_rank);
  assert(home.node == loc_.node &&
         "shared_loop models intra-node fine-grained loops; remote "
         "fine-grained access should use get/put per element");
  co_await rt_->memory().stream(loc_, home,
                                static_cast<double>(count) * bytes_each);
}

bool Thread::castable(int owner) const { return rt_->same_supernode(rank_, owner); }

async::future<> Thread::launch_async(sim::Task<void> op) {
  HUPC_TRACE_COUNT(rt_->tracer(), "async.copy.issued", rank_);
  return sim::spawn(rt_->engine(), complete_async(std::move(op)));
}

sim::Task<void> Thread::complete_async(sim::Task<void> op) {
  try {
    co_await std::move(op);
  } catch (...) {
    HUPC_TRACE_COUNT(rt_->tracer(), "async.copy.failed", rank_);
    throw;
  }
  // The operation's work (data movement, invalidation, cost charges) is
  // fully done; only the COMPLETION may now be held back, so a fault plan
  // reorders when waiters observe it, never what they observe.
  if (fault::CompletionHook* hook = rt_->fault_hooks().completion) {
    const std::int64_t extra = hook->delay_completion(rank_);
    if (extra > 0) co_await sim::delay(rt_->engine(), extra);
  }
  HUPC_TRACE_COUNT(rt_->tracer(), "async.copy.completed", rank_);
}

sim::Task<void> Thread::element_access(int owner, std::size_t bytes) {
  HUPC_TRACE_INSTANT(rt_->tracer(), trace::Category::gas, "element", rank_,
                     bytes, static_cast<std::uint64_t>(owner));
  HUPC_TRACE_COUNT(rt_->tracer(), "gas.access.translated", rank_);
  // Translation overhead always applies to un-cast shared accesses.
  co_await compute(rt_->config().costs.ptr_overhead_s);
  const topo::HwLoc home = rt_->loc_of(owner);
  if (home.node == loc_.node) {
    co_await rt_->memory().access(loc_, home, 1, static_cast<double>(bytes));
  } else {
    // Remote element access: a small network message each way bounds it.
    co_await rt_->network().rma({.src_node = loc_.node,
                                 .src_ep = rt_->endpoint_of(rank_),
                                 .dst_node = home.node,
                                 .bytes = static_cast<double>(bytes)});
  }
}

sim::Task<void> Thread::read_access(int owner, const void* addr,
                                    std::size_t bytes) {
  if (caching_ && remote_node(owner)) {
    // Lines are tagged by deterministic segment offsets, never raw host
    // addresses (which differ run to run under ASLR and would leak
    // nondeterminism into the modeled hit/miss schedule). An address the
    // heap cannot resolve is uncacheable and falls through.
    const std::int64_t off =
        addr == nullptr ? -1 : rt_->heap().offset_of(owner, addr);
    if (off >= 0) {
      HUPC_TRACE_INSTANT(rt_->tracer(), trace::Category::gas,
                         "element.cached", rank_, bytes,
                         static_cast<std::uint64_t>(owner));
      HUPC_TRACE_COUNT(rt_->tracer(), "gas.access.cached", rank_);
      // Pointer translation is CPU work; caching only amortizes the
      // network side of the access.
      co_await compute(rt_->config().costs.ptr_overhead_s);
      const int dst_node = rt_->node_of(owner);
      if (coalescing_ &&
          coalescer_->has_conflicting_put(dst_node, addr, bytes)) {
        // Read-your-writes through the composition: a deferred put to
        // this range must be observed, so the destination drains before
        // the (possibly cached) line is served.
        co_await coalescer_->flush(dst_node, comm::FlushCause::conflict);
      }
      co_await read_cache_->read(owner, dst_node, off, bytes);
      // Hit or miss, the value itself is read at local cost (a miss
      // already paid the line-fill round trip above).
      co_await rt_->memory().access(loc_, loc_, 1,
                                    static_cast<double>(bytes));
      co_return;
    }
    read_cache_->count_bypass();
  }
  co_await uncached_read_access(owner, addr, bytes);
}

sim::Task<void> Thread::uncached_read_access(int owner, const void* addr,
                                             std::size_t bytes) {
  if (coalescing_ && remote_node(owner)) {
    HUPC_TRACE_INSTANT(rt_->tracer(), trace::Category::gas, "element.coalesced",
                       rank_, bytes, static_cast<std::uint64_t>(owner));
    HUPC_TRACE_COUNT(rt_->tracer(), "gas.access.coalesced", rank_);
    // Pointer translation is CPU work; coalescing only amortizes the
    // network side of the access.
    co_await compute(rt_->config().costs.ptr_overhead_s);
    co_await coalescer_->read(rt_->node_of(owner), addr, bytes);
    co_return;
  }
  co_await element_access(owner, bytes);
}

sim::Task<void> Thread::rmw_access(int owner, const void* addr,
                                   std::size_t bytes) {
  // An AMO must observe the remote value and publish its update: it never
  // serves from the cache, and it drops the covered line so a later get
  // re-fetches.
  if (caching_) note_shared_store(owner, addr, bytes);
  co_await uncached_read_access(owner, addr, bytes);
}

sim::Task<void> Thread::coalesced_put(int owner, void* dst, const void* value,
                                      std::size_t bytes) {
  HUPC_TRACE_INSTANT(rt_->tracer(), trace::Category::gas, "element.coalesced",
                     rank_, bytes, static_cast<std::uint64_t>(owner));
  HUPC_TRACE_COUNT(rt_->tracer(), "gas.access.coalesced", rank_);
  co_await compute(rt_->config().costs.ptr_overhead_s);
  co_await coalescer_->put(rt_->node_of(owner), dst, value, bytes);
}

sim::Task<void> Thread::copy_raw_from(topo::HwLoc at, int peer, void* dst,
                                      const void* src, std::size_t bytes) {
  if (coalescing_) {
    // Fence the destination's buffer: the bulk transfer must be ordered
    // after (and observe) earlier buffered puts to the same node. flush()
    // no-ops when that destination holds nothing.
    co_await coalescer_->flush(rt_->node_of(peer), comm::FlushCause::fence);
  }
  // Bulk transfers are coherence points for the read cache: the moved
  // range is unknown at line granularity (raw pointers, any shape), so
  // conservatively drop everything. Host-side, free.
  invalidate_read_cache();
  if (dst != nullptr && src != nullptr && bytes > 0) {
    std::memcpy(dst, src, bytes);  // the real data moves unconditionally
  }
  if (bytes == 0) co_return;
  HUPC_TRACE_SCOPE(rt_->tracer(), trace::Category::gas, "copy", rank_, bytes,
                   static_cast<std::uint64_t>(peer));
  co_await lower_transfer(at, peer, static_cast<double>(bytes), 1);
}

sim::Task<void> Thread::lower_transfer(topo::HwLoc at, int peer,
                                       double payload, std::uint64_t regions) {
  const double b = payload;
  const topo::HwLoc peer_loc = rt_->loc_of(peer);
  const auto& costs = rt_->config().costs;

  if (peer == rank_ || rt_->same_supernode(rank_, peer)) {
    // Plain load/store path: per-call software overhead + both memory
    // systems carry the bytes (read side and write side). Packing is a
    // wire concept — load/store moves each region at memory cost, so
    // `regions` adds nothing here.
    HUPC_TRACE_COUNT(rt_->tracer(), "gas.copy.shm", rank_);
    co_await sim::delay(rt_->engine(),
                        sim::from_seconds(costs.shm_copy_overhead_s));
    auto read_leg = rt_->memory().stream_async(at, at, b);
    auto write_leg = rt_->memory().stream_async(at, peer_loc, b);
    co_await read_leg.wait();
    co_await write_leg.wait();
  } else if (peer_loc.node == at.node) {
    // Same node, segments not cross-mapped: the GASNet loopback channel —
    // through the network stack (contending with real traffic) and with
    // TWICE the memory traffic of a direct copy (bounce-buffer staging on
    // both sides). PSHM's whole point is eliminating this.
    HUPC_TRACE_COUNT(rt_->tracer(), "gas.copy.loopback", rank_);
    co_await sim::delay(rt_->engine(),
                        sim::from_seconds(costs.loopback_overhead_s));
    auto src_mem = rt_->memory().stream_async(at, at, 2.0 * b);
    auto dst_mem = rt_->memory().stream_async(at, peer_loc, 2.0 * b);
    co_await rt_->network().loopback({.src_node = at.node,
                                      .src_ep = rt_->endpoint_of(rank_),
                                      .dst_node = at.node,
                                      .bytes = b},
                                     costs.loopback_bw);
    co_await src_mem.wait();
    co_await dst_mem.wait();
  } else if (regions > 1) {
    // Packed VIS message: ONE injection carries every region plus a
    // per-region metadata header (address + length on the wire); the
    // footprint fields let the network and trace distinguish 1 x 64 KiB
    // from 4096 x 16 B.
    HUPC_TRACE_COUNT(rt_->tracer(), "gas.copy.rma", rank_);
    const double gross =
        b + static_cast<double>(regions) * costs.vis_region_header_bytes;
    co_await rt_->network().rma({.src_node = at.node,
                                 .src_ep = rt_->endpoint_of(rank_),
                                 .dst_node = peer_loc.node,
                                 .bytes = gross,
                                 .regions = regions,
                                 .payload_bytes = b});
  } else {
    HUPC_TRACE_COUNT(rt_->tracer(), "gas.copy.rma", rank_);
    co_await rt_->network().rma({.src_node = at.node,
                                 .src_ep = rt_->endpoint_of(rank_),
                                 .dst_node = peer_loc.node,
                                 .bytes = b});
  }
}

void Thread::note_vis_store(int owner, const void* base,
                            const std::vector<net::Region>& regions) noexcept {
  if (!caching_ || base == nullptr) return;
  const auto* b = static_cast<const std::byte*>(base);
  for (const net::Region& r : regions) {
    if (r.bytes != 0) note_shared_store(owner, b + r.dst_off, r.bytes);
  }
}

sim::Task<void> Thread::copy_vis(int dst_owner, void* dst_base, int src_owner,
                                 const void* src_base,
                                 std::vector<net::Region> regions) {
  // Peer rule mirrors copy(): shared<->shared charges the remote party,
  // one-sided shapes charge the shared side.
  int peer = rank_;
  if (dst_owner >= 0 && src_owner >= 0) {
    peer = dst_owner == rank_ ? src_owner : dst_owner;
  } else if (dst_owner >= 0) {
    peer = dst_owner;
  } else if (src_owner >= 0) {
    peer = src_owner;
  }

  // Remote strided/indexed PUT inside a coalescing epoch: the regions pack
  // into the destination node's epoch buffer (values captured now, applied
  // and charged at flush) — the descriptor rides the aggregation machinery
  // region by region instead of forcing a fence like bulk copy() does.
  if (coalescing_ && dst_owner >= 0 && src_owner < 0 &&
      remote_node(dst_owner)) {
    note_vis_store(dst_owner, dst_base, regions);
    co_await coalescer_->put_regions(rt_->node_of(dst_owner), dst_base,
                                     src_base, regions.data(), regions.size());
    co_return;
  }
  if (coalescing_) {
    // Same fence as bulk copy(): order after earlier buffered puts to the
    // peer's node (and observe them — flush applies before the memcpy).
    co_await coalescer_->flush(rt_->node_of(peer), comm::FlushCause::fence);
  }
  // Precise own-write coherence, unlike bulk copy()'s drop-everything: a
  // packed store invalidates exactly the lines its regions cover — the
  // gaps a stride skips stay cached. GETs invalidate nothing.
  if (dst_owner >= 0) note_vis_store(dst_owner, dst_base, regions);

  // The real data moves region by region, unconditionally.
  if (dst_base != nullptr && src_base != nullptr) {
    auto* d = static_cast<std::byte*>(dst_base);
    const auto* s = static_cast<const std::byte*>(src_base);
    for (const net::Region& r : regions) {
      if (r.bytes != 0) std::memcpy(d + r.dst_off, s + r.src_off, r.bytes);
    }
  }
  const std::size_t payload = vis::payload_bytes(regions);
  if (payload == 0) co_return;
  HUPC_TRACE_SCOPE(rt_->tracer(), trace::Category::gas, "copy.vis", rank_,
                   payload, static_cast<std::uint64_t>(peer));
  HUPC_TRACE_COUNT(rt_->tracer(), "gas.vis.msg", rank_);
  HUPC_TRACE_COUNT(rt_->tracer(), "gas.vis.regions", rank_,
                   static_cast<std::uint64_t>(regions.size()));
  HUPC_TRACE_COUNT(rt_->tracer(), "gas.vis.bytes", rank_,
                   static_cast<std::uint64_t>(payload));

  // Remote strided/indexed GET inside a read-cache epoch: the footprint is
  // known at region granularity, so prefetch every line it touches with
  // ONE packed fill and read the values at local cost.
  if (caching_ && dst_owner < 0 && src_owner >= 0 && remote_node(src_owner)) {
    const std::int64_t off0 = rt_->heap().offset_of(src_owner, src_base);
    if (off0 >= 0) {
      std::vector<comm::ReadCache::Range> ranges;
      ranges.reserve(regions.size());
      for (const net::Region& r : regions) {
        ranges.push_back(comm::ReadCache::Range{
            off0 + static_cast<std::int64_t>(r.src_off), r.bytes});
      }
      co_await read_cache_->prefetch(src_owner, rt_->node_of(src_owner),
                                     ranges.data(), ranges.size());
      co_await rt_->memory().stream(loc_, loc_, static_cast<double>(payload));
      co_return;
    }
    read_cache_->count_bypass();
  }
  co_await lower_transfer(loc_, peer, static_cast<double>(payload),
                          static_cast<std::uint64_t>(regions.size()));
}

}  // namespace hupc::gas
