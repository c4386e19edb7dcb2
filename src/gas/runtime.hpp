// The simulated UPC runtime: SPMD threads over a partitioned global address
// space, with the Berkeley-UPC-style backend split the thesis studies:
//
//   Backend::processes — each UPC thread is its own process; intra-node
//     shared memory only exists when PSHM cross-maps segments; each rank
//     owns a network connection (ConnectionMode::per_process).
//   Backend::pthreads  — all ranks of a node live in one process; intra-node
//     accesses are plain loads/stores and the node's ranks share a single
//     network connection (ConnectionMode::per_node).
//
// Every data-movement call really copies host memory *and* charges virtual
// time through the mem/net cost models. Fine-grained shared accesses pay
// the shared-pointer translation overhead unless privatized (Thread::cast),
// reproducing the castability extension of thesis §3.2/§3.3.1.
//
// Data movement funnels through two unified entry points:
//   Thread::copy / copy_async  — bulk transfers over every shape
//     (private<->shared, shared<->shared); the upc_mem{put,get,cpy} names
//     survive as thin wrappers; copy_strided / copy_irregular take VIS
//     descriptors (gas::StridedSpec / gas::IndexedSpec) and move a whole
//     non-contiguous footprint as ONE packed message (DESIGN.md §15);
//   fine-grained get/put/AMOs  — one shared-API round trip each, UNLESS a
//     coalescing epoch is open (Thread::begin_coalesce/end_coalesce or the
//     CoalesceEpoch RAII guard), in which case remote accesses aggregate
//     into per-destination buffers flushed as one message per destination
//     (comm::Coalescer; Berkeley-UPC/GASNet-VIS-style software
//     aggregation) — or a read-cache epoch is open (begin_read_cache /
//     CachedEpoch), in which case remote GETs are served through a
//     line-granularity software cache (comm::ReadCache): one round trip
//     fetches an aligned line, later gets to it cost local access only.
//     Coherence is epoch-scoped (fences, locks, AMOs and this rank's own
//     puts invalidate; the coalescer's deferred-put buffer is consulted
//     first so read-your-writes holds through the composition). With no
//     epoch open every path is bit-identical to a build without either
//     engine.
#pragma once

#include <cassert>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "async/future.hpp"
#include "comm/coalescer.hpp"
#include "comm/read_cache.hpp"
#include "fault/hooks.hpp"
#include "gas/global_ptr.hpp"
#include "gas/heap.hpp"
#include "gas/vis.hpp"
#include "mem/memory_system.hpp"
#include "net/conduit.hpp"
#include "net/network.hpp"
#include "sim/sim.hpp"
#include "topo/machine.hpp"
#include "topo/placement.hpp"
#include "trace/trace.hpp"

namespace hupc::gas {

enum class Backend { processes, pthreads };

/// Const-normalization for shared-source copy overloads: one template
/// covers GlobalPtr<T> and GlobalPtr<const T> instead of the duplicate
/// overload pairs the copy() surface used to ship per shape.
template <class U, class T>
concept SourceElement = std::same_as<std::remove_const_t<U>, T>;

/// Software-cost constants (calibration targets in DESIGN.md §6).
struct CostParams {
  /// Shared-pointer translation per fine-grained access (runtime call +
  /// address arithmetic; fitted to Table 3.1 baseline = 3.2 GB/s).
  double ptr_overhead_s = 52e-9;
  /// Per-call software cost of a supernode (PSHM/pthreads) bulk copy.
  double shm_copy_overhead_s = 0.25e-6;
  /// Intra-node path when segments are NOT cross-mapped (process backend
  /// without PSHM): the GASNet loopback channel. Bulk puts fragment into
  /// ~4 KiB AM mediums, each paying a handler dispatch (~25 us), so the
  /// effective rate is ~0.15 GB/s — the overhead PSHM exists to remove
  /// (fitted to Fig 3.4a's 20%+ improvements on a 4-node exchange).
  double loopback_bw = 0.15e9;
  double loopback_overhead_s = 1.2e-6;
  /// Dissemination-barrier per-round cost inside a node.
  double barrier_hop_s = 0.3e-6;
  /// Local lock acquire/release software cost.
  double lock_local_s = 0.15e-6;
  /// Modeled per-region metadata header of a packed VIS message (address +
  /// length per packed region, like the coalescer's per-op headers).
  /// Charged only when a descriptor lowers to MORE than one region — a
  /// single-region transfer is a plain RMA and stays bit-identical to the
  /// pre-descriptor contiguous copy() path.
  double vis_region_header_bytes = 8.0;
};

struct Config {
  topo::MachineSpec machine;
  int threads = 0;  // THREADS; must be >= 1
  Backend backend = Backend::processes;
  bool pshm = true;
  net::ConduitSpec conduit = net::ib_qdr();
  topo::Placement placement = topo::Placement::cyclic_socket;
  CostParams costs{};
  /// Effective NIC efficiency. <= 0 selects the model: independently
  /// polling connection endpoints degrade the achievable NIC bandwidth,
  ///   eff = 1 / (1 + 0.025 * max(0, connections_per_node - 1)),
  /// the "contention in the lower network API level" of thesis §4.3.1.
  /// A tuned communication library that manages the node's endpoints
  /// cooperatively (the MPI baseline) overrides this with 1.0.
  double nic_efficiency = 0.0;
  /// Optional structured tracer (non-owning). When set, the Runtime wires
  /// it to the engine's virtual clock and the rank->node topology, and all
  /// instrumented layers (engine, gas, net, sched, core) record into it.
  /// Null disables tracing at runtime; building with HUPC_TRACE=0 compiles
  /// the instrumentation out entirely.
  trace::Tracer* tracer = nullptr;
};

/// Validate `config`, throwing std::invalid_argument with a precise message
/// on nonsense (threads < 1, degenerate machine shape, negative cost
/// constants) instead of letting an assert fire deep inside the runtime.
/// Returns the config unchanged on success.
[[nodiscard]] Config validated(Config config);

class Runtime;

/// Per-rank SPMD context handed to kernels: MYTHREAD-style identity plus
/// the UPC operation set. All operations are coroutines charging virtual
/// time; `co_await` each one.
class Thread {
 public:
  Thread(Runtime& rt, int rank, topo::HwLoc loc)
      : rt_(&rt), rank_(rank), loc_(loc) {}

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;
  ~Thread() {
    // An epoch abandoned mid-kernel (exception unwind) still applies its
    // deferred puts so host memory stays verifiable.
    if (coalescer_ != nullptr) coalescer_->abandon();
  }

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int threads() const noexcept;
  [[nodiscard]] topo::HwLoc loc() const noexcept { return loc_; }
  [[nodiscard]] int node() const noexcept { return loc_.node; }
  [[nodiscard]] Runtime& runtime() noexcept { return *rt_; }

  // --- synchronization -------------------------------------------------
  /// Full barrier. Fence: flushes any open coalescing epoch first, so
  /// buffered puts are globally visible once every rank passes.
  [[nodiscard]] sim::Task<void> barrier();
  /// Split-phase barrier: capture the token from notify(), overlap work,
  /// then co_await wait(token). notify() cannot flush (it never blocks);
  /// with an epoch open, flush explicitly or end the epoch first. wait()
  /// fences like barrier().
  [[nodiscard]] std::uint64_t notify();
  [[nodiscard]] sim::Task<void> wait(std::uint64_t token);

  // --- local compute / memory charges ----------------------------------
  [[nodiscard]] sim::Task<void> compute(double single_thread_seconds);
  [[nodiscard]] sim::Task<void> compute_flops(double flops, double efficiency);
  /// Bulk memory traffic against this thread's own socket.
  [[nodiscard]] sim::Task<void> stream_local(double bytes);
  /// Bulk memory traffic against the socket that homes `home_rank`'s data.
  [[nodiscard]] sim::Task<void> stream_from(int home_rank, double bytes);

  /// Analytic model of a fine-grained loop making `count` shared accesses
  /// of `bytes_each` homed at `home_rank`: pays the pointer-translation
  /// overhead per access unless `privatized` (cast pointers, thesis §3.3.1).
  [[nodiscard]] sim::Task<void> shared_loop(int home_rank, std::uint64_t count,
                                            double bytes_each,
                                            bool privatized = false);

  // --- message coalescing epochs (comm::Coalescer) ----------------------
  /// Open a coalescing epoch: until end_coalesce(), fine-grained accesses
  /// to ranks on OTHER nodes append to bounded per-destination buffers and
  /// flush as one aggregated message per destination (on capacity, on a
  /// conflicting read, at barriers/bulk copies, and at epoch end). Puts
  /// are deferred until flush; gets/AMOs apply immediately and settle
  /// their network cost at flush. Epochs do not nest.
  void begin_coalesce(const comm::Params& params = {});
  /// Flush everything and close the epoch.
  [[nodiscard]] sim::Task<void> end_coalesce();
  /// Explicit fence: flush all buffers, keep the epoch open.
  [[nodiscard]] sim::Task<void> coalesce_flush();
  /// Close the epoch applying buffered puts WITHOUT charging their flush
  /// (the CoalesceEpoch guard's unwind path — prefer end_coalesce()).
  void abandon_coalesce() noexcept;
  [[nodiscard]] bool coalescing() const noexcept { return coalescing_; }
  /// Lifetime coalescing statistics (null before the first epoch).
  [[nodiscard]] const comm::Stats* coalesce_stats() const noexcept {
    return coalescer_ == nullptr ? nullptr : &coalescer_->stats();
  }

  // --- read-cache epochs (comm::ReadCache) -------------------------------
  /// Open a read-cache epoch: until end_read_cache(), fine-grained GETs of
  /// data homed on OTHER nodes are served through a set-associative line
  /// cache — a miss fetches one aligned line in one round trip, later gets
  /// to that line cost a local access. The cache holds tags only (host
  /// memory stays the single value ground truth), so it shifts the MODELED
  /// cost schedule and nothing else. Coherence: barriers/wait() and lock
  /// acquires drop everything; AMOs and this rank's own puts/bulk copies
  /// drop the covered lines; inside a coalescing epoch the deferred-put
  /// buffer is consulted (and conflict-flushed) before a line is served.
  /// Epochs do not nest.
  void begin_read_cache(const comm::CacheParams& params = {});
  /// Close the epoch, dropping every line. Unlike end_coalesce() there is
  /// nothing deferred to settle, so closing is synchronous and free; a
  /// no-op when no epoch is open.
  void end_read_cache() noexcept;
  /// Explicit coherence point: drop every line, keep the epoch open.
  void invalidate_read_cache() noexcept;
  [[nodiscard]] bool read_caching() const noexcept { return caching_; }
  /// Lifetime read-cache statistics (null before the first epoch).
  [[nodiscard]] const comm::CacheStats* read_cache_stats() const noexcept {
    return read_cache_ == nullptr ? nullptr : &read_cache_->stats();
  }

  // --- fine-grained element access (really reads/writes memory) --------
  template <class T>
  [[nodiscard]] sim::Task<T> get(GlobalPtr<const T> src) {
    co_await read_access(src.owner, src.raw, sizeof(T));
    co_return *src.raw;
  }
  template <class T>
  [[nodiscard]] sim::Task<T> get(GlobalPtr<T> src) {
    co_return co_await get(to_const(src));
  }
  template <class T>
  [[nodiscard]] sim::Task<void> put(GlobalPtr<T> dst, T value) {
    // Read-your-writes through the cache: this rank's own store drops any
    // line covering the target, so a later get re-fetches it.
    if (caching_) note_shared_store(dst.owner, dst.raw, sizeof(T));
    if (coalescing_ && remote_node(dst.owner)) {
      co_await coalesced_put(dst.owner, dst.raw, &value, sizeof(T));
      co_return;
    }
    co_await element_access(dst.owner, sizeof(T));
    *dst.raw = value;
  }

  // --- atomics (the bupc AMO extensions) --------------------------------
  /// Atomic fetch-and-add on a shared integer; costs one shared access
  /// (remote AMOs are a network round trip, like locks) — or, inside a
  /// coalescing epoch, joins the destination's aggregated message (the
  /// value applies immediately; read-your-writes is preserved by the
  /// conflict flush). AMOs never serve from the read cache: a cached
  /// epoch's rmw_access bypasses it and drops the covered line.
  template <class T>
  [[nodiscard]] sim::Task<T> fetch_add(GlobalPtr<T> target, T delta) {
    co_await rmw_access(target.owner, target.raw, sizeof(T));
    const T old = *target.raw;
    *target.raw = old + delta;
    co_return old;
  }
  template <class T>
  [[nodiscard]] sim::Task<T> fetch_xor(GlobalPtr<T> target, T mask) {
    co_await rmw_access(target.owner, target.raw, sizeof(T));
    const T old = *target.raw;
    *target.raw = old ^ mask;
    co_return old;
  }
  /// Atomic compare-and-swap; returns the previous value.
  template <class T>
  [[nodiscard]] sim::Task<T> compare_swap(GlobalPtr<T> target, T expected,
                                          T desired) {
    co_await rmw_access(target.owner, target.raw, sizeof(T));
    const T old = *target.raw;
    if (old == expected) *target.raw = desired;
    co_return old;
  }

  // --- unified bulk data movement (upc_mem{put,get,cpy} analogues) ------
  /// One overload set covers every bulk shape; inside a coalescing epoch
  /// the destination's buffer is fenced first, keeping bulk transfers
  /// ordered after earlier buffered puts to the same node. Shared sources
  /// const-normalize through a single SourceElement template per shape —
  /// GlobalPtr<T> and GlobalPtr<const T> take the same route — and every
  /// shape bottoms out in the one lower_transfer() lowering into
  /// net::Transfer that the VIS descriptors below also use.
  /// Private -> shared (upc_memput).
  template <class T>
  [[nodiscard]] sim::Task<void> copy(GlobalPtr<T> dst, const T* src,
                                     std::size_t count) {
    co_await copy_raw(dst.owner, dst.raw, src, count * sizeof(T));
  }
  /// Shared -> private (upc_memget).
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] sim::Task<void> copy(T* dst, GlobalPtr<U> src,
                                     std::size_t count) {
    co_await copy_raw(src.owner, dst, src.raw, count * sizeof(T));
  }
  /// Shared -> shared (upc_memcpy): charged against the remote party.
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] sim::Task<void> copy(GlobalPtr<T> dst, GlobalPtr<U> src,
                                     std::size_t count) {
    const int peer = dst.owner == rank_ ? src.owner : dst.owner;
    co_await copy_raw(peer, dst.raw, src.raw, count * sizeof(T));
  }

  // Non-blocking forms returning chainable futures (upc_mem*_async /
  // waitsync; `co_await fut.wait()`, `fut.then(...)`, async::when_all).
  // Completion is promise-based: the future resolves when the transfer's
  // modeled work is done, after any installed completion-fault delay
  // (fault::CompletionHook) — so fault plans can storm completions without
  // ever reordering data movement against it.
  //
  // Issue-time coherence (the ordering hazard DESIGN.md §13 documents):
  // a shared DESTINATION is this rank's own put in program order from the
  // moment of issue, so inside a read-cache epoch the covered lines drop
  // HERE, synchronously — not when the spawned copy coroutine happens to
  // run. A cached get between issue and completion therefore re-fetches
  // instead of being served across an in-flight async put.
  template <class T>
  [[nodiscard]] async::future<> copy_async(GlobalPtr<T> dst, const T* src,
                                           std::size_t count) {
    if (caching_) note_shared_store(dst.owner, dst.raw, count * sizeof(T));
    return launch_async(copy(dst, src, count));
  }
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] async::future<> copy_async(T* dst, GlobalPtr<U> src,
                                           std::size_t count) {
    return launch_async(copy(dst, src, count));
  }
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] async::future<> copy_async(GlobalPtr<T> dst, GlobalPtr<U> src,
                                           std::size_t count) {
    if (caching_) note_shared_store(dst.owner, dst.raw, count * sizeof(T));
    return launch_async(copy(dst, src, count));
  }

  // --- non-contiguous data movement (VIS: upc_mem*_strided / _ilist
  // analogues; descriptors in gas/vis.hpp, lowering rules DESIGN.md §15) -
  /// Every form lowers its descriptors EAGERLY at the call site into a
  /// packed region list (validation — overlapping destination regions,
  /// element-count mismatch, bad dims — throws std::invalid_argument here,
  /// not inside a spawned coroutine) and funnels through one non-template
  /// route (copy_vis): the regions move as ONE message whose footprint
  /// (region count, payload vs gross bytes) the network accounts and the
  /// trace exposes. Inside a coalescing epoch a remote strided/indexed PUT
  /// packs region-by-region into the destination's epoch buffer instead;
  /// inside a read-cache epoch a remote GET prefetches every line its
  /// footprint touches with one packed fill, and a packed PUT invalidates
  /// exactly the lines its regions cover. A descriptor lowering to a
  /// single region (1-D, or stride == extent) is bit-identical to the
  /// contiguous copy() of the same bytes.
  /// Strided put, contiguous private source (upc_memput_fstrided).
  template <class T>
  [[nodiscard]] sim::Task<void> copy_strided(GlobalPtr<T> dst,
                                             const StridedSpec& dspec,
                                             const T* src) {
    return copy_strided(dst, dspec, src,
                        StridedSpec::contiguous(dspec.elems()));
  }
  /// Strided put, both sides described (upc_memput_strided).
  template <class T>
  [[nodiscard]] sim::Task<void> copy_strided(GlobalPtr<T> dst,
                                             const StridedSpec& dspec,
                                             const T* src,
                                             const StridedSpec& sspec) {
    return copy_vis(dst.owner, dst.raw, -1, src,
                    vis::lower(dspec, sspec, sizeof(T)));
  }
  /// Strided get into a contiguous private buffer (upc_memget_fstrided).
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] sim::Task<void> copy_strided(T* dst, GlobalPtr<U> src,
                                             const StridedSpec& sspec) {
    return copy_strided(dst, StridedSpec::contiguous(sspec.elems()), src,
                        sspec);
  }
  /// Strided get, both sides described (upc_memget_strided).
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] sim::Task<void> copy_strided(T* dst, const StridedSpec& dspec,
                                             GlobalPtr<U> src,
                                             const StridedSpec& sspec) {
    return copy_vis(-1, dst, src.owner, src.raw,
                    vis::lower(dspec, sspec, sizeof(T)));
  }
  /// Strided shared -> shared (upc_memcpy_strided).
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] sim::Task<void> copy_strided(GlobalPtr<T> dst,
                                             const StridedSpec& dspec,
                                             GlobalPtr<U> src,
                                             const StridedSpec& sspec) {
    return copy_vis(dst.owner, dst.raw, src.owner, src.raw,
                    vis::lower(dspec, sspec, sizeof(T)));
  }
  /// Indexed scatter: contiguous private source -> shared region list
  /// (upc_memput_ilist). Overlapping destination regions are rejected.
  template <class T>
  [[nodiscard]] sim::Task<void> copy_irregular(GlobalPtr<T> dst,
                                               const IndexedSpec& dspec,
                                               const T* src) {
    return copy_vis(
        dst.owner, dst.raw, -1, src,
        vis::lower(dspec, StridedSpec::contiguous(dspec.elems()), sizeof(T)));
  }
  /// Indexed gather: shared region list -> contiguous private buffer
  /// (upc_memget_ilist).
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] sim::Task<void> copy_irregular(T* dst, GlobalPtr<U> src,
                                               const IndexedSpec& sspec) {
    return copy_vis(
        -1, dst, src.owner, src.raw,
        vis::lower(StridedSpec::contiguous(sspec.elems()), sspec, sizeof(T)));
  }

  // Non-blocking VIS forms. Same eager lowering (validation throws at
  // issue time); a shared DESTINATION drops its covered cache lines at
  // issue, region by region — the copy_async issue-time coherence
  // contract extended to packed footprints.
  template <class T>
  [[nodiscard]] async::future<> copy_strided_async(GlobalPtr<T> dst,
                                                   const StridedSpec& dspec,
                                                   const T* src) {
    return copy_strided_async(dst, dspec, src,
                              StridedSpec::contiguous(dspec.elems()));
  }
  template <class T>
  [[nodiscard]] async::future<> copy_strided_async(GlobalPtr<T> dst,
                                                   const StridedSpec& dspec,
                                                   const T* src,
                                                   const StridedSpec& sspec) {
    auto regions = vis::lower(dspec, sspec, sizeof(T));
    if (caching_) note_vis_store(dst.owner, dst.raw, regions);
    return launch_async(
        copy_vis(dst.owner, dst.raw, -1, src, std::move(regions)));
  }
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] async::future<> copy_strided_async(T* dst, GlobalPtr<U> src,
                                                   const StridedSpec& sspec) {
    return launch_async(copy_vis(
        -1, dst, src.owner, src.raw,
        vis::lower(StridedSpec::contiguous(sspec.elems()), sspec, sizeof(T))));
  }
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] async::future<> copy_strided_async(GlobalPtr<T> dst,
                                                   const StridedSpec& dspec,
                                                   GlobalPtr<U> src,
                                                   const StridedSpec& sspec) {
    auto regions = vis::lower(dspec, sspec, sizeof(T));
    if (caching_) note_vis_store(dst.owner, dst.raw, regions);
    return launch_async(
        copy_vis(dst.owner, dst.raw, src.owner, src.raw, std::move(regions)));
  }
  template <class T>
  [[nodiscard]] async::future<> copy_irregular_async(GlobalPtr<T> dst,
                                                     const IndexedSpec& dspec,
                                                     const T* src) {
    auto regions =
        vis::lower(dspec, StridedSpec::contiguous(dspec.elems()), sizeof(T));
    if (caching_) note_vis_store(dst.owner, dst.raw, regions);
    return launch_async(
        copy_vis(dst.owner, dst.raw, -1, src, std::move(regions)));
  }
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] async::future<> copy_irregular_async(T* dst, GlobalPtr<U> src,
                                                     const IndexedSpec& sspec) {
    return launch_async(copy_vis(
        -1, dst, src.owner, src.raw,
        vis::lower(StridedSpec::contiguous(sspec.elems()), sspec, sizeof(T))));
  }

  // --- legacy bulk-copy names (thin wrappers over copy/copy_async) ------
  template <class T>
  [[nodiscard]] sim::Task<void> memput(GlobalPtr<T> dst, const T* src,
                                       std::size_t count) {
    return copy(dst, src, count);
  }
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] sim::Task<void> memget(T* dst, GlobalPtr<U> src,
                                       std::size_t count) {
    return copy(dst, src, count);
  }
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] sim::Task<void> memcpy_shared(GlobalPtr<T> dst,
                                              GlobalPtr<U> src,
                                              std::size_t count) {
    return copy(dst, src, count);
  }
  template <class T>
  [[nodiscard]] async::future<> memput_async(GlobalPtr<T> dst, const T* src,
                                             std::size_t count) {
    return copy_async(dst, src, count);
  }
  template <class T, class U>
    requires SourceElement<U, T>
  [[nodiscard]] async::future<> memget_async(T* dst, GlobalPtr<U> src,
                                             std::size_t count) {
    return copy_async(dst, src, count);
  }

  // --- privatization (bupc_cast / castability extension) ---------------
  /// Returns the raw pointer when `p` is addressable with plain loads and
  /// stores from this thread (same supernode), else nullptr.
  template <class T>
  [[nodiscard]] T* cast(GlobalPtr<T> p) const {
    return castable(p.owner) ? p.raw : nullptr;
  }
  [[nodiscard]] bool castable(int owner) const;

  /// Cost of reading one word of another thread's shared metadata (e.g. a
  /// steal-stack's work counter) without moving payload. Coalescible: the
  /// probe has no conflicting address, so inside an epoch it joins the
  /// destination's aggregate unconditionally. The addressless form cannot
  /// be cached (no line to tag); pass the counter's shared address to make
  /// the probe cacheable inside a read-cache epoch.
  [[nodiscard]] sim::Task<void> shared_probe_cost(int owner) {
    return read_access(owner, nullptr, sizeof(std::uint64_t));
  }
  [[nodiscard]] sim::Task<void> shared_probe_cost(int owner,
                                                  const void* addr) {
    return read_access(owner, addr, sizeof(std::uint64_t));
  }

  // Plumbing shared with the sub-thread layer (hupc::core).
  [[nodiscard]] sim::Task<void> copy_raw(int peer, void* dst, const void* src,
                                         std::size_t bytes) {
    return copy_raw_from(loc_, peer, dst, src, bytes);
  }
  [[nodiscard]] sim::Task<void> copy_raw_from(topo::HwLoc at, int peer,
                                              void* dst, const void* src,
                                              std::size_t bytes);
  /// Run `op` as an engine process behind a chainable future: resolves
  /// (or carries op's exception) at completion, after any installed
  /// fault::CompletionHook delay. Counters: async.copy.issued at launch,
  /// async.copy.completed at resolution.
  [[nodiscard]] async::future<> launch_async(sim::Task<void> op);

 private:
  /// The body launch_async spawns as a root process: runs `op`, then
  /// holds the completion for the hook's delay.
  [[nodiscard]] sim::Task<void> complete_async(sim::Task<void> op);
  [[nodiscard]] sim::Task<void> element_access(int owner, std::size_t bytes);
  /// Read-class fine-grained access (get / metadata probe): serves from
  /// the read cache inside a cached epoch (consulting the coalescer's
  /// deferred puts first), else routes through the coalescer inside a
  /// coalescing epoch (conflict-flushing buffered puts overlapping
  /// [addr, addr+bytes)), else charges element_access.
  [[nodiscard]] sim::Task<void> read_access(int owner, const void* addr,
                                            std::size_t bytes);
  /// read_access with the cache branch skipped (AMOs; cache bypass).
  [[nodiscard]] sim::Task<void> uncached_read_access(int owner,
                                                     const void* addr,
                                                     std::size_t bytes);
  /// Read-modify-write access (AMOs): never cache-served; drops the
  /// covered line so a later get re-fetches the updated value.
  [[nodiscard]] sim::Task<void> rmw_access(int owner, const void* addr,
                                           std::size_t bytes);
  /// Deferred fine-grained put through the open epoch's coalescer.
  [[nodiscard]] sim::Task<void> coalesced_put(int owner, void* dst,
                                              const void* value,
                                              std::size_t bytes);
  /// Own-write coherence: drop any cached lines covering a store this
  /// rank is making (host-side, free; no-op outside a cached epoch).
  void note_shared_store(int owner, const void* addr,
                         std::size_t bytes) noexcept;
  /// note_shared_store region by region (packed VIS stores): only the
  /// lines a region covers drop, not the gaps the stride skips.
  void note_vis_store(int owner, const void* base,
                      const std::vector<net::Region>& regions) noexcept;
  /// The single route every VIS shape funnels into with its lowered region
  /// list. owner < 0 marks a private (local) side; region offsets are byte
  /// offsets from the respective base.
  [[nodiscard]] sim::Task<void> copy_vis(int dst_owner, void* dst_base,
                                         int src_owner, const void* src_base,
                                         std::vector<net::Region> regions);
  /// The one lowering into net::Transfer shared by contiguous copies and
  /// packed VIS messages: charge `payload` bytes moving between this
  /// thread and `peer` over the shm / loopback / rma path the topology
  /// selects. `regions` > 1 marks a packed message: the rma gains
  /// per-region header bytes and the vis footprint accounting; 1 is a
  /// plain transfer, bit-identical to the pre-VIS path.
  [[nodiscard]] sim::Task<void> lower_transfer(topo::HwLoc at, int peer,
                                               double payload,
                                               std::uint64_t regions);
  [[nodiscard]] bool remote_node(int owner) const;

  Runtime* rt_;
  int rank_;
  topo::HwLoc loc_;
  bool coalescing_ = false;
  bool caching_ = false;
  std::unique_ptr<comm::Coalescer> coalescer_;  // lazily built, reused
  std::unique_ptr<comm::ReadCache> read_cache_;  // lazily built, reused
};

/// RAII coalescing epoch: opens on construction; co_await end() to flush
/// and close. If the guard unwinds without end() (exception), the epoch is
/// abandoned — deferred puts still apply to memory, uncharged, and the
/// discrepancy is counted in comm::Stats::abandoned_ops.
class CoalesceEpoch {
 public:
  explicit CoalesceEpoch(Thread& t, const comm::Params& params = {})
      : thread_(&t) {
    t.begin_coalesce(params);
  }
  CoalesceEpoch(const CoalesceEpoch&) = delete;
  CoalesceEpoch& operator=(const CoalesceEpoch&) = delete;
  ~CoalesceEpoch() {
    if (open_) thread_->abandon_coalesce();
  }

  /// Flush + close. Must be awaited on every non-exceptional path.
  [[nodiscard]] sim::Task<void> end() {
    open_ = false;
    return thread_->end_coalesce();
  }

 private:
  Thread* thread_;
  bool open_ = true;
};

/// RAII read-cache epoch, symmetric to CoalesceEpoch. Closing drops every
/// line and is free (the cache holds tags, not data), so unlike
/// CoalesceEpoch there is nothing to await and no abandon discrepancy:
/// the destructor alone is a complete, exception-safe close.
class CachedEpoch {
 public:
  explicit CachedEpoch(Thread& t, const comm::CacheParams& params = {})
      : thread_(&t) {
    t.begin_read_cache(params);
  }
  CachedEpoch(const CachedEpoch&) = delete;
  CachedEpoch& operator=(const CachedEpoch&) = delete;
  ~CachedEpoch() {
    if (open_) thread_->end_read_cache();
  }

  /// Explicit close (the destructor covers every path; this exists for
  /// call sites that want the epoch over before more work happens).
  void end() noexcept {
    open_ = false;
    thread_->end_read_cache();
  }

 private:
  Thread* thread_;
  bool open_ = true;
};

class Runtime {
 public:
  using Kernel = std::function<sim::Task<void>(Thread&)>;

  Runtime(sim::Engine& engine, Config config);

  /// Launch `kernel` on every rank (SPMD). May be called once per Runtime.
  /// The Runtime keeps the kernel (and thus any lambda captures) alive for
  /// its own lifetime — coroutine bodies reference the closure object, so
  /// capturing lambdas are safe here (unlike bare coroutine lambdas).
  void spmd(Kernel kernel);

  /// Drive the engine until all ranks finish; rethrows the first failure.
  void run_to_completion();

  // --- identity / topology ---------------------------------------------
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] int threads() const noexcept { return config_.threads; }
  [[nodiscard]] int ranks_per_node() const noexcept { return ranks_per_node_; }
  [[nodiscard]] int nodes_used() const noexcept { return nodes_used_; }
  [[nodiscard]] topo::HwLoc loc_of(int rank) const {
    return placement_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] int node_of(int rank) const { return loc_of(rank).node; }
  /// Node-local network endpoint index of `rank` under the ACTUAL placement
  /// table (not the blockwise assumption): the i-th rank placed on a node
  /// gets endpoint i. Network counters and trace attribution key on this.
  [[nodiscard]] int endpoint_of(int rank) const {
    return endpoint_of_rank_[static_cast<std::size_t>(rank)];
  }
  /// True when `a` and `b` share load/store access to each other's
  /// segments (same process under pthreads, or PSHM-mapped same node).
  [[nodiscard]] bool same_supernode(int a, int b) const;

  // --- subsystems --------------------------------------------------------
  [[nodiscard]] sim::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] trace::Tracer* tracer() const noexcept { return config_.tracer; }
  [[nodiscard]] SharedHeap& heap() noexcept { return heap_; }
  [[nodiscard]] mem::MemorySystem& memory() noexcept { return memory_; }
  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] topo::SlotAllocator& slots() noexcept { return slots_; }
  [[nodiscard]] sim::Barrier& global_barrier() noexcept { return barrier_; }
  [[nodiscard]] Thread& thread(int rank) {
    return *threads_[static_cast<std::size_t>(rank)];
  }

  /// Virtual-time cost of one full barrier for the current configuration
  /// (dissemination rounds intra-node + inter-node).
  [[nodiscard]] sim::Time barrier_cost() const;

  // --- fault injection ---------------------------------------------------
  /// Install a fault-hook set (non-owning): wires the engine, network and
  /// heap seams immediately and exposes the steal/spawn/cache hooks to the
  /// layers that consume them at construction or epoch-open time
  /// (sched::WorkStealing, core::SubPool, Thread::begin_read_cache) —
  /// install before building/opening those. Call with a default
  /// Hooks{} to uninstall. All seams are null/off by default; an
  /// uninstalled runtime is bit-identical to one built without the seams.
  void install_faults(const fault::Hooks& hooks);
  [[nodiscard]] const fault::Hooks& fault_hooks() const noexcept {
    return fault_hooks_;
  }

 private:
  friend class Thread;

  sim::Engine* engine_;
  Config config_;
  std::vector<topo::HwLoc> placement_;
  int ranks_per_node_;
  int nodes_used_;
  std::vector<int> endpoint_of_rank_;
  topo::SlotAllocator slots_;
  mem::MemorySystem memory_;
  net::Network network_;
  SharedHeap heap_;
  sim::Barrier barrier_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<async::future<>> procs_;
  Kernel kernel_;  // owns the closure the rank coroutines execute in
  fault::Hooks fault_hooks_;
  bool launched_ = false;
};

}  // namespace hupc::gas
