// Intra-node memory-system and compute cost model.
//
// Each socket owns a fluid-shared memory-bandwidth pool; each node owns a
// fluid-shared inter-socket interconnect (QPI / HyperTransport). A bulk
// memory stream charges the *home* socket's pool, and additionally the
// node interconnect when the accessing context sits on a different socket
// (ccNUMA). Fine-grained accesses add a per-access latency term with the
// NUMA penalty factor.
//
// Compute charges are expressed as single-thread seconds; the SlotAllocator
// speed factor converts them to this context's effective duration (SMT
// sharing, oversubscription).
#pragma once

#include <memory>
#include <vector>

#include "async/future.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "topo/machine.hpp"
#include "topo/placement.hpp"

namespace hupc::mem {

class MemorySystem {
 public:
  MemorySystem(sim::Engine& engine, const topo::MachineSpec& machine);

  /// Stream `bytes` between the memory of socket `home` and a context at
  /// `at` (same node required). Returns when the slowest involved resource
  /// has carried the bytes.
  [[nodiscard]] sim::Task<void> stream(topo::HwLoc at, topo::HwLoc home,
                                       double bytes);

  /// Start a stream without waiting (overlapped bulk copies).
  [[nodiscard]] async::future<> stream_async(topo::HwLoc at, topo::HwLoc home,
                                             double bytes);

  /// Fine-grained access latency for `count` dependent accesses of
  /// `bytes_each` with affinity at `home`: per-access DRAM latency scaled by
  /// the NUMA penalty when crossing sockets, plus bandwidth occupancy.
  [[nodiscard]] sim::Task<void> access(topo::HwLoc at, topo::HwLoc home,
                                       std::uint64_t count, double bytes_each);

  /// Charge `single_thread_seconds` of computation to a context bound at
  /// `at`, slowed by the current SMT/oversubscription speed factor.
  [[nodiscard]] sim::Task<void> compute(const topo::SlotAllocator& slots,
                                        topo::HwLoc at,
                                        double single_thread_seconds);

  /// Charge a floating-point workload at a given efficiency (fraction of
  /// the core's peak FLOP rate actually achieved by the kernel).
  [[nodiscard]] sim::Task<void> compute_flops(const topo::SlotAllocator& slots,
                                              topo::HwLoc at, double flops,
                                              double efficiency);

  [[nodiscard]] const topo::MachineSpec& machine() const noexcept {
    return machine_;
  }

  [[nodiscard]] sim::FluidLink& socket_pool(int node, int socket);
  /// Directional inter-socket link: carries traffic whose *home* is
  /// `from_socket` (QPI/HT are full duplex; each direction has its own
  /// capacity).
  [[nodiscard]] sim::FluidLink& interconnect(int node, int from_socket);

  /// Uncontended DRAM access latency (ns) — a fixed architectural constant.
  static constexpr double kDramLatencyNs = 65.0;

 private:
  sim::Engine* engine_;
  topo::MachineSpec machine_;
  std::vector<std::unique_ptr<sim::FluidLink>> socket_pools_;
  std::vector<std::unique_ptr<sim::FluidLink>> interconnects_;
};

}  // namespace hupc::mem
