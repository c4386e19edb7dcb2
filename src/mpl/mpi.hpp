// A minimal two-sided message-passing layer ("mpl") over the same simulated
// cluster as the PGAS runtime — the MPI baseline of the thesis FT study.
//
// Ranks are the gas::Runtime's threads (process backend); send/recv use
// rendezvous matching by (src, dst, tag) with FIFO per-key ordering, and the
// data leg is charged through exactly the same copy paths as UPC bulk
// operations, so UPC-vs-MPI differences come from *algorithms*, not from
// differently calibrated substrates.
//
// alltoall() implements the optimized collective that lets MPI-Fortran
// outperform the p2p UPC exchange in Fig 4.5: a hierarchical, node-aware
// algorithm (local gather to a node leader, pairwise leader exchange of
// combined buffers — nodes^2 large messages instead of THREADS^2 small
// ones — then local scatter). pairwise_alltoall() is the flat comparator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "async/future.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"

namespace hupc::mpl {

class Mpi {
 public:
  explicit Mpi(gas::Runtime& rt);

  /// Blocking send: completes when the receiver has the data.
  [[nodiscard]] sim::Task<void> send(gas::Thread& self, int dst, int tag,
                                     const void* buf, std::size_t bytes);

  /// Blocking receive from `src` with `tag`.
  [[nodiscard]] sim::Task<void> recv(gas::Thread& self, int src, int tag,
                                     void* buf, std::size_t bytes);

  /// Hierarchical node-aware all-to-all: each rank contributes
  /// `bytes_per_pair` to every rank. Buffers are laid out rank-major.
  [[nodiscard]] sim::Task<void> alltoall(gas::Thread& self, const void* sendbuf,
                                         void* recvbuf,
                                         std::size_t bytes_per_pair);

  /// Flat pairwise-exchange all-to-all (the textbook algorithm), used as
  /// the ablation comparator for the hierarchical one.
  [[nodiscard]] sim::Task<void> pairwise_alltoall(gas::Thread& self,
                                                  const void* sendbuf,
                                                  void* recvbuf,
                                                  std::size_t bytes_per_pair);

  [[nodiscard]] sim::Task<void> barrier(gas::Thread& self) {
    return self.barrier();
  }

  [[nodiscard]] gas::Runtime& runtime() noexcept { return *rt_; }

  /// Messages at or below this size complete eagerly at the sender (the
  /// runtime buffers them), like MPI's eager protocol; larger messages use
  /// rendezvous. Keeps out-of-order small sends deadlock-free.
  static constexpr std::size_t kEagerLimit = 8 * 1024;

  /// Messages issued from inside a collective pay this fraction of the
  /// per-message network-API cost: the tuned engine pre-posts its whole
  /// schedule and batches doorbells/completions (thesis §4.3.3.3 credits
  /// MPI's "optimized collective functionalities" for its FT edge).
  static constexpr double kCollectiveApiScale = 0.3;

 private:
  // Rendezvous shared state. Transfers are *sender-driven* (like RDMA-write
  // rendezvous): the receiver only announces its buffer and waits, so the
  // wire schedule matches the natural per-endpoint staggering of one-sided
  // puts instead of creating receiver-side incast.
  struct Rendezvous {
    const void* sbuf = nullptr;
    std::size_t bytes = 0;
    std::vector<std::byte> eager_data;
    bool eager = false;
    void* rbuf = nullptr;
    bool matched_flag = false;
    std::optional<async::promise<>> matched;    // recv arrived (sender waits)
    std::optional<async::promise<>> recv_done;  // transfer done (recv waits)
  };
  struct PendingRecv {
    void* buf;
    std::size_t bytes;
    async::promise<> done;
  };
  using Key = std::tuple<int, int, int>;  // (src, dst, tag)

  // Per-node leader staging areas for the hierarchical alltoall, allocated
  // lazily and reused; sized for the largest request seen.
  struct NodeStage {
    std::vector<std::byte> gather;   // [dst_node][local_src][dst_local]
    std::vector<std::byte> scatter;  // [src_node][src_local][my_local]
    std::unique_ptr<sim::Barrier> node_barrier;
  };

  void ensure_stage(std::size_t bytes_per_pair);
  [[nodiscard]] int leader_of_node(int node) const;

  /// The matched data leg: memcpy plus the cost of moving `bytes` from
  /// `sender` to the other party, driven by `self` (whichever side arrived
  /// second). `api_scale` discounts the per-message API cost for
  /// collective-internal messages.
  [[nodiscard]] sim::Task<void> matched_transfer(gas::Thread& self, int sender,
                                                 int receiver, void* dst,
                                                 const void* src,
                                                 std::size_t bytes,
                                                 double api_scale);
  [[nodiscard]] sim::Task<void> send_impl(gas::Thread& self, int dst, int tag,
                                          const void* buf, std::size_t bytes,
                                          double api_scale);
  [[nodiscard]] sim::Task<void> recv_impl(gas::Thread& self, int src, int tag,
                                          void* buf, std::size_t bytes,
                                          double api_scale);

  gas::Runtime* rt_;
  std::map<Key, std::deque<std::shared_ptr<Rendezvous>>> sends_;
  std::map<Key, std::deque<PendingRecv>> recvs_;
  std::vector<NodeStage> stages_;
  std::size_t stage_capacity_ = 0;
};

}  // namespace hupc::mpl
