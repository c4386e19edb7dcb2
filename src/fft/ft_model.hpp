// NAS FT benchmark driver — cost-model edition.
//
// Reproduces the communication/computation *structure* of the thesis FT
// study (§3.3.3, §4.3.3) at any class size without allocating the grid:
// every phase charges virtual time through the same runtime paths the
// real-data version uses, so contention, overlap and backend effects are
// faithfully simulated while memory stays O(1).
//
//   1-D slab decomposition over THREADS (Fig 4.3): each rank owns
//   NZ/THREADS planes of NX x NY; per iteration:
//     evolve -> 2-D FFTs on local planes -> local transpose ->
//     all-to-all exchange -> 1-D FFTs along Z -> checksum barrier.
//
// Communication variants:
//   split_phase — compute all planes, then exchange in one burst
//                 (non-blocking puts + waitsync), then barrier;
//   overlap     — initiate each plane's puts as soon as that plane's 2-D
//                 FFT finishes (Bell et al.'s overlap algorithm).
//
// Execution variants:
//   pure UPC (process or pthreads backend per the Runtime config),
//   hybrid UPC x sub-threads (subs parallelize the compute phases; the
//   master funnels communication — or subs inject directly under
//   serialized/multiple safety in the overlap variant),
//   MPI (exchange through mpl::Mpi's tuned alltoall).
#pragma once

#include <memory>
#include <vector>

#include "core/core.hpp"
#include "fft/kernel.hpp"
#include "gas/gas.hpp"
#include "mpl/mpi.hpp"
#include "sim/sim.hpp"

namespace hupc::fft {

struct FtParams {
  int nx = 64, ny = 64, nz = 64;
  int iterations = 6;
  const char* name = "S";

  [[nodiscard]] double total_points() const {
    return static_cast<double>(nx) * ny * nz;
  }
  [[nodiscard]] double total_bytes() const {
    return total_points() * static_cast<double>(sizeof(Complex));
  }

  [[nodiscard]] static FtParams class_s() { return {64, 64, 64, 6, "S"}; }
  [[nodiscard]] static FtParams class_a() { return {256, 256, 128, 6, "A"}; }
  [[nodiscard]] static FtParams class_b() { return {512, 256, 256, 20, "B"}; }
};

enum class CommVariant { split_phase, overlap };
enum class FtComm { upc_p2p, mpi_alltoall };

struct FtConfig {
  FtParams grid = FtParams::class_b();
  CommVariant variant = CommVariant::split_phase;
  FtComm comm = FtComm::upc_p2p;
  // Hybrid sub-threads: 0 = pure UPC; otherwise each UPC thread runs its
  // compute phases on `subs` sub-thread contexts.
  int subs = 0;
  core::SubModel sub_model = core::SubModel::openmp;
  core::ThreadSafety safety = core::ThreadSafety::serialized;
  // Fraction of peak FLOP rate the FFT kernels achieve (cache-blocked
  // FFTs typically run at ~20-25% of peak on Nehalem-class cores).
  double fft_efficiency = 0.22;
  // Drain the all-to-all through the completion layer (launch_async +
  // when_all, the pipelined path) instead of the legacy loop that waits on
  // each bare spawned copy in turn. Same modeled schedule; the async path
  // additionally flows through fault::CompletionHook and the async.copy.*
  // counters. hupc_bench exposes it as --async=on|off.
  bool async = true;
  // All-to-all algorithm for the upc_p2p split-phase exchange: flat
  // staggered (the §4.3.3.1 reference) or the supernode-leader
  // hierarchical schedule (node-local funnel -> one aggregated message
  // per leader pair -> local scatter); `automatic` defers to the
  // size/shape selector. hupc_bench exposes it as --coll-algo=.
  gas::CollAlgo coll_algo = gas::CollAlgo::automatic;
};

struct FtTimings {
  double evolve = 0;
  double fft2d = 0;
  double transpose = 0;
  double comm = 0;  // time in communication calls incl. waits (Fig 4.5)
  double fft1d = 0;
  double total = 0;

  FtTimings& operator+=(const FtTimings& o) {
    evolve += o.evolve;
    fft2d += o.fft2d;
    transpose += o.transpose;
    comm += o.comm;
    fft1d += o.fft1d;
    total += o.total;
    return *this;
  }
};

class FtModel {
 public:
  FtModel(gas::Runtime& rt, FtConfig config);

  /// SPMD kernel: co_await from every rank.
  [[nodiscard]] sim::Task<void> run(gas::Thread& self);

  [[nodiscard]] const FtTimings& timings(int rank) const {
    return timings_[static_cast<std::size_t>(rank)];
  }
  /// Mean across ranks (the per-thread phase times of Fig 4.4/4.5).
  [[nodiscard]] FtTimings mean() const;
  [[nodiscard]] const FtConfig& config() const noexcept { return cfg_; }

 private:
  struct PlaneWork;

  [[nodiscard]] sim::Task<void> compute_planes(gas::Thread& self,
                                               core::SubPool* pool,
                                               double per_plane_seconds,
                                               int planes);
  [[nodiscard]] sim::Task<void> charge_stream(gas::Thread& self,
                                              core::SubPool* pool,
                                              double bytes);
  [[nodiscard]] sim::Task<void> exchange_split(gas::Thread& self);
  [[nodiscard]] sim::Task<void> exchange_hier(gas::Thread& self);
  [[nodiscard]] sim::Task<void> exchange_overlap(gas::Thread& self,
                                                 core::SubPool* pool,
                                                 double per_plane_seconds,
                                                 int planes);
  /// Start one exchange copy non-blocking, per FtConfig::async.
  [[nodiscard]] async::future<> submit(gas::Thread& t, sim::Task<void> op);
  /// Wait for every submitted copy, per FtConfig::async.
  [[nodiscard]] sim::Task<void> drain(std::vector<async::future<>> pending);

  gas::Runtime* rt_;
  FtConfig cfg_;
  std::unique_ptr<mpl::Mpi> mpi_;
  std::vector<FtTimings> timings_;

  // Derived per-run quantities.
  int planes_per_rank_;       // NZ / THREADS (ceil)
  double plane_bytes_;        // NX * NY * sizeof(Complex)
  double slab_bytes_;         // planes_per_rank * plane_bytes
  double chunk_bytes_;        // per-peer exchange chunk (grid / T^2)
  double fft2d_plane_s_;      // single-thread seconds per 2-D plane FFT
  double fft1d_total_s_;      // single-thread seconds for my 1-D FFT batch
};

}  // namespace hupc::fft
