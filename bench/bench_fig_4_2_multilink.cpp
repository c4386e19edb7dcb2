// Reproduces Fig 4.2: "Multi-link Network Microbenchmark Performance" on
// two QDR-InfiniBand nodes (Lehman).
//   (a) round-trip latency vs message size, 1-8 link-pairs, process-based
//       vs pthread-based (shared-connection) endpoints;
//   (b) unidirectional flood bandwidth vs message size, same configs.
//
// Paper shape: >=2 links lift flood bandwidth from ~1.5 GB/s (one flow's
// cap) toward ~2.4 GB/s (NIC); latency grows with link count once messages
// are bandwidth-bound; pthread links serialize injection (higher latency,
// slightly lower small/mid-size throughput) because they share one
// connection per node.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "net/network.hpp"
#include "sim/sim.hpp"
#include "util/cli.hpp"

namespace {

using namespace hupc;  // NOLINT

/// Median round-trip latency (us) of `links` concurrent ping-pongs.
double latency_us(net::ConnectionMode mode, int links, double bytes,
                  int round_trips) {
  sim::Engine engine;
  const auto machine = topo::lehman(2);
  net::Network nw(engine, machine, net::ib_qdr(), mode, 8);
  std::vector<sim::Time> elapsed(static_cast<std::size_t>(links));
  for (int link = 0; link < links; ++link) {
    sim::spawn(engine, [](sim::Engine& eng, net::Network& n, int ep, double b,
                          int reps, sim::Time& out) -> sim::Task<void> {
      const sim::Time start = eng.now();
      for (int i = 0; i < reps; ++i) {
        co_await n.rma(
            {.src_node = 0, .src_ep = ep, .dst_node = 1, .bytes = b});
        co_await n.rma(
            {.src_node = 1, .src_ep = ep, .dst_node = 0, .bytes = b});
      }
      out = eng.now() - start;
    }(engine, nw, link, bytes, round_trips, elapsed[static_cast<std::size_t>(link)]));
  }
  engine.run();
  sim::Time total = 0;
  for (sim::Time t : elapsed) total += t;
  return sim::to_micros(total) /
         (static_cast<double>(links) * round_trips * 2.0);
}

/// Aggregate flood bandwidth (MB/s) with `links` senders streaming
/// `messages` back-to-back non-blocking messages each.
double flood_mbs(net::ConnectionMode mode, int links, double bytes,
                 int messages) {
  sim::Engine engine;
  const auto machine = topo::lehman(2);
  net::Network nw(engine, machine, net::ib_qdr(), mode, 8);
  for (int link = 0; link < links; ++link) {
    sim::spawn(engine, []([[maybe_unused]] sim::Engine& eng, net::Network& n,
                          int ep, double b, int count) -> sim::Task<void> {
      std::vector<async::future<>> inflight;
      inflight.reserve(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) {
        inflight.push_back(
            n.rma_async({.src_node = 0, .src_ep = ep, .dst_node = 1, .bytes = b}));
      }
      for (auto& f : inflight) co_await f;
    }(engine, nw, link, bytes, messages));
  }
  engine.run();
  const double total_bytes = bytes * links * messages;
  return total_bytes / sim::to_seconds(engine.now()) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const int reps = static_cast<int>(cli.get_int("reps", 20));
  cli.reject_unread(argv[0]);

  bench::banner("Fig 4.2 — multi-link latency and flood bandwidth (QDR IB)",
                "1 link ~1.5 GB/s; multi-link ~2.4 GB/s; pthread links "
                "serialize injection");

  std::printf("\n(a) Latency (us; ping-pong round trip / 2, the usual "
              "convention)\n");
  util::Table lat({"Size (B)", "1 link", "2 proc", "4 proc", "8 proc",
                   "2 pthr", "4 pthr", "8 pthr"});
  for (double size : {1.0, 8.0, 64.0, 512.0, 1024.0, 4096.0, 16384.0, 32768.0}) {
    std::vector<std::string> row{util::Table::num(size, 0)};
    row.push_back(util::Table::num(
        latency_us(net::ConnectionMode::per_process, 1, size, reps), 1));
    for (int links : {2, 4, 8}) {
      row.push_back(util::Table::num(
          latency_us(net::ConnectionMode::per_process, links, size, reps), 1));
    }
    for (int links : {2, 4, 8}) {
      row.push_back(util::Table::num(
          latency_us(net::ConnectionMode::per_node, links, size, reps), 1));
    }
    lat.add_row(std::move(row));
  }
  lat.print(std::cout);

  std::printf("\n(b) Unidirectional flood bandwidth (MB/s)\n");
  util::Table bw({"Size (B)", "1 link", "2 proc", "4 proc", "8 proc",
                  "2 pthr", "4 pthr", "8 pthr"});
  for (double size : {64.0, 512.0, 4096.0, 32768.0, 131072.0, 524288.0,
                      2097152.0}) {
    const int messages = size >= 131072.0 ? 20 : 100;
    std::vector<std::string> row{util::Table::num(size, 0)};
    row.push_back(util::Table::num(
        flood_mbs(net::ConnectionMode::per_process, 1, size, messages), 0));
    for (int links : {2, 4, 8}) {
      row.push_back(util::Table::num(
          flood_mbs(net::ConnectionMode::per_process, links, size, messages), 0));
    }
    for (int links : {2, 4, 8}) {
      row.push_back(util::Table::num(
          flood_mbs(net::ConnectionMode::per_node, links, size, messages), 0));
    }
    bw.add_row(std::move(row));
  }
  bw.print(std::cout);
  return 0;
}
