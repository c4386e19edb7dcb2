// Reproduces Fig 3.4: "NAS FT (class B) all-to-all communication
// performance with UPC runtime optimizations and hand optimizations on 4
// cluster nodes".
//   (a) % improvement over the plain process baseline for PSHM /
//       PSHM+cast / pthreads / pthreads+cast, blocking upc_memput,
//       4..64 threads;
//   (b) time split of the non-blocking variant (upc_memput_async issue vs
//       upc_waitsync) across the six runtime configurations.
//
// Paper shape: ~20-120% improvements that grow with threads/node (more
// intra-node pairs to optimize); manual cast == runtime PSHM/pthreads
// (automatic optimization is as good as hand optimization); with PSHM or
// pthreads the async calls complete locally and time shifts from the wait
// into the issue phase.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "fft/ft_model.hpp"
#include "gas/gas.hpp"
#include "sim/sim.hpp"
#include "util/cli.hpp"

namespace {

using namespace hupc;  // NOLINT

struct Variant {
  const char* name;
  gas::Backend backend;
  bool pshm;
  bool cast;  // manual memcpy replacement: cheaper per-call overhead
};

constexpr Variant kBase{"base", gas::Backend::processes, false, false};
constexpr Variant kVariantsA[] = {
    {"PSHM", gas::Backend::processes, true, false},
    {"PSHM + cast", gas::Backend::processes, true, true},
    {"pthreads", gas::Backend::pthreads, true, false},
    {"pthreads + cast", gas::Backend::pthreads, true, true},
};
constexpr Variant kVariantsB[] = {
    {"PSHM", gas::Backend::processes, true, false},
    {"PSHM+cast", gas::Backend::processes, true, true},
    {"base", gas::Backend::processes, false, false},
    {"pthr+PSHM", gas::Backend::pthreads, true, false},
    {"pthr+PSHM+cast", gas::Backend::pthreads, true, true},
    {"pthreads", gas::Backend::pthreads, false, false},
};

struct ExchangeTimes {
  double total = 0;  // blocking exchange
  double issue = 0;  // non-blocking: time in memput_async calls
  double wait = 0;   // non-blocking: time in waitsync
};

ExchangeTimes run_exchange(const Variant& v, int threads, bool async) {
  sim::Engine engine;
  auto cfg = bench::make_config("lehman", 4, threads, v.backend);
  cfg.pshm = v.pshm;
  if (v.cast) {
    // Hand optimization: castable destinations use plain memcpy — the
    // per-call runtime overhead drops to a bare libc call.
    cfg.costs.shm_copy_overhead_s = 0.05e-6;
  }
  gas::Runtime rt(engine, cfg);
  const double chunk = fft::FtParams::class_b().total_bytes() /
                       (static_cast<double>(threads) * threads);
  ExchangeTimes times;
  rt.spmd([&rt, &times, chunk, async](gas::Thread& t) -> sim::Task<void> {
    co_await t.barrier();
    auto& eng = rt.engine();
    const sim::Time start = eng.now();
    if (!async) {
      for (int step = 1; step < t.threads(); ++step) {
        const int peer = (t.rank() + step) % t.threads();
        co_await t.copy_raw(peer, nullptr, nullptr,
                            static_cast<std::size_t>(chunk));
      }
      co_await t.barrier();
      if (t.rank() == 0) times.total = sim::to_seconds(eng.now() - start);
    } else {
      std::vector<async::future<>> pending;
      for (int step = 1; step < t.threads(); ++step) {
        const int peer = (t.rank() + step) % t.threads();
        pending.push_back(sim::spawn(
            eng, t.copy_raw(peer, nullptr, nullptr,
                            static_cast<std::size_t>(chunk))));
      }
      const sim::Time issued = eng.now();
      for (auto& f : pending) co_await f;
      co_await t.barrier();
      if (t.rank() == 0) {
        times.issue = sim::to_seconds(issued - start);
        times.wait = sim::to_seconds(eng.now() - issued);
      }
    }
  });
  rt.run_to_completion();
  return times;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.reject_unread(argv[0]);

  bench::banner("Fig 3.4 — FT class B all-to-all on 4 Lehman nodes",
                "(a) PSHM/pthreads beat non-shared baseline by ~20-120%, "
                "manual cast == runtime optimization; (b) async time split");

  std::printf("\n(a) Blocking memput: improvement over process baseline\n");
  util::Table a({"Threads", "PSHM", "PSHM + cast", "pthreads",
                 "pthreads + cast"});
  for (int threads : {4, 8, 16, 32, 64}) {
    const double base = run_exchange(kBase, threads, false).total;
    std::vector<std::string> row{std::to_string(threads)};
    for (const Variant& v : kVariantsA) {
      const double t = run_exchange(v, threads, false).total;
      row.push_back(util::Table::pct(base / t - 1.0, 1));
    }
    a.add_row(std::move(row));
  }
  a.print(std::cout);

  std::printf(
      "\n(b) Non-blocking memput: seconds in issue (async calls) and wait "
      "(upc_waitsync)\n");
  util::Table b({"Config", "Threads", "Issue (s)", "Wait (s)", "Total (s)"});
  for (int threads : {4, 8, 16, 32, 64}) {
    for (const Variant& v : kVariantsB) {
      const auto t = run_exchange(v, threads, true);
      b.add_row({v.name, std::to_string(threads),
                 util::Table::num(t.issue, 3), util::Table::num(t.wait, 3),
                 util::Table::num(t.issue + t.wait, 3)});
    }
  }
  b.print(std::cout);
  return 0;
}
