#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace {

using hupc::sim::delay;
using hupc::sim::Engine;
using hupc::sim::spawn;
using hupc::sim::Task;
using hupc::sim::Time;

Task<int> value_task(int v) { co_return v; }

Task<int> adds(Engine& e) {
  const int a = co_await value_task(40);
  co_await delay(e, 5);
  const int b = co_await value_task(2);
  co_return a + b;
}

Task<void> outer(Engine& e, int& out) { out = co_await adds(e); }

TEST(Task, NestedAwaitsPropagateValuesAndTime) {
  Engine e;
  int out = 0;
  auto p = spawn(e, outer(e, out));
  e.run();
  EXPECT_TRUE(p.ready());
  EXPECT_EQ(out, 42);
  EXPECT_EQ(e.now(), 5);
}

TEST(Task, LazyUntilAwaited) {
  // NB: coroutine lambdas must not capture — the closure object dies before
  // the lazy body runs. State goes in as parameters.
  bool ran = false;
  auto t = [](bool& r) -> Task<void> {
    r = true;
    co_return;
  }(ran);
  EXPECT_FALSE(ran);
  Engine e;
  spawn(e, std::move(t));
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Task, ExceptionsPropagateThroughAwaitChain) {
  Engine e;
  auto thrower = []() -> Task<void> {
    throw std::runtime_error("boom");
    co_return;  // unreachable but required to make this a coroutine
  };
  auto middle = [&]() -> Task<void> { co_await thrower(); };
  auto p = spawn(e, middle());
  e.run();
  EXPECT_TRUE(p.ready());
  EXPECT_TRUE(p.failed());
  EXPECT_THROW(p.get(), std::runtime_error);
}

TEST(Process, ManyProcessesInterleaveDeterministically) {
  // Two runs of the same program must produce identical interleavings.
  auto run_once = [] {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      spawn(e, [](Engine& eng, std::vector<int>& ord, int id) -> Task<void> {
        co_await delay(eng, (id * 37) % 5);
        ord.push_back(id);
        co_await delay(eng, (id * 11) % 3);
        ord.push_back(id + 100);
      }(e, order, i));
    }
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Task, MoveSemantics) {
  Task<int> t = value_task(7);
  EXPECT_TRUE(t.valid());
  Task<int> u = std::move(t);
  EXPECT_FALSE(t.valid());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(u.valid());
}

}  // namespace
