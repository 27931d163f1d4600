// Sharded-engine smoke test compiled with -fsanitize=thread regardless of
// the global build flags (see tests/CMakeLists.txt): it links an
// instrumented copy of the sharded event core and the fleet runner and
// advances multi-cell fleets on a real thread pool, so tier-1 `ctest`
// exercises the conservative window protocol — parallel shard advancement,
// per-shard outbox writes, barrier commit — under ThreadSanitizer. The
// smoke also re-checks the engine's central promise while instrumented:
// lane count never changes results. No gtest here: TSan makes the process
// exit nonzero when it reports a race, logic failures return 1.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "harness/sharded_fleet.h"
#include "sim/sharded_simulator.h"

namespace {

#define CHECK_TRUE(cond)                                              \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "FAILED: %s at %s:%d\n", #cond, __FILE__,  \
                   __LINE__);                                         \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

// Raw engine: four shards ping effects across shard boundaries for a few
// hundred windows; the delivery trace on 4 lanes must equal the sequential
// one exactly.
void EngineWindowSmoke() {
  using namespace dlrover;
  auto run = [](size_t lanes) {
    ThreadPool pool(4);
    ShardedSimOptions options;
    options.num_shards = 4;
    options.window = 5.0;
    options.pool = lanes > 1 ? &pool : nullptr;
    options.parallelism = lanes;
    ShardedSimulator engine(options);
    // Every effect targets shard 0, so the trace is only ever written from
    // shard 0's (sequential) event loop — while shards 1..3 run on other
    // lanes, which is the concurrency TSan is here to watch.
    Simulator& sink = engine.shard(0);
    std::vector<std::pair<SimTime, int>> trace;
    std::vector<std::unique_ptr<PeriodicTask>> tasks;
    for (int s = 1; s < 4; ++s) {
      Simulator& sim = engine.shard(s);
      tasks.push_back(std::make_unique<PeriodicTask>(
          &sim, 2.0 + 0.5 * s, [&engine, &trace, &sink, s] {
            engine.Send(s, 0, engine.Now() + 3.0, [&trace, &sink, s] {
              trace.emplace_back(sink.Now(), s);
            });
          }));
      tasks.back()->Start();
    }
    engine.RunUntil(1000.0);
    return std::make_pair(trace, engine.cross_shard_sends());
  };
  const auto sequential = run(1);
  const auto parallel = run(4);
  CHECK_TRUE(sequential.second > 0);
  CHECK_TRUE(sequential.second == parallel.second);
  CHECK_TRUE(sequential.first == parallel.first);
}

// Fleet runner: a three-cell manual fleet advanced on 1, 2, and 4 lanes
// must produce byte-identical outcomes.
void ShardedFleetSmoke() {
  using namespace dlrover;
  FleetScenario scenario;
  scenario.dlrover_fraction = 0.0;
  scenario.workload.num_jobs = 9;
  scenario.workload.arrival_span = Hours(2);
  scenario.cluster.num_nodes = 12;
  scenario.horizon = Hours(6);
  scenario.seed = 11;

  auto run = [&scenario](int lanes) {
    ShardedFleetOptions options;
    options.cells = 3;
    options.shards = lanes;
    options.window = Minutes(2);
    return RunFleetSharded(scenario, options);
  };
  const ShardedFleetResult one = run(1);
  CHECK_TRUE(one.fleet.jobs.size() == 9);
  CHECK_TRUE(one.fleet.executed_events > 0);
  CHECK_TRUE(one.windows > 0);
  for (int lanes : {2, 4}) {
    const ShardedFleetResult wide = run(lanes);
    CHECK_TRUE(wide.fleet.executed_events == one.fleet.executed_events);
    CHECK_TRUE(wide.fleet.pods_preempted == one.fleet.pods_preempted);
    CHECK_TRUE(wide.windows == one.windows);
    CHECK_TRUE(wide.cross_shard_sends == one.cross_shard_sends);
    CHECK_TRUE(wide.ledger_entries == one.ledger_entries);
    for (size_t i = 0; i < one.fleet.jobs.size(); ++i) {
      CHECK_TRUE(wide.fleet.jobs[i].completed == one.fleet.jobs[i].completed);
      CHECK_TRUE(wide.fleet.jobs[i].jct == one.fleet.jobs[i].jct);
      CHECK_TRUE(wide.fleet.jobs[i].pending_time ==
                 one.fleet.jobs[i].pending_time);
    }
  }
}

}  // namespace

int main() {
  EngineWindowSmoke();
  ShardedFleetSmoke();
  std::printf("sharded sim tsan smoke: ok\n");
  return 0;
}
