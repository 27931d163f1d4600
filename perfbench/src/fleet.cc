// Fleet workloads: the sharded fleet simulation at production scale.
//
//   fleet_manual  Fig 3 fleet at 100x, every job on a manual config. The
//                 event core, the job model, placement and the ledger do
//                 all the work; the brain manages no job.
//   fleet_brain   every job under DLRover-RM at 16x with grey node faults,
//                 node health, a lossy control channel, partitions and
//                 master crashes. The brain and control channel run here.
//
// How long one fleet takes depends on its seed as much as on the code (a
// few cells draw far more brain work than the rest), so the workload for
// --seed n is kSubSeeds fleets with scenario seeds 1000n, 1000n + 1, ...
// Untraced runs time RunFleetSharded at min(4, nproc) lanes on them in
// turn and report medians over the runs. The traced run
// rebuilds the first fleet's cells from public pieces (Simulator,
// FleetSimulation, ClusterCommitLog, FleetLedger) and advances one cell at a
// time per window, so each cell's window and each brain round is timed
// directly.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/commit_log.h"
#include "harness/experiment.h"
#include "harness/sharded_fleet.h"
#include "tracer.h"

namespace perfbench {
namespace {

using dlrover::ClusterCommitLog;
using dlrover::FleetJobOutcome;
using dlrover::FleetLedger;
using dlrover::FleetResult;
using dlrover::FleetScenario;
using dlrover::FleetSimulation;
using dlrover::GeneratedJob;
using dlrover::Hours;
using dlrover::Minutes;
using dlrover::ShardedFleetOptions;
using dlrover::ShardedFleetResult;
using dlrover::SimTime;
using dlrover::Simulator;

constexpr int kSubSeeds = 6;

bool IsBrain(const std::string& workload) {
  return workload == "fleet_brain";
}

/// The `sub`-th fleet of the workload's seed.
FleetScenario MakeScenario(const RunOptions& options, int sub) {
  const bool brain = IsBrain(options.workload);
  const int scale = options.tiny() ? 1 : (brain ? 16 : 100);
  FleetScenario scenario;
  scenario.seed = options.seed * 1000 + static_cast<uint64_t>(sub);
  scenario.workload.num_jobs = 48 * scale;
  scenario.workload.arrival_span = Hours(8);
  scenario.cluster.num_nodes = 60 * scale;
  if (!brain) {
    // bench_fleet_scale's Fig 3 fleet: manual configs, background load and
    // pod failures on, control channel off.
    scenario.dlrover_fraction = 0.0;
    scenario.horizon = Hours(30);
    return scenario;
  }
  scenario.dlrover_fraction = 1.0;
  scenario.horizon = Hours(14);
  // Grey node faults at bench_resilience's campaign rates, detected by
  // node health.
  scenario.failures.daily_node_flaky_rate = 1.0;
  scenario.failures.daily_node_degraded_rate = 1.0;
  scenario.failures.daily_node_leak_rate = 0.9;
  scenario.failures.daily_node_crashloop_rate = 0.75;
  scenario.cluster.enable_node_health = true;
  // bench_resilience's partition campaign, protected arm: a lossy channel,
  // node and cell partitions, master crashes, every protection on.
  scenario.control.enabled = true;
  scenario.control.drop_prob = 0.02;
  scenario.control.duplicate_prob = 0.05;
  scenario.control.reorder_prob = 0.05;
  scenario.failures.daily_node_partition_rate = 1.5;
  scenario.failures.daily_cell_partition_rate = 2.0;
  scenario.failures.daily_master_crash_rate = 0.3;
  return scenario;
}

ShardedFleetOptions MakeShardOptions(const RunOptions& options, int lanes) {
  ShardedFleetOptions shard;
  shard.cells = options.tiny() ? 4 : 16;
  shard.shards = lanes;
  shard.window = Minutes(2);
  return shard;
}

/// The trace RunFleetSharded generates for `scenario`, dealt to cells.
std::vector<GeneratedJob> GenerateTrace(const FleetScenario& scenario) {
  dlrover::WorkloadOptions workload = scenario.workload;
  workload.seed = scenario.seed * 1009 + 4;
  return dlrover::WorkloadGenerator(workload).Generate();
}

/// One fleet cell built the way RunFleetSharded builds it, but on a
/// simulator of its own. Member order is destruction order: the brain-round
/// task and the fleet cancel events on `sim`, and the cluster points into
/// `log`.
struct Cell {
  Simulator sim;
  ClusterCommitLog log;
  std::unique_ptr<FleetSimulation> fleet;
  std::unique_ptr<dlrover::PeriodicTask> brain_rounds;
};

std::vector<std::unique_ptr<Cell>> BuildCells(
    const FleetScenario& scenario, const ShardedFleetOptions& shard,
    const std::vector<GeneratedJob>& trace) {
  const int cells = shard.cells;
  std::vector<std::vector<GeneratedJob>> slices(static_cast<size_t>(cells));
  for (size_t i = 0; i < trace.size(); ++i) {
    slices[i % static_cast<size_t>(cells)].push_back(trace[i]);
  }
  const int nodes_base = scenario.cluster.num_nodes / cells;
  const int nodes_rem = scenario.cluster.num_nodes % cells;
  std::vector<std::unique_ptr<Cell>> out;
  for (int c = 0; c < cells; ++c) {
    FleetScenario cell_scenario = scenario;
    cell_scenario.seed = scenario.seed + 7919ull * static_cast<uint64_t>(c);
    cell_scenario.cluster.num_nodes = nodes_base + (c < nodes_rem ? 1 : 0);
    // FleetSimulation would fetch the same memoised history; fetching it
    // here first keeps its cost inside this call when it is cold.
    if (cell_scenario.seed_history) {
      dlrover::SeededHistoryFor(cell_scenario.seed * 7 + 5);
    }
    auto cell = std::make_unique<Cell>();
    cell->fleet = std::make_unique<FleetSimulation>(
        &cell->sim, cell_scenario,
        std::move(slices[static_cast<size_t>(c)]));
    cell->fleet->cluster().set_commit_log(&cell->log);
    out.push_back(std::move(cell));
  }
  return out;
}

/// Digest of everything the fleet decided, host timing left out.
uint64_t OutcomeDigest(const FleetResult& r) {
  Digest d;
  d.Add(r.jobs.size());
  for (const FleetJobOutcome& job : r.jobs) {
    d.Add(job.completed);
    d.Add(job.jct);
    d.Add(job.pending_time);
    d.Add(job.batches_done);
  }
  for (uint64_t counter :
       {r.executed_events, r.pods_preempted, r.crashes_injected,
        r.stragglers_injected, r.node_faults_injected, r.nodes_cordoned,
        r.nodes_uncordoned, r.control_faults_injected, r.plans_fenced,
        r.stale_plan_applies, r.shard_reports_rejected,
        r.shard_reports_expired, uint64_t{r.fault_log.size()},
        uint64_t{r.health_log.size()}, uint64_t{r.control_log.size()}}) {
    d.Add(counter);
  }
  const dlrover::ControlChannelStats& c = r.control_stats;
  for (uint64_t counter :
       {c.messages_sent, c.messages_delivered, c.messages_dropped,
        c.messages_partition_dropped, c.messages_duplicated,
        c.messages_reordered, c.retries, c.sends_expired, c.acks_lost,
        c.epoch_fenced, c.plans_fenced_stale, c.stale_plan_applies,
        c.node_partitions, c.cell_partitions, c.master_crashes,
        c.master_restarts}) {
    d.Add(counter);
  }
  return d.value();
}

/// Invariants every fleet run must hold; returns the broken ones.
std::vector<std::string> BrokenInvariants(const FleetScenario& scenario,
                                          const FleetResult& r,
                                          size_t jobs_submitted) {
  std::vector<std::string> broken;
  if (r.jobs.size() != jobs_submitted) broken.push_back("job count");
  for (const FleetJobOutcome& job : r.jobs) {
    if (job.batches_done > job.total_steps) {
      broken.push_back("job past its step budget: " + job.name);
      break;
    }
  }
  if (r.Completed() == 0) broken.push_back("no job completed");
  if (r.stale_plan_applies != 0 || r.control_stats.stale_plan_applies != 0) {
    broken.push_back("stale plan applied");
  }
  // Every crashed master restarts after the restart delay; only a crash
  // whose restart would land past the horizon may stay unmatched (masters
  // unregister only when the fleet is torn down).
  uint64_t cut_by_horizon = 0;
  for (const dlrover::ControlEvent& e : r.control_log) {
    if (e.kind == dlrover::ControlEventKind::kMasterCrash &&
        e.time + scenario.control.master_restart_delay > scenario.horizon) {
      ++cut_by_horizon;
    }
  }
  if (r.control_stats.master_crashes !=
      r.control_stats.master_restarts + cut_by_horizon) {
    broken.push_back("master crashes != restarts");
  }
  return broken;
}

/// End-to-end outcome metrics of a fleet run (all deterministic).
void AddOutcomeMetrics(const FleetResult& r,
                       std::map<std::string, double>* metrics) {
  const dlrover::Distribution jct = r.JctDistribution(false, false);
  auto& m = *metrics;
  m["sim_jct_p50_h"] = jct.empty() ? 0.0 : jct.Percentile(50) / 3600;
  m["sim_jct_p90_h"] = jct.empty() ? 0.0 : jct.Percentile(90) / 3600;
  m["sim_completion_rate"] = r.CompletionRate();
  dlrover::RunningStat util;
  for (const FleetJobOutcome& job : r.jobs) {
    if (job.avg_worker_cpu_util > 0.0) util.Add(job.avg_worker_cpu_util);
  }
  m["sim_worker_cpu_util"] = util.mean();
}

/// Modelled training samples the fleet advanced: Σ batches × batch size.
double SimulatedSamples(const FleetResult& r,
                        const std::vector<GeneratedJob>& trace) {
  double samples = 0.0;
  for (size_t i = 0; i < r.jobs.size() && i < trace.size(); ++i) {
    samples += static_cast<double>(r.jobs[i].batches_done) *
               static_cast<double>(trace[i].spec.batch_size);
  }
  return samples;
}

/// Checks one run's outcome: its digest against `*reference` (set from this
/// run when still 0) and the invariants. Returns true when every check
/// holds.
bool CheckRun(const FleetScenario& scenario, const FleetResult& r,
              size_t jobs_submitted, uint64_t* reference, const char* label) {
  bool ok = true;
  const uint64_t digest = OutcomeDigest(r);
  if (*reference == 0) *reference = digest;
  if (digest != *reference) {
    std::fprintf(stderr, "FAIL %s: outcome digest %016llx != %016llx\n",
                 label, static_cast<unsigned long long>(digest),
                 static_cast<unsigned long long>(*reference));
    ok = false;
  }
  for (const std::string& what :
       BrokenInvariants(scenario, r, jobs_submitted)) {
    std::fprintf(stderr, "FAIL %s: %s\n", label, what.c_str());
    ok = false;
  }
  return ok;
}

WorkloadResult RunUntraced(const RunOptions& options) {
  WorkloadResult out;
  const ShardedFleetOptions shard = MakeShardOptions(options, LaneCount());
  std::vector<FleetScenario> scenarios;
  std::vector<std::vector<GeneratedJob>> traces;
  for (int sub = 0; sub < kSubSeeds; ++sub) {
    scenarios.push_back(MakeScenario(options, sub));
    traces.push_back(GenerateTrace(scenarios.back()));
  }
  std::vector<uint64_t> digests(kSubSeeds, 0);
  // Outcome metrics and modelled samples of each fleet, from its first run.
  std::vector<std::map<std::string, double>> outcomes(kSubSeeds);
  std::vector<double> samples(kSubSeeds, 0.0);
  auto run_checked = [&](int sub) {
    const ShardedFleetResult r =
        dlrover::RunFleetSharded(scenarios[sub], shard);
    ++out.attempted;
    if (!CheckRun(scenarios[sub], r.fleet, traces[sub].size(), &digests[sub],
                  "run")) {
      ++out.failed;
    }
    if (outcomes[sub].empty()) {
      AddOutcomeMetrics(r.fleet, &outcomes[sub]);
      samples[sub] = SimulatedSamples(r.fleet, traces[sub]);
    }
  };

  // One untimed run first: the first call in a process grows the heap,
  // starts the lane pool and fills the seeded-history cache, which every
  // later call reuses.
  run_checked(0);

  // Set-up, timed on its own many times: trace generation, the seeded
  // histories and every cell's construction, up to the first event.
  std::vector<double> setup_s;
  for (int i = 0; i < 25; ++i) {
    const auto start = Clock::now();
    const std::vector<GeneratedJob> generated = GenerateTrace(scenarios[0]);
    auto cells = BuildCells(scenarios[0], shard, generated);
    setup_s.push_back(SecondsSince(start));
  }
  const double setup = Median(setup_s);

  // Timed work: whole RunFleetSharded calls, the fleets in turn, each at
  // least once and then until the time is up.
  std::vector<double> run_s, rate;
  const auto begin = Clock::now();
  while (run_s.size() < kSubSeeds ||
         SecondsSince(begin) + run_s.back() <= options.seconds) {
    const int sub = static_cast<int>(run_s.size() % kSubSeeds);
    const auto start = Clock::now();
    run_checked(sub);
    run_s.push_back(SecondsSince(start));
    rate.push_back(samples[sub] / std::max(run_s.back() - setup, 1e-9));
  }

  // The fleets' digests together must match the pinned digest.
  Digest combined;
  for (uint64_t d : digests) combined.Add(d);
  out.digest = combined.value();
  const uint64_t pinned =
      PinnedDigest(options.workload, options.shape, options.seed);
  if (pinned != 0 && out.digest != pinned) {
    std::fprintf(stderr, "FAIL outcome digest %016llx != pinned %016llx\n",
                 static_cast<unsigned long long>(out.digest),
                 static_cast<unsigned long long>(pinned));
    out.failed = out.attempted;
  }
  for (const char* name : {"sim_jct_p50_h", "sim_jct_p90_h",
                           "sim_completion_rate", "sim_worker_cpu_util"}) {
    std::vector<double> values;
    for (const auto& o : outcomes) values.push_back(o.at(name));
    out.metrics[name] = Median(values);
  }
  // RunFleetSharded repeats the set-up measured above; wall_s is the rest.
  out.metrics["setup_s"] = setup;
  out.metrics["wall_s"] = std::max(Median(run_s) - setup, 1e-9);
  out.metrics["samples_per_s"] = Median(rate);
  std::fprintf(stderr, "%s: %zu runs, run median %.3f s, setup %.4f s; runs",
               options.workload.c_str(), run_s.size(), Median(run_s), setup);
  for (double s : run_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");
  return out;
}

WorkloadResult RunTraced(const RunOptions& options) {
  WorkloadResult out;
  const FleetScenario scenario = MakeScenario(options, 0);
  const ShardedFleetOptions lanes_opt = MakeShardOptions(options, LaneCount());
  const ShardedFleetOptions serial_opt = MakeShardOptions(options, 1);
  uint64_t reference = 0;

  // Untraced reference at nproc lanes: the counters, and the digest the
  // one-cell-at-a-time traced run must reproduce (lane independence).
  auto start = Clock::now();
  const ShardedFleetResult ref = dlrover::RunFleetSharded(scenario, lanes_opt);
  const double lanes_wall = SecondsSince(start);
  // Untraced run of the traced run's exact schedule (one lane advances the
  // cells in order): the baseline for the tracing overhead.
  start = Clock::now();
  const ShardedFleetResult serial =
      dlrover::RunFleetSharded(scenario, serial_opt);
  const double serial_wall = SecondsSince(start);

  // Traced run.
  Tracer tracer;
  tracer.set_run(1);
  const auto traced_start = Clock::now();
  int root = tracer.Begin("harness.run_fleet");
  std::vector<GeneratedJob> trace;
  {
    ScopedSpan span(&tracer, "trace.generate");
    trace = GenerateTrace(scenario);
  }
  std::vector<std::unique_ptr<Cell>> cells;
  {
    ScopedSpan span(&tracer, "harness.build");
    cells = BuildCells(scenario, lanes_opt, trace);
  }
  // Brain rounds are timed by running them from a task of our own on the
  // brain's cadence in place of the brain's internal one.
  for (auto& cell : cells) {
    dlrover::ClusterBrain* brain = &cell->fleet->brain();
    brain->Stop();
    cell->brain_rounds = std::make_unique<dlrover::PeriodicTask>(
        &cell->sim, brain->options().round_interval,
        [brain, &tracer] {
          ScopedSpan span(&tracer, "brain.round");
          brain->RunRound();
        });
    cell->brain_rounds->Start();
  }
  std::vector<ClusterCommitLog*> logs;
  for (auto& cell : cells) logs.push_back(&cell->log);
  FleetLedger ledger;
  const dlrover::Duration window = std::max(lanes_opt.window, 0.0);
  const SimTime end = std::max(scenario.horizon, 0.0);
  SimTime now = 0.0;
  double skew_max_ms = 0.0, skew_mean_ms = 0.0;
  do {
    const SimTime window_end = window > 0.0 ? std::min(now + window, end) : end;
    ScopedSpan span(&tracer, "sim.window");
    double slowest = 0.0, sum = 0.0;
    for (auto& cell : cells) {
      const int id = tracer.Begin("sim.cell_run");
      cell->sim.RunUntil(window_end);
      tracer.End(id);
      const double ms = tracer.spans()[static_cast<size_t>(id)].ms();
      slowest = std::max(slowest, ms);
      sum += ms;
    }
    skew_max_ms += slowest;
    skew_mean_ms += sum / static_cast<double>(cells.size());
    now = window_end;
    ScopedSpan fold(&tracer, "ledger.fold");
    ledger.Fold(logs);
  } while (now < end);

  std::vector<FleetResult> cell_results;
  int plans_applied = 0;
  {
    ScopedSpan span(&tracer, "harness.collect");
    for (auto& cell : cells) {
      plans_applied += cell->fleet->brain().plans_applied();
      cell->brain_rounds.reset();
      cell_results.push_back(cell->fleet->Collect());
    }
  }
  tracer.End(root);
  const double traced_wall = SecondsSince(traced_start);

  // Merge the cells the way RunFleetSharded does, then check the digest.
  FleetResult merged;
  for (const FleetResult& c : cell_results) {
    merged.executed_events += c.executed_events;
    merged.pods_preempted += c.pods_preempted;
    merged.crashes_injected += c.crashes_injected;
    merged.stragglers_injected += c.stragglers_injected;
    merged.node_faults_injected += c.node_faults_injected;
    merged.fault_log.insert(merged.fault_log.end(), c.fault_log.begin(),
                            c.fault_log.end());
    merged.health_log.insert(merged.health_log.end(), c.health_log.begin(),
                             c.health_log.end());
    merged.nodes_cordoned += c.nodes_cordoned;
    merged.nodes_uncordoned += c.nodes_uncordoned;
    merged.control_stats += c.control_stats;
    merged.control_log.insert(merged.control_log.end(), c.control_log.begin(),
                              c.control_log.end());
    merged.control_faults_injected += c.control_faults_injected;
    merged.plans_fenced += c.plans_fenced;
    merged.stale_plan_applies += c.stale_plan_applies;
    merged.shard_reports_rejected += c.shard_reports_rejected;
    merged.shard_reports_expired += c.shard_reports_expired;
  }
  const size_t ncells = cell_results.size();
  for (size_t i = 0; i < trace.size(); ++i) {
    merged.jobs.push_back(cell_results[i % ncells].jobs[i / ncells]);
  }

  out.attempted = 3;
  if (!CheckRun(scenario, ref.fleet, trace.size(), &reference,
                "nproc lanes")) {
    ++out.failed;
  }
  if (!CheckRun(scenario, serial.fleet, trace.size(), &reference,
                "1 lane")) {
    ++out.failed;
  }
  for (const std::string& what :
       BrokenInvariants(scenario, merged, trace.size())) {
    std::fprintf(stderr, "FAIL traced: %s\n", what.c_str());
    ++out.failed;
  }
  // The traced schedule replaces the brain's round task with ours; a digest
  // mismatch would mean that perturbed the schedule, and flags every
  // traced number instead of failing the run.
  const bool same_schedule = OutcomeDigest(merged) == reference;
  if (!same_schedule) {
    std::fprintf(stderr,
                 "WARNING traced run: outcome digest differs; traced layer "
                 "numbers come from a perturbed schedule\n");
  }
  out.digest = reference;

  const FleetResult& r = ref.fleet;
  const std::vector<double> cell_ms = tracer.DurationsMs("sim.cell_run");
  const std::vector<double> round_ms = tracer.DurationsMs("brain.round");
  const double cell_total_ms = tracer.TotalMs("sim.cell_run");
  const double round_total_ms = tracer.TotalMs("brain.round");
  uint64_t scale_ops = 0, migrations = 0;
  for (const FleetJobOutcome& job : r.jobs) {
    scale_ops += static_cast<uint64_t>(job.stats.scale_operations);
    migrations += static_cast<uint64_t>(job.stats.migrations);
  }
  const double events = static_cast<double>(r.executed_events);
  const dlrover::ControlChannelStats& c = r.control_stats;
  auto& m = out.metrics;
  m["sim.events"] = events;
  m["sim.events_per_s"] = events / lanes_wall;
  m["sim.windows"] = static_cast<double>(ref.windows);
  m["sim.cell_windows"] = static_cast<double>(cell_ms.size());
  m["sim.cell_window_ms_p50"] = Percentile(cell_ms, 50);
  m["sim.cell_window_ms_p99"] = Percentile(cell_ms, 99);
  m["sim.cell_skew"] = skew_mean_ms > 0.0 ? skew_max_ms / skew_mean_ms : 0.0;
  m["ledger.entries"] = static_cast<double>(ref.ledger_entries);
  m["ledger.fold_ms"] = tracer.TotalMs("ledger.fold");
  m["brain.rounds"] = static_cast<double>(round_ms.size());
  m["brain.plans_applied"] = static_cast<double>(plans_applied);
  m["brain.round_ms_p50"] = Percentile(round_ms, 50);
  m["brain.round_ms_p99"] = Percentile(round_ms, 99);
  m["brain.busy_share"] =
      cell_total_ms > 0.0 ? round_total_ms / cell_total_ms : 0.0;
  m["control.messages_sent"] = static_cast<double>(c.messages_sent);
  m["control.retries"] = static_cast<double>(c.retries);
  m["control.delivery_ratio"] =
      c.messages_sent > 0 ? static_cast<double>(c.messages_delivered) /
                                static_cast<double>(c.messages_sent)
                          : 0.0;
  m["control.event_share"] =
      events > 0.0 ? static_cast<double>(c.messages_sent) / events : 0.0;
  m["cluster.pods_preempted"] = static_cast<double>(r.pods_preempted);
  m["cluster.nodes_cordoned"] = static_cast<double>(r.nodes_cordoned);
  m["ps.scale_operations"] = static_cast<double>(scale_ops);
  m["ps.migrations"] = static_cast<double>(migrations);
  m["trace.generate_ms"] = tracer.TotalMs("trace.generate");
  m["harness.build_ms"] = tracer.TotalMs("harness.build");
  m["trace.overhead_share"] = traced_wall / serial_wall - 1.0;
  m["trace.same_schedule"] = same_schedule ? 1.0 : 0.0;

  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  if (!tracer.WriteChromeTrace(stem + ".trace.json") ||
      !tracer.WriteSelfTimeSummary(stem + ".selftime.json")) {
    std::fprintf(stderr, "FAIL cannot write trace files under %s\n",
                 options.out_dir.c_str());
    ++out.failed;
  }
  std::fprintf(stderr,
               "%s traced: lanes %.3f s, 1 lane %.3f s, traced %.3f s, "
               "%zu cell-windows, %zu brain rounds\n",
               options.workload.c_str(), lanes_wall, serial_wall, traced_wall,
               cell_ms.size(), round_ms.size());
  return out;
}

}  // namespace

WorkloadResult RunFleetWorkload(const RunOptions& options) {
  return options.trace ? RunTraced(options) : RunUntraced(options);
}

}  // namespace perfbench
