// Ablation: the delay-scheduling locality wait (paper §II/III context,
// Zaharia et al. [19]).
//
// With co-located cached collections, a task that cannot get its home
// executor immediately faces a choice: wait (bounded) for the local slot,
// or run remotely and recompute from the shuffle. Tiny waits forfeit
// locality under bursty load; huge waits serialize behind busy executors.
#include <cstdio>

#include "bench_util.h"

using namespace stark;

namespace {

struct Outcome {
  double mean_delay = 0.0;
  double local_fraction = 0.0;
};

Outcome run(double wait) {
  ClusterConfig cc;
  cc.num_servers = 8;
  cc.server.cores = 2;  // scarce slots: the wait decision matters
  sim::Simulation sim;
  Cluster cluster(cc);
  LocalityManager locality(cluster);
  GroupManager groups(locality);
  DagOptions dopts;
  dopts.use_locality_homes = true;
  dopts.locality_wait = wait;
  dopts.detail_task_metrics = true;
  DagScheduler dag(sim, cluster, CostModel{}, locality, groups, dopts);
  cluster.add_block_observer(
      [&dag](ServerId s, const BlockId& id, bool inserted) {
        dag.tasks().on_block_event(s, id, inserted);
      });

  auto part = std::make_shared<HashPartitioner>(8);
  groups.register_namespace("logs", part, {});
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    auto hist = std::make_shared<const KeyHistogram>(
        bench::wiki_hourly(i, 500 * kMiB));
    auto ds = Dataset::source(std::string("d").append(std::to_string(i)),
                              hist, 4)
                  ->partition_by(part, "logs");
    ds->cache();
    groups.report_dataset(*ds);
    dag.run_job(ds, ActionType::kCount);
    inputs.push_back(ds);
  }

  // Bursts of 5 concurrent queries on 16 cores: contention for home slots.
  Distribution delays;
  int local = 0, total = 0, done = 0, issued = 0;
  for (int burst = 0; burst < 8; ++burst) {
    for (int q = 0; q < 5; ++q) {
      auto cg = Dataset::cogroup(inputs, part);
      dag.submit(cg->filter({.selectivity = 0.05}), ActionType::kCount, {},
                 [&](const JobResult& r) {
                   delays.add(r.delay);
                   local += r.node_local_tasks;
                   total += r.num_tasks;
                   ++done;
                 });
      ++issued;
    }
    sim.run_until([&] { return done >= issued; });
  }
  return {delays.mean(),
          total > 0 ? static_cast<double>(local) / total : 0.0};
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — delay-scheduling locality wait",
      "Query bursts against a cached co-located collection on a slot-scarce\n"
      "cluster. Wait too little: remote recomputes. (The default 3 s suits\n"
      "this workload; the sweep shows the cliff below it.)");

  Table t({"locality wait (s)", "mean delay (s)", "node-local tasks", ""});
  std::vector<std::pair<double, Outcome>> rows;
  double worst = 0.0;
  for (double wait : {0.0, 0.05, 0.2, 1.0, 3.0, 10.0}) {
    rows.emplace_back(wait, run(wait));
    worst = std::max(worst, rows.back().second.mean_delay);
  }
  for (const auto& [wait, o] : rows) {
    t.add_row({Table::num(wait, 2), Table::num(o.mean_delay, 3),
               Table::num(o.local_fraction * 100.0, 0) + "%",
               bench::bar(o.mean_delay, worst, 24)});
  }
  t.print();

  const bool zero_wait_worst =
      rows.front().second.local_fraction < rows.back().second.local_fraction;
  std::printf(
      "\nShape check: zero wait forfeits locality vs a 10 s wait: %s\n",
      zero_wait_worst ? "OK" : "MISMATCH");
  return 0;
}
