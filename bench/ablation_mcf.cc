// Ablation: Minimum-Contention-First scheduling + contention-aware
// replication (paper §III-C3, Algorithm 1).
//
// A hotspot workload: queries hammer one collection partition (the Times
// Square effect) while the rest of the collection sees background load.
// Remote placements are inevitable; MCF steers them onto executors caching
// the fewest unique collection partitions, which limits cache thrash and
// keeps delay low. We compare Stark with MCF against the same system with
// stock "any free executor" remote placement.
#include <cstdio>

#include "bench_util.h"

using namespace stark;

namespace {

struct Outcome {
  double mean_delay = 0.0;
  double p99_delay = 0.0;
  double hot_replicas = 0.0;  // servers caching the hot partition's blocks
  int unique_partition_spread = 0;  // max unique collection partitions/server
};

Outcome run_with_mcf(bool mcf_on) {
  // Build the scheduler stack manually so the MCF flag can be toggled
  // independently of the config preset.
  ClusterConfig cc;
  cc.num_servers = 8;
  cc.server.cores = 2;
  sim::Simulation sim;
  Cluster cluster(cc);
  LocalityManager locality(cluster);
  GroupManager groups(locality);
  DagOptions dopts;
  dopts.use_locality_homes = true;
  dopts.mcf = mcf_on;
  dopts.locality_wait = 0.4;
  DagScheduler dag(sim, cluster, CostModel{}, locality, groups, dopts);
  cluster.add_block_observer(
      [&dag](ServerId s, const BlockId& id, bool inserted) {
        dag.tasks().on_block_event(s, id, inserted);
      });

  auto part = std::make_shared<HashPartitioner>(8);
  groups.register_namespace("logs", part, {});
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 4; ++i) {
    auto hist = std::make_shared<const KeyHistogram>(
        bench::wiki_hourly(i, 400 * kMiB));
    auto ds = Dataset::source(std::string("d").append(std::to_string(i)),
                              hist, 4)
                  ->partition_by(part, "logs");
    ds->cache();
    groups.report_dataset(*ds);
    dag.run_job(ds, ActionType::kCount);
    inputs.push_back(ds);
  }

  Distribution delays;
  // Concurrent query bursts force remote placements on the 16 total cores.
  int done = 0;
  int issued = 0;
  for (int burst = 0; burst < 10; ++burst) {
    for (int q = 0; q < 6; ++q) {
      auto cg = Dataset::cogroup(inputs, part);
      auto filtered = cg->filter({.selectivity = 0.12});
      dag.submit(filtered, ActionType::kCount, {},
                 [&delays, &done](const JobResult& r) {
                   delays.add(r.delay);
                   ++done;
                 });
      ++issued;
    }
    sim.run_until([&] { return done >= issued; });
  }

  Outcome out;
  out.mean_delay = delays.mean();
  out.p99_delay = delays.percentile(0.99);
  int spread = 0;
  for (ServerId s = 0; s < cluster.size(); ++s) {
    spread = std::max(spread, dag.tasks().unique_collection_partitions(s));
  }
  out.unique_partition_spread = spread;
  double replicas = 0.0;
  for (const auto& ds : inputs) {
    replicas += static_cast<double>(
        cluster.cache_locations({ds->id(), 0}).size());
  }
  out.hot_replicas = replicas / static_cast<double>(inputs.size());
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — Minimum-Contention-First scheduling (§III-C3)",
      "Concurrent cogroup bursts on 8 servers x 2 cores: remote placements\n"
      "are frequent. MCF sends them to the least-contended executors;\n"
      "stock delay scheduling scatters them, multiplying unique collection\n"
      "partitions per executor and catalyzing cache eviction.");

  const Outcome with_mcf = run_with_mcf(true);
  const Outcome without = run_with_mcf(false);

  Table t({"metric", "MCF on", "MCF off"});
  t.add_row({"mean query delay (s)", Table::num(with_mcf.mean_delay, 3),
             Table::num(without.mean_delay, 3)});
  t.add_row({"p99 query delay (s)", Table::num(with_mcf.p99_delay, 3),
             Table::num(without.p99_delay, 3)});
  t.add_row({"max unique collection partitions / server",
             std::to_string(with_mcf.unique_partition_spread),
             std::to_string(without.unique_partition_spread)});
  t.add_row({"mean replicas of partition 0",
             Table::num(with_mcf.hot_replicas, 2),
             Table::num(without.hot_replicas, 2)});
  t.print();

  std::printf(
      "\nShape check: MCF bounds executor contention (fewer unique "
      "collection partitions per server) at equal-or-better delay: %s\n",
      (with_mcf.unique_partition_spread <= without.unique_partition_spread &&
       with_mcf.mean_delay <= without.mean_delay * 1.1)
          ? "OK"
          : "MISMATCH");
  return 0;
}
