// Ablation: speculative execution (spark.speculation) under placement-
// induced stragglers.
//
// One server is pathologically memory-pressured (a resident working set
// eats most of its heap), so any task landing there crawls under GC. With
// speculation on, the straggling copies are raced by fresh copies on
// healthy servers; job makespans recover.
#include <cstdio>

#include "bench_util.h"

using namespace stark;

namespace {

struct Outcome {
  double mean = 0.0;
  double p99 = 0.0;
  int spec_launches = 0;
  int spec_wins = 0;
};

Outcome run(bool speculation) {
  ClusterConfig cc;
  cc.num_servers = 8;
  cc.server.cores = 4;
  cc.server.ram = 4.0 * kGiB;
  sim::Simulation sim;
  Cluster cluster(cc);
  LocalityManager locality(cluster);
  GroupManager groups(locality);
  DagOptions dopts;
  dopts.use_locality_homes = true;
  dopts.locality_wait = 0.2;
  dopts.speculation = speculation;
  dopts.detail_task_metrics = false;
  DagScheduler dag(sim, cluster, CostModel{}, locality, groups, dopts);
  cluster.add_block_observer(
      [&dag](ServerId s, const BlockId& id, bool inserted) {
        dag.tasks().on_block_event(s, id, inserted);
      });

  // Server 3 is sick: a resident working set keeps its heap near the GC
  // knee, so everything it runs pays several times the CPU cost.
  cluster.server(3).add_working_set(3.6 * kGiB);

  auto part = std::make_shared<HashPartitioner>(16);
  groups.register_namespace("logs", part, {});
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    auto hist = std::make_shared<const KeyHistogram>(
        bench::wiki_hourly(i, 600 * kMiB, 0.0));
    auto ds = Dataset::source(std::string("d").append(std::to_string(i)),
                              hist, 4)
                  ->partition_by(part, "logs");
    ds->cache();
    groups.report_dataset(*ds);
    dag.run_job(ds, ActionType::kCount);
    inputs.push_back(ds);
  }

  Distribution delays;
  for (int q = 0; q < 40; ++q) {
    auto cg = Dataset::cogroup(inputs, part);
    delays.add(dag.run_job(cg->filter({.selectivity = 0.05})).delay);
  }
  Outcome out;
  out.mean = delays.mean();
  out.p99 = delays.percentile(0.99);
  out.spec_launches = dag.tasks().speculative_launches();
  out.spec_wins = dag.tasks().speculative_wins();
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — speculative execution under a sick executor",
      "Server 3's heap is pinned near the GC knee; tasks homed there crawl.\n"
      "Speculation races copies on healthy servers and caps the damage.");

  const Outcome off = run(false);
  const Outcome on = run(true);

  Table t({"metric", "speculation off", "speculation on"});
  t.add_row({"mean job delay (s)", Table::num(off.mean, 3),
             Table::num(on.mean, 3)});
  t.add_row({"p99 job delay (s)", Table::num(off.p99, 3),
             Table::num(on.p99, 3)});
  t.add_row({"speculative launches", std::to_string(off.spec_launches),
             std::to_string(on.spec_launches)});
  t.add_row({"speculative wins", std::to_string(off.spec_wins),
             std::to_string(on.spec_wins)});
  t.print();

  std::printf(
      "\nShape check: speculation launches copies, wins races, and reduces "
      "mean delay: %s\n",
      (on.spec_wins > 0 && on.mean < off.mean) ? "OK" : "MISMATCH");
  return 0;
}
