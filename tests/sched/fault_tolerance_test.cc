// Failure machinery end to end: task retries with bounded attempts, clean
// job aborts, fetch-failure stage resubmission, executor exclusion and
// re-admission, and deferred result delivery across partitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/chaos.h"
#include "api/context.h"
#include "trace/wiki.h"

namespace stark {
namespace {

KeyHistogram hist(Bytes total = 64 * kMiB) {
  trace::WikiTraceGen::Config c;
  c.num_urls = 256;
  return trace::WikiTraceGen(c).histogram(total, 0.9);
}

ContextOptions opts() {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  return o;
}

TEST(FaultTolerance, FlakyTasksRetryUntilTheJobCompletes) {
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.dag().tasks().set_flaky_task_probability(0.2);
  const auto r = ctx.count(ds);
  ctx.dag().tasks().set_flaky_task_probability(0.0);
  EXPECT_TRUE(r.completed);
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_GT(s.task_failures, 0);
  EXPECT_GT(s.task_retries, 0);
  EXPECT_EQ(s.jobs_aborted, 0);
}

TEST(FaultTolerance, ExhaustedRetriesAbortCleanlyInsteadOfHanging) {
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  // Every launched task crashes: retries, exclusion and finally a clean
  // abort with a reason — run_job must return, not throw on a drained
  // queue, and the scheduler must not strand any state.
  ctx.dag().tasks().set_flaky_task_probability(1.0);
  const auto r = ctx.count(ds);
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.failure_reason.empty());
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_GE(s.task_failures, ctx.options().faults.max_task_failures);
  EXPECT_EQ(s.jobs_aborted, 1);
  EXPECT_EQ(ctx.dag().active_jobs(), 0);
  // The cluster is fully usable again afterwards.
  ctx.dag().tasks().set_flaky_task_probability(0.0);
  ctx.sim().run();  // let exclusion timers drain
  EXPECT_TRUE(ctx.count(ds).completed);
}

TEST(FaultTolerance, ExecutorLossMidJobRetriesOnSurvivors) {
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  // Large enough that the first task wave is still in flight at +0.05s.
  auto ds = ctx.ingest("d", hist(512 * kMiB), part, "logs");
  // Kill a server holding cached blocks a beat after the query starts —
  // before its first wave finishes — so running tasks are lost mid-flight.
  ServerId victim = kInvalidId;
  for (int p = 0; p < 8 && victim == kInvalidId; ++p) {
    const auto locs = ctx.cluster().cache_locations({ds->id(), p});
    if (!locs.empty()) victim = locs[0];
  }
  ASSERT_NE(victim, kInvalidId);
  ctx.sim().after(0.01, [&] { ctx.kill_server(victim); });
  const auto r = ctx.count(ds);
  EXPECT_TRUE(r.completed) << r.failure_reason;
  EXPECT_GT(r.delay, 0.01) << "job too short to be disturbed";
  for (const auto& t : r.tasks) EXPECT_NE(t.server, victim);
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_GE(s.heartbeat_detections, 1);
  EXPECT_GE(s.task_retries, 1);
  EXPECT_GE(s.mean_detection_latency(), 0.0);
}

TEST(FaultTolerance, FetchFailureResubmitsTheMapStage) {
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 2; ++i) {
    inputs.push_back(
        ctx.ingest(std::string("d").append(std::to_string(i)), hist(), part,
                   "logs"));
  }
  // The ingests built shuffle outputs on every server; losing one forces
  // the cogroup's reduce tasks into FetchFailed -> map-stage resubmission.
  ctx.kill_server(1);
  const auto r = ctx.count(Dataset::cogroup(inputs, part));
  EXPECT_TRUE(r.completed);
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_GE(s.fetch_failures, 1);
  EXPECT_GE(s.stage_resubmissions, 1);
}

TEST(FaultTolerance, PartitionHealedBeforeTimeoutDeliversResultsLate) {
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  // Partition a server right as tasks land on it, heal well before the
  // heartbeat deadline: the driver never notices; the finished results
  // just arrive late.
  const SimTime now = ctx.sim().now();
  ctx.sim().at(now + 0.05, [&] { ctx.partition_server(2); });
  ctx.sim().at(now + 2.0, [&] { ctx.heal_server(2); });
  const auto r = ctx.count(ds);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(ctx.dag().failure_stats().heartbeat_detections, 0);
}

TEST(FaultTolerance, RepeatedFailuresExcludeThenReadmitExecutors) {
  ContextOptions o = opts();
  o.faults.exclude_timeout = 2.0;  // quick re-admission for the test
  Context ctx(o);
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.dag().tasks().set_flaky_task_probability(1.0);
  EXPECT_FALSE(ctx.count(ds).completed);
  ctx.dag().tasks().set_flaky_task_probability(0.0);
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_GE(s.executor_exclusions, 1);
  // Timed exclusions lapse and the executors rejoin; the next job sees a
  // full cluster again.
  ctx.sim().run();
  EXPECT_TRUE(ctx.count(ds).completed);
  EXPECT_GE(s.executor_readmissions, 1);
  EXPECT_EQ(ctx.dag().tasks().app_exclusions(),
            s.executor_exclusions);
}

TEST(FaultTolerance, StatsResetClearsEveryCounter) {
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.kill_server(1);
  ASSERT_TRUE(ctx.count(ds).completed);
  ctx.sim().run();  // let the heartbeat grid detection fire
  ASSERT_GT(ctx.dag().failure_stats().heartbeat_detections, 0);
  ctx.dag().reset_failure_stats();
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_EQ(s.heartbeat_detections, 0);
  EXPECT_EQ(s.task_failures, 0);
  EXPECT_EQ(s.task_retries, 0);
  EXPECT_EQ(s.fetch_failures, 0);
  EXPECT_EQ(s.stage_resubmissions, 0);
  EXPECT_EQ(s.executor_exclusions, 0);
  EXPECT_EQ(s.executor_readmissions, 0);
  EXPECT_EQ(s.jobs_aborted, 0);
  EXPECT_EQ(s.mean_detection_latency(), 0.0);
}

TEST(FaultTolerance, FreeServerListMatchesARecountUnderChaos) {
  // The TaskScheduler keeps its remote-placement candidates (offerable
  // servers with a free core) up to date per launch and release instead of
  // rescanning every sweep. Under kills, flaky tasks and exclusions, a
  // sweep after every event must leave it equal to the set recomputed from
  // the offer cache and the servers' free cores.
  ContextOptions o = opts();
  o.cluster.num_servers = 6;
  Context ctx(o);
  auto part = ctx.collection_partitioner(8, 256);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 2; ++i) {
    inputs.push_back(
        ctx.ingest(std::string("d").append(std::to_string(i)), hist(), part,
                   "logs"));
  }
  ChaosInjector chaos(ctx, {.failures_per_hour = 1800.0,
                            .mean_repair_seconds = 4.0,
                            .min_alive = 2,
                            .flaky_task_probability = 0.15,
                            .seed = 23});
  const SimTime t0 = ctx.sim().now();
  chaos.start(t0, t0 + 100.0);
  int finished = 0;
  for (int q = 0; q < 40; ++q) {
    ctx.sim().at(t0 + 2.5 * q, [&] {
      auto cg = Dataset::cogroup(inputs, part);
      ctx.dag().submit(cg->filter({.selectivity = 0.05}), ActionType::kCount,
                       {}, [&](const JobResult&) { ++finished; });
    });
  }
  TaskScheduler& tasks = ctx.dag().tasks();
  int sweeps_checked = 0;
  bool mismatch = false;
  ctx.sim().run_until([&] {
    tasks.schedule();
    if (tasks.free_offer_servers() != tasks.recompute_free_offer_servers()) {
      mismatch = true;
      return true;
    }
    ++sweeps_checked;
    return false;
  });
  EXPECT_FALSE(mismatch) << "after " << sweeps_checked << " sweeps";
  EXPECT_EQ(finished, 40);
  EXPECT_GT(chaos.kills(), 0);
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_GT(s.task_failures, 0);
  EXPECT_GT(s.executor_exclusions, 0);
  EXPECT_GT(sweeps_checked, 1000);
}

TEST(FaultTolerance, RunListsMatchARecountUnderChaos) {
  // The TaskScheduler files each run in a recycled slot and on its
  // server's run list, both kept per launch and release. Under kills,
  // flaky tasks, rack partitions (deferred results) and speculation, after
  // every event the count of runs and every server's list must equal a
  // recount of the live slots.
  ContextOptions o = opts();
  o.cluster.num_servers = 6;
  o.cluster.servers_per_rack = 2;
  o.speculation = true;
  Context ctx(o);
  auto part = ctx.collection_partitioner(8, 256);
  std::vector<DatasetPtr> inputs;
  for (const char* name : {"d0", "d1"}) {
    inputs.push_back(ctx.ingest(name, hist(), part, "logs"));
  }
  ChaosInjector chaos(ctx, {.failures_per_hour = 1800.0,
                            .mean_repair_seconds = 4.0,
                            .min_alive = 2,
                            .flaky_task_probability = 0.15,
                            .partitions_per_hour = 900.0,
                            .mean_partition_seconds = 3.0,
                            .seed = 29});
  const SimTime t0 = ctx.sim().now();
  chaos.start(t0, t0 + 100.0);
  int finished = 0;
  for (int q = 0; q < 40; ++q) {
    ctx.sim().at(t0 + 2.5 * q, [&] {
      auto cg = Dataset::cogroup(inputs, part);
      ctx.dag().submit(cg->filter({.selectivity = 0.05}), ActionType::kCount,
                       {}, [&](const JobResult&) { ++finished; });
    });
  }
  TaskScheduler& tasks = ctx.dag().tasks();
  int events_checked = 0;
  std::size_t peak_running = 0;
  bool mismatch = false;
  ctx.sim().run_until([&] {
    const auto recount = tasks.recount_runs_by_server();
    std::size_t total = 0;
    for (std::size_t s = 0; s < recount.size(); ++s) {
      const auto listed = tasks.runs_on_server(static_cast<ServerId>(s));
      std::vector<std::uint64_t> sorted(listed.begin(), listed.end());
      std::sort(sorted.begin(), sorted.end());
      if (sorted != recount[s]) mismatch = true;
      total += recount[s].size();
    }
    if (total != tasks.running_tasks()) mismatch = true;
    peak_running = std::max(peak_running, total);
    ++events_checked;
    return mismatch;
  });
  EXPECT_FALSE(mismatch) << "after " << events_checked << " events";
  EXPECT_EQ(finished, 40);
  EXPECT_GT(chaos.kills(), 0);
  EXPECT_GT(chaos.partitions(), 0);
  EXPECT_GT(ctx.dag().failure_stats().task_failures, 0);
  EXPECT_GT(tasks.speculative_launches(), 0);
  EXPECT_GT(peak_running, 0u);
  EXPECT_GT(events_checked, 1000);
}

}  // namespace
}  // namespace stark
