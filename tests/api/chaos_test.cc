#include "api/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "streaming/query_workload.h"
#include "trace/wiki.h"

namespace stark {
namespace {

ContextOptions opts() {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 6;
  o.detail_task_metrics = false;
  return o;
}

KeyHistogram hist() {
  trace::WikiTraceGen::Config c;
  c.num_urls = 256;
  return trace::WikiTraceGen(c).histogram(64 * kMiB, 0.9);
}

TEST(Chaos, KillsAndRestartsServers) {
  Context ctx(opts());
  ChaosInjector chaos(ctx, {.failures_per_hour = 3600.0,  // one per second
                            .mean_repair_seconds = 2.0,
                            .min_alive = 2,
                            .seed = 7});
  chaos.start(0.0, 30.0);
  ctx.sim().run(120.0);
  EXPECT_GT(chaos.kills(), 5);
  EXPECT_EQ(chaos.restarts(), chaos.kills());
  // Everyone is eventually repaired.
  EXPECT_EQ(ctx.cluster().alive_servers().size(), 6u);
}

TEST(Chaos, RespectsMinAlive) {
  Context ctx(opts());
  ChaosInjector chaos(ctx, {.failures_per_hour = 36000.0,
                            .mean_repair_seconds = 1e6,  // never repaired
                            .min_alive = 3,
                            .seed = 9});
  chaos.start(0.0, 60.0);
  ctx.sim().run(60.0);
  EXPECT_GE(ctx.cluster().alive_servers().size(), 3u);
  EXPECT_EQ(chaos.kills(), 3);  // 6 - min_alive
}

TEST(Chaos, WorkloadSurvivesChurn) {
  // Jobs keep making progress while servers die and come back. With
  // faithful failure semantics a job can still abort (Spark gives a stage
  // spark.stage.maxConsecutiveAttempts resubmissions before giving up), so
  // the contract is: every job finishes one way or the other, aborts carry
  // a reason, and the vast majority complete.
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(
        ctx.ingest(std::string("d").append(std::to_string(i)), hist(), part,
                   "logs"));
  }
  ChaosInjector chaos(ctx, {.failures_per_hour = 1200.0,
                            .mean_repair_seconds = 5.0,
                            .min_alive = 2,
                            .seed = 11});
  const SimTime t0 = ctx.sim().now();
  chaos.start(t0, t0 + 120.0);
  int completed = 0;
  int aborted = 0;
  int issued = 0;
  for (int q = 0; q < 30; ++q) {
    ctx.sim().at(t0 + 4.0 * q, [&] {
      auto cg = Dataset::cogroup(inputs, part);
      ctx.dag().submit(cg->filter({.selectivity = 0.05}), ActionType::kCount,
                       {}, [&](const JobResult& r) {
                         if (r.completed) {
                           ++completed;
                         } else {
                           EXPECT_FALSE(r.failure_reason.empty());
                           ++aborted;
                         }
                       });
      ++issued;
    });
  }
  ctx.sim().run();
  EXPECT_GT(chaos.kills(), 0);
  EXPECT_EQ(completed + aborted, issued);  // nothing hangs or goes missing
  EXPECT_GE(completed, issued * 9 / 10);
  EXPECT_EQ(ctx.dag().active_jobs(), 0);
}

TEST(Chaos, ZeroRateInjectsNothing) {
  Context ctx(opts());
  ChaosInjector chaos(ctx, {.failures_per_hour = 0.0});
  chaos.start(0.0, 100.0);
  ctx.sim().run();
  EXPECT_EQ(chaos.kills(), 0);
}

TEST(Chaos, EmptyOrInvertedWindowSchedulesNothing) {
  Context ctx(opts());
  ChaosInjector chaos(ctx, {.failures_per_hour = 36000.0,
                            .flaky_task_probability = 1.0,
                            .slow_nodes_per_hour = 36000.0,
                            .partitions_per_hour = 36000.0});
  chaos.start(10.0, 10.0);  // empty
  chaos.start(10.0, 5.0);   // inverted
  EXPECT_EQ(ctx.sim().pending_events(), 0u);
  ctx.sim().run();
  EXPECT_EQ(chaos.kills(), 0);
  EXPECT_EQ(chaos.slow_episodes(), 0);
  EXPECT_EQ(chaos.partitions(), 0);
  EXPECT_EQ(ctx.dag().tasks().flaky_task_probability(), 0.0);
}

TEST(Chaos, MinAliveHoldsWhenRepairsRaceKills) {
  // Fast kills and fast repairs interleave; the usable-server floor must
  // hold at every instant, judged against the usable count at injection
  // time (a repair landing just before a kill re-arms the budget).
  Context ctx(opts());
  ChaosInjector chaos(ctx, {.failures_per_hour = 72000.0,  // ~20/s offered
                            .mean_repair_seconds = 0.5,
                            .min_alive = 3,
                            .seed = 5});
  chaos.start(0.0, 30.0);
  std::size_t min_usable = 6;
  for (int i = 0; i < 300; ++i) {
    ctx.sim().at(0.1 * i, [&] {
      min_usable =
          std::min(min_usable, ctx.cluster().reachable_servers().size());
    });
  }
  ctx.sim().run();
  EXPECT_GT(chaos.kills(), 10);
  EXPECT_GE(min_usable, 3u);
  EXPECT_EQ(chaos.restarts(), chaos.kills());
}

TEST(Chaos, KillAndRestartAreIdempotent) {
  Context ctx(opts());
  EXPECT_TRUE(ctx.kill_server(1));
  EXPECT_FALSE(ctx.kill_server(1));     // already dead
  EXPECT_TRUE(ctx.restart_server(1));
  EXPECT_FALSE(ctx.restart_server(1));  // already alive
  EXPECT_FALSE(ctx.restart_server(2));  // never died
  EXPECT_EQ(ctx.cluster().alive_servers().size(), 6u);
  // Partition/heal behave the same way.
  EXPECT_TRUE(ctx.partition_server(3));
  EXPECT_FALSE(ctx.partition_server(3));
  EXPECT_TRUE(ctx.heal_server(3));
  EXPECT_FALSE(ctx.heal_server(3));
  // Double-kill must not double-count detections once the timeout lapses.
  ctx.sim().run();
  EXPECT_LE(ctx.detector().detections(), 2);
}

TEST(Chaos, OverlappingStartThrows) {
  // A second start() inside the open window would stack a second set of
  // Poisson chains and silently double the rates — refuse it loudly.
  Context ctx(opts());
  ChaosInjector chaos(ctx, {.failures_per_hour = 60.0, .seed = 3});
  chaos.start(0.0, 50.0);
  EXPECT_THROW(chaos.start(10.0, 60.0), std::logic_error);
  EXPECT_THROW(chaos.start(0.0, 20.0), std::logic_error);
  chaos.start(50.0, 60.0);  // abutting the previous end is legal
  ctx.sim().run();
  EXPECT_EQ(ctx.cluster().alive_servers().size(), 6u);
}

TEST(Chaos, StopHaltsChainsAndAllowsRestart) {
  Context ctx(opts());
  ChaosInjector chaos(ctx, {.failures_per_hour = 36000.0,  // ~10 kills / s
                            .mean_repair_seconds = 0.5,
                            .min_alive = 2,
                            .flaky_task_probability = 0.7,
                            .seed = 21});
  chaos.start(0.0, 1000.0);
  int kills_at_stop = -1;
  ctx.sim().at(2.0, [&] {
    chaos.stop();
    kills_at_stop = chaos.kills();
    // The flaky window in force is reset immediately, not at the orphaned
    // t1 boundary.
    EXPECT_EQ(ctx.dag().tasks().flaky_task_probability(), 0.0);
  });
  ctx.sim().run();
  EXPECT_GT(kills_at_stop, 0);
  EXPECT_EQ(chaos.kills(), kills_at_stop);  // chains died with the epoch
  // In-flight repairs are deliberately not epoch-guarded: the cluster heals.
  EXPECT_EQ(chaos.restarts(), chaos.kills());
  EXPECT_EQ(ctx.cluster().alive_servers().size(), 6u);
  // After stop() a fresh window is legal even though the old t1 is far out.
  const SimTime t0 = ctx.sim().now();
  chaos.start(t0, t0 + 5.0);
  ctx.sim().run();
  EXPECT_GT(chaos.kills(), kills_at_stop);
}

TEST(Chaos, CorruptionProcessIsSeededAndCounted) {
  const auto soak = [](std::uint64_t seed) {
    Context ctx(opts());
    auto part = ctx.collection_partitioner(8, 256);
    std::vector<DatasetPtr> inputs;
    for (int i = 0; i < 2; ++i) {
      inputs.push_back(
          ctx.ingest(std::string("d").append(std::to_string(i)), hist(), part,
                     "logs"));
    }
    // Materialize cached blocks and shuffle outputs, then corrupt an idle
    // cluster so every arrival sees the same deterministic target list.
    ctx.dag().submit(
        Dataset::cogroup(inputs, part)->filter({.selectivity = 0.1}),
        ActionType::kCount, {}, [](const JobResult&) {});
    ctx.sim().run();
    ChaosInjector chaos(ctx, {.failures_per_hour = 0.0,
                              .corruptions_per_hour = 36000.0,
                              .seed = seed});
    const SimTime t0 = ctx.sim().now();
    chaos.start(t0, t0 + 5.0);
    ctx.sim().run();
    return std::pair<int, int>(chaos.corruptions(),
                               ctx.dag().failure_stats().corruptions_injected);
  };
  const auto a = soak(17);
  const auto b = soak(17);
  EXPECT_GT(a.first, 0);
  EXPECT_EQ(a.first, a.second);  // every successful injection counted once
  EXPECT_EQ(a, b);               // same seed, same corruption schedule
}

TEST(Chaos, CorruptionRateRequiresAnEnabledClass) {
  Context ctx(opts());
  EXPECT_THROW(ChaosInjector(ctx, {.corruptions_per_hour = 60.0,
                                   .corrupt_cache = false,
                                   .corrupt_spill = false,
                                   .corrupt_shuffle = false}),
               std::invalid_argument);
  EXPECT_THROW(ChaosInjector(ctx, {.corruptions_per_hour = -1.0}),
               std::invalid_argument);
}

TEST(Chaos, OverloadBurstsSubmitJobsThroughTheDriver) {
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  const int before = ctx.dag().jobs_completed();
  int factory_calls = 0;
  ChaosInjector chaos(ctx, {.failures_per_hour = 0.0,
                            .overload_bursts_per_hour = 3600.0,
                            .overload_burst_jobs = 4,
                            .overload_job_factory =
                                [&]() -> DatasetPtr {
                                  ++factory_calls;
                                  // Every other job is skipped (null
                                  // dataset) without aborting the burst.
                                  return factory_calls % 2 == 0
                                             ? nullptr
                                             : ds->filter({.selectivity = 0.1});
                                },
                            .seed = 13});
  const SimTime t0 = ctx.sim().now();
  chaos.start(t0, t0 + 5.0);
  ctx.sim().run();
  EXPECT_GE(chaos.overloads(), 1);
  EXPECT_EQ(factory_calls, 4 * chaos.overloads());
  // Each burst lands burst_jobs/2 real jobs (the other half returned null),
  // all of which run to completion through the ordinary driver path.
  EXPECT_EQ(ctx.dag().jobs_completed() - before,
            2 * chaos.overloads());
  EXPECT_EQ(ctx.dag().active_jobs(), 0);
}

TEST(Chaos, FailSlowProcessesFireAndHeal) {
  Context ctx(opts());
  ChaosInjector chaos(ctx, {.failures_per_hour = 0.0,
                            .disk_ramps_per_hour = 1200.0,
                            .mean_ramp_seconds = 4.0,
                            .ramp_max_disk_factor = 6.0,
                            .ramp_steps = 3,
                            .nic_brownouts_per_hour = 1200.0,
                            .mean_brownout_seconds = 3.0,
                            .stalls_per_hour = 1200.0,
                            .mean_stall_seconds = 2.0,
                            .seed = 23});
  chaos.start(0.0, 60.0);
  // Mid-window at least one fail-slow degradation should be in force.
  bool degraded_seen = false;
  for (int i = 1; i < 60; ++i) {
    ctx.sim().at(static_cast<SimTime>(i), [&] {
      for (ServerId s : ctx.cluster().alive_servers()) {
        if (ctx.cluster().server(s).degradation().degraded()) {
          degraded_seen = true;
        }
      }
    });
  }
  ctx.sim().run();
  EXPECT_GT(chaos.disk_ramps(), 0);
  EXPECT_GT(chaos.brownouts(), 0);
  EXPECT_GT(chaos.stalls(), 0);
  EXPECT_TRUE(degraded_seen);
  // Every episode recovered on its own once the window drained.
  for (ServerId s : ctx.cluster().alive_servers()) {
    EXPECT_FALSE(ctx.cluster().server(s).degradation().degraded());
  }
}

TEST(Chaos, StopCancelsFailSlowOnsetsAndClearsDegradations) {
  Context ctx(opts());
  ChaosInjector chaos(ctx, {.failures_per_hour = 0.0,
                            .disk_ramps_per_hour = 7200.0,
                            .mean_ramp_seconds = 500.0,  // outlives the stop
                            .ramp_steps = 4,
                            .nic_brownouts_per_hour = 7200.0,
                            .mean_brownout_seconds = 500.0,
                            .stalls_per_hour = 7200.0,
                            .mean_stall_seconds = 500.0,
                            .seed = 29});
  chaos.start(0.0, 1000.0);
  int ramps_at_stop = -1;
  ctx.sim().at(5.0, [&] {
    // With episodes this long something must be degraded right now.
    bool any = false;
    for (ServerId s : ctx.cluster().alive_servers()) {
      any = any || ctx.cluster().server(s).degradation().degraded();
    }
    EXPECT_TRUE(any);
    chaos.stop();
    ramps_at_stop = chaos.disk_ramps();
    // stop() clears active fail-slow degradations synchronously...
    for (ServerId s : ctx.cluster().alive_servers()) {
      EXPECT_FALSE(ctx.cluster().server(s).degradation().degraded());
    }
  });
  ctx.sim().run();
  // ...and cancels pending onsets, ramp steps and recoveries: nothing
  // re-degrades a server after the epoch bump, and the counters freeze.
  EXPECT_GT(ramps_at_stop, 0);
  EXPECT_EQ(chaos.disk_ramps(), ramps_at_stop);
  for (ServerId s : ctx.cluster().alive_servers()) {
    EXPECT_FALSE(ctx.cluster().server(s).degradation().degraded());
  }
  // A fresh window after stop() is legal and injects again.
  const SimTime t0 = ctx.sim().now();
  chaos.start(t0, t0 + 5.0);
  ctx.sim().run();
  EXPECT_GT(chaos.disk_ramps(), ramps_at_stop);
}

TEST(Chaos, FailSlowOverlappingStartThrows) {
  Context ctx(opts());
  ChaosInjector chaos(ctx, {.failures_per_hour = 0.0,
                            .nic_brownouts_per_hour = 60.0,
                            .seed = 37});
  chaos.start(0.0, 50.0);
  EXPECT_THROW(chaos.start(10.0, 60.0), std::logic_error);
  chaos.stop();
  chaos.start(10.0, 20.0);  // legal after stop()
  ctx.sim().run();
}

TEST(Chaos, FailSlowScheduleIsSeeded) {
  // Same seed -> identical fail-slow schedule, observed as identical
  // degradation state at 1 Hz and identical lifetime counters.
  const auto soak = [](std::uint64_t seed) {
    Context ctx(opts());
    ChaosInjector chaos(ctx, {.failures_per_hour = 0.0,
                              .disk_ramps_per_hour = 600.0,
                              .mean_ramp_seconds = 6.0,
                              .nic_brownouts_per_hour = 600.0,
                              .mean_brownout_seconds = 5.0,
                              .stalls_per_hour = 600.0,
                              .mean_stall_seconds = 3.0,
                              .seed = seed});
    chaos.start(0.0, 60.0);
    std::vector<double> samples;
    for (int i = 1; i < 60; ++i) {
      ctx.sim().at(static_cast<SimTime>(i), [&] {
        for (ServerId s : ctx.cluster().alive_servers()) {
          const auto& d = ctx.cluster().server(s).degradation();
          samples.push_back(d.cpu);
          samples.push_back(d.disk);
          samples.push_back(d.net);
        }
      });
    }
    ctx.sim().run();
    samples.push_back(static_cast<double>(chaos.disk_ramps()));
    samples.push_back(static_cast<double>(chaos.brownouts()));
    samples.push_back(static_cast<double>(chaos.stalls()));
    return samples;
  };
  const auto a = soak(41);
  const auto b = soak(41);
  const auto c = soak(43);
  EXPECT_GT(a.back(), 0.0);
  EXPECT_EQ(a, b);  // same seed, same schedule
  EXPECT_NE(a, c);  // different seed decorrelates
}

TEST(Chaos, GrayFailureModesFire) {
  ContextOptions o = opts();
  o.cluster.servers_per_rack = 3;  // two racks: partitions can spare one
  Context ctx(o);
  ChaosInjector chaos(ctx, {.failures_per_hour = 0.0,
                            .min_alive = 2,
                            .flaky_task_probability = 0.5,
                            .slow_nodes_per_hour = 600.0,
                            .mean_slow_seconds = 5.0,
                            .partitions_per_hour = 300.0,
                            .mean_partition_seconds = 2.0,
                            .seed = 13});
  chaos.start(0.0, 60.0);
  bool window_seen = false;
  ctx.sim().at(0.5, [&] {
    window_seen = ctx.dag().tasks().flaky_task_probability() == 0.5;
  });
  ctx.sim().run();
  EXPECT_TRUE(window_seen);
  EXPECT_EQ(ctx.dag().tasks().flaky_task_probability(), 0.0);  // cleared
  EXPECT_GT(chaos.slow_episodes(), 0);
  EXPECT_GT(chaos.partitions(), 0);
  // All slow episodes and partitions healed once the window drained.
  for (ServerId s : ctx.cluster().alive_servers()) {
    EXPECT_FALSE(ctx.cluster().server(s).degradation().degraded());
    EXPECT_TRUE(ctx.cluster().server(s).reachable());
  }
}

}  // namespace
}  // namespace stark
