#include "api/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/chaos.h"
#include "api/context.h"
#include "trace/wiki.h"

namespace stark {
namespace {

KeyHistogram hist() {
  trace::WikiTraceGen::Config c;
  c.num_urls = 256;
  return trace::WikiTraceGen(c).histogram(64 * kMiB, 0.9);
}

TEST(Metrics, AggregatesJobResults) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  for (int q = 0; q < 3; ++q) {
    metrics.observe_job(ctx.count(ds));
  }
  EXPECT_EQ(metrics.jobs(), 3);
  EXPECT_EQ(metrics.tasks(), 24);
  EXPECT_EQ(metrics.node_local_fraction(), 1.0);
  EXPECT_GT(metrics.bytes_from_cache(), 0.0);
  EXPECT_EQ(metrics.bytes_from_net(), 0.0);
  EXPECT_NEAR(metrics.cache_hit_ratio(), 1.0, 1e-9);
  EXPECT_EQ(static_cast<int>(metrics.job_delays().count()), 3);
}

TEST(Metrics, CountsCacheEvents) {
  ClusterConfig cc;
  cc.num_servers = 1;
  cc.server.ram = 1000.0;
  cc.server.storage_fraction = 0.5;
  Cluster cluster(cc);
  MetricsCollector metrics(cluster);
  cluster.insert_block(0, {1, 0}, 300.0);
  cluster.insert_block(0, {2, 0}, 300.0);  // evicts {1,0}
  EXPECT_EQ(metrics.cache_insertions(), 2);
  EXPECT_EQ(metrics.cache_evictions(), 1);
}

TEST(Metrics, EmptyCollectorIsZero) {
  ContextOptions o;
  o.cluster.num_servers = 1;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  EXPECT_EQ(metrics.jobs(), 0);
  EXPECT_EQ(metrics.node_local_fraction(), 0.0);
  EXPECT_EQ(metrics.cache_hit_ratio(), 0.0);
  EXPECT_EQ(metrics.gc_fraction(), 0.0);
  EXPECT_FALSE(metrics.summary(ctx.dag()).empty());
}

TEST(Metrics, SummaryMentionsKeyNumbers) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  metrics.observe_job(ctx.count(ds));
  const std::string s = metrics.summary(ctx.dag());
  EXPECT_NE(s.find("jobs: 1"), std::string::npos);
  EXPECT_NE(s.find("node-local: 100%"), std::string::npos);
  EXPECT_NE(s.find("cache hit 100%"), std::string::npos);
  // The probe counts are the scheduler's own, read live.
  const CacheStats& cache = ctx.dag().cache_stats();
  EXPECT_GT(cache.hits, 0);
  EXPECT_NE(s.find(std::string("policy: lru  probes: ")
                       .append(std::to_string(cache.hits))
                       .append(" hit / ")
                       .append(std::to_string(cache.misses))
                       .append(" miss")),
            std::string::npos);
}

TEST(Metrics, ClusterUtilizationTracksBusyTime) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  EXPECT_DOUBLE_EQ(
      MetricsCollector::cluster_utilization(ctx.cluster(), ctx.sim().now()),
      0.0);
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.count(ds);
  const double u =
      MetricsCollector::cluster_utilization(ctx.cluster(), ctx.sim().now());
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 1.0);
}

TEST(Metrics, SurfacesFailureCounters) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.kill_server(1);
  metrics.observe_job(ctx.count(ds));
  ctx.sim().run();  // let the heartbeat grid detection fire
  EXPECT_EQ(ctx.dag().failure_stats().heartbeat_detections, 1);
  EXPECT_EQ(metrics.aborted_jobs(), 0);
  const std::string s = metrics.summary(ctx.dag());
  EXPECT_NE(s.find("detections: 1"), std::string::npos);
}

TEST(Metrics, CountsAbortedJobs) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.dag().tasks().set_flaky_task_probability(1.0);
  metrics.observe_job(ctx.count(ds));
  EXPECT_EQ(metrics.aborted_jobs(), 1);
  EXPECT_GT(ctx.dag().failure_stats().task_failures, 0);
  EXPECT_NE(metrics.summary(ctx.dag()).find("(1 aborted)"),
            std::string::npos);
}

TEST(Metrics, UtilizationAndSummaryUnderChaos) {
  // A stream of cogroup jobs while servers die, slow down and come back:
  // the collector must keep its invariants (bounded utilization, every
  // issued job observed, a coherent summary) under real failure churn.
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 6;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 2; ++i) {
    inputs.push_back(
        ctx.ingest(std::string("d").append(std::to_string(i)), hist(), part,
                   "logs"));
  }
  ChaosInjector chaos(ctx, {.failures_per_hour = 600.0,
                            .mean_repair_seconds = 5.0,
                            .min_alive = 2,
                            .slow_nodes_per_hour = 600.0,
                            .seed = 23});
  const SimTime t0 = ctx.sim().now();
  chaos.start(t0, t0 + 60.0);
  int observed = 0;
  for (int q = 0; q < 12; ++q) {
    ctx.sim().at(t0 + 5.0 * q, [&] {
      ctx.dag().submit(Dataset::cogroup(inputs, part), ActionType::kCount, {},
                       [&](const JobResult& r) {
                         metrics.observe_job(r);
                         ++observed;
                       });
    });
  }
  ctx.sim().run();

  EXPECT_EQ(observed, 12);
  EXPECT_EQ(metrics.jobs(), 12);
  // Busy time never exceeds (alive) capacity, and the run did real work.
  const double u =
      MetricsCollector::cluster_utilization(ctx.cluster(), ctx.sim().now());
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 1.0);
  // The chaos window produced observable failure machinery activity.
  EXPECT_GE(chaos.kills(), 1);
  const FailureStats& failures = ctx.dag().failure_stats();
  EXPECT_GE(failures.heartbeat_detections + failures.task_retries +
                failures.fetch_failures,
            1);
  // summary() prints the engine's live counters; no snapshot call needed.
  const std::string s = metrics.summary(ctx.dag());
  EXPECT_NE(s.find("jobs: 12"), std::string::npos);
  EXPECT_NE(s.find("detections: " +
                   std::to_string(failures.heartbeat_detections)),
            std::string::npos);
  EXPECT_NE(s.find(std::string("retries ").append(
                std::to_string(failures.task_retries))),
            std::string::npos);
  EXPECT_NE(s.find(std::string("probes: ")
                       .append(std::to_string(ctx.dag().cache_stats().hits))
                       .append(" hit")),
            std::string::npos);
}

TEST(Metrics, ResetClearsFailureSnapshotToo) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.kill_server(1);
  metrics.observe_job(ctx.count(ds));
  ctx.sim().run();  // let the heartbeat grid detection fire
  ASSERT_GT(metrics.cache_insertions(), 0);
  metrics.reset();
  EXPECT_EQ(metrics.jobs(), 0);
  EXPECT_EQ(metrics.aborted_jobs(), 0);
  EXPECT_EQ(metrics.tasks(), 0);
  EXPECT_EQ(metrics.job_delays().count(), 0u);
  EXPECT_EQ(metrics.cache_insertions(), 0);
  EXPECT_EQ(metrics.cache_evictions(), 0);
}

TEST(Metrics, SurfacesOverloadCounters) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  o.overload.admission_enabled = true;
  o.overload.max_in_flight_jobs = 1;
  o.overload.max_pending_jobs = 1;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  // Three synchronous submits against a 1-slot / 1-pending app: the third
  // is rejected at the door.
  for (int i = 0; i < 3; ++i) {
    ctx.dag().submit(ds, ActionType::kCount, {}, [](const JobResult&) {});
  }
  ctx.sim().run();
  const OverloadStats& overload = ctx.dag().overload_stats();
  EXPECT_EQ(overload.jobs_admitted, 1);
  EXPECT_EQ(overload.jobs_queued, 1);
  EXPECT_EQ(overload.jobs_rejected, 1);
  EXPECT_EQ(overload.jobs_shed, 0);
  EXPECT_NE(metrics.summary(ctx.dag())
                .find("overload: admitted 1  queued 1  rejected 1  shed 0"),
            std::string::npos);
}

TEST(Metrics, PerTenantRollupsAndDelaySpread) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  auto run_as = [&](const std::string& tenant, int jobs) {
    for (int q = 0; q < jobs; ++q) {
      ctx.dag().submit(ds, ActionType::kCount,
                       SubmitOptions{.tenant = tenant},
                       [&](const JobResult& r) { metrics.observe_job(r); });
    }
    ctx.sim().run();
  };
  run_as("a", 2);
  run_as("b", 3);

  const auto& tenants = metrics.per_tenant();
  ASSERT_EQ(tenants.size(), 2u);  // first-observed order
  EXPECT_EQ(tenants[0].tenant, "a");
  EXPECT_EQ(tenants[0].jobs, 2);
  EXPECT_EQ(tenants[1].tenant, "b");
  EXPECT_EQ(tenants[1].jobs, 3);
  EXPECT_EQ(tenants[0].aborted, 0);
  EXPECT_GT(tenants[0].delays.mean(), 0.0);
  // Identical jobs on an idle cluster: the per-tenant means are close, so
  // the spread sits near 1 (and is always >= 1 by construction).
  EXPECT_GE(metrics.tenant_delay_spread(), 1.0);
  EXPECT_LT(metrics.tenant_delay_spread(), 1.5);
  // Multi-tenant runs surface the per-tenant block in the summary.
  EXPECT_NE(metrics.summary(ctx.dag()).find("tenants: 2"), std::string::npos);

  metrics.reset();
  EXPECT_TRUE(metrics.per_tenant().empty());
  EXPECT_DOUBLE_EQ(metrics.tenant_delay_spread(), 1.0);
}

TEST(Metrics, PerTenantOverloadSnapshots) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  o.overload.admission_enabled = true;
  o.overload.max_in_flight_jobs = 1;
  o.overload.max_pending_jobs = 1;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  // Tenant "hot" over-submits against its 1-slot / 1-pending queue while
  // "cold" stays within limits; the per-tenant summary lines keep them
  // apart, read live from DagScheduler::tenant_overload_stats().
  for (int i = 0; i < 3; ++i) {
    ctx.dag().submit(ds, ActionType::kCount, SubmitOptions{.tenant = "hot"},
                     [&](const JobResult& r) { metrics.observe_job(r); });
  }
  ctx.dag().submit(ds, ActionType::kCount, SubmitOptions{.tenant = "cold"},
                   [&](const JobResult& r) { metrics.observe_job(r); });
  ctx.sim().run();

  const std::string s = metrics.summary(ctx.dag());
  auto tenant_line = [&](const std::string& name) {
    const std::size_t at = s.find("  tenant " + name + " ");
    EXPECT_NE(at, std::string::npos) << name;
    if (at == std::string::npos) return std::string{};
    return s.substr(at, s.find('\n', at) - at);
  };
  const std::string hot = tenant_line("hot");
  const std::string cold = tenant_line("cold");
  EXPECT_NE(hot.find("rejected 1"), std::string::npos) << hot;  // 3rd bounced
  EXPECT_NE(cold.find("rejected 0"), std::string::npos) << cold;
  const TenantId hot_id = ctx.dag().tenants().find("hot");
  ASSERT_NE(hot_id, kInvalidId);
  EXPECT_EQ(ctx.dag().tenant_overload_stats()[hot_id].jobs_rejected, 1);
  const TenantId cold_id = ctx.dag().tenants().find("cold");
  ASSERT_NE(cold_id, kInvalidId);
  EXPECT_EQ(ctx.dag().tenant_overload_stats()[cold_id].jobs_rejected, 0);
  EXPECT_EQ(ctx.dag().tenant_overload_stats()[cold_id].jobs_admitted, 1);
}

}  // namespace
}  // namespace stark
