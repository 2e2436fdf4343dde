// The cache advisor across features: a small Fig 20 diurnal replay with the
// remote-memory pool on, timesteps stored kMemoryAndDisk and interactive
// sessions that cache their cogroup. Turning the advisor on must never cost
// more than leaving it off: the full advisor may not recompute more nor
// slow the median job relative to manual caching.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "api/context.h"
#include "streaming/query_workload.h"
#include "trace/taxi.h"
#include "trace/tweet.h"

namespace stark {
namespace {

constexpr int kGridBits = 6;
constexpr Key kDomain = 64 * 64;

struct ReplayResult {
  long long recomputes_all = 0;
  double delay_p50 = 0.0;
  int issued = 0;
  int completed = 0;
  AutoCacheStats advisor;
};

ReplayResult diurnal_replay(AutoCacheMode mode) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  o.cluster.server.cores = 8;
  o.cluster.server.ram = 48 * kMiB;
  o.cluster.cache.pin_running_blocks = true;
  o.cluster.remote_memory.enabled = true;
  o.cluster.remote_memory.capacity = 768 * kMiB;
  o.detail_task_metrics = false;
  o.locality_wait = 0.3;
  o.groups.initial_groups = 8;
  o.groups.min_group_bytes = 1 * kMiB;
  o.groups.max_group_bytes = 48 * kMiB;
  o.auto_cache.mode = mode;  // default grace period and protection
  Context ctx(o);
  PartitionerPtr part = ctx.collection_partitioner(16, kDomain);

  trace::TaxiTraceGen::Config tc;
  tc.grid_bits = kGridBits;
  tc.events_per_hour = 5.0e5;
  tc.diurnal_amplitude = 0.6;
  auto taxi = std::make_shared<trace::TaxiTraceGen>(tc);
  auto tweets = std::make_shared<trace::TweetGen>(trace::TweetGen::Config{});

  StreamConfig sc;
  sc.batch_interval = 300.0;
  sc.retention = 5400.0;
  sc.ns = "stream";
  sc.storage_level = Dataset::StorageLevel::kMemoryAndDisk;
  GroupConfig gc = o.groups;
  gc.grouped = ctx.run_config().grouped;
  gc.extendable = ctx.run_config().extendable;
  ctx.groups().register_namespace("stream", part, gc);
  StreamContext stream(
      ctx.dag(), ctx.groups(), sc,
      [taxi, tweets](int, SimTime t) {
        const double hour = std::fmod(t / 3600.0, 24.0);
        return tweets->merge_with_taxi(taxi->histogram(hour, 2, 1.0 / 12.0));
      },
      [part](const KeyHistogram&, int) { return part; });
  stream.start(9);

  QueryWorkload::Config qc;
  qc.rate = [](SimTime) { return 0.5; };
  qc.min_window_timesteps = 2;
  qc.max_window_timesteps = 6;
  qc.grid_bits = kGridBits;
  qc.region_cells = 16;
  qc.cache_cogroup = true;  // each session caches its cogroup for a follow-up
  qc.seed = 17;
  QueryWorkload wl(stream, ctx.dag(), qc,
                   [part](const std::vector<DatasetPtr>&) { return part; });
  wl.start(900.0, 2400.0);
  ctx.sim().run(3000.0);

  ReplayResult r;
  r.recomputes_all = ctx.dag().cache_stats().recomputes_all;
  r.delay_p50 = wl.delays().median();
  r.issued = wl.issued();
  r.completed = wl.completed();
  r.advisor = ctx.dag().auto_cache_stats();
  return r;
}

TEST(AutoCacheReplay, FullAdvisorNeverCostsMoreThanManual) {
  const ReplayResult manual = diurnal_replay(AutoCacheMode::kManual);
  const ReplayResult full = diurnal_replay(AutoCacheMode::kFull);
  // The replay must be busy enough to mean something: sessions complete,
  // blocks get rebuilt from lineage, and the advisor acts.
  ASSERT_GT(manual.completed, 100);
  ASSERT_GT(manual.recomputes_all, 0);
  EXPECT_EQ(full.completed, full.issued);
  EXPECT_GT(full.advisor.auto_frees + full.advisor.auto_caches, 0);

  EXPECT_LE(full.recomputes_all, manual.recomputes_all);
  EXPECT_LE(full.delay_p50, manual.delay_p50);
}

}  // namespace
}  // namespace stark
