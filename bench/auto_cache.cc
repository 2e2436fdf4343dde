// Auto-cache advisor ablation (PR 10): manual caching vs LRC-only vs
// auto-free-only vs the full advisor, on the two workloads the advisor
// targets (docs/CACHING.md).
//
//   interactive   the Fig 19/20 interactive-session shape: a streamed
//                 collection under memory pressure with cache_cogroup
//                 sessions. Each session caches its cogrouped window, runs
//                 one follow-up aggregation, and abandons the cogroup
//                 without unpersisting — the dead-dataset population the
//                 advisor's last-use analysis reclaims.
//   cogroup       the Fig 11/12 notebook shape: hourly wiki logs are
//                 ingested once, then one cogroup handle is filtered and
//                 counted repeatedly *without* a manual cache() call — the
//                 reused-intermediate population kFull promotion captures.
//
// The cross-arm comparable is `bytes_recomputed_all` — logical bytes of
// *any* non-source partition rebuilt from lineage, cached or not. (The
// narrower `bytes_recomputed` only counts cache-requested datasets, which
// would hide exactly the recomputes the manual arms pay for never caching
// the cogroup.) The CI gate asserts the full advisor never recomputes more
// than the manual arm on either workload. Results are emitted as JSON;
// `--smoke` runs a down-scaled sweep for CI and `--pinned` a fixed small
// scenario for scripts/bit_identity.sh (byte-identical across runs).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/metrics.h"
#include "bench_util.h"
#include "streaming/query_workload.h"

using namespace stark;

namespace {

constexpr int kServers = 8;
constexpr int kPartitions = 32;
constexpr int kGridBits = 6;
constexpr Key kDomain = 64 * 64;

struct Arm {
  const char* name;
  AutoCacheMode mode;
  EvictionPolicyKind policy;
};

constexpr Arm kArms[] = {
    {"manual", AutoCacheMode::kManual, EvictionPolicyKind::kLru},
    {"lrc_only", AutoCacheMode::kManual, EvictionPolicyKind::kLrc},
    {"auto_free_only", AutoCacheMode::kAutoFreeOnly, EvictionPolicyKind::kLru},
    {"full_advisor", AutoCacheMode::kFull, EvictionPolicyKind::kLru},
};

struct CellResult {
  CacheStats cache;
  AutoCacheStats advisor;
  long long evictions = 0;
  int jobs_issued = 0;
  int jobs_completed = 0;
  double mean_delay_ms = 0.0;
};

ContextOptions arm_options(const Arm& arm, Bytes ram) {
  ContextOptions opts = bench::paper_cluster(ConfigKind::kStarkH, kServers);
  opts.detail_task_metrics = false;
  opts.cluster.server.ram = ram;
  opts.cluster.cache.policy = arm.policy;
  opts.cluster.cache.pin_running_blocks = true;
  opts.auto_cache.mode = arm.mode;
  return opts;
}

// Interactive sessions over a streamed collection under memory pressure
// (the ablation_cache_policy fig19 cell, advisor arms added).
CellResult run_interactive(const Arm& arm, double hours, double query_rate,
                           Bytes ram) {
  ContextOptions opts = arm_options(arm, ram);
  // Grace must exceed the stream's batch interval (300 s below): live
  // timesteps are re-referenced only once per batch, and reclaiming one
  // during its score warm-up forces a recompute on the next query
  // (docs/CACHING.md covers this sizing rule).
  opts.auto_cache.free_grace_seconds = 450.0;
  opts.locality_wait = 0.3;
  opts.groups.initial_groups = 16;
  opts.groups.min_group_bytes = 1 * kMiB;
  opts.groups.max_group_bytes = 48 * kMiB;
  Context ctx(opts);
  MetricsCollector metrics(ctx.cluster());
  PartitionerPtr shared = ctx.collection_partitioner(kPartitions, kDomain);

  trace::TaxiTraceGen::Config tc;
  tc.grid_bits = kGridBits;
  tc.events_per_hour = 1.0e6;
  auto taxi = std::make_shared<trace::TaxiTraceGen>(tc);
  auto tweets = std::make_shared<trace::TweetGen>(trace::TweetGen::Config{});

  StreamConfig sc;
  sc.batch_interval = 300.0;
  sc.retention = 1800.0;
  sc.ns = "stream";
  GroupConfig gc = opts.groups;
  gc.grouped = ctx.run_config().grouped;
  gc.extendable = ctx.run_config().extendable;
  ctx.groups().register_namespace("stream", shared, gc);
  StreamContext stream(
      ctx.dag(), ctx.groups(), sc,
      [taxi, tweets](int /*step*/, SimTime) {
        return tweets->merge_with_taxi(taxi->histogram(12.0, 2, 1.0 / 12.0));
      },
      [shared](const KeyHistogram&, int) { return shared; });
  stream.start(static_cast<int>(hours * 12.0));

  QueryWorkload::Config qc;
  qc.rate = [query_rate](SimTime) { return query_rate; };
  qc.max_window_timesteps = 4;
  qc.min_window_timesteps = 2;
  qc.grid_bits = kGridBits;
  qc.region_cells = 16;
  qc.cache_cogroup = true;  // sessions cache, nobody unpersists
  qc.seed = 17;
  QueryWorkload wl(stream, ctx.dag(), qc,
                   [shared](const std::vector<DatasetPtr>&) { return shared; });
  wl.start(0.75 * sc.retention, hours * 3600.0);
  ctx.sim().run(hours * 3600.0 + 900.0);

  CellResult r;
  r.cache = ctx.dag().cache_stats();
  r.advisor = ctx.dag().auto_cache_stats();
  r.evictions = metrics.cache_evictions();
  r.jobs_issued = wl.issued();
  r.jobs_completed = wl.completed();
  if (wl.completed() > 0) r.mean_delay_ms = wl.delays().mean() * 1e3;
  return r;
}

// A notebook session: ingest hourly logs, then filter/count one shared
// cogroup handle repeatedly without ever calling cache() on it.
CellResult run_cogroup(const Arm& arm, int hours, Bytes per_hour,
                       int queries) {
  ContextOptions opts = arm_options(arm, 5.0 * kGiB);
  Context ctx(opts);
  MetricsCollector metrics(ctx.cluster());
  PartitionerPtr part = ctx.collection_partitioner(kPartitions, 4096);

  std::vector<DatasetPtr> logs;
  for (int h = 0; h < hours; ++h) {
    logs.push_back(ctx.ingest(std::string("hour").append(std::to_string(h)),
                              bench::wiki_hourly(h, per_hour), part, "logs"));
  }
  auto cg = Dataset::cogroup(logs, part);

  CellResult r;
  Distribution delays;
  for (int q = 0; q < queries; ++q) {
    const JobResult jr = ctx.count(cg->filter({.selectivity = 0.3}));
    ++r.jobs_issued;
    if (jr.completed) {
      ++r.jobs_completed;
      delays.add(jr.delay);
    }
  }
  r.cache = ctx.dag().cache_stats();
  r.advisor = ctx.dag().auto_cache_stats();
  r.evictions = metrics.cache_evictions();
  if (delays.count() > 0) r.mean_delay_ms = delays.mean() * 1e3;
  return r;
}

void emit_cell(bench::JsonEmitter& json, const Arm& arm,
               const CellResult& r) {
  json.begin_object();
  json.field("arm", arm.name);
  json.field("mode", auto_cache_mode_name(arm.mode));
  json.field("policy", eviction_policy_name(arm.policy));
  json.field("recomputed_bytes", r.cache.bytes_recomputed_all, "%.0f");
  json.field("recomputes", r.cache.recomputes_all);
  json.field("bytes_from_cache", r.cache.bytes_from_cache, "%.0f");
  json.field("evictions", r.evictions);
  json.field("auto_caches", r.advisor.auto_caches);
  json.field("auto_frees", r.advisor.auto_frees);
  json.field("bytes_auto_promoted", r.advisor.bytes_promoted, "%.0f");
  json.field("bytes_auto_freed", r.advisor.bytes_freed, "%.0f");
  json.field("jobs_issued", r.jobs_issued);
  json.field("jobs_completed", r.jobs_completed);
  json.field("mean_delay_ms", r.mean_delay_ms, "%.2f");
  json.end_object();
}

void emit_headline(bench::JsonEmitter& json, const char* workload,
                   double manual_bytes, double full_bytes) {
  const double reduction =
      manual_bytes > 0.0 ? (1.0 - full_bytes / manual_bytes) * 100.0 : 0.0;
  json.begin_object();
  json.field("workload", workload);
  json.field("manual_recomputed_bytes", manual_bytes, "%.0f");
  json.field("full_recomputed_bytes", full_bytes, "%.0f");
  json.field("reduction_pct", reduction, "%.1f");
  json.field("full_beats_manual", full_bytes <= manual_bytes);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool pinned = false;
  double ram_mb = 192.0;  // interactive-workload pressure knob
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--pinned") == 0) {
      pinned = true;
    } else if (std::strcmp(argv[i], "--ram-mb") == 0 && i + 1 < argc) {
      ram_mb = std::atof(argv[++i]);
    }
  }

  // interactive: simulated hours / session rate; cogroup: ingested hours,
  // bytes per hourly log, repeated queries.
  double hours = 1.5, rate = 2.0;
  int cg_hours = 6, cg_queries = 10;
  Bytes cg_per_hour = 256 * kMiB;
  if (pinned) {
    hours = 0.5;
    rate = 1.0;
    cg_hours = 3;
    cg_queries = 4;
    cg_per_hour = 64 * kMiB;
  } else if (smoke) {
    hours = 0.75;
    rate = 1.0;
    cg_hours = 4;
    cg_queries = 6;
    cg_per_hour = 96 * kMiB;
  }
  const Bytes ram = ram_mb * kMiB;

  bench::JsonEmitter json;
  json.begin_object();
  json.field("bench", "auto_cache");
  json.field("schema", 1);
  json.field("smoke", smoke);
  json.field("pinned", pinned);
  json.field("servers", kServers);
  json.field("ram_mb", ram_mb, "%.0f");

  double manual_inter = 0.0, full_inter = 0.0;
  double manual_cg = 0.0, full_cg = 0.0;

  json.begin_array("workloads");
  json.begin_object();
  json.field("name", "interactive");
  json.begin_array("arms");
  for (const Arm& arm : kArms) {
    std::fprintf(stderr, "[auto_cache] interactive / %s...\n", arm.name);
    const CellResult r = run_interactive(arm, hours, rate, ram);
    emit_cell(json, arm, r);
    if (std::strcmp(arm.name, "manual") == 0) {
      manual_inter = r.cache.bytes_recomputed_all;
    } else if (std::strcmp(arm.name, "full_advisor") == 0) {
      full_inter = r.cache.bytes_recomputed_all;
    }
  }
  json.end_array();
  json.end_object();

  json.begin_object();
  json.field("name", "cogroup");
  json.begin_array("arms");
  for (const Arm& arm : kArms) {
    std::fprintf(stderr, "[auto_cache] cogroup / %s...\n", arm.name);
    const CellResult r = run_cogroup(arm, cg_hours, cg_per_hour, cg_queries);
    emit_cell(json, arm, r);
    if (std::strcmp(arm.name, "manual") == 0) {
      manual_cg = r.cache.bytes_recomputed_all;
    } else if (std::strcmp(arm.name, "full_advisor") == 0) {
      full_cg = r.cache.bytes_recomputed_all;
    }
  }
  json.end_array();
  json.end_object();
  json.end_array();

  json.begin_array("headlines");
  emit_headline(json, "interactive", manual_inter, full_inter);
  emit_headline(json, "cogroup", manual_cg, full_cg);
  json.end_array();
  json.end_object();
  return 0;
}
