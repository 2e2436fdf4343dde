// Perf-regression harness (PR 4): wall-clock, peak RSS, events/sec and
// tasks/sec for a fixed set of engine-saturating scenarios, emitted as the
// BENCH_PR4.json schema.
//
// Unlike the figure benches (which report *simulated* time), this harness
// measures how fast the simulator itself runs: the same deterministic
// workloads, timed with a wall clock. Scenarios:
//
//   event_churn        raw EventQueue push/pop/cancel throughput with a
//                      bounded live set — pins the free-list memory bound
//                      (RSS must not grow with total events ever pushed).
//   backlog_storm      hundreds of task sets queued FIFO on a small
//                      cluster — pins the scheduler's per-event offer-loop
//                      and set-retirement costs under deep backlog.
//   fig19_constant_rate the paper's Fig 19/20 operating point (constant
//                      20 jobs/s of interactive queries over a streamed
//                      collection) — the end-to-end hot path.
//   chaos_soak         overlapping query waves under seeded kill/flaky/slow
//                      chaos — exercises parked sets, retries and failure
//                      cleanup paths.
//
// Every scenario is seeded and deterministic in simulated time; only the
// wall-clock side varies across machines. scripts/check_perf_regression.py
// compares a fresh run against the committed baseline and fails CI on a
// >25% wall-clock regression. See docs/PERFORMANCE.md for how to read the
// output.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "api/chaos.h"
#include "bench_util.h"
#include "common/rng.h"
#include "sim/event_queue.h"
#include "streaming/query_workload.h"

using namespace stark;

namespace {

double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
#endif
#else
  return 0.0;
#endif
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct ScenarioResult {
  std::string name;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t tasks = 0;
  int jobs_completed = 0;
  int jobs_aborted = 0;
  double rss_growth_mib = 0.0;
  // Scenario-specific extras, emitted verbatim as "key": value pairs.
  std::vector<std::pair<std::string, double>> extras;
};

// --- event_churn -------------------------------------------------------------
// A bounded live set (10k events) churned through `total` push/pop cycles,
// with every 7th event cancelled and replaced. Memory must stay O(live):
// before the free-list, the queue's id-indexed slot vectors grew with the
// total number of events ever pushed.
ScenarioResult event_churn(double scale) {
  ScenarioResult r;
  r.name = "event_churn";
  const double rss0 = peak_rss_mib();
  WallTimer wall;

  sim::EventQueue q;
  Rng rng(0xE7E7ULL);
  constexpr int kLive = 10000;
  const std::uint64_t total =
      static_cast<std::uint64_t>(20'000'000 * std::max(0.05, scale));
  double now = 0.0;
  std::uint64_t executed = 0;
  std::vector<sim::EventId> recent;
  recent.reserve(kLive);
  for (int i = 0; i < kLive; ++i) {
    recent.push_back(q.push(rng.next_double(), [] {}));
  }
  std::uint64_t pushed = kLive;
  while (pushed < total) {
    auto ev = q.pop();
    now = ev.time;
    ++executed;
    q.push(now + rng.next_double(), [] {});
    ++pushed;
    if (pushed % 7 == 0) {
      // Cancel a mid-age event and replace it, like a rearmed timer.
      const std::size_t victim = pushed % recent.size();
      q.cancel(recent[victim]);
      recent[victim] = q.push(now + rng.next_double(), [] {});
      ++pushed;
    }
  }
  while (!q.empty()) {
    q.pop();
    ++executed;
  }

  r.wall_seconds = wall.seconds();
  r.sim_seconds = now;
  r.events = executed;
  r.rss_growth_mib = std::max(0.0, peak_rss_mib() - rss0);
  r.extras.emplace_back("events_pushed", static_cast<double>(pushed));
  r.extras.emplace_back("live_events", static_cast<double>(kLive));
  return r;
}

// --- backlog_storm -----------------------------------------------------------
// A small cluster buried under a deep FIFO of single-stage cogroup jobs:
// submissions outpace capacity ~10x, so hundreds of task sets queue while
// completions fire scheduler passes on every event.
ScenarioResult backlog_storm(double scale) {
  ScenarioResult r;
  r.name = "backlog_storm";
  const double rss0 = peak_rss_mib();
  WallTimer wall;

  constexpr int kServers = 8;
  constexpr int kPartitions = 24;
  const int jobs = static_cast<int>(1200 * std::max(0.05, scale));
  constexpr double kSubmitWindow = 24.0;  // ~50 jobs/s offered

  ContextOptions o = bench::paper_cluster(ConfigKind::kStarkH, kServers);
  o.cluster.server.cores = 4;
  o.detail_task_metrics = false;
  Context ctx(o);
  auto part = ctx.collection_partitioner(kPartitions, 4096);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(ctx.ingest(std::string("storm").append(std::to_string(i)),
                                bench::wiki_hourly(i, 150 * kMiB), part,
                                "storm"));
  }

  const SimTime t0 = ctx.sim().now();
  int completed = 0;
  int aborted = 0;
  std::size_t peak_sets = 0;
  for (int q = 0; q < jobs; ++q) {
    const SimTime at = t0 + kSubmitWindow * q / jobs;
    ctx.sim().at(at, [&] {
      auto cg = Dataset::cogroup(inputs, part, "storm.cogroup");
      auto filtered = cg->filter({.selectivity = 0.1}, "storm.filter");
      ctx.dag().submit(filtered, ActionType::kCount, {},
                       [&](const JobResult& res) {
        if (res.completed) {
          ++completed;
        } else {
          ++aborted;
        }
      });
      peak_sets = std::max(peak_sets, ctx.dag().tasks().pending_task_sets());
    });
  }
  ctx.sim().run();

  r.wall_seconds = wall.seconds();
  r.sim_seconds = ctx.sim().now() - t0;
  r.events = ctx.sim().executed_events();
  r.tasks = ctx.dag().tasks().tasks_completed();
  r.jobs_completed = completed;
  r.jobs_aborted = aborted;
  r.rss_growth_mib = std::max(0.0, peak_rss_mib() - rss0);
  r.extras.emplace_back("peak_pending_sets", static_cast<double>(peak_sets));
  return r;
}

// --- fig19_constant_rate -----------------------------------------------------
// The paper's Fig 19/20 operating point: a streamed taxi+tweet collection
// with interactive cogroup-filter-count queries arriving at a constant
// 20 jobs/s, Stark-H configuration.
ScenarioResult fig19_constant_rate(double scale) {
  ScenarioResult r;
  r.name = "fig19_constant_rate";
  const double rss0 = peak_rss_mib();
  WallTimer wall;

  constexpr int kPartitions = 64;
  constexpr int kGridBits = 6;
  constexpr Key kDomain = 64 * 64;
  constexpr double kRate = 20.0;
  const double measured = 120.0 * std::max(0.05, scale);

  ContextOptions opts = bench::paper_cluster(ConfigKind::kStarkH, 40);
  opts.detail_task_metrics = false;
  opts.locality_wait = 0.3;
  opts.groups.initial_groups = 32;
  opts.groups.min_group_bytes = 1 * kMiB;
  opts.groups.max_group_bytes = 48 * kMiB;
  Context ctx(opts);
  PartitionerPtr shared = ctx.collection_partitioner(kPartitions, kDomain);

  trace::TaxiTraceGen::Config tc;
  tc.grid_bits = kGridBits;
  tc.events_per_hour = 1.0e6;
  auto taxi = std::make_shared<trace::TaxiTraceGen>(tc);
  auto tweets = std::make_shared<trace::TweetGen>(trace::TweetGen::Config{});

  StreamConfig sc;
  sc.batch_interval = 300.0;
  sc.retention = 3600.0;
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
  stream.start(10);

  QueryWorkload::Config qc;
  qc.rate = [](SimTime) { return kRate; };
  qc.max_window_timesteps = 4;
  qc.min_window_timesteps = 2;
  qc.grid_bits = kGridBits;
  qc.region_cells = 16;
  qc.seed = 17;
  QueryWorkload wl(stream, ctx.dag(), qc,
                   [shared](const std::vector<DatasetPtr>&) { return shared; });
  const double t0 = 2700.0;
  const double t1 = t0 + measured;
  wl.start(t0, t1);
  ctx.sim().run(t1 + 120.0);

  r.wall_seconds = wall.seconds();
  r.sim_seconds = ctx.sim().now();
  r.events = ctx.sim().executed_events();
  r.tasks = ctx.dag().tasks().tasks_completed();
  r.jobs_completed = wl.completed();
  r.jobs_aborted = wl.issued() - wl.completed();
  r.rss_growth_mib = std::max(0.0, peak_rss_mib() - rss0);
  r.extras.emplace_back("mean_delay_ms",
                        wl.completed() > 0 ? wl.delays().mean() * 1e3 : -1.0);
  return r;
}

// --- chaos_soak --------------------------------------------------------------
// Overlapping query waves under seeded kill/repair, flaky-task and slow-node
// chaos: parked sets, retries, exclusions and executor-loss cleanup all fire
// while the scheduler is busy.
ScenarioResult chaos_soak(double scale) {
  ScenarioResult r;
  r.name = "chaos_soak";
  const double rss0 = peak_rss_mib();
  WallTimer wall;

  constexpr int kServers = 12;
  constexpr int kPartitions = 24;
  const int jobs = static_cast<int>(160 * std::max(0.05, scale));
  constexpr double kSpacing = 0.4;

  ContextOptions o = bench::paper_cluster(ConfigKind::kStarkH, kServers);
  o.detail_task_metrics = false;
  Context ctx(o);
  auto part = ctx.collection_partitioner(kPartitions, 4096);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(ctx.ingest(std::string("soak").append(std::to_string(i)),
                                bench::wiki_hourly(i, 200 * kMiB), part,
                                "soak"));
  }

  const SimTime t0 = ctx.sim().now();
  ChaosInjector::Config cc;
  cc.failures_per_hour = 360.0;
  cc.mean_repair_seconds = 5.0;
  cc.min_alive = kServers / 2;
  cc.flaky_task_probability = 0.05;
  cc.slow_nodes_per_hour = 120.0;
  cc.mean_slow_seconds = 8.0;
  cc.seed = 97;
  ChaosInjector chaos(ctx, cc);
  chaos.start(t0, t0 + jobs * kSpacing + 30.0);

  int completed = 0;
  int aborted = 0;
  for (int q = 0; q < jobs; ++q) {
    ctx.sim().at(t0 + kSpacing * q, [&] {
      auto cg = Dataset::cogroup(inputs, part, "soak.cogroup");
      auto filtered = cg->filter({.selectivity = 0.1}, "soak.filter");
      ctx.dag().submit(filtered, ActionType::kCount, {},
                       [&](const JobResult& res) {
        if (res.completed) {
          ++completed;
        } else {
          ++aborted;
        }
      });
    });
  }
  ctx.sim().run();

  r.wall_seconds = wall.seconds();
  r.sim_seconds = ctx.sim().now() - t0;
  r.events = ctx.sim().executed_events();
  r.tasks = ctx.dag().tasks().tasks_completed();
  r.jobs_completed = completed;
  r.jobs_aborted = aborted;
  r.rss_growth_mib = std::max(0.0, peak_rss_mib() - rss0);
  return r;
}

// --- multitenant_fanout ------------------------------------------------------
// Fair-share scheduling overhead at high tenant counts: 24 tenants with
// mixed weights hammer one collection concurrently, so every scheduling
// pass scans the per-tenant ready buckets and every completion rebalances
// the weighted shares. Gates the tenant bookkeeping added in PR 7.
ScenarioResult multitenant_fanout(double scale) {
  ScenarioResult r;
  r.name = "multitenant_fanout";
  const double rss0 = peak_rss_mib();
  WallTimer wall;

  constexpr int kServers = 16;
  constexpr int kPartitions = 32;
  constexpr int kTenants = 24;
  const int jobs = static_cast<int>(10000 * std::max(0.05, scale));
  constexpr double kSpacing = 0.05;

  ContextOptions o = bench::paper_cluster(ConfigKind::kStarkH, kServers);
  o.detail_task_metrics = false;
  o.tenants.fair_share = true;
  for (int t = 0; t < kTenants; ++t) {
    char name[16];
    std::snprintf(name, sizeof(name), "t%02d", t);
    o.tenants.tenants.push_back(
        {name, t % 3 == 0 ? 2.0 : 1.0, 0.0, 0, 0});
  }
  Context ctx(o);
  auto part = ctx.collection_partitioner(kPartitions, 4096);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(ctx.ingest(std::string("mt").append(std::to_string(i)),
                                bench::wiki_hourly(i, 200 * kMiB), part, "mt"));
  }

  const SimTime t0 = ctx.sim().now();
  int completed = 0;
  int aborted = 0;
  for (int q = 0; q < jobs; ++q) {
    ctx.sim().at(t0 + kSpacing * q, [&, q] {
      auto cg = Dataset::cogroup(inputs, part, "mt.cogroup");
      auto filtered = cg->filter({.selectivity = 0.1}, "mt.filter");
      ctx.dag().submit(filtered, ActionType::kCount,
                       SubmitOptions{.tenant = o.tenants.tenants[
                           static_cast<std::size_t>(q % kTenants)].name},
                       [&](const JobResult& res) {
        if (res.completed) {
          ++completed;
        } else {
          ++aborted;
        }
      });
    });
  }
  ctx.sim().run();

  r.wall_seconds = wall.seconds();
  r.sim_seconds = ctx.sim().now() - t0;
  r.events = ctx.sim().executed_events();
  r.tasks = ctx.dag().tasks().tasks_completed();
  r.jobs_completed = completed;
  r.jobs_aborted = aborted;
  r.rss_growth_mib = std::max(0.0, peak_rss_mib() - rss0);
  return r;
}

void emit(bench::JsonEmitter& json, const ScenarioResult& r) {
  json.begin_object();
  json.field("name", r.name);
  json.field("sim_seconds", r.sim_seconds);
  json.field("wall_seconds", r.wall_seconds);
  json.field("events_executed", static_cast<unsigned long long>(r.events));
  json.field("events_per_wall_second",
             r.wall_seconds > 0.0
                 ? static_cast<double>(r.events) / r.wall_seconds
                 : 0.0,
             "%.1f");
  json.field("tasks_completed", static_cast<unsigned long long>(r.tasks));
  json.field("tasks_per_wall_second",
             r.wall_seconds > 0.0
                 ? static_cast<double>(r.tasks) / r.wall_seconds
                 : 0.0,
             "%.1f");
  json.field("jobs_completed", r.jobs_completed);
  json.field("jobs_aborted", r.jobs_aborted);
  json.field("rss_growth_mib", r.rss_growth_mib, "%.1f");
  for (const auto& [key, value] : r.extras) {
    json.field(key.c_str(), value, "%.1f");
  }
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  const char* only = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[++i];  // run a single scenario (profiling / bisection)
    }
  }
  std::fprintf(stderr, "[perf_regression] scale %.2f ...\n", scale);

  std::vector<ScenarioResult> results;
  const char* running[] = {"event_churn", "backlog_storm",
                           "fig19_constant_rate", "chaos_soak",
                           "multitenant_fanout"};
  ScenarioResult (*fns[])(double) = {event_churn, backlog_storm,
                                     fig19_constant_rate, chaos_soak,
                                     multitenant_fanout};
  for (std::size_t i = 0; i < 5; ++i) {
    if (only != nullptr && std::strcmp(only, running[i]) != 0) continue;
    std::fprintf(stderr, "[perf_regression] %s...\n", running[i]);
    results.push_back(fns[i](scale));
  }

  double total_wall = 0.0;
  for (const auto& r : results) total_wall += r.wall_seconds;
  bench::JsonEmitter json;
  json.begin_object();
  json.field("bench", "perf_regression");
  json.field("schema", 1);
  json.field("scale", scale, "%.2f");
  json.begin_array("scenarios");
  for (const auto& r : results) emit(json, r);
  json.end_array();
  json.field("total_wall_seconds", total_wall);
  json.field("peak_rss_mib", peak_rss_mib(), "%.1f");
  json.end_object();
  return 0;
}
