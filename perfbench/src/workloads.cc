#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

#include "api/chaos.h"
#include "common/rng.h"
#include "streaming/stream_context.h"
#include "trace/taxi.h"
#include "trace/tweet.h"
#include "trace/wiki.h"

namespace perfbench {

using namespace stark;

namespace {

// The random sources one --seed feeds (see derive_seed).
enum Source : std::uint64_t {
  kEngineSeed = 1,  // ContextOptions::seed
  kArrivalSeed,     // the benchmark's arrival process
  kQuerySeed,       // each query's time window and region
  kTaxiSeed,        // TaxiTraceGen
  kTweetSeed,       // TweetGen
  kWikiSeed,        // WikiTraceGen
  kChaosSeed,       // ChaosInjector
  kStreamSeed,      // start of each midday timestep
};

constexpr int kGridBits = 6;
constexpr Key kDomain = Key{1} << (2 * kGridBits);
// A query's region is a 16x16-cell square of the 64x64 taxi grid.
constexpr double kRegionSelectivity = (16.0 * 16.0) / (64.0 * 64.0);

ContextOptions base_options(int servers, std::uint64_t seed) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = servers;
  o.cluster.server.cores = 8;
  o.cluster.server.ram = 16.0 * kGiB;
  o.detail_task_metrics = false;
  o.seed = derive_seed(seed, kEngineSeed);
  return o;
}

// Open-loop Poisson arrivals over [t0, t1) at rate(t) jobs per second.
std::vector<double> poisson_arrivals(Rng& rng, double t0, double t1,
                                     const std::function<double(double)>& rate) {
  std::vector<double> due;
  for (double t = t0;;) {
    t += rng.exponential(std::max(1e-9, rate(t)));
    if (t >= t1) return due;
    due.push_back(t);
  }
}

// Times one workload run: setup from construction to begin_measured(),
// the measured phase from there to finish().
class Phase {
 public:
  explicit Phase(Recorder* rec)
      : rec_(rec), start_(host_ns()), setup_span_(std::in_place, rec,
                                                  SpanKind::kSetup) {}

  // Routes the context's engine trace events into the recorder.
  void attach(Context& ctx) {
    if (rec_ == nullptr) return;
    // Non-owning: the recorder outlives every context it observes.
    ctx.tracer().add_sink(std::shared_ptr<obs::TraceSink>(
        std::shared_ptr<void>(), static_cast<obs::TraceSink*>(rec_)));
    ctx.tracer().set_enabled(true);
  }

  void begin_measured(Context& ctx, OpenLoop& loop) {
    setup_span_.reset();
    out_.setup_s = static_cast<double>(host_ns() - start_) / 1e9;
    base_ = Counters::read(ctx);
    if (rec_ != nullptr) rec_->start_measuring();
    loop.start_measuring();
    measured_start_ = host_ns();
  }

  Outcome finish(Context& ctx, const OpenLoop& loop, double first_due,
                 const std::function<bool(JobStatus)>& allowed) {
    out_.wall_s = static_cast<double>(host_ns() - measured_start_) / 1e9;
    out_.measured = Counters::read(ctx) - base_;
    out_.checks = check_jobs(loop, allowed);
    out_.digest = digest_jobs(loop);
    out_.phases = loop.phases();

    double last_finish = first_due;
    long long tasks = 0;
    long long node_local = 0;
    std::vector<double> service;  // busy task-seconds per tenant id
    const auto& jobs = loop.jobs();
    for (auto i = static_cast<std::size_t>(loop.measured_from());
         i < jobs.size(); ++i) {
      const JobResult& r = jobs[i].result;
      last_finish = std::max(last_finish, r.finish_time);
      if (r.status == JobStatus::kCompleted) out_.delays.push_back(r.delay);
      tasks += r.num_tasks;
      node_local += r.node_local_tasks;
      const auto t = static_cast<std::size_t>(r.tenant_id);
      if (service.size() <= t) service.resize(t + 1, -1.0);
      service[t] = std::max(service[t], 0.0);
      for (const auto& st : r.stages) {
        service[t] += st.compute + st.deserialize + st.gc + st.shuffle_read +
                      st.disk + st.remote_read + st.overhead;
      }
    }
    out_.makespan_s = last_finish - first_due;
    out_.node_local_frac =
        tasks > 0 ? static_cast<double>(node_local) / static_cast<double>(tasks)
                  : 0.0;
    // Jain's index over weight-normalised service of tenants that ran jobs.
    double sum = 0.0;
    double sum_sq = 0.0;
    int n = 0;
    for (std::size_t t = 0; t < service.size(); ++t) {
      if (service[t] < 0.0) continue;
      const double x =
          service[t] / ctx.dag().tenants().options(static_cast<TenantId>(t)).weight;
      sum += x;
      sum_sq += x * x;
      ++n;
    }
    out_.tenant_jain_index = sum_sq > 0.0 ? sum * sum / (n * sum_sq) : 0.0;

    std::vector<double> live = loop.live_event_samples();
    if (!live.empty()) {
      std::nth_element(live.begin(), live.begin() + live.size() / 2, live.end());
      out_.live_events_p50 = live[live.size() / 2];
    }
    out_.peak_pending_sets = static_cast<double>(loop.peak_pending_sets());
    return out_;
  }

 private:
  Recorder* rec_;
  std::int64_t start_;
  std::int64_t measured_start_ = 0;
  std::optional<Recorder::Scope> setup_span_;
  Counters base_;
  Outcome out_;
};

bool completed_only(JobStatus s) { return s == JobStatus::kCompleted; }

// The streamed taxi+tweet collection: one co-partitioned timestep RDD per
// 5 minutes, registered in the "stream" namespace.
struct StreamSpec {
  SimTime retention = 3600.0;
  int steps = 0;
  // Fig 20 replay: content follows the time of day. Otherwise each
  // timestep covers five minutes starting within half an hour of noon.
  bool diurnal = false;
  Dataset::StorageLevel level = Dataset::StorageLevel::kMemory;
};

std::unique_ptr<StreamContext> start_stream(Context& ctx, std::uint64_t seed,
                                            const PartitionerPtr& shared,
                                            const StreamSpec& spec) {
  trace::TaxiTraceGen::Config tc;
  tc.grid_bits = kGridBits;
  tc.events_per_hour = 1.0e6;
  if (spec.diurnal) tc.diurnal_amplitude = 0.6;
  tc.seed = derive_seed(seed, kTaxiSeed);
  auto taxi = std::make_shared<trace::TaxiTraceGen>(tc);
  trace::TweetGen::Config twc;
  twc.seed = derive_seed(seed, kTweetSeed);
  auto tweets = std::make_shared<trace::TweetGen>(twc);

  GroupConfig gc = ctx.options().groups;
  gc.grouped = ctx.run_config().grouped;
  gc.extendable = ctx.run_config().extendable;
  ctx.groups().register_namespace("stream", shared, gc);

  StreamConfig sc;
  sc.batch_interval = 300.0;
  sc.retention = spec.retention;
  sc.ns = "stream";
  sc.storage_level = spec.level;
  std::vector<double> start_hour;
  Rng noon(derive_seed(seed, kStreamSeed));
  for (int step = 0; step < spec.steps; ++step) {
    start_hour.push_back(noon.uniform(11.5, 12.5));
  }
  const bool diurnal = spec.diurnal;
  auto stream = std::make_unique<StreamContext>(
      ctx.dag(), ctx.groups(), sc,
      [taxi, tweets, diurnal, start_hour](int step, SimTime t) {
        const double hour = diurnal ? std::fmod(t / 3600.0, 24.0)
                                    : start_hour[static_cast<std::size_t>(step)];
        return tweets->merge_with_taxi(taxi->histogram(hour, 2, 1.0 / 12.0));
      },
      [shared](const KeyHistogram&, int) { return shared; });
  stream->start(spec.steps);
  return stream;
}

// A query's inputs: `want` in [min_steps, max_steps] of the latest cached
// timesteps, starting at a random offset (QueryWorkload's shape).
std::vector<DatasetPtr> query_window(const StreamContext& stream, Rng& rng,
                                     int min_steps, int max_steps) {
  const int want = static_cast<int>(rng.uniform_int(min_steps, max_steps));
  const auto all = stream.latest_timesteps(max_steps);
  const int n = std::min<int>(want, static_cast<int>(all.size()));
  const int start =
      static_cast<int>(rng.uniform_int(0, static_cast<int>(all.size()) - n));
  return {all.begin() + start, all.begin() + start + n};
}

// --- stream_steady -----------------------------------------------------------
// The paper's Fig 19/20 operating point: Stark-H on 40 servers, Poisson
// cogroup-filter-count queries over 2-4 recent timesteps at 20 jobs/s.
Outcome stream_steady(std::uint64_t seed, Recorder* rec) {
  constexpr double kFirst = 2700.0;  // nine timesteps ingested
  constexpr double kMeasured = 1200.0;
  constexpr double kRate = 20.0;
  Phase phase(rec);
  ContextOptions o = base_options(40, seed);
  o.locality_wait = 0.3;
  o.groups.initial_groups = 32;
  o.groups.min_group_bytes = 1 * kMiB;
  o.groups.max_group_bytes = 48 * kMiB;
  Context ctx(o);
  phase.attach(ctx);
  PartitionerPtr part = ctx.collection_partitioner(64, kDomain);
  const auto stream = start_stream(
      ctx, seed, part,
      {.steps = static_cast<int>((kFirst + kMeasured) / 300.0) + 1});
  Rng arrivals(derive_seed(seed, kArrivalSeed));
  Rng queries(derive_seed(seed, kQuerySeed));
  const auto due = poisson_arrivals(arrivals, kFirst, kFirst + kMeasured,
                                    [](double) { return kRate; });
  OpenLoop loop(ctx, rec);
  ctx.sim().run(due.front());
  phase.begin_measured(ctx, loop);

  loop.run_arrivals(due, [&](int) {
    auto inputs = query_window(*stream, queries, 2, 4);
    loop.submit(
        [&] {
          return Dataset::cogroup(std::move(inputs), part, "query.cogroup")
              ->filter({.selectivity = kRegionSelectivity}, "query.region");
        },
        {});
  });
  loop.drain();
  return phase.finish(ctx, loop, due.front(), completed_only);
}

// --- tenant_chaos ------------------------------------------------------------
// 24 weighted tenants under fair share on 12 servers, a cogroup-filter-count
// job every 0.4 s (above capacity), with seeded kill/repair, flaky-task and
// slow-node chaos.
Outcome tenant_chaos(std::uint64_t seed, Recorder* rec) {
  constexpr int kServers = 12;
  constexpr int kPartitions = 24;
  constexpr int kTenants = 24;
  constexpr int kJobs = 240;
  constexpr double kSpacing = 0.4;
  Phase phase(rec);
  ContextOptions o = base_options(kServers, seed);
  o.tenants.fair_share = true;
  for (int t = 0; t < kTenants; ++t) {
    char name[16];
    std::snprintf(name, sizeof name, "t%02d", t);
    o.tenants.tenants.push_back({name, t % 3 == 0 ? 2.0 : 1.0, 0.0, 0, 0});
  }
  Context ctx(o);
  phase.attach(ctx);
  PartitionerPtr part = ctx.collection_partitioner(kPartitions, 4096);
  trace::WikiTraceGen::Config wc;
  wc.bytes_per_hour = 200 * kMiB;
  wc.seed = derive_seed(seed, kWikiSeed);
  const trace::WikiTraceGen wiki(wc);
  std::vector<DatasetPtr> inputs;
  for (int h = 0; h < 3; ++h) {
    inputs.push_back(ctx.ingest(
        "wiki" + std::to_string(h),
        wiki.histogram(wc.bytes_per_hour * wiki.diurnal_factor(h), 0.9), part,
        "wiki"));
  }

  const SimTime t0 = ctx.sim().now();
  ChaosInjector::Config cc;
  cc.failures_per_hour = 360.0;
  cc.mean_repair_seconds = 5.0;
  cc.min_alive = kServers / 2;
  cc.flaky_task_probability = 0.05;
  cc.slow_nodes_per_hour = 120.0;
  cc.mean_slow_seconds = 8.0;
  cc.seed = derive_seed(seed, kChaosSeed);
  ChaosInjector chaos(ctx, cc);
  chaos.start(t0, t0 + kJobs * kSpacing + 30.0);
  std::vector<double> due;
  for (int q = 0; q < kJobs; ++q) due.push_back(t0 + kSpacing * q);
  OpenLoop loop(ctx, rec);
  phase.begin_measured(ctx, loop);

  loop.run_arrivals(due, [&](int q) {
    loop.submit(
        [&] {
          return Dataset::cogroup(inputs, part, "chaos.cogroup")
              ->filter({.selectivity = 0.1}, "chaos.filter");
        },
        {.tenant = o.tenants.tenants[static_cast<std::size_t>(q % kTenants)].name});
  });
  loop.drain();
  return phase.finish(ctx, loop, due.front(), [](JobStatus s) {
    return s == JobStatus::kCompleted || s == JobStatus::kFailed;
  });
}

// --- memory_pressure ---------------------------------------------------------
// The Fig 20 diurnal replay on 8 servers with 48 MiB of RAM each, far below
// the retention window: timesteps spill (kMemoryAndDisk) through a 1.5 GiB
// remote pool, the CacheAdvisor runs in kFull, and each interactive session
// caches its cogroup for a follow-up query.
Outcome memory_pressure(std::uint64_t seed, Recorder* rec) {
  constexpr double kFirst = 1800.0;
  constexpr double kMeasured = 1800.0;
  constexpr double kPeakRate = 2.0;
  Phase phase(rec);
  ContextOptions o = base_options(8, seed);
  o.locality_wait = 0.3;
  o.groups.initial_groups = 16;
  o.groups.min_group_bytes = 1 * kMiB;
  o.groups.max_group_bytes = 48 * kMiB;
  o.cluster.server.ram = 48 * kMiB;
  o.cluster.cache.pin_running_blocks = true;
  o.cluster.remote_memory.enabled = true;
  o.cluster.remote_memory.capacity = 1536 * kMiB;
  o.auto_cache.mode = AutoCacheMode::kFull;
  Context ctx(o);
  phase.attach(ctx);
  PartitionerPtr part = ctx.collection_partitioner(32, kDomain);
  const auto stream = start_stream(
      ctx, seed, part,
      {.retention = 5400.0,
       .steps = static_cast<int>((kFirst + kMeasured) / 300.0) + 1,
       .diurnal = true,
       .level = Dataset::StorageLevel::kMemoryAndDisk});
  Rng arrivals(derive_seed(seed, kArrivalSeed));
  Rng queries(derive_seed(seed, kQuerySeed));
  const auto due = poisson_arrivals(
      arrivals, kFirst, kFirst + kMeasured, [](double t) {
        const double hour = std::fmod(t / 3600.0, 24.0);
        return kPeakRate *
               (0.4 + 0.6 * std::max(0.0, std::sin(hour * M_PI / 12.0)));
      });
  OpenLoop loop(ctx, rec);
  ctx.sim().run(due.front());
  phase.begin_measured(ctx, loop);

  loop.run_arrivals(due, [&](int) {
    auto inputs = query_window(*stream, queries, 2, 8);
    auto grouped = std::make_shared<DatasetPtr>();  // set by the build
    loop.submit(
        [&] {
          *grouped = Dataset::cogroup(std::move(inputs), part, "query.cogroup");
          (*grouped)->cache(Dataset::StorageLevel::kMemorySerialized);
          return (*grouped)->filter({.selectivity = kRegionSelectivity},
                                    "query.region");
        },
        {},
        [&loop, grouped](const JobResult& first) {
          if (!first.completed) return;
          // The session's follow-up re-reads its cached cogroup.
          loop.submit(
              [&grouped] {
                return (*grouped)->filter({.selectivity = kRegionSelectivity},
                                          "query.region2");
              },
              {});
        });
  });
  loop.drain();
  return phase.finish(ctx, loop, due.front(), completed_only);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t source) {
  return splitmix64(seed ^ splitmix64(source));
}

const Workload* find_workload(const std::string& name) {
  static const Workload kAll[] = {
      {"stream_steady", 0.99, stream_steady},
      {"tenant_chaos", 0.95, tenant_chaos},
      {"memory_pressure", 0.99, memory_pressure},
  };
  for (const Workload& w : kAll) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
