// Tail tolerance under fail-slow chaos: hedged fetches + adaptive timeouts
// + degraded-peer avoidance vs detection-only, on the same physics.
//
// A steady stream of cogroup-filter-repartition-count queries runs under a
// seeded fail-slow schedule (degraded-disk bandwidth ramps, NIC brownouts,
// intermittent stalls — no crash-stop faults at all), once per mitigation
// arm:
//  * off — the slowness tracker runs (so source-side fetch stretch is
//    modeled and scorecards classify peers) but every mitigation is
//    disabled: no hedged fetches, no degraded-peer deprioritization;
//  * on  — hedging and placement avoidance enabled (the defaults).
// Both arms share identical fail-slow physics; the delta is pure
// mitigation. The headline is the p99 job-latency cut and the extra bytes
// the hedges cost (budgeted to <= 5% of fetch traffic per tenant).
//
// A 1 Hz watchdog samples the cluster: a peer that has been physically
// degraded for >= kDetectGrace seconds while the driver still believes it
// Healthy counts as an undetected-slow-peer incident (once per episode).
// CI soaks assert this stays zero at steady state.
//
// Modes: default sweeps three fail-slow intensities; --smoke runs the 1x
// intensity only (CI gate); --pinned runs a reduced deterministic scenario
// for scripts/bit_identity.sh.
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "api/chaos.h"
#include "api/metrics.h"
#include "bench_util.h"

using namespace stark;

namespace {

constexpr int kServers = 12;
constexpr int kPartitions = 24;
constexpr int kReducePartitions = 12;
constexpr double kJobSpacing = 3.0;
constexpr double kDetectGrace = 15.0;  // seconds degraded before "undetected"

struct RunResult {
  Distribution delays;
  double makespan = 0.0;
  int completed = 0;
  int aborted = 0;
  SlownessStats slowness;
  Bytes bytes_net = 0.0;
  int undetected_slow_peers = 0;
  int disk_ramps = 0;
  int brownouts = 0;
  int stalls = 0;
};

RunResult run(bool mitigate, double intensity, int jobs) {
  ContextOptions o = bench::paper_cluster(ConfigKind::kStarkH, kServers);
  o.detail_task_metrics = false;
  o.faults.slowness.enabled = true;
  o.faults.slowness.hedging = mitigate;
  o.faults.slowness.deprioritize_degraded = mitigate;
  // Tighter hedge trigger than the library default: the bench's fetch
  // distribution is narrow, so p90 x 1.5 reacts to genuine stragglers
  // without firing on noise (the 5% byte budget still applies).
  o.faults.slowness.timeout_quantile = 0.9;
  o.faults.slowness.timeout_multiplier = 1.5;
  // Faster banding than the library default: the simulated ratio feed is
  // clean (no measurement noise), so four samples are plenty of evidence.
  o.faults.slowness.min_samples = 4;
  Context ctx(o);
  auto part = ctx.collection_partitioner(kPartitions, 4096);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(ctx.ingest(std::string("logs").append(std::to_string(i)),
                                bench::wiki_hourly(i, 200 * kMiB), part,
                                "logs"));
  }

  const SimTime t0 = ctx.sim().now();
  const SimTime window = jobs * kJobSpacing + 30.0;
  ChaosInjector::Config cc{
      .failures_per_hour = 0.0,
      .min_alive = 2,
      .disk_ramps_per_hour = 24.0 * intensity,
      .mean_ramp_seconds = 50.0,
      .ramp_max_disk_factor = 10.0,
      .nic_brownouts_per_hour = 36.0 * intensity,
      .mean_brownout_seconds = 40.0,
      .brownout_net_factor = 12.0,
      .stalls_per_hour = 20.0 * intensity,
      .mean_stall_seconds = 4.0,
      .stall_factor = 3.0,
      .seed = 131};
  ChaosInjector chaos(ctx, cc);
  chaos.start(t0, t0 + window);

  RunResult res;
  SimTime last_finish = t0;
  for (int q = 0; q < jobs; ++q) {
    ctx.sim().at(t0 + kJobSpacing * q, [&, q] {
      auto cg = Dataset::cogroup(inputs, part, "tail.cogroup");
      auto filtered = cg->filter({.selectivity = 0.7}, "tail.region");
      // Repartitioning to a different width forces a genuine shuffle even
      // under Stark's co-partitioned collections, so every query has a
      // fetch phase the hedging machinery can act on.
      auto shuffled = filtered->partition_by(
          std::make_shared<HashPartitioner>(kReducePartitions), "",
          std::string("tail.q").append(std::to_string(q)));
      ctx.dag().submit(shuffled, ActionType::kCount, {},
                       [&](const JobResult& r) {
        if (r.completed) {
          ++res.completed;
        } else {
          ++res.aborted;
        }
        res.delays.add(r.delay);
        res.bytes_net += r.bytes_from_net;
        if (r.finish_time > last_finish) last_finish = r.finish_time;
      });
    });
  }

  // Undetected-slow-peer watchdog: 1 Hz read-only sampling; one incident
  // per (server, degradation episode) that outlives the grace period while
  // still believed Healthy.
  std::vector<SimTime> degraded_since(static_cast<std::size_t>(kServers), -1.0);
  std::vector<char> counted(static_cast<std::size_t>(kServers), 0);
  std::function<void()> scan = [&] {
    const SimTime now = ctx.sim().now();
    for (ServerId s = 0; s < kServers; ++s) {
      const auto idx = static_cast<std::size_t>(s);
      const Server& srv = ctx.cluster().server(s);
      if (!srv.alive() || !srv.degradation().degraded()) {
        degraded_since[idx] = -1.0;
        counted[idx] = 0;
        continue;
      }
      if (degraded_since[idx] < 0.0) degraded_since[idx] = now;
      if (!counted[idx] && now - degraded_since[idx] >= kDetectGrace &&
          ctx.dag().slowness_band(s) == SlowBand::kHealthy) {
        ++res.undetected_slow_peers;
        counted[idx] = 1;
      }
    }
    if (now < t0 + window) ctx.sim().after(1.0, scan);
  };
  ctx.sim().at(t0 + 1.0, scan);

  ctx.sim().run();

  res.makespan = last_finish - t0;
  res.slowness = ctx.dag().slowness_stats();
  res.disk_ramps = chaos.disk_ramps();
  res.brownouts = chaos.brownouts();
  res.stalls = chaos.stalls();
  return res;
}

void emit_arm(bench::JsonEmitter& json, const char* name, const RunResult& r) {
  json.begin_object(name);
  json.field("jobs_completed", r.completed);
  json.field("jobs_aborted", r.aborted);
  json.field("makespan_s", r.makespan);
  json.field("p50_ms", r.delays.count() ? r.delays.percentile(0.5) * 1e3 : 0.0);
  json.field("p99_ms", r.delays.count() ? r.delays.percentile(0.99) * 1e3 : 0.0);
  json.field("p999_ms",
             r.delays.count() ? r.delays.percentile(0.999) * 1e3 : 0.0);
  json.field("bytes_net", r.bytes_net, "%.0f");
  json.field("undetected_slow_peers", r.undetected_slow_peers);
  json.begin_object("slowness");
  json.field("observations", static_cast<double>(r.slowness.observations),
             "%.0f");
  json.field("suspect_entries", r.slowness.suspect_entries);
  json.field("degraded_entries", r.slowness.degraded_entries);
  json.field("recoveries", r.slowness.recoveries);
  json.field("timeout_adaptations",
             static_cast<double>(r.slowness.timeout_adaptations), "%.0f");
  json.field("placement_probes", r.slowness.placement_probes);
  json.field("hedges_issued", static_cast<double>(r.slowness.hedges_issued),
             "%.0f");
  json.field("hedges_won", static_cast<double>(r.slowness.hedges_won), "%.0f");
  json.field("hedges_lost", static_cast<double>(r.slowness.hedges_lost),
             "%.0f");
  json.field("hedges_budget_denied",
             static_cast<double>(r.slowness.hedges_budget_denied), "%.0f");
  json.field("hedge_bytes_issued", r.slowness.hedge_bytes_issued, "%.0f");
  json.field("hedge_bytes_wasted", r.slowness.hedge_bytes_wasted, "%.0f");
  json.field("hedge_seconds_saved", r.slowness.hedge_seconds_saved);
  json.end_object();
  json.end_object();
}

void emit_intensity(bench::JsonEmitter& json, double intensity, int jobs) {
  const RunResult off = run(/*mitigate=*/false, intensity, jobs);
  const RunResult on = run(/*mitigate=*/true, intensity, jobs);
  const double p99_off = off.delays.count() ? off.delays.percentile(0.99) : 0.0;
  const double p99_on = on.delays.count() ? on.delays.percentile(0.99) : 0.0;
  json.begin_object();
  json.field("intensity", intensity, "%.2f");
  json.field("jobs", jobs);
  json.field("disk_ramps", on.disk_ramps);
  json.field("brownouts", on.brownouts);
  json.field("stalls", on.stalls);
  json.field("p99_off_ms", p99_off * 1e3);
  json.field("p99_on_ms", p99_on * 1e3);
  json.field("p99_improvement",
             p99_off > 0.0 ? (p99_off - p99_on) / p99_off : 0.0, "%.4f");
  json.field("extra_bytes_fraction",
             on.bytes_net > 0.0 ? on.slowness.hedge_bytes_issued / on.bytes_net
                                : 0.0,
             "%.4f");
  json.field("undetected_slow_peers",
             off.undetected_slow_peers + on.undetected_slow_peers);
  json.begin_object("arms");
  emit_arm(json, "off", off);
  emit_arm(json, "on", on);
  json.end_object();
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool pinned = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--pinned") == 0) pinned = true;
  }
  const int jobs = pinned ? 40 : 150;
  std::fprintf(stderr,
               "[tail_tolerance] %d queries on %d servers per arm, fail-slow "
               "chaos, mitigation off vs on...\n",
               jobs, kServers);
  bench::JsonEmitter json;
  json.begin_object();
  json.field("bench", "tail_tolerance");
  json.field("servers", kServers);
  json.field("mode", pinned ? "pinned" : (smoke ? "smoke" : "sweep"));
  json.begin_array("intensities");
  if (pinned) {
    emit_intensity(json, 1.0, jobs);
  } else if (smoke) {
    emit_intensity(json, 1.0, jobs);
  } else {
    for (double intensity : {0.5, 1.0, 2.0}) {
      emit_intensity(json, intensity, jobs);
    }
  }
  json.end_array();
  json.end_object();
  return 0;
}
