// stark_perfbench: runs one workload once and prints one JSON object.
//
//   stark_perfbench --workload NAME --seed N [--traced] [--trace-out PATH]
//
// Untraced runs report the end-to-end figures; --traced attaches the
// benchmark's Recorder, reports the per-layer metrics and, with
// --trace-out, writes the spans and engine events as Chrome/Perfetto JSON.
// run.py repeats runs, keeps each instance's fastest measured phase and
// checks digests across runs.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/trace_event.h"
#include "sim/event_queue.h"
#include "workloads.h"

using namespace perfbench;
using stark::obs::TraceKind;

namespace {

constexpr std::size_t kStoredEngineEvents = 20000;
constexpr std::uint64_t kQueueChurnSeed = 8;
constexpr double kMaxQueueOps = 2.0e6;

double peak_rss_mib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double percentile(const std::vector<double>& xs, double q) {
  stark::Distribution d;
  for (double x : xs) d.add(x);
  return d.empty() ? 0.0 : d.percentile(q);
}

// EventQueue push/pop/cancel churn through its public API, holding `live`
// events pending (the workload's observed live set) for about `events`
// pops; every 7th push also cancels and re-arms a pending event, like a
// timer. Returns host nanoseconds per queue operation.
double queue_ns_per_op(double live, double events, std::uint64_t seed) {
  stark::sim::EventQueue q;
  stark::Rng rng(derive_seed(seed, kQueueChurnSeed));
  const auto n_live = static_cast<std::size_t>(std::max(1.0, live));
  const auto total =
      static_cast<std::uint64_t>(std::clamp(events, 1.0e4, kMaxQueueOps));
  std::vector<stark::sim::EventId> recent;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_live; ++i) {
    recent.push_back(q.push(rng.next_double(), [] {}));
  }
  std::uint64_t ops = n_live;
  for (std::uint64_t popped = 0; popped < total; ++popped) {
    const double now = q.pop().time;
    q.push(now + rng.next_double(), [] {});
    ops += 2;
    if (popped % 7 == 0) {
      auto& victim = recent[popped % recent.size()];
      q.cancel(victim);
      victim = q.push(now + rng.next_double(), [] {});
      ops += 2;
    }
  }
  while (!q.empty()) {
    q.pop();
    ++ops;
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  return ns / static_cast<double>(ops);
}

std::vector<std::pair<const char*, double>> layer_metrics(
    const Outcome& o, const Recorder& rec, std::uint64_t seed) {
  const Counters& m = o.measured;
  const auto events = static_cast<double>(m.events);
  const auto count = [&rec](TraceKind k) {
    return static_cast<double>(rec.count(k));
  };
  const std::vector<double> submit_us = rec.durations_us(SpanKind::kSchedSubmit);
  double submit_s = 0.0;
  for (double us : submit_us) submit_s += us / 1e6;
  const double hits = count(TraceKind::kBlockHit);
  const double misses = count(TraceKind::kBlockMiss);
  return {
      {"sim.events", events},
      {"sim.host_ns_per_event",
       events > 0 ? rec.self_seconds(SpanKind::kSimRun) * 1e9 / events : 0.0},
      {"sim.live_events_p50", o.live_events_p50},
      {"sim.queue_ns_per_op", queue_ns_per_op(o.live_events_p50, events, seed)},
      {"sched.submit_host_us_p50", percentile(submit_us, 0.5)},
      {"sched.submit_host_us_p99", percentile(submit_us, 0.99)},
      {"sched.submit_host_s", submit_s},
      {"sched.stages", count(TraceKind::kStageSubmit)},
      {"sched.stage_resubmits", static_cast<double>(m.stage_resubmits)},
      {"sched.tasks_launched", count(TraceKind::kTaskLaunch)},
      {"sched.task_failures", static_cast<double>(m.task_failures)},
      {"sched.task_retries", static_cast<double>(m.task_retries)},
      {"sched.peak_pending_sets", o.peak_pending_sets},
      {"sched.node_local_frac", o.node_local_frac},
      {"sched.tenant_jain_index", o.tenant_jain_index},
      {"sched.advisor_auto_frees", static_cast<double>(m.auto_frees)},
      {"sched.advisor_auto_caches", static_cast<double>(m.auto_caches)},
      {"sched.advisor_frees_protected", static_cast<double>(m.frees_protected)},
      {"sched.advisor_freed_gib", m.bytes_freed / stark::kGiB},
      {"cluster.block_inserts", count(TraceKind::kBlockInsert)},
      {"cluster.block_evictions", count(TraceKind::kBlockEvict)},
      {"cluster.block_hits", hits},
      {"cluster.block_misses", misses},
      {"cluster.block_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0},
      {"cluster.recomputes_all", static_cast<double>(m.recomputes_all)},
      {"cluster.recomputed_gib", m.bytes_recomputed_all / stark::kGiB},
      {"cluster.remote_hits", static_cast<double>(m.remote_hits)},
      {"cluster.remote_demotions", static_cast<double>(m.remote_demotions)},
      {"cluster.remote_evictions_to_disk",
       static_cast<double>(m.remote_evictions_to_disk)},
      {"cluster.remote_rejected_no_room",
       static_cast<double>(m.remote_rejected_no_room)},
      {"cluster.executors_lost", static_cast<double>(m.detections)},
      {"cluster.detection_latency_mean_s",
       m.detections > 0 ? m.detection_latency_sum / static_cast<double>(m.detections)
                        : 0.0},
      {"phase.sched_delay_s", o.phases.sched_delay},
      {"phase.compute_s", o.phases.compute},
      {"phase.deserialize_s", o.phases.deserialize},
      {"phase.gc_s", o.phases.gc},
      {"phase.shuffle_read_s", o.phases.shuffle_read},
      {"phase.disk_s", o.phases.disk},
      {"phase.remote_read_s", o.phases.remote_read},
      {"phase.overhead_s", o.phases.overhead},
      {"rdd.build_host_us_p50",
       percentile(rec.durations_us(SpanKind::kRddBuild), 0.5)},
      {"obs.trace_events", static_cast<double>(rec.total_events())},
  };
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--traced] "
               "[--trace-out PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string trace_out;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* w = find_workload(name);
  if (w == nullptr || !have_seed) return usage(argv[0]);

  Recorder rec(kStoredEngineEvents);
  const Outcome o = w->run(seed, traced ? &rec : nullptr);
  const double rss = peak_rss_mib();

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"traced\": %s, \"setup_s\": %.9f, \"wall_s\": %.9f, "
              "\"tasks\": %" PRIu64 ", \"events\": %" PRIu64
              ", \"peak_rss_mib\": %.3f, \"digest\": \"%016" PRIx64
              "\", \"submitted\": %lld, \"completed\": %lld, \"bad\": %lld, "
              "\"balanced\": %s, \"messages\": [",
              w->name, seed, traced ? "true" : "false", o.setup_s, o.wall_s,
              o.measured.tasks_completed, o.measured.events, rss, o.digest,
              o.checks.submitted, o.checks.completed, o.checks.bad,
              o.checks.balanced ? "true" : "false");
  for (std::size_t i = 0; i < o.checks.messages.size(); ++i) {
    std::printf("%s\"%s\"", i > 0 ? ", " : "", o.checks.messages[i].c_str());
  }
  const double submitted = static_cast<double>(o.checks.submitted);
  std::printf(
      "], \"sim\": {\"job_delay_p50_s\": %.12g, \"job_delay_tail_s\": %.12g, "
      "\"tail_quantile\": %.2f, \"sim_makespan_s\": %.12g, "
      "\"jobs_completed_frac\": %.12g}",
      percentile(o.delays, 0.5), percentile(o.delays, w->tail_quantile),
      w->tail_quantile, o.makespan_s,
      submitted > 0 ? static_cast<double>(o.checks.completed) / submitted : 0.0);
  std::printf(", \"delays\": [");
  for (std::size_t i = 0; i < o.delays.size(); ++i) {
    std::printf("%s%.9g", i > 0 ? ", " : "", o.delays[i]);
  }
  std::printf("]");
  if (traced) {
    std::printf(", \"layers\": {");
    const auto layers = layer_metrics(o, rec, seed);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      std::printf("%s\"%s\": %.12g", i > 0 ? ", " : "", layers[i].first,
                  layers[i].second);
    }
    std::printf("}");
  }
  std::printf("}\n");
  std::fflush(stdout);
  if (traced && !trace_out.empty() && !rec.write_chrome(trace_out)) {
    std::fprintf(stderr, "cannot write trace file %s\n", trace_out.c_str());
    return 1;
  }
  return 0;
}
