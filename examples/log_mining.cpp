// Log mining: the IT-diagnosis use case from the paper's introduction.
//
// An administrator dynamically loads hourly system log datasets, runs
// interactive keyword queries over arbitrary subsets of them, and evicts
// old hours. The collection keeps one shared partitioner, so every query
// cogroups co-located cached RDDs and stays interactive.
#include <cstdio>
#include <deque>

#include "api/stark.h"
#include "common/rng.h"
#include "trace/wiki.h"

using namespace stark;

int main() {
  std::printf("Log mining over a dynamic collection of hourly logs\n\n");

  ContextOptions opts;
  opts.config = ConfigKind::kStarkH;
  opts.cluster.num_servers = 8;
  Context ctx(opts);
  trace::WikiTraceGen wiki({});
  auto part = ctx.collection_partitioner(16, 4096);

  std::deque<DatasetPtr> window;  // the "loaded" hours
  Rng rng(42);
  Distribution query_delays;

  for (int hour = 0; hour < 12; ++hour) {
    // Load this hour's log dataset; evict beyond a 6-hour window.
    auto ds =
        ctx.ingest(std::string("hour").append(std::to_string(hour)),
                   wiki.hourly_histogram(hour), part, "syslogs");
    window.push_back(ds);
    if (window.size() > 6) {
      auto old = window.front();
      window.pop_front();
      // Uncache + drop every stored copy (RAM, remote pool, disk) and veto
      // in-flight re-inserts, in one call. The cache advisor
      // (ContextOptions::auto_cache) would not do this for us: it never
      // revokes a cache request the application made itself while a
      // handle to the dataset is still around (docs/CACHING.md).
      const Bytes dropped = ctx.dag().retire_dataset(old);
      std::printf("  [t=%5.0fs] retired %s (%s freed)\n", ctx.sim().now(),
                  old->name().c_str(), format_bytes(dropped).c_str());
    }

    // Three interactive queries over a random subset of loaded hours.
    for (int q = 0; q < 3; ++q) {
      const int span = static_cast<int>(
          rng.uniform_int(1, static_cast<int>(window.size())));
      std::vector<DatasetPtr> subset(window.end() - span, window.end());
      auto grouped = Dataset::cogroup(subset, part);
      // "count log lines containing ERROR" — keyword selectivity ~0.5%.
      auto errors = grouped->filter({.selectivity = 0.005}, "errors");
      const auto r = ctx.count(errors);
      query_delays.add(r.delay);
      std::printf(
          "  [t=%5.0fs] query over last %d hour(s): %6.1f ms "
          "(%d tasks, %s cached reads)\n",
          ctx.sim().now(), span, r.delay * 1e3, r.num_tasks,
          format_bytes(r.bytes_from_cache).c_str());
    }
  }

  std::printf(
      "\n%zu queries: median %.0f ms, p99 %.0f ms — interactive throughout\n"
      "despite hours being loaded and evicted continuously.\n",
      query_delays.count(), query_delays.median() * 1e3,
      query_delays.percentile(0.99) * 1e3);
  return 0;
}
