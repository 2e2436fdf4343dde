// Ablation: partition-group size bounds (paper §III-C1's trade-off, at the
// group level).
//
// Stark first divides data into many small partitions and then packs them
// into groups. The max-group-size bound controls granularity: huge groups
// behave like few fat partitions (imbalance, stragglers); tiny groups
// recreate the scheduling-overhead wall of Fig 7. This sweep shows the
// sweet spot in between — the reason partition groups exist at all.
#include <cstdio>

#include "bench_util.h"

using namespace stark;

namespace {

constexpr int kPartitions = 256;
constexpr Key kDomain = 4096;

struct Point {
  double job_delay = 0.0;
  int groups = 0;
  int tasks = 0;
};

Point run(Bytes max_group_bytes) {
  ContextOptions opts = bench::paper_cluster(ConfigKind::kStarkE, 8);
  opts.groups.initial_groups = 8;
  opts.groups.min_group_bytes = max_group_bytes / 4.0;
  opts.groups.max_group_bytes = max_group_bytes;
  opts.groups.window = 3;
  Context ctx(opts);
  auto part = ctx.collection_partitioner(kPartitions, kDomain);
  trace::WikiTraceGen::Config wc;
  wc.num_urls = kDomain;
  trace::WikiTraceGen wiki(wc);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(ctx.ingest(std::string("d").append(std::to_string(i)),
                                wiki.histogram_spatial(500 * kMiB, 2.5), part,
                                "logs"));
  }
  // Steady-state job (caches settled).
  ctx.count(Dataset::cogroup(inputs, part));
  const auto r = ctx.count(Dataset::cogroup(inputs, part));
  Point p;
  p.job_delay = r.delay;
  p.groups = ctx.groups().tree("logs")->num_groups();
  p.tasks = r.num_tasks;
  return p;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — group size bounds (§III-C1 trade-off)",
      "Steady-state cogroup delay over 3 x 500 MB skewed RDDs (256 base\n"
      "partitions) as the max group size shrinks. Few huge groups straggle;\n"
      "hundreds of tiny groups drown the driver; the optimum lies between.");

  Table t({"max group size", "active groups", "tasks/job", "job delay (s)",
           ""});
  double best = 1e18, worst = 0.0;
  std::vector<std::pair<Bytes, Point>> rows;
  for (Bytes bound : {4.0 * kGiB, 1.0 * kGiB, 384.0 * kMiB, 128.0 * kMiB,
                      48.0 * kMiB, 12.0 * kMiB, 3.0 * kMiB}) {
    const Point p = run(bound);
    rows.emplace_back(bound, p);
    best = std::min(best, p.job_delay);
    worst = std::max(worst, p.job_delay);
  }
  for (const auto& [bound, p] : rows) {
    t.add_row({format_bytes(bound), std::to_string(p.groups),
               std::to_string(p.tasks), Table::num(p.job_delay, 2),
               bench::bar(p.job_delay, worst)});
  }
  t.print();

  const bool extremes_worse = rows.front().second.job_delay > best * 1.15 &&
                              rows.back().second.job_delay > best * 1.15;
  std::printf(
      "\nShape check: both extremes (one giant group / hundreds of tiny "
      "groups) are worse than the middle: %s\n",
      extremes_worse ? "OK" : "MISMATCH");
  return 0;
}
