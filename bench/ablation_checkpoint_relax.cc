// Ablation: the checkpoint relaxation factor f (paper §III-D2).
//
// Exact min cuts (f = 1) are locally optimal but tend to sit far from the
// lineage tip, leaving long uncheckpointed suffixes that re-trigger the
// optimizer soon after. Relaxed cuts (f > 1) accept up to f x the optimal
// cost to cut closer to the tip. This sweep runs the Fig 16 trend-tracking
// app for 12 steps under different f and reports total checkpointed bytes
// and trigger counts.
#include <cstdio>

#include "bench_util.h"

using namespace stark;

namespace {

constexpr Bytes kStepBytes = 700 * kMiB;
constexpr int kPartitions = 32;
constexpr Key kDomain = 4096;

struct Outcome {
  Bytes total = 0.0;
  int triggers = 0;
  int rdds_checkpointed = 0;
};

Outcome run(double f, double bound) {
  ContextOptions opts = bench::paper_cluster(ConfigKind::kStarkH, 8);
  opts.detail_task_metrics = false;
  Context ctx(opts);
  auto part = ctx.collection_partitioner(kPartitions, kDomain);
  ctx.groups().register_namespace("trend", part, {});
  auto opt = ctx.make_checkpoint_optimizer(bound, f);

  Outcome out;
  DatasetPtr prev_dec, prev_res;
  trace::WikiTraceGen wiki({});
  for (int step = 0; step < 12; ++step) {
    const std::string s = std::string("s").append(std::to_string(step)) + ".";
    auto hist = std::make_shared<const KeyHistogram>(
        wiki.histogram(kStepBytes, 0.9));
    auto raw = Dataset::source(s + "raw", hist, 8);
    auto kv = raw->partition_by(part, "trend", s + "kv");
    auto cnt = kv->reduce_by_key(0.10, s + "cnt");
    auto ctt = kv->reduce_by_key(0.85, s + "ctt");
    DatasetPtr ccnt = prev_dec
                          ? Dataset::cogroup({cnt, prev_dec}, part, s + "ccnt")
                          : cnt->map({}, s + "ccnt");
    DatasetPtr cctt = prev_res
                          ? Dataset::cogroup({ctt, prev_res}, part, s + "cctt")
                          : ctt->map({}, s + "cctt");
    auto acnt = ccnt->filter({.selectivity = 0.08}, s + "acnt");
    auto jall = Dataset::join(cctt, acnt, part, 0.35, s + "jall");
    prev_dec = ccnt->map({.bytes_factor = 0.55}, s + "dec");
    prev_res = jall->map({.bytes_factor = 0.8}, s + "res");
    for (const auto& trigger : {prev_res, prev_dec}) {
      if (opt.violated(trigger)) {
        ++out.triggers;
        const auto plan = opt.plan(trigger);
        for (const auto& ds : plan.to_checkpoint) {
          ctx.dag().checkpoint_now(ds);
          ++out.rdds_checkpointed;
        }
      }
    }
  }
  out.total = ctx.dag().total_checkpoint_bytes();
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — checkpoint relaxation factor f (§III-D2)",
      "Fig 16 app, 12 steps, recovery bound 3 s. f = 1 cuts exactly; larger\n"
      "f pays more per cut but cuts nearer the tip, re-triggering less.");

  Table t({"f", "triggers", "RDDs checkpointed", "total checkpointed"});
  std::vector<std::pair<double, Outcome>> rows;
  for (double f : {1.0, 1.5, 2.0, 3.0, 5.0}) {
    rows.emplace_back(f, run(f, 3.0));
    const auto& o = rows.back().second;
    t.add_row({Table::num(f, 1), std::to_string(o.triggers),
               std::to_string(o.rdds_checkpointed), format_bytes(o.total)});
  }
  t.print();

  // f's promise: no more triggers than exact, and total cost within f x.
  bool triggers_monotone_ok = true;
  for (const auto& [f, o] : rows) {
    if (o.triggers > rows.front().second.triggers) {
      triggers_monotone_ok = false;
    }
  }
  std::printf(
      "\nShape check: relaxation never increases trigger count and keeps "
      "total bytes in the same ballpark: %s\n",
      triggers_monotone_ok ? "OK" : "MISMATCH");
  return 0;
}
