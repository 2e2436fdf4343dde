// Trend tracker: the Fig 16 application with optimized checkpointing.
//
// Tracks popular keys (and their contents) across streaming steps, like
// Twitter trends: each step cogroups the fresh counts with the previous
// step's decayed counts, filters the popular keys, and joins them with the
// contents. The lineage grows without bound, so the CheckpointOptimizer
// keeps the failure-recovery delay under a user bound at minimum I/O cost.
#include <cstdio>

#include "api/stark.h"
#include "trace/wiki.h"

using namespace stark;

int main() {
  std::printf("Trend tracking with bounded failure recovery\n\n");

  ContextOptions opts;
  opts.config = ConfigKind::kStarkH;
  opts.cluster.num_servers = 8;
  opts.detail_task_metrics = false;
  Context ctx(opts);
  auto part = ctx.collection_partitioner(32, 4096);
  ctx.groups().register_namespace("trend", part, {});

  const double recovery_bound = 3.0;  // seconds
  auto optimizer = ctx.make_checkpoint_optimizer(recovery_bound, /*f=*/3.0);

  trace::WikiTraceGen wiki({});
  DatasetPtr prev_dec, prev_res;

  for (int step = 0; step < 10; ++step) {
    const std::string s = std::string("s").append(std::to_string(step)) + ".";
    auto hist = std::make_shared<const KeyHistogram>(
        wiki.hourly_histogram(step));
    auto raw = Dataset::source(s + "raw", hist, 8);
    auto kv = raw->partition_by(part, "trend", s + "kv");
    auto cnt = kv->reduce_by_key(0.10, s + "cnt");
    auto ctt = kv->reduce_by_key(0.85, s + "ctt");
    DatasetPtr ccnt =
        prev_dec ? Dataset::cogroup({cnt, prev_dec}, part, s + "ccnt")
                 : cnt->map({}, s + "ccnt");
    DatasetPtr cctt =
        prev_res ? Dataset::cogroup({ctt, prev_res}, part, s + "cctt")
                 : ctt->map({}, s + "cctt");
    auto acnt = ccnt->filter({.selectivity = 0.08}, s + "acnt");
    auto jall = Dataset::join(cctt, acnt, part, 0.35, s + "jall");
    auto dec = ccnt->map({.bytes_factor = 0.55}, s + "dec");
    auto res = jall->map({.bytes_factor = 0.8}, s + "res");

    const auto r = ctx.count(res);

    // forceCheckpoint after materialization, if the recovery bound broke.
    std::string ckpt_note = "-";
    if (optimizer.violated(res) || optimizer.violated(dec)) {
      const auto plan = optimizer.plan(
          optimizer.violated(res) ? res : dec);
      for (const auto& ds : plan.to_checkpoint) {
        ctx.dag().checkpoint_now(ds);
      }
      if (!plan.to_checkpoint.empty()) {
        ckpt_note = "checkpointed";
        for (const auto& ds : plan.to_checkpoint) {
          ckpt_note += " " + ds->name();
        }
      }
    }
    std::printf(
        "step %2d: job %6.2f s | uncheckpointed path %4.1f s (bound %.1f) | "
        "total ckpt %s | %s\n",
        step, r.delay, optimizer.longest_uncheckpointed_delay(res),
        recovery_bound,
        format_bytes(ctx.dag().total_checkpoint_bytes()).c_str(),
        ckpt_note.c_str());

    prev_dec = dec;
    prev_res = res;
  }

  std::printf(
      "\nRecovery estimate for the final result: %.2f s (raw lineage spans "
      "10 steps).\nTotal checkpoint I/O: %s — the min-cut picks small RDDs "
      "(acnt, dec) over bulky ones (jall, cctt).\n",
      ctx.dag().estimate_recovery_delay(prev_res),
      format_bytes(ctx.dag().total_checkpoint_bytes()).c_str());
  return 0;
}
