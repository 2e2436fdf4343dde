// Fail-slow domain, full stack: scorecard detection, hedged fetches and
// speculative execution running together against a degraded peer — the
// audit the two duplication mechanisms need. Speculation duplicates the
// *task* (copy re-plans, may hedge again); hedging duplicates the *fetch*
// inside one plan. A logical task that is both speculated and hedged must
// still complete exactly once, feed the scorecards winner-only, and leave
// no stranded state.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/context.h"
#include "trace/wiki.h"

namespace stark {
namespace {

constexpr int kServers = 6;
constexpr int kPartitions = 12;
constexpr int kReduceParts = 6;
constexpr int kJobs = 8;

KeyHistogram hist(int salt) {
  trace::WikiTraceGen::Config c;
  c.num_urls = 512;
  c.seed = 100 + static_cast<std::uint64_t>(salt);
  return trace::WikiTraceGen(c).histogram(96 * kMiB, 0.9);
}

struct Outcome {
  int completed = 0;
  int aborted = 0;
  std::uint64_t tasks_completed = 0;
  int speculative_launches = 0;
  SlownessStats slowness;
  std::vector<double> delays;
  SimTime end_time = 0.0;
};

// One victim server is degraded for the whole run: slow executor (4x
// cpu/disk, so its tasks straggle into speculation) AND slow source
// (12x net, so fetches that read its map outputs blow the adaptive
// deadline and hedge).
Outcome run_queries(bool speculate, bool slowness) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = kServers;
  o.detail_task_metrics = false;
  o.speculation = speculate;
  o.faults.slowness.enabled = slowness;
  o.faults.slowness.min_samples = 3;
  o.faults.slowness.timeout_quantile = 0.5;
  o.faults.slowness.timeout_multiplier = 1.5;
  Context ctx(o);
  auto part = ctx.collection_partitioner(kPartitions, 512);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 2; ++i) {
    inputs.push_back(
        ctx.ingest(std::string("d").append(std::to_string(i)), hist(i), part,
                   "logs"));
  }
  ctx.cluster().server(0).set_degradation({4.0, 4.0, 12.0});

  Outcome out;
  const SimTime t0 = ctx.sim().now();
  for (int q = 0; q < kJobs; ++q) {
    ctx.sim().at(t0 + 2.0 * q, [&, q] {
      auto cg = Dataset::cogroup(inputs, part, "fs.cogroup");
      auto filtered = cg->filter({.selectivity = 0.5}, "fs.sel");
      // Different width forces a real shuffle (and therefore fetches).
      auto shuffled = filtered->partition_by(
          std::make_shared<HashPartitioner>(kReduceParts), "",
          std::string("fs.q").append(std::to_string(q)));
      ctx.dag().submit(shuffled, ActionType::kCount, {},
                       [&](const JobResult& r) {
                         if (r.completed) {
                           ++out.completed;
                         } else {
                           ++out.aborted;
                         }
                         out.delays.push_back(r.delay);
                       });
    });
  }
  ctx.sim().run();
  out.tasks_completed = ctx.dag().tasks().tasks_completed();
  out.speculative_launches = ctx.dag().tasks().speculative_launches();
  out.slowness = ctx.dag().slowness_stats();
  out.end_time = ctx.sim().now();
  EXPECT_EQ(ctx.dag().active_jobs(), 0);
  EXPECT_EQ(ctx.dag().tasks().running_tasks(), 0u);
  EXPECT_EQ(ctx.dag().tasks().pending_task_sets(), 0u);
  return out;
}

TEST(FailSlow, SpeculatedAndHedgedTasksCompleteOnce) {
  const Outcome base = run_queries(/*speculate=*/false, /*slowness=*/false);
  const Outcome both = run_queries(/*speculate=*/true, /*slowness=*/true);
  ASSERT_EQ(base.completed, kJobs);
  ASSERT_EQ(both.completed, kJobs);
  EXPECT_EQ(both.aborted, 0);
  // Both duplication mechanisms actually fired...
  EXPECT_GE(both.speculative_launches, 1);
  EXPECT_GE(both.slowness.hedges_issued, 1);
  // ...yet every logical task completed exactly once: the completion count
  // matches the run with no duplication at all (same jobs, same task
  // structure). A speculated-and-hedged task reported twice would show up
  // here as an excess completion.
  EXPECT_EQ(both.tasks_completed, base.tasks_completed);
  // Hedge accounting is closed: every issued hedge resolved one way.
  EXPECT_EQ(both.slowness.hedges_won + both.slowness.hedges_lost,
            both.slowness.hedges_issued);
  EXPECT_GE(both.slowness.hedge_bytes_issued, 0.0);
}

TEST(FailSlow, ScorecardsDetectTheDegradedPeerWinnerOnly) {
  const Outcome both = run_queries(/*speculate=*/true, /*slowness=*/true);
  // The chronically degraded server was noticed (its band left Healthy at
  // least once) using winner-only completion feeds.
  EXPECT_GT(both.slowness.observations, 0);
  EXPECT_GE(both.slowness.suspect_entries + both.slowness.degraded_entries, 1);
}

TEST(FailSlow, CombinedMitigationIsDeterministic) {
  const Outcome a = run_queries(/*speculate=*/true, /*slowness=*/true);
  const Outcome b = run_queries(/*speculate=*/true, /*slowness=*/true);
  EXPECT_EQ(a.delays, b.delays);  // exact double equality
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.speculative_launches, b.speculative_launches);
  EXPECT_EQ(a.slowness.hedges_issued, b.slowness.hedges_issued);
  EXPECT_EQ(a.slowness.hedge_bytes_issued, b.slowness.hedge_bytes_issued);
  EXPECT_EQ(a.slowness.observations, b.slowness.observations);
}

}  // namespace
}  // namespace stark
