// Property/fuzz: randomly generated pipelines over randomly configured
// clusters must always (a) complete, (b) conserve bytes, (c) keep the
// simulation clock monotone and metrics sane.
#include <gtest/gtest.h>

#include "api/context.h"
#include "common/rng.h"
#include "trace/wiki.h"

namespace stark {
namespace {

class FuzzPipeline : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPipeline, RandomPipelinesCompleteWithSaneMetrics) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);

  ContextOptions o;
  o.config = static_cast<ConfigKind>(rng.next_below(5));
  o.cluster.num_servers = 2 + static_cast<int>(rng.next_below(7));
  o.cluster.server.cores = 1 + static_cast<int>(rng.next_below(8));
  o.groups.initial_groups = 4;
  Context ctx(o);

  const int partitions = 16;  // power of two for Stark-E group trees
  trace::WikiTraceGen::Config wc;
  wc.num_urls = 512;
  trace::WikiTraceGen wiki(wc);

  // Ingest 2-4 datasets of random volume and skew.
  std::vector<DatasetPtr> inputs;
  const int n_inputs = 2 + static_cast<int>(rng.next_below(3));
  PartitionerPtr shared;
  for (int i = 0; i < n_inputs; ++i) {
    auto hist = wiki.histogram(rng.uniform(20.0, 200.0) * kMiB,
                               rng.uniform(0.0, 1.2));
    auto part = ctx.partitioner_for(hist, partitions, 512);
    if (shared == nullptr) shared = part;
    inputs.push_back(ctx.ingest(std::string("in").append(std::to_string(i)),
                                std::move(hist), part, "fuzz"));
  }

  // Random transformation chain on top of a cogroup.
  PartitionerPtr qpart =
      ctx.run_config().partitioner_mode == PartitionerMode::kPerRddRange
          ? ctx.partitioner_for(inputs[0]->histogram(), partitions, 512)
          : shared;
  DatasetPtr ds = Dataset::cogroup(inputs, qpart);
  const int chain = static_cast<int>(rng.next_below(4));
  for (int i = 0; i < chain; ++i) {
    switch (rng.next_below(4)) {
      case 0: ds = ds->map({.bytes_factor = rng.uniform(0.2, 1.5)}); break;
      case 1: ds = ds->filter({.selectivity = rng.uniform(0.05, 1.0)}); break;
      case 2: ds = ds->map_values(rng.uniform(0.3, 1.0)); break;
      default: ds = ds->sample(rng.uniform(0.1, 1.0)); break;
    }
  }

  SimTime last = ctx.sim().now();
  for (int q = 0; q < 3; ++q) {
    const auto r = ctx.count(ds);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.delay, 0.0);
    EXPECT_GE(ctx.sim().now(), last);
    last = ctx.sim().now();
    EXPECT_GT(r.num_tasks, 0);
    EXPECT_GE(r.node_local_tasks, 0);
    EXPECT_LE(r.node_local_tasks, r.num_tasks);
    EXPECT_GE(r.total_gc, 0.0);
    for (const auto& t : r.tasks) {
      EXPECT_GE(t.finish_time, t.launch_time);
      EXPECT_GE(t.launch_time, t.submit_time);
      EXPECT_GE(t.cpu, 0.0);
    }
  }

  // Byte conservation through the lineage math: the final dataset's bytes
  // never exceed the (factor-adjusted) inputs.
  Bytes input_total = 0.0;
  for (const auto& in : inputs) input_total += in->total_bytes();
  EXPECT_LE(ds->total_bytes(), input_total * 1.5 + 1.0);
  EXPECT_GE(ds->total_bytes(), 0.0);

  // Kill a random server and run once more: still completes.
  const auto alive = ctx.cluster().alive_servers();
  if (alive.size() > 1) {
    ctx.kill_server(alive[rng.next_below(alive.size())]);
    const auto r = ctx.count(ds);
    EXPECT_TRUE(r.completed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline, ::testing::Range(1, 25));

}  // namespace
}  // namespace stark
