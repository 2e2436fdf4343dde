// Integration: extendable partition groups under skew (paper §III-C,
// Fig 13/14/15).
#include <gtest/gtest.h>

#include "api/context.h"
#include "trace/wiki.h"

namespace stark {
namespace {

KeyHistogram wiki_hist(Bytes total, double exp) {
  trace::WikiTraceGen::Config c;
  c.num_urls = 4096;
  return trace::WikiTraceGen(c).histogram(total, exp);
}

// Smooth hot-prefix skew: what a range partitioner actually faces (no
// single key dominates, but contiguous ranges do).
KeyHistogram wiki_spatial(Bytes total, double skew) {
  trace::WikiTraceGen::Config c;
  c.num_urls = 4096;
  return trace::WikiTraceGen(c).histogram_spatial(total, skew);
}

ContextOptions stark_e_options() {
  ContextOptions o;
  o.config = ConfigKind::kStarkE;
  o.cluster.num_servers = 8;
  o.groups.initial_groups = 8;
  o.groups.min_group_bytes = 8 * kMiB;
  o.groups.max_group_bytes = 160 * kMiB;
  o.groups.window = 3;
  return o;
}

TEST(Extendable, SkewTriggersGroupSplits) {
  Context ctx(stark_e_options());
  auto part = ctx.collection_partitioner(64, 4096);
  for (int i = 0; i < 3; ++i) {
    ctx.ingest(std::string("skewed").append(std::to_string(i)),
               wiki_hist(400 * kMiB, 1.2), part, "logs");
  }
  const auto* tree = ctx.groups().tree("logs");
  ASSERT_NE(tree, nullptr);
  EXPECT_GT(tree->num_groups(), 8);  // hot ranges split
}

TEST(Extendable, UniformDataKeepsInitialGroups) {
  Context ctx(stark_e_options());
  auto part = ctx.collection_partitioner(64, 4096);
  for (int i = 0; i < 3; ++i) {
    ctx.ingest(std::string("uniform").append(std::to_string(i)),
               wiki_hist(300 * kMiB, 0.0), part, "logs");
  }
  const auto* tree = ctx.groups().tree("logs");
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->num_groups(), 8);
}

TEST(Extendable, GroupSizesMoreBalancedThanStatic) {
  // The headline of Fig 13: Stark-E group sizes are far better balanced
  // than Stark-S static partitions under skewed data.
  auto imbalance = [](ConfigKind kind) {
    ContextOptions o = stark_e_options();
    o.config = kind;
    Context ctx(o);
    auto part = ctx.collection_partitioner(64, 4096);
    std::vector<DatasetPtr> inputs;
    for (int i = 0; i < 3; ++i) {
      inputs.push_back(ctx.ingest(std::string("d").append(std::to_string(i)),
                                  wiki_spatial(400 * kMiB, 3.0), part, "logs"));
    }
    // Per-task input bytes = per scheduling unit sums.
    const auto units = ctx.groups().units_for(*inputs.back());
    double max_unit = 0.0, total = 0.0;
    for (const auto& u : units) {
      double b = 0.0;
      for (const auto& ds : inputs) {
        for (int p = u.lo; p < u.hi; ++p) {
          b += ds->partition_bytes()[static_cast<std::size_t>(p)];
        }
      }
      max_unit = std::max(max_unit, b);
      total += b;
    }
    return max_unit / (total / static_cast<double>(units.size()));
  };
  const double stark_s = imbalance(ConfigKind::kStarkS);
  const double stark_e = imbalance(ConfigKind::kStarkE);
  EXPECT_LT(stark_e, 0.6 * stark_s)
      << "Stark-E=" << stark_e << " Stark-S=" << stark_s;
}

TEST(Extendable, FirstJobAfterSplitRebuildsCachesOnNewExecutors) {
  // Fig 14: the first job after group splits rebuilds partition data on the
  // newly assigned executors (network + recompute traffic); the second job
  // runs entirely from local caches.
  ContextOptions o = stark_e_options();
  o.groups.max_group_bytes = 120 * kMiB;
  Context ctx(o);
  auto part = ctx.collection_partitioner(64, 4096);
  std::vector<DatasetPtr> inputs;
  // Phase 1: light uniform hours — cached under the initial grouping.
  for (int i = 0; i < 2; ++i) {
    inputs.push_back(ctx.ingest(std::string("calm").append(std::to_string(i)),
                                wiki_hist(150 * kMiB, 0.0), part, "logs"));
  }
  const auto* tree = ctx.groups().tree("logs");
  const int groups_before = tree->num_groups();
  // Phase 2: a heavy skewed hour arrives; its report splits the hot groups,
  // stranding the phase-1 caches on the old executors.
  inputs.push_back(ctx.ingest("peak", wiki_hist(500 * kMiB, 0.9), part,
                              "logs"));
  ASSERT_GT(tree->num_groups(), groups_before);
  auto cg1 = Dataset::cogroup(inputs, part);
  const auto first = ctx.count(cg1);
  auto cg2 = Dataset::cogroup(inputs, part);
  const auto second = ctx.count(cg2);
  EXPECT_GT(first.bytes_from_net, 0.0);     // rebuilt split-off groups
  EXPECT_EQ(second.bytes_from_net, 0.0);    // fully local afterwards
  EXPECT_EQ(second.node_local_tasks, second.num_tasks);
  EXPECT_LE(second.delay, first.delay);
  // Total work strictly shrinks once the rebuilt caches are in place.
  auto work = [](const JobResult& r) {
    return r.total_cpu + r.total_shuffle_read;
  };
  EXPECT_LT(work(second), work(first));
}

TEST(Extendable, GroupTasksReduceTaskCount) {
  // Partition groups pack many partitions into one task
  // (GroupResultTask): far fewer tasks than partitions.
  Context ctx(stark_e_options());
  auto part = ctx.collection_partitioner(64, 4096);
  auto ds = ctx.ingest("d", wiki_hist(100 * kMiB, 0.0), part, "logs");
  auto cg = Dataset::cogroup({ds}, part);
  const auto r = ctx.count(cg);
  EXPECT_EQ(r.num_tasks, 8);  // 8 groups, not 64 partitions
}

TEST(Extendable, MergesAfterLoadDrops) {
  ContextOptions o = stark_e_options();
  o.groups.window = 1;  // react to the latest RDD only
  Context ctx(o);
  auto part = ctx.collection_partitioner(64, 4096);
  ctx.ingest("big", wiki_hist(1.2 * kGiB, 1.2), part, "logs");
  const int peak = ctx.groups().tree("logs")->num_groups();
  ASSERT_GT(peak, 8);
  for (int i = 0; i < 3; ++i) {
    ctx.ingest(std::string("small").append(std::to_string(i)),
               wiki_hist(30 * kMiB, 0.0), part, "logs");
  }
  EXPECT_LT(ctx.groups().tree("logs")->num_groups(), peak);
}

TEST(Extendable, BaseGetPartitionUnchangedBySplits) {
  // Elasticity must not alter the key->partition mapping (paper §III-C2:
  // the getPartition API stays intact).
  Context ctx(stark_e_options());
  auto part = ctx.collection_partitioner(64, 4096);
  std::vector<int> before;
  for (Key k = 0; k < 4096; k += 37) before.push_back(part->get_partition(k));
  for (int i = 0; i < 3; ++i) {
    ctx.ingest(std::string("d").append(std::to_string(i)),
               wiki_hist(500 * kMiB, 1.3), part, "logs");
  }
  std::size_t idx = 0;
  for (Key k = 0; k < 4096; k += 37) {
    EXPECT_EQ(part->get_partition(k), before[idx++]);
  }
}

}  // namespace
}  // namespace stark
