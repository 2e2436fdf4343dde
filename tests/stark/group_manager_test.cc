#include "stark/group_manager.h"

#include <gtest/gtest.h>

#include "trace/wiki.h"

namespace stark {
namespace {

struct Fixture {
  Fixture() : cluster(make_cfg()), locality(cluster), groups(locality) {}
  static ClusterConfig make_cfg() {
    ClusterConfig c;
    c.num_servers = 4;
    return c;
  }
  KeyHistogram hist(Bytes total, double exp = 0.9) {
    trace::WikiTraceGen::Config c;
    c.num_urls = 1024;
    return trace::WikiTraceGen(c).histogram(total, exp);
  }
  Cluster cluster;
  LocalityManager locality;
  GroupManager groups;
};

TEST(GroupManager, TrivialGroupingOnePartitionPerUnit) {
  Fixture f;
  auto p = std::make_shared<HashPartitioner>(8);
  f.groups.register_namespace("ns", p, {.extendable = false});
  const auto units = f.groups.units_for_ns("ns", 8);
  ASSERT_EQ(units.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(units[static_cast<std::size_t>(i)].unit_id, i);
    EXPECT_EQ(units[static_cast<std::size_t>(i)].lo, i);
    EXPECT_EQ(units[static_cast<std::size_t>(i)].hi, i + 1);
  }
  EXPECT_EQ(f.groups.unit_of("ns", 5), 5);
  EXPECT_FALSE(f.groups.extendable("ns"));
}

TEST(GroupManager, UnregisteredNamespaceFallsBackToPartitions) {
  Fixture f;
  const auto units = f.groups.units_for_ns("", 4);
  EXPECT_EQ(units.size(), 4u);
  EXPECT_EQ(f.groups.unit_of("", 2), 2);
}

TEST(GroupManager, ExtendableUsesGroupTree) {
  Fixture f;
  auto p = StaticRangePartitioner::uniform(1024, 32);
  GroupConfig gc;
  gc.extendable = true;
  gc.initial_groups = 4;
  f.groups.register_namespace("ns", p, gc);
  EXPECT_TRUE(f.groups.extendable("ns"));
  const auto units = f.groups.units_for_ns("ns", 32);
  ASSERT_EQ(units.size(), 4u);
  EXPECT_EQ(units[0].hi - units[0].lo, 8);
  EXPECT_NE(f.groups.tree("ns"), nullptr);
}

TEST(GroupManager, ReportSplitsOverloadedGroups) {
  Fixture f;
  auto p = StaticRangePartitioner::uniform(1024, 32);
  GroupConfig gc;
  gc.extendable = true;
  gc.initial_groups = 4;
  gc.min_group_bytes = 1 * kMiB;
  gc.max_group_bytes = 40 * kMiB;
  gc.window = 3;
  f.groups.register_namespace("ns", p, gc);

  // Heavily skewed data: the low-key range overflows its group.
  auto src = Dataset::source(
      "s", std::make_shared<const KeyHistogram>(f.hist(100 * kMiB, 1.3)), 4);
  auto ds = src->partition_by(p, "ns");
  const auto changes = f.groups.report_dataset(*ds);
  EXPECT_FALSE(changes.empty());
  bool any_split = false;
  for (const auto& ch : changes) any_split |= ch.is_split;
  EXPECT_TRUE(any_split);
  // More scheduling units than before for the hot region.
  EXPECT_GT(f.groups.units_for_ns("ns", 32).size(), 4u);
}

TEST(GroupManager, WindowSizeBoundsAccountedRdds) {
  Fixture f;
  auto p = StaticRangePartitioner::uniform(1024, 16);
  GroupConfig gc;
  gc.extendable = true;
  gc.initial_groups = 4;
  gc.min_group_bytes = 1.0;          // never merge
  gc.max_group_bytes = 250 * kMiB;   // 3 uniform RDDs stay under, 4 would not
  gc.window = 3;
  f.groups.register_namespace("ns", p, gc);
  for (int i = 0; i < 6; ++i) {
    auto src = Dataset::source(
        std::string("s").append(std::to_string(i)),
        std::make_shared<const KeyHistogram>(f.hist(300 * kMiB, 0.0)), 4);
    auto ds = src->partition_by(p, "ns");
    f.groups.report_dataset(*ds);
  }
  // Window of 3 x 300MiB over 4 groups = ~225 MiB per group < max: stable.
  EXPECT_EQ(f.groups.units_for_ns("ns", 16).size(), 4u);
}

TEST(GroupManager, ReportRejectsMismatchedPartitionCount) {
  Fixture f;
  auto p = std::make_shared<HashPartitioner>(8);
  f.groups.register_namespace("ns", p, {});
  auto src = Dataset::source(
      "s", std::make_shared<const KeyHistogram>(f.hist(10 * kMiB)), 2);
  auto ds = src->partition_by(std::make_shared<HashPartitioner>(16), "ns2");
  // Manually force the namespace label mismatch scenario.
  auto bad = src->partition_by(std::make_shared<HashPartitioner>(16), "ns");
  EXPECT_THROW(f.groups.report_dataset(*bad), std::logic_error);
  (void)ds;
}

TEST(GroupManager, SplitUpdatesLocalityHomes) {
  Fixture f;
  auto p = StaticRangePartitioner::uniform(1024, 32);
  GroupConfig gc;
  gc.extendable = true;
  gc.initial_groups = 4;
  gc.min_group_bytes = 1.0;
  gc.max_group_bytes = 30 * kMiB;
  f.groups.register_namespace("ns", p, gc);
  // Touch homes of the initial groups so splits have something to inherit.
  for (const auto& u : f.groups.units_for_ns("ns", 32)) {
    f.locality.homes("ns", u.unit_id);
  }
  auto src = Dataset::source(
      "s", std::make_shared<const KeyHistogram>(f.hist(200 * kMiB, 1.2)), 4);
  auto ds = src->partition_by(p, "ns");
  const auto changes = f.groups.report_dataset(*ds);
  ASSERT_FALSE(changes.empty());
  bool saw_split = false;
  for (const auto& ch : changes) saw_split |= ch.is_split;
  EXPECT_TRUE(saw_split);
  // Every *active* group ends up homed (intermediate nodes that were
  // themselves re-split have rightly released their homes).
  const auto* tree = f.groups.tree("ns");
  for (const auto& g : tree->active_groups()) {
    EXPECT_FALSE(f.locality.homes_if_any("ns", g.id).empty())
        << "group " << g.id;
  }
  // And no stale homes linger on inactive nodes touched by the changes.
  for (const auto& ch : changes) {
    for (int node : {ch.node, ch.child_a, ch.child_b}) {
      if (!tree->is_active(node)) {
        EXPECT_TRUE(f.locality.homes_if_any("ns", node).empty())
            << "inactive node " << node;
      }
    }
  }
}

TEST(GroupManager, NoteDatasetResolvesNamespace) {
  Fixture f;
  auto p = std::make_shared<HashPartitioner>(4);
  f.groups.register_namespace("ns", p, {});
  auto src = Dataset::source(
      "s", std::make_shared<const KeyHistogram>(f.hist(10 * kMiB)), 2);
  auto ds = src->partition_by(p, "ns");
  f.groups.note_dataset(*ds);
  EXPECT_EQ(f.groups.ns_of_dataset(ds->id()), "ns");
  EXPECT_EQ(f.groups.ns_of_dataset(src->id()), "");
}

TEST(GroupManager, RegisterRejectsNullPartitioner) {
  Fixture f;
  EXPECT_THROW(f.groups.register_namespace("ns", nullptr, {}),
               std::invalid_argument);
}

TEST(GroupManager, UnitRangeMatchesGrouping) {
  Fixture f;
  auto p = StaticRangePartitioner::uniform(1024, 16);
  GroupConfig gc;
  gc.grouped = true;
  gc.initial_groups = 4;
  f.groups.register_namespace("g", p, gc);
  const auto units = f.groups.units_for_ns("g", 16);
  for (const auto& u : units) {
    const auto [lo, hi] = f.groups.unit_range("g", u.unit_id);
    EXPECT_EQ(lo, u.lo);
    EXPECT_EQ(hi, u.hi);
  }
  // Ungrouped namespaces: singleton ranges.
  f.groups.register_namespace("plain", std::make_shared<HashPartitioner>(8),
                              {});
  EXPECT_EQ(f.groups.unit_range("plain", 5), (std::pair<int, int>{5, 6}));
  EXPECT_EQ(f.groups.unit_range("", 2), (std::pair<int, int>{2, 3}));
}

TEST(GroupManager, StaticGroupingNeverRebalances) {
  Fixture f;
  auto p = StaticRangePartitioner::uniform(1024, 32);
  GroupConfig gc;
  gc.grouped = true;
  gc.extendable = false;
  gc.initial_groups = 4;
  gc.max_group_bytes = 1.0;  // everything violates the bound
  f.groups.register_namespace("s", p, gc);
  auto src = Dataset::source(
      "x", std::make_shared<const KeyHistogram>(f.hist(500 * kMiB, 1.2)), 4);
  auto ds = src->partition_by(p, "s");
  EXPECT_TRUE(f.groups.report_dataset(*ds).empty());
  EXPECT_EQ(f.groups.units_for_ns("s", 32).size(), 4u);
}

}  // namespace
}  // namespace stark
