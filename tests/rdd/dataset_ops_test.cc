// Tests for the secondary Dataset operations (sample, distinct, mapValues)
// and the lineage introspection helpers.
#include <gtest/gtest.h>

#include "rdd/dataset.h"
#include "trace/wiki.h"

namespace stark {
namespace {

KeyHistogramPtr small_hist(Bytes total = 100 * kMiB) {
  trace::WikiTraceGen::Config c;
  c.num_urls = 128;
  return std::make_shared<const KeyHistogram>(
      trace::WikiTraceGen(c).histogram(total, 0.9));
}

TEST(DatasetOps, MapValuesKeepsPartitioningAndScalesBytes) {
  auto part = std::make_shared<HashPartitioner>(4);
  auto ds = Dataset::source("s", small_hist(), 2)->partition_by(part, "ns");
  auto mv = ds->map_values(0.25);
  EXPECT_TRUE(mv->co_partitioned_with(*part));
  EXPECT_EQ(mv->ns(), "ns");
  EXPECT_NEAR(mv->total_bytes(), 25 * kMiB, 1.0);
  EXPECT_DOUBLE_EQ(mv->histogram().total_records(),
                   ds->histogram().total_records());
}

TEST(DatasetOps, SampleScalesRecordsAndBytes) {
  auto src = Dataset::source("s", small_hist(), 2);
  auto s = src->sample(0.1);
  EXPECT_NEAR(s->total_bytes(), 10 * kMiB, 1.0);
  EXPECT_NEAR(s->histogram().total_records(),
              0.1 * src->histogram().total_records(), 1.0);
  EXPECT_THROW(src->sample(-0.1), std::invalid_argument);
  EXPECT_THROW(src->sample(1.5), std::invalid_argument);
}

TEST(DatasetOps, DistinctOneRecordPerKey) {
  auto part = std::make_shared<HashPartitioner>(4);
  auto src = Dataset::source("s", small_hist(), 2);
  auto d = src->distinct(part);
  EXPECT_TRUE(d->deps()[0].wide);  // source unpartitioned => shuffle
  const auto& h = d->histogram();
  EXPECT_DOUBLE_EQ(h.total_records(), static_cast<double>(h.size()));
  // Each key keeps exactly one record's bytes.
  const double per_record = src->histogram().total_bytes() /
                            src->histogram().total_records();
  for (const auto& e : h.entries()) {
    EXPECT_NEAR(e.bytes, per_record, 1e-6);
  }
}

TEST(DatasetOps, DistinctOnCoPartitionedIsNarrow) {
  auto part = std::make_shared<HashPartitioner>(4);
  auto ds = Dataset::source("s", small_hist(), 2)->partition_by(part);
  auto d = ds->distinct();
  EXPECT_FALSE(d->deps()[0].wide);
  auto unpart = Dataset::source("u", small_hist(), 2);
  EXPECT_THROW(unpart->distinct(), std::logic_error);
}

TEST(DatasetOps, DescribeMentionsEssentials) {
  auto part = std::make_shared<HashPartitioner>(4);
  auto ds = Dataset::source("mydata", small_hist(), 2)
                ->partition_by(part, "logs");
  ds->cache();
  const std::string d = ds->describe();
  EXPECT_NE(d.find("mydata"), std::string::npos);
  EXPECT_NE(d.find("partitionBy"), std::string::npos);
  EXPECT_NE(d.find("ns=logs"), std::string::npos);
  EXPECT_NE(d.find("cached"), std::string::npos);
  EXPECT_NE(d.find("HashPartitioner(4)"), std::string::npos);
}

TEST(DatasetOps, DescribeKeepsLongNamesWhole) {
  // Nothing is truncated: a 300-character name and a long namespace both
  // appear in full, followed by the partitioner.
  const std::string name(300, 'n');
  const std::string ns(120, 's');
  auto part = std::make_shared<HashPartitioner>(4);
  auto ds = Dataset::source("src", small_hist(), 2)
                ->partition_by(part, ns, name);
  ds->cache();
  const std::string d = ds->describe();
  EXPECT_EQ(d, std::string("[").append(std::to_string(ds->id())) + "] " +
                   name + " <partitionBy> partitions=4 ns=" + ns + " cached " +
                   part->describe());
}

TEST(DatasetOps, DebugStringShowsWholeLineage) {
  auto part = std::make_shared<HashPartitioner>(4);
  auto a = Dataset::source("a", small_hist(), 2)->partition_by(part);
  auto b = Dataset::source("b", small_hist(), 2)->partition_by(part);
  auto cg = Dataset::cogroup({a, b}, part, "joined");
  const std::string s = cg->debug_string();
  EXPECT_NE(s.find("joined"), std::string::npos);
  EXPECT_NE(s.find("a.partitionBy"), std::string::npos);
  EXPECT_NE(s.find("b.partitionBy"), std::string::npos);
  // Sources appear below their partitionBys (indentation grows).
  EXPECT_LT(s.find("joined"), s.find("a.partitionBy"));
}

TEST(DatasetOps, DebugStringMarksSharedSubtrees) {
  auto part = std::make_shared<HashPartitioner>(4);
  auto base = Dataset::source("base", small_hist(), 2)->partition_by(part);
  auto l = base->filter({.selectivity = 0.5});
  auto r = base->filter({.selectivity = 0.5});
  auto cg = Dataset::cogroup({l, r}, part);
  const std::string s = cg->debug_string();
  EXPECT_NE(s.find("(*)"), std::string::npos);  // base expanded only once
}

TEST(DatasetOps, DotOutputIsWellFormed) {
  auto part = std::make_shared<HashPartitioner>(4);
  auto src = Dataset::source("src", small_hist(), 2);
  auto ds = src->partition_by(part);
  auto f = ds->filter({.selectivity = 0.5}, "f");
  const std::string dot = f->to_dot();
  EXPECT_EQ(dot.find("digraph lineage"), 0u);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // the shuffle
  EXPECT_NE(dot.find("}\n"), std::string::npos);
  // One node line per dataset.
  std::size_t nodes = 0;
  for (std::size_t pos = dot.find("label="); pos != std::string::npos;
       pos = dot.find("label=", pos + 1)) {
    ++nodes;
  }
  EXPECT_EQ(nodes, 3u + 1u);  // 3 datasets + the dashed edge's label
}

}  // namespace
}  // namespace stark
