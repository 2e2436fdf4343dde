#include "streaming/running_reduce.h"

#include <gtest/gtest.h>

#include "trace/wiki.h"

namespace stark {
namespace {

class RunningReduceTest : public ::testing::Test {
 protected:
  RunningReduceTest() {
    ClusterConfig cc;
    cc.num_servers = 4;
    sim_ = std::make_unique<sim::Simulation>();
    cluster_ = std::make_unique<Cluster>(cc);
    locality_ = std::make_unique<LocalityManager>(*cluster_);
    groups_ = std::make_unique<GroupManager>(*locality_);
    dag_ = std::make_unique<DagScheduler>(*sim_, *cluster_, CostModel{},
                                          *locality_, *groups_, DagOptions{});
    part_ = std::make_shared<HashPartitioner>(8);
  }

  DatasetPtr step(int i, Bytes bytes = 50 * kMiB) {
    trace::WikiTraceGen::Config c;
    c.num_urls = 256;
    auto hist = std::make_shared<const KeyHistogram>(
        trace::WikiTraceGen(c).histogram(bytes, 0.9));
    return Dataset::source(std::string("step").append(std::to_string(i)),
                           hist, 2)
        ->partition_by(part_);
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<LocalityManager> locality_;
  std::unique_ptr<GroupManager> groups_;
  std::unique_ptr<DagScheduler> dag_;
  PartitionerPtr part_;
};

TEST_F(RunningReduceTest, FirstUpdateSeedsState) {
  RunningReduce rr(*dag_, {.partitioner = part_});
  auto state = rr.update(step(0));
  EXPECT_EQ(rr.steps(), 1);
  EXPECT_EQ(state, rr.state());
  EXPECT_EQ(state->op(), Op::kReduceByKey);
  // State is per-key: one record per distinct key.
  EXPECT_DOUBLE_EQ(state->histogram().total_records(),
                   static_cast<double>(state->histogram().size()));
}

TEST_F(RunningReduceTest, StateLineageGrowsNarrow) {
  RunningReduce rr(*dag_, {.partitioner = part_});
  rr.update(step(0));
  auto s1 = rr.update(step(1));
  // state1 <- merge (cogroup) <- {decay <- state0, step1}; all narrow.
  EXPECT_FALSE(s1->has_shuffle_dep());
  const auto& merge = s1->deps()[0].parent;
  EXPECT_EQ(merge->op(), Op::kCoGroup);
  for (const auto& dep : merge->deps()) EXPECT_FALSE(dep.wide);
}

TEST_F(RunningReduceTest, DecayShrinksStateBytes) {
  RunningReduce decaying(*dag_, {.partitioner = part_,
                                 .decay_bytes_factor = 0.2,
                                 .reduce_bytes_factor = 1.0});
  RunningReduce keeping(*dag_, {.partitioner = part_,
                                .decay_bytes_factor = 1.0,
                                .reduce_bytes_factor = 1.0});
  for (int i = 0; i < 4; ++i) {
    decaying.update(step(i));
    keeping.update(step(10 + i));
  }
  EXPECT_LT(decaying.state()->total_bytes(), keeping.state()->total_bytes());
}

TEST_F(RunningReduceTest, MaterializationCachesState) {
  RunningReduce rr(*dag_, {.partitioner = part_});
  auto state = rr.update(step(0));
  for (int p = 0; p < state->num_partitions(); ++p) {
    EXPECT_TRUE(cluster_->cached_anywhere({state->id(), p}));
  }
}

TEST_F(RunningReduceTest, CheckpointOptimizerBoundsLineage) {
  RunningReduce rr(*dag_, {.partitioner = part_});
  const double bound = 0.5;
  rr.set_checkpoint_optimizer(CheckpointOptimizer(
      {bound, 1.0},
      [this](const Dataset& d) { return dag_->is_checkpointed(d.id()); },
      [this](const Dataset& d) { return dag_->recompute_delay(d); },
      [this](const Dataset& d) { return dag_->checkpoint_cost(d); }));
  for (int i = 0; i < 15; ++i) rr.update(step(i, 200 * kMiB));
  EXPECT_GT(rr.checkpoints_taken(), 0);
  CheckpointOptimizer verify(
      {bound, 1.0},
      [this](const Dataset& d) { return dag_->is_checkpointed(d.id()); },
      [this](const Dataset& d) { return dag_->recompute_delay(d); },
      [this](const Dataset& d) { return dag_->checkpoint_cost(d); });
  EXPECT_LE(verify.longest_uncheckpointed_delay(rr.state()), bound + 1e-9);
}

TEST_F(RunningReduceTest, RejectsBadInputs) {
  EXPECT_THROW(RunningReduce(*dag_, {}), std::invalid_argument);
  RunningReduce rr(*dag_, {.partitioner = part_});
  EXPECT_THROW(rr.update(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace stark
