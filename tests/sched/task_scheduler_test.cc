#include "sched/task_scheduler.h"

#include <gtest/gtest.h>

namespace stark {
namespace {

// Harness: drive the TaskScheduler directly with synthetic task sets.
class TaskSchedulerTest : public ::testing::Test {
 protected:
  TaskSchedulerTest() { reset({}); }

  void reset(TaskScheduler::Options opts, int servers = 4, int cores = 2) {
    ClusterConfig cc;
    cc.num_servers = servers;
    cc.server.cores = cores;
    cluster_ = std::make_unique<Cluster>(cc);
    sim_ = std::make_unique<sim::Simulation>();
    cost_ = CostModel{};
    cost_.driver_dispatch_per_task = 0.0;  // keep timing simple here
    cost_.task_launch_overhead = 0.0;
    sched_ = std::make_unique<TaskScheduler>(
        *sim_, *cluster_, cost_, opts,
        [](DatasetId) { return std::string{}; });
  }

  // A task set whose tasks all take `work` seconds on any server.
  TaskScheduler::TaskSetPtr make_set(
      int n, double work, std::vector<std::vector<ServerId>> preferred = {}) {
    auto ts = std::make_shared<TaskScheduler::TaskSet>();
    for (int i = 0; i < n; ++i) {
      TaskSpec spec;
      spec.job = 0;
      spec.stage = 0;
      spec.index = i;
      spec.unit_id = i;
      spec.lo = i;
      spec.hi = i + 1;
      if (static_cast<std::size_t>(i) < preferred.size()) {
        const auto& prefs = preferred[static_cast<std::size_t>(i)];
        spec.pref_begin = static_cast<std::uint32_t>(ts->preferred.size());
        spec.pref_count = static_cast<std::uint32_t>(prefs.size());
        ts->preferred.insert(ts->preferred.end(), prefs.begin(), prefs.end());
      }
      ts->tasks.push_back(std::move(spec));
    }
    ts->plan = [work](const TaskSpec&, ServerId) {
      TaskPlan p;
      p.cpu = work;
      return p;
    };
    ts->task_done = [this](const TaskSpec& t, const TaskMetrics& m) {
      done_.push_back({t, m});
    };
    ts->all_done = [this] { ++sets_done_; };
    return ts;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<sim::Simulation> sim_;
  CostModel cost_;
  std::unique_ptr<TaskScheduler> sched_;
  std::vector<std::pair<TaskSpec, TaskMetrics>> done_;
  int sets_done_ = 0;
};

TEST_F(TaskSchedulerTest, RunsAllTasks) {
  sched_->submit(make_set(10, 1.0));
  sim_->run();
  EXPECT_EQ(done_.size(), 10u);
  EXPECT_EQ(sets_done_, 1);
  EXPECT_EQ(sched_->running_tasks(), 0u);
  EXPECT_EQ(sched_->pending_task_sets(), 0u);
}

TEST_F(TaskSchedulerTest, ParallelismBoundedByCores) {
  // 8 cores, 16 tasks of 1s => exactly two waves, finish at t=2.
  sched_->submit(make_set(16, 1.0));
  sim_->run();
  EXPECT_EQ(done_.size(), 16u);
  EXPECT_NEAR(sim_->now(), 2.0, 1e-9);
}

TEST_F(TaskSchedulerTest, PreferredServerWinsWhenFree) {
  sched_->submit(make_set(1, 1.0, {{2}}));
  sim_->run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_EQ(done_[0].second.server, 2);
  EXPECT_TRUE(done_[0].second.node_local);
}

TEST_F(TaskSchedulerTest, DelaySchedulingWaitsThenEscalates) {
  reset({.mcf = false, .locality_wait = 3.0});
  // Fill server 0 completely with a long task set pinned there.
  sched_->submit(make_set(2, 100.0, {{0}, {0}}));
  // Now a short task also preferring server 0 must wait 3s, then go remote.
  sched_->submit(make_set(1, 1.0, {{0}}));
  sim_->run_until([&] { return done_.size() >= 1; });
  ASSERT_GE(done_.size(), 1u);
  const auto& m = done_[0].second;
  EXPECT_FALSE(m.node_local);
  EXPECT_NE(m.server, 0);
  EXPECT_NEAR(m.launch_time, 3.0, 1e-6);  // waited out the locality delay
}

TEST_F(TaskSchedulerTest, LocalSlotTakenBeforeWaitExpires) {
  reset({.mcf = false, .locality_wait = 3.0});
  // Server 0 busy for 1s only.
  sched_->submit(make_set(2, 1.0, {{0}, {0}}));
  sched_->submit(make_set(1, 1.0, {{0}}));
  sim_->run();
  // The third task launched locally at t=1 (before the 3s wait expired).
  const auto& m = done_.back().second;
  EXPECT_TRUE(m.node_local);
  EXPECT_EQ(m.server, 0);
  EXPECT_NEAR(m.launch_time, 1.0, 1e-6);
}

TEST_F(TaskSchedulerTest, NoPreferencesLaunchImmediatelyAnywhere) {
  reset({.mcf = false, .locality_wait = 3.0});
  sched_->submit(make_set(4, 1.0));
  sim_->run();
  EXPECT_NEAR(sim_->now(), 1.0, 1e-9);  // no artificial locality wait
}

TEST_F(TaskSchedulerTest, DriverDispatchSerializesLaunches) {
  reset({});
  cost_.driver_dispatch_per_task = 0.1;
  sched_ = std::make_unique<TaskScheduler>(
      *sim_, *cluster_, cost_, TaskScheduler::Options{},
      [](DatasetId) { return std::string{}; });
  auto ts = make_set(4, 0.0);
  sched_->submit(ts);
  sim_->run();
  // Launch times are spaced by the dispatch cost: 0.1, 0.2, 0.3, 0.4.
  std::vector<double> launches;
  for (const auto& [t, m] : done_) launches.push_back(m.launch_time);
  std::sort(launches.begin(), launches.end());
  for (std::size_t i = 0; i < launches.size(); ++i) {
    EXPECT_NEAR(launches[i], 0.1 * static_cast<double>(i + 1), 1e-9);
  }
}

TEST_F(TaskSchedulerTest, McfPrefersLeastContendedServer) {
  reset({.mcf = true, .locality_wait = 0.0});
  // Server 1 caches blocks of three different collection partitions;
  // server 3 caches one. Everyone else: zero.
  for (int p = 0; p < 3; ++p) {
    sched_->on_block_event(1, BlockId{100, p}, true);
  }
  sched_->on_block_event(3, BlockId{100, 7}, true);
  EXPECT_EQ(sched_->unique_collection_partitions(1), 3);
  EXPECT_EQ(sched_->unique_collection_partitions(3), 1);
  // A single remote task should land on a zero-contention server (0 or 2).
  sched_->submit(make_set(1, 1.0));
  sim_->run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_TRUE(done_[0].second.server == 0 || done_[0].second.server == 2);
}

TEST_F(TaskSchedulerTest, ContentionRefcountsBlockReplicas) {
  sched_->on_block_event(0, BlockId{5, 1}, true);
  sched_->on_block_event(0, BlockId{5, 1}, true);
  sched_->on_block_event(0, BlockId{5, 1}, false);
  EXPECT_EQ(sched_->unique_collection_partitions(0), 1);
  sched_->on_block_event(0, BlockId{5, 1}, false);
  EXPECT_EQ(sched_->unique_collection_partitions(0), 0);
}

TEST_F(TaskSchedulerTest, BlocksCachedOnCompletion) {
  auto ts = make_set(1, 1.0);
  ts->plan = [](const TaskSpec&, ServerId) {
    TaskPlan p;
    p.cpu = 1.0;
    p.blocks_to_cache.push_back({BlockId{42, 0}, 100.0, false});
    return p;
  };
  sched_->submit(ts);
  sim_->run();
  EXPECT_TRUE(cluster_->cached_anywhere({42, 0}));
}

TEST_F(TaskSchedulerTest, ServerFailureRequeuesRunningTasks) {
  reset({.mcf = false, .locality_wait = 0.0}, /*servers=*/2, /*cores=*/1);
  sched_->submit(make_set(2, 10.0));
  sim_->run(1.0);  // both running
  EXPECT_EQ(sched_->running_tasks(), 2u);
  // Find which server runs task 0 and kill it.
  cluster_->kill_server(0);
  sched_->handle_server_failure(0);
  sim_->run();
  // All tasks still completed (requeued onto server 1).
  EXPECT_EQ(done_.size(), 2u);
  for (const auto& [t, m] : done_) EXPECT_EQ(m.server, 1);
  EXPECT_EQ(sets_done_, 1);
}

TEST_F(TaskSchedulerTest, MetricsBreakdownRecorded) {
  auto ts = make_set(1, 0.0);
  ts->plan = [](const TaskSpec&, ServerId) {
    TaskPlan p;
    p.cpu = 1.0;
    p.gc = 0.5;
    p.shuffle_read = 0.25;
    p.disk = 0.125;
    p.bytes_net = 1000.0;
    return p;
  };
  sched_->submit(ts);
  sim_->run();
  const auto& m = done_[0].second;
  EXPECT_DOUBLE_EQ(m.cpu, 1.0);
  EXPECT_DOUBLE_EQ(m.gc, 0.5);
  EXPECT_DOUBLE_EQ(m.shuffle_read, 0.25);
  EXPECT_DOUBLE_EQ(m.disk, 0.125);
  EXPECT_DOUBLE_EQ(m.bytes_from_net, 1000.0);
  EXPECT_NEAR(m.duration(), 1.875, 1e-9);
}

TEST_F(TaskSchedulerTest, EmptyTaskSetRejected) {
  auto ts = std::make_shared<TaskScheduler::TaskSet>();
  EXPECT_THROW(sched_->submit(ts), std::invalid_argument);
  EXPECT_THROW(sched_->submit(nullptr), std::invalid_argument);
}

TEST_F(TaskSchedulerTest, FifoBetweenTaskSets) {
  reset({}, /*servers=*/1, /*cores=*/1);
  sched_->submit(make_set(2, 1.0));
  sched_->submit(make_set(1, 1.0));
  sim_->run();
  ASSERT_EQ(done_.size(), 3u);
  // The single-core server serves the first set's two tasks first.
  EXPECT_NEAR(done_[2].second.finish_time, 3.0, 1e-9);
}

// Run ids are `generation << 32 | slot` into a recycled run table. The
// tests below pin the two invariants slot reuse could break: a stale id
// must find nothing, and teardown must follow launch order, not slot order.

TEST_F(TaskSchedulerTest, StaleDeferredResultIgnoredAfterSlotReuse) {
  // A result that finished behind a partition is deferred by run id. The
  // run is then discarded and its slot reused; the heal must not deliver
  // the slot's new occupant early.
  reset({.mcf = false, .locality_wait = 0.0}, /*servers=*/2, /*cores=*/1);
  auto first = make_set(1, 1.0, {{0}});
  first->job = 1;
  sched_->submit(first);
  sim_->at(0.5, [&] { cluster_->set_server_reachable(0, false); });
  sim_->at(1.5, [&] {
    ASSERT_EQ(sched_->running_tasks(), 1u);  // finished, result deferred
    sched_->cancel_job(1);
    auto second = make_set(1, 1.0, {{1}});
    second->job = 2;
    sched_->submit(second);  // takes the discarded run's slot
  });
  sim_->at(2.0, [&] {
    cluster_->set_server_reachable(0, true);
    sched_->on_server_healed(0);
  });
  sim_->run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_EQ(done_[0].second.server, 1);
  EXPECT_NEAR(done_[0].second.finish_time, 2.5, 1e-9);
  EXPECT_EQ(sets_done_, 1);
  EXPECT_EQ(sched_->running_tasks(), 0u);
}

TEST_F(TaskSchedulerTest, StaleLossEntryIgnoredAfterSlotReuse) {
  // handle_server_failure fails a snapshot of the server's runs. When an
  // earlier failure's callback discards a later run and a new launch
  // reuses its slot, the snapshot's entry for it must fail nothing.
  reset({.mcf = false, .locality_wait = 0.0}, /*servers=*/2, /*cores=*/2);
  std::vector<JobId> failed;
  auto x = make_set(1, 10.0, {{0}});
  x->job = 1;
  auto y = make_set(1, 10.0, {{0}});
  y->job = 2;
  y->task_failed = [&](const TaskSpec&, const TaskFailure&) {
    failed.push_back(2);
    return TaskFailureAction::kRetry;
  };
  x->task_failed = [&](const TaskSpec&, const TaskFailure&) {
    failed.push_back(1);
    sched_->cancel_job(2);  // frees y's slot...
    auto z = make_set(1, 1.0, {{1}});
    z->job = 3;
    z->task_failed = [&](const TaskSpec&, const TaskFailure&) {
      failed.push_back(3);
      return TaskFailureAction::kRetry;
    };
    sched_->submit(z);  // ...and z's run takes it
    return TaskFailureAction::kRetry;
  };
  sched_->submit(x);
  sched_->submit(y);
  sim_->run(1.0);
  cluster_->kill_server(0);
  sched_->handle_server_failure(0);
  sim_->run();
  EXPECT_EQ(failed, std::vector<JobId>{1});
  ASSERT_EQ(done_.size(), 2u);  // z at t=2, then x's retry at t=11
  EXPECT_NEAR(done_[0].second.finish_time, 2.0, 1e-9);
  EXPECT_NEAR(done_[1].second.finish_time, 11.0, 1e-9);
  EXPECT_EQ(sets_done_, 2);
}

TEST_F(TaskSchedulerTest, ServerLossFailsRunsInLaunchOrder) {
  reset({.mcf = false, .locality_wait = 0.0}, /*servers=*/2, /*cores=*/2);
  // Two runs fill slots 0 and 1 and free them in that order, so the next
  // two launches take slot 1, then slot 0: slot order runs against launch
  // order.
  sched_->submit(make_set(2, 1.0, {{0}, {0}}));
  sim_->run();
  std::vector<int> failed;
  auto ts = make_set(2, 10.0, {{0}, {0}});
  ts->task_failed = [&](const TaskSpec& t, const TaskFailure&) {
    failed.push_back(t.index);
    return TaskFailureAction::kRetry;
  };
  sched_->submit(ts);
  ASSERT_EQ(sched_->runs_on_server(0).size(), 2u);
  cluster_->kill_server(0);
  sched_->handle_server_failure(0);
  EXPECT_EQ(failed, (std::vector<int>{0, 1}));
  sim_->run();
  EXPECT_EQ(sets_done_, 2);
}

TEST_F(TaskSchedulerTest, CancelJobDiscardsRunsInLaunchOrder) {
  reset({.mcf = false, .locality_wait = 0.0}, /*servers=*/2, /*cores=*/2);
  sched_->submit(make_set(2, 1.0, {{0}, {0}}));  // as above: slots 0, 1
  sim_->run();
  auto doomed = make_set(2, 10.0, {{0}, {1}});
  doomed->job = 5;
  sched_->submit(doomed);  // task 0 takes slot 1, then task 1 slot 0
  ASSERT_EQ(sched_->runs_on_server(0).size(), 1u);
  ASSERT_EQ(sched_->runs_on_server(1).size(), 1u);
  const std::uint64_t later = sched_->runs_on_server(1)[0];  // task 1
  sched_->cancel_job(5);
  EXPECT_EQ(sched_->running_tasks(), 0u);
  // Discarding in launch order frees task 1's slot last, and the free list
  // hands out the most recently freed slot first.
  auto next = make_set(1, 1.0, {{0}});
  next->job = 6;
  sched_->submit(next);
  ASSERT_EQ(sched_->runs_on_server(0).size(), 1u);
  const std::uint64_t reused = sched_->runs_on_server(0)[0];
  EXPECT_EQ(static_cast<std::uint32_t>(reused),
            static_cast<std::uint32_t>(later));
  EXPECT_NE(reused, later);  // same slot, new generation
  sim_->run();
  EXPECT_EQ(sets_done_, 2);
}

TEST_F(TaskSchedulerTest, PreferredSliceOutOfRangeRejected) {
  auto ts = make_set(2, 1.0, {{0}, {1}});
  ts->tasks[1].pref_count = 2;  // runs past the end of ts->preferred
  EXPECT_THROW(sched_->submit(ts), std::invalid_argument);
}

}  // namespace
}  // namespace stark
