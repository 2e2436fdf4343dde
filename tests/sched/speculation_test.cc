// Speculative execution: straggler tasks get a second copy; the first
// finisher wins and the loser is cancelled.
#include <gtest/gtest.h>

#include "sched/task_scheduler.h"

namespace stark {
namespace {

class SpeculationTest : public ::testing::Test {
 protected:
  void reset(TaskScheduler::Options opts, int servers = 4, int cores = 4) {
    ClusterConfig cc;
    cc.num_servers = servers;
    cc.server.cores = cores;
    cluster_ = std::make_unique<Cluster>(cc);
    sim_ = std::make_unique<sim::Simulation>();
    CostModel cost;
    cost.driver_dispatch_per_task = 0.0;
    cost.task_launch_overhead = 0.0;
    sched_ = std::make_unique<TaskScheduler>(
        *sim_, *cluster_, cost, opts,
        [](DatasetId) { return std::string{}; });
  }

  // n tasks; task 0 is a straggler on `slow_server` (10x work there),
  // fast anywhere else.
  TaskScheduler::TaskSetPtr straggler_set(int n, ServerId slow_server) {
    auto ts = std::make_shared<TaskScheduler::TaskSet>();
    for (int i = 0; i < n; ++i) {
      TaskSpec spec;
      spec.index = i;
      spec.unit_id = i;
      spec.lo = i;
      spec.hi = i + 1;
      if (i == 0) {  // pin the straggler
        spec.pref_begin = static_cast<std::uint32_t>(ts->preferred.size());
        spec.pref_count = 1;
        ts->preferred.push_back(slow_server);
      }
      ts->tasks.push_back(std::move(spec));
    }
    ts->plan = [slow_server](const TaskSpec& t, ServerId s) {
      TaskPlan p;
      p.cpu = (t.index == 0 && s == slow_server) ? 10.0 : 1.0;
      return p;
    };
    ts->task_done = [this](const TaskSpec& t, const TaskMetrics& m) {
      done_.emplace_back(t.index, m);
    };
    ts->all_done = [this] { set_done_ = true; };
    return ts;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<TaskScheduler> sched_;
  std::vector<std::pair<int, TaskMetrics>> done_;
  bool set_done_ = false;
};

TEST_F(SpeculationTest, CopyRescuesStraggler) {
  reset({.mcf = false,
         .locality_wait = 0.0,
         .speculation = true,
         .speculation_multiplier = 1.5,
         .speculation_quantile = 0.5});
  sched_->submit(straggler_set(8, /*slow_server=*/0));
  sim_->run();
  ASSERT_TRUE(set_done_);
  EXPECT_EQ(done_.size(), 8u);
  EXPECT_GE(sched_->speculative_launches(), 1);
  EXPECT_GE(sched_->speculative_wins(), 1);
  // The straggler finished via the fast copy: makespan ~2s (copy launched
  // after the 1s wave, runs 1s), far below the 10s original.
  EXPECT_LT(sim_->now(), 5.0);
  // Exactly one completion recorded for the straggler.
  int straggler_completions = 0;
  for (const auto& [idx, m] : done_) {
    if (idx == 0) ++straggler_completions;
  }
  EXPECT_EQ(straggler_completions, 1);
  EXPECT_EQ(sched_->running_tasks(), 0u);
}

TEST_F(SpeculationTest, DisabledMeansNoCopies) {
  reset({.mcf = false, .locality_wait = 0.0, .speculation = false});
  sched_->submit(straggler_set(8, 0));
  sim_->run();
  EXPECT_EQ(sched_->speculative_launches(), 0);
  EXPECT_NEAR(sim_->now(), 10.0, 1e-6);  // stuck with the straggler
}

TEST_F(SpeculationTest, NoCopiesWhenTasksAreUniform) {
  reset({.mcf = false,
         .locality_wait = 0.0,
         .speculation = true,
         .speculation_multiplier = 1.5,
         .speculation_quantile = 0.5});
  auto ts = std::make_shared<TaskScheduler::TaskSet>();
  for (int i = 0; i < 8; ++i) {
    TaskSpec spec;
    spec.index = i;
    spec.unit_id = i;
    spec.lo = i;
    spec.hi = i + 1;
    ts->tasks.push_back(std::move(spec));
  }
  ts->plan = [](const TaskSpec&, ServerId) {
    TaskPlan p;
    p.cpu = 1.0;
    return p;
  };
  ts->all_done = [this] { set_done_ = true; };
  sched_->submit(ts);
  sim_->run();
  EXPECT_TRUE(set_done_);
  EXPECT_EQ(sched_->speculative_launches(), 0);
}

TEST_F(SpeculationTest, CoreAccountingSurvivesCancelledCopies) {
  reset({.mcf = false,
         .locality_wait = 0.0,
         .speculation = true,
         .speculation_multiplier = 1.2,
         .speculation_quantile = 0.25});
  for (int round = 0; round < 3; ++round) {
    set_done_ = false;
    sched_->submit(straggler_set(8, 1));
    sim_->run();
    ASSERT_TRUE(set_done_);
  }
  EXPECT_EQ(sched_->running_tasks(), 0u);
  EXPECT_EQ(cluster_->total_free_cores(), 16);  // every core released
}

TEST_F(SpeculationTest, FailureOfOriginalLeavesCopyRunning) {
  reset({.mcf = false,
         .locality_wait = 0.0,
         .speculation = true,
         .speculation_multiplier = 1.5,
         .speculation_quantile = 0.5},
        /*servers=*/4, /*cores=*/4);
  sched_->submit(straggler_set(8, 0));
  // Let the fast wave finish and the copy launch, then kill the straggler's
  // original server.
  sim_->run_until([&] { return sched_->speculative_launches() >= 1; });
  cluster_->kill_server(0);
  sched_->handle_server_failure(0);
  sim_->run();
  ASSERT_TRUE(set_done_);
  // The task was not requeued (the copy survived) and completed once.
  int straggler_completions = 0;
  for (const auto& [idx, m] : done_) {
    if (idx == 0) {
      ++straggler_completions;
      EXPECT_NE(m.server, 0);
    }
  }
  EXPECT_EQ(straggler_completions, 1);
}

TEST_F(SpeculationTest, FailureWithLiveCopyDoesNotNotifyTheDriver) {
  reset({.mcf = false,
         .locality_wait = 0.0,
         .speculation = true,
         .speculation_multiplier = 1.5,
         .speculation_quantile = 0.5});
  auto ts = straggler_set(8, /*slow_server=*/0);
  int driver_notifications = 0;
  ts->task_failed = [&](const TaskSpec&, const TaskFailure&) {
    ++driver_notifications;
    return TaskFailureAction::kRetry;
  };
  sched_->submit(ts);
  // Wait for the whole fast wave, not just the copy launch: a fast task
  // with a pending completion on server 0 would die sibling-less in the
  // kill and notify legitimately.
  sim_->run_until([&] {
    return sched_->speculative_launches() >= 1 && done_.size() >= 7;
  });
  cluster_->kill_server(0);
  sched_->handle_server_failure(0);
  sim_->run();
  ASSERT_TRUE(set_done_);
  // The original's failure had a speculative sibling still racing: the
  // logical task was never in jeopardy, so the driver-side failure
  // notification must not fire. Notifying anyway double-counted
  // fetch-failure waves (and bumped stage attempts) once per copy.
  EXPECT_EQ(driver_notifications, 0);
}

}  // namespace
}  // namespace stark
