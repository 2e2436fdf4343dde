// Allocation guard for the TaskScheduler's per-task path. This executable
// replaces the global operator new with a counting one, so it is kept out
// of sanitizer builds (ASan installs its own allocator).
//
// Launching and completing a task must not touch the heap: the run table,
// the per-server run lists and the per-task live-copy records are recycled,
// and a task's preferred servers are a slice of its set's one array. What
// a set allocates (its ActiveSet and per-set vectors and index entries) is
// a constant per set, so sets of 8 and of 64 tasks cost the same.
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "sched/task_scheduler.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace stark {
namespace {

class LaunchAllocations : public ::testing::Test {
 protected:
  static constexpr int kServers = 16;

  // 16 servers x 4 cores: a 64-task set launches in one burst.
  LaunchAllocations() {
    ClusterConfig cc;
    cc.num_servers = kServers;
    cc.server.cores = 4;
    cluster_ = std::make_unique<Cluster>(cc);
    TaskScheduler::Options opts;
    opts.locality_wait = 0.0;
    sched_ = std::make_unique<TaskScheduler>(
        sim_, *cluster_, CostModel{}, opts,
        [](DatasetId) { return std::string{}; });
  }

  // Task i prefers server i % 16. Built outside the counted region: only
  // the scheduler's own allocations are measured.
  TaskScheduler::TaskSetPtr make_set(int n) {
    auto ts = std::make_shared<TaskScheduler::TaskSet>();
    ts->job = next_job_++;
    ts->stage = 0;
    ts->tasks.reserve(static_cast<std::size_t>(n));
    ts->preferred.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      TaskSpec spec;
      spec.job = ts->job;
      spec.index = i;
      spec.unit_id = i;
      spec.lo = i;
      spec.hi = i + 1;
      spec.pref_begin = static_cast<std::uint32_t>(ts->preferred.size());
      spec.pref_count = 1;
      ts->preferred.push_back(i % kServers);
      ts->tasks.push_back(spec);
    }
    ts->plan = [](const TaskSpec&, ServerId) {
      TaskPlan p;
      p.cpu = 1.0;
      return p;
    };
    ts->task_done = [this](const TaskSpec&, const TaskMetrics&) {
      ++tasks_done_;
    };
    ts->all_done = [this] { ++sets_done_; };
    return ts;
  }

  // Heap allocations made while submitting `n` tasks and running them to
  // completion.
  std::size_t run_set(int n) {
    auto ts = make_set(n);
    const std::size_t before = g_allocations.load();
    sched_->submit(std::move(ts));
    sim_.run();
    return g_allocations.load() - before;
  }

  sim::Simulation sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<TaskScheduler> sched_;
  JobId next_job_ = 0;
  int tasks_done_ = 0;
  int sets_done_ = 0;
};

TEST_F(LaunchAllocations, SetsOf8And64TasksCostTheSame) {
  // Warm-up grows the run table, the event queue and the per-server lists
  // to their peak; after that a set's cost must not depend on its size.
  run_set(64);
  run_set(8);
  const std::size_t eight = run_set(8);
  const std::size_t sixty_four = run_set(64);
  EXPECT_EQ(eight, sixty_four);
  EXPECT_EQ(tasks_done_, 64 + 8 + 8 + 64);
  EXPECT_EQ(sets_done_, 4);
  EXPECT_EQ(sched_->running_tasks(), 0u);
}

TEST_F(LaunchAllocations, CountingAllocatorSeesAllocations) {
  // The guard above is vacuous unless the replacement operator new is the
  // one in use.
  const std::size_t before = g_allocations.load();
  void* p = ::operator new(16);  // a direct call is never elided
  EXPECT_EQ(g_allocations.load(), before + 1);
  ::operator delete(p);
}

}  // namespace
}  // namespace stark
