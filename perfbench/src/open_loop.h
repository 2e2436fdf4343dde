// OpenLoop: the benchmark's open-loop job submission and output checks.
//
// The loop advances the simulation to each arrival's due time with
// Simulation::run(until) and submits the job there through
// DagScheduler::submit, so every job's delay counts from its due time. It
// reads every JobResult, checks it, and folds it into a digest of the
// simulated outputs that same-seed runs must reproduce exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/context.h"
#include "recorder.h"

namespace perfbench {

// What the benchmark keeps of one submitted job.
struct JobRecord {
  long long id = -1;  // benchmark job id; spans of this job carry it
  stark::JobId engine_id = stark::kInvalidId;
  stark::SimTime due = 0.0;
  int callbacks = 0;
  stark::JobResult result;  // stages kept, per-task detail off
};

// Simulated task-seconds summed over every stage of every JobResult.
struct Phases {
  double sched_delay = 0.0;
  double compute = 0.0;
  double deserialize = 0.0;
  double gc = 0.0;
  double shuffle_read = 0.0;
  double disk = 0.0;
  double remote_read = 0.0;
  double overhead = 0.0;
};

// The engine's cumulative counters the benchmark reports, read through the
// public *_stats() getters; the measured phase is the difference of two
// snapshots.
struct Counters {
  long long task_failures = 0;
  long long task_retries = 0;
  long long stage_resubmits = 0;
  long long recomputes_all = 0;
  double bytes_recomputed_all = 0.0;
  long long remote_hits = 0;
  long long remote_demotions = 0;
  long long remote_evictions_to_disk = 0;
  long long remote_rejected_no_room = 0;
  long long auto_frees = 0;
  long long auto_caches = 0;
  long long frees_protected = 0;
  double bytes_freed = 0.0;
  long long detections = 0;
  double detection_latency_sum = 0.0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t events = 0;

  static Counters read(stark::Context& ctx);
  Counters operator-(const Counters& base) const;
};

class OpenLoop {
 public:
  using Build = std::function<stark::DatasetPtr()>;
  using Then = std::function<void(const stark::JobResult&)>;

  OpenLoop(stark::Context& ctx, Recorder* rec) : ctx_(&ctx), rec_(rec) {}
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  // Builds one job's dataset and submits it now; `then` runs after the
  // benchmark has recorded the result (e.g. to submit a follow-up job).
  void submit(const Build& build, stark::SubmitOptions opts, Then then = {});

  // Open loop: for each due time in order, runs the simulation up to it,
  // samples the engine's queues, and calls arrive(i) to submit arrival i.
  void run_arrivals(const std::vector<double>& due,
                    const std::function<void(int)>& arrive);

  // Runs the simulation until every submitted job has called back or the
  // event queue is empty.
  void drain();

  // Job ids above this one were submitted after the measured phase began.
  void start_measuring() { measured_from_ = static_cast<long long>(jobs_.size()); }

  const std::vector<JobRecord>& jobs() const noexcept { return jobs_; }
  long long measured_from() const noexcept { return measured_from_; }
  const Phases& phases() const noexcept { return phases_; }
  const std::vector<double>& live_event_samples() const noexcept {
    return live_events_;
  }
  std::size_t peak_pending_sets() const noexcept { return peak_pending_sets_; }

 private:
  void on_result(long long id, const stark::JobResult& r);

  stark::Context* ctx_;
  Recorder* rec_;
  std::vector<JobRecord> jobs_;
  long long measured_from_ = 0;
  int outstanding_ = 0;
  Phases phases_;
  std::vector<double> live_events_;
  std::size_t peak_pending_sets_ = 0;
};

// Output checks over the measured jobs. Each job must have called back
// exactly once with its own engine id, been submitted at its due time, and
// report delay == finish - submit and stage task counts that sum to
// num_tasks; `allowed` says which final statuses the workload can produce.
// Completed jobs plus every other status must add up to jobs submitted.
struct CheckReport {
  long long submitted = 0;
  long long completed = 0;
  long long bad = 0;  // jobs failing any check
  bool balanced = false;  // status counts sum to jobs submitted
  std::vector<std::string> messages;  // first few failures
};
CheckReport check_jobs(const OpenLoop& loop,
                       const std::function<bool(stark::JobStatus)>& allowed);

// FNV-1a digest over each measured job's (engine id, status, delay,
// num_tasks, bytes read from cache/net/disk/remote), in submission order.
std::uint64_t digest_jobs(const OpenLoop& loop);

}  // namespace perfbench
