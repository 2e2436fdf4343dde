#include "open_loop.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

using stark::JobResult;
using stark::JobStatus;

Counters Counters::read(stark::Context& ctx) {
  auto& dag = ctx.dag();
  const auto& fs = dag.failure_stats();
  const auto& cs = dag.cache_stats();
  const auto& as = dag.auto_cache_stats();
  Counters c;
  c.task_failures = fs.task_failures;
  c.task_retries = fs.task_retries;
  c.stage_resubmits = fs.stage_resubmissions;
  c.recomputes_all = cs.recomputes_all;
  c.bytes_recomputed_all = cs.bytes_recomputed_all;
  c.remote_hits = cs.remote_hits;
  if (const auto* rs = ctx.cluster().remote_stats()) {
    c.remote_demotions = rs->demotions_in;
    c.remote_evictions_to_disk = rs->evictions_to_disk;
    c.remote_rejected_no_room = rs->rejected_no_room;
  }
  c.auto_frees = as.auto_frees;
  c.auto_caches = as.auto_caches;
  c.frees_protected = as.frees_protected;
  c.bytes_freed = as.bytes_freed;
  c.detections = ctx.detector().detections();
  c.detection_latency_sum = ctx.detector().total_detection_latency();
  c.tasks_completed = dag.tasks().tasks_completed();
  c.events = ctx.sim().executed_events();
  return c;
}

Counters Counters::operator-(const Counters& b) const {
  Counters d;
  d.task_failures = task_failures - b.task_failures;
  d.task_retries = task_retries - b.task_retries;
  d.stage_resubmits = stage_resubmits - b.stage_resubmits;
  d.recomputes_all = recomputes_all - b.recomputes_all;
  d.bytes_recomputed_all = bytes_recomputed_all - b.bytes_recomputed_all;
  d.remote_hits = remote_hits - b.remote_hits;
  d.remote_demotions = remote_demotions - b.remote_demotions;
  d.remote_evictions_to_disk =
      remote_evictions_to_disk - b.remote_evictions_to_disk;
  d.remote_rejected_no_room =
      remote_rejected_no_room - b.remote_rejected_no_room;
  d.auto_frees = auto_frees - b.auto_frees;
  d.auto_caches = auto_caches - b.auto_caches;
  d.frees_protected = frees_protected - b.frees_protected;
  d.bytes_freed = bytes_freed - b.bytes_freed;
  d.detections = detections - b.detections;
  d.detection_latency_sum = detection_latency_sum - b.detection_latency_sum;
  d.tasks_completed = tasks_completed - b.tasks_completed;
  d.events = events - b.events;
  return d;
}

void OpenLoop::submit(const Build& build, stark::SubmitOptions opts, Then then) {
  const long long id = static_cast<long long>(jobs_.size());
  jobs_.push_back({.id = id, .due = ctx_->sim().now()});
  ++outstanding_;
  stark::DatasetPtr ds;
  {
    Recorder::Scope span(rec_, SpanKind::kRddBuild, id);
    ds = build();
  }
  stark::JobId engine_id;
  {
    Recorder::Scope span(rec_, SpanKind::kSchedSubmit, id);
    engine_id = ctx_->dag().submit(
        std::move(ds), stark::ActionType::kCount, std::move(opts),
        [this, id, then = std::move(then)](const JobResult& r) {
          Recorder::Scope cb(rec_, SpanKind::kJobCallback, id);
          on_result(id, r);
          if (then) then(r);
        });
  }
  jobs_[static_cast<std::size_t>(id)].engine_id = engine_id;
}

void OpenLoop::on_result(long long id, const JobResult& r) {
  JobRecord& job = jobs_[static_cast<std::size_t>(id)];
  if (++job.callbacks > 1) return;  // check_jobs reports the repeat
  --outstanding_;
  job.result = r;
  if (id < measured_from_) return;
  for (const auto& st : r.stages) {
    phases_.sched_delay += st.sched_delay;
    phases_.compute += st.compute;
    phases_.deserialize += st.deserialize;
    phases_.gc += st.gc;
    phases_.shuffle_read += st.shuffle_read;
    phases_.disk += st.disk;
    phases_.remote_read += st.remote_read;
    phases_.overhead += st.overhead;
  }
}

void OpenLoop::run_arrivals(const std::vector<double>& due,
                          const std::function<void(int)>& arrive) {
  auto& sim = ctx_->sim();
  for (std::size_t i = 0; i < due.size(); ++i) {
    {
      Recorder::Scope span(rec_, SpanKind::kSimRun);
      sim.run(due[i]);
    }
    live_events_.push_back(static_cast<double>(sim.pending_events()));
    peak_pending_sets_ =
        std::max(peak_pending_sets_, ctx_->dag().tasks().pending_task_sets());
    Recorder::Scope span(rec_, SpanKind::kArrival,
                         static_cast<long long>(jobs_.size()));
    arrive(static_cast<int>(i));
  }
}

void OpenLoop::drain() {
  Recorder::Scope span(rec_, SpanKind::kSimRun);
  ctx_->sim().run_until([this] { return outstanding_ == 0; });
}

CheckReport check_jobs(const OpenLoop& loop,
                       const std::function<bool(JobStatus)>& allowed) {
  CheckReport rep;
  auto fail = [&rep](const JobRecord& j, const char* what) {
    ++rep.bad;
    if (rep.messages.size() < 8) {
      rep.messages.push_back("job " + std::to_string(j.id) + ": " + what);
    }
  };
  static_assert(static_cast<int>(JobStatus::kShed) == 4);
  long long by_status[5] = {0, 0, 0, 0, 0};
  const auto& jobs = loop.jobs();
  for (auto i = static_cast<std::size_t>(loop.measured_from());
       i < jobs.size(); ++i) {
    const JobRecord& j = jobs[i];
    const JobResult& r = j.result;
    ++rep.submitted;
    if (j.callbacks != 1) {
      fail(j, j.callbacks == 0 ? "callback never fired"
                               : "callback fired more than once");
      continue;
    }
    ++by_status[static_cast<int>(r.status)];
    int stage_tasks = 0;
    for (const auto& st : r.stages) stage_tasks += st.num_tasks;
    if (r.id != j.engine_id) {
      fail(j, "result id differs from the id submit returned");
    } else if (r.submit_time != j.due) {
      fail(j, "not submitted at its due time");
    } else if (r.delay != r.finish_time - r.submit_time) {
      fail(j, "delay != finish - submit");
    } else if (stage_tasks != r.num_tasks) {
      fail(j, "stage num_tasks do not sum to num_tasks");
    } else if (r.completed != (r.status == JobStatus::kCompleted)) {
      fail(j, "completed flag disagrees with status");
    } else if (!allowed(r.status)) {
      fail(j, "status the workload cannot produce");
    }
  }
  rep.completed = by_status[static_cast<int>(JobStatus::kCompleted)];
  long long all = 0;
  for (long long n : by_status) all += n;
  rep.balanced = all == rep.submitted;
  return rep;
}

std::uint64_t digest_jobs(const OpenLoop& loop) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  auto mix_double = [&mix](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix(&bits, sizeof bits);
  };
  const auto& jobs = loop.jobs();
  for (auto i = static_cast<std::size_t>(loop.measured_from());
       i < jobs.size(); ++i) {
    const JobResult& r = jobs[i].result;
    const std::int64_t fields[3] = {r.id, static_cast<std::int64_t>(r.status),
                                    r.num_tasks};
    mix(fields, sizeof fields);
    mix_double(r.delay);
    mix_double(r.bytes_from_cache);
    mix_double(r.bytes_from_net);
    mix_double(r.bytes_from_disk);
    mix_double(r.bytes_from_remote);
  }
  return h;
}

}  // namespace perfbench
