#include "recorder.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

using stark::obs::TraceEvent;
using stark::obs::TraceKind;

static_assert(static_cast<std::size_t>(TraceKind::kAutoFree) < 32,
              "Recorder::counts_ must cover every TraceKind");

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetup: return "setup";
    case SpanKind::kArrival: return "arrival";
    case SpanKind::kRddBuild: return "rdd.build";
    case SpanKind::kSchedSubmit: return "sched.submit";
    case SpanKind::kJobCallback: return "job.callback";
    case SpanKind::kSimRun: return "sim.run";
  }
  return "?";
}

std::int64_t host_ns() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::size_t Recorder::open(SpanKind kind, long long job) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({kind, parent, job, host_ns(), 0});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return spans_.size() - 1;
}

void Recorder::close(std::size_t index) {
  spans_[index].t1 = host_ns();
  open_.pop_back();
}

void Recorder::on_event(const TraceEvent& event) {
  ++counts_[static_cast<std::size_t>(event.kind)];
  if (measuring_ && stored_.size() < max_stored_) {
    stored_.push_back({event, host_ns(), open_.empty() ? -1 : open_.back()});
  }
}

void Recorder::start_measuring() {
  counts_.fill(0);
  measuring_ = true;
}

std::uint64_t Recorder::total_events() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts_) n += c;
  return n;
}

std::vector<double> Recorder::durations_us(SpanKind kind) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.kind == kind) out.push_back(static_cast<double>(s.t1 - s.t0) / 1e3);
  }
  return out;
}

double Recorder::self_seconds(SpanKind kind) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.kind == kind) ns += s.t1 - s.t0;
    if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].kind == kind) {
      ns -= s.t1 - s.t0;
    }
  }
  return static_cast<double>(ns) / 1e9;
}

bool Recorder::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  std::fputs(
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"stark_perfbench\"}},\n"
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"name\": \"benchmark spans\"}},\n"
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 2, "
      "\"args\": {\"name\": \"engine events\"}}",
      f);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"job\": %lld}}",
                 span_name(s.kind), static_cast<double>(s.t0) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3, s.job);
  }
  for (const Stored& st : stored_) {
    const TraceEvent& e = st.event;
    const char* within =
        st.span >= 0 ? span_name(spans_[static_cast<std::size_t>(st.span)].kind)
                     : "";
    const long long span_job =
        st.span >= 0 ? spans_[static_cast<std::size_t>(st.span)].job : -1;
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"engine\", \"ph\": \"i\", "
                 "\"s\": \"t\", \"pid\": 1, \"tid\": 2, \"ts\": %.3f, "
                 "\"args\": {\"sim_t0\": %.9f, \"sim_t1\": %.9f, "
                 "\"engine_job\": %lld, \"stage\": %lld, \"server\": %lld, "
                 "\"within\": \"%s\", \"job\": %lld}}",
                 stark::obs::trace_kind_name(e.kind),
                 static_cast<double>(st.host) / 1e3, e.t0, e.t1,
                 static_cast<long long>(e.job), static_cast<long long>(e.stage),
                 static_cast<long long>(e.server), within, span_job);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
