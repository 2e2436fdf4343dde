// Recorder: the benchmark's own spans plus a TraceSink for engine events.
//
// Spans are recorded around the benchmark's calls into each layer (setup,
// arrivals, Dataset building, DagScheduler::submit, job callbacks and
// Simulation::run slices) and kept in memory. Engine TraceEvents are
// counted by kind and, up to a cap, stored with the host time they were
// emitted at and the benchmark span that enclosed them. Everything is
// written as one Chrome/Perfetto JSON file at the end of a traced run.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace_sink.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kSetup,
  kArrival,
  kRddBuild,
  kSchedSubmit,
  kJobCallback,
  kSimRun,
};

const char* span_name(SpanKind kind);

// Host steady-clock time in nanoseconds since the first call.
std::int64_t host_ns();

class Recorder final : public stark::obs::TraceSink {
 public:
  explicit Recorder(std::size_t max_stored_events)
      : max_stored_(max_stored_events) {}

  // A span from construction to destruction. A null recorder records
  // nothing, so untraced runs pay one pointer test per span.
  class Scope {
   public:
    Scope(Recorder* rec, SpanKind kind, long long job = -1)
        : rec_(rec), index_(rec != nullptr ? rec->open(kind, job) : 0) {}
    ~Scope() {
      if (rec_ != nullptr) rec_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* rec_;
    std::size_t index_;
  };

  void on_event(const stark::obs::TraceEvent& event) override;

  // Marks the start of the measured phase: engine-event counts restart
  // from zero and events are stored from here on (up to the cap).
  void start_measuring();

  // Engine events of `kind` seen since start_measuring().
  std::uint64_t count(stark::obs::TraceKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total_events() const;

  // Host durations (microseconds) of every span of `kind`.
  std::vector<double> durations_us(SpanKind kind) const;
  // Summed duration of every span of `kind`, minus the time its direct
  // child spans cover (the layer's self time), in seconds.
  double self_seconds(SpanKind kind) const;

  // Writes every span and the stored engine events as Chrome trace JSON.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    SpanKind kind;
    int parent;  // index into spans_, -1 at top level
    long long job;
    std::int64_t t0;
    std::int64_t t1;
  };
  struct Stored {
    stark::obs::TraceEvent event;
    std::int64_t host;
    int span;  // innermost open benchmark span, -1 if none
  };

  std::size_t open(SpanKind kind, long long job);
  void close(std::size_t index);

  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
  std::vector<Stored> stored_;
  std::size_t max_stored_;
  bool measuring_ = false;
  std::array<std::uint64_t, 32> counts_{};
};

}  // namespace perfbench
