// The benchmark's workloads. Each builds its own Context from one seed,
// sets up (ingest and warm-up to the first measured arrival), then drives
// its open-loop arrivals to completion and reports an Outcome.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "open_loop.h"
#include "recorder.h"

namespace perfbench {

struct Outcome {
  double setup_s = 0.0;  // host: Context, ingest, warm-up
  double wall_s = 0.0;   // host: measured phase
  Counters measured;     // engine counters over the measured phase
  CheckReport checks;
  std::uint64_t digest = 0;
  std::vector<double> delays;  // sim: completed jobs, from due time
  double makespan_s = 0.0;     // sim: first due time to last finish
  Phases phases;
  double live_events_p50 = 0.0;
  double peak_pending_sets = 0.0;
  double node_local_frac = 0.0;
  double tenant_jain_index = 0.0;
};

struct Workload {
  const char* name;
  // Delay percentile reported as job_delay_tail_s: the highest one that
  // keeps at least ten completed jobs beyond it at this workload's size.
  double tail_quantile;
  Outcome (*run)(std::uint64_t seed, Recorder* rec);
};

// The workload named `name`, or null.
const Workload* find_workload(const std::string& name);

// Child seed for one random source, so a single --seed feeds them all.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t source);

}  // namespace perfbench
