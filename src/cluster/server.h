// A simulated worker node: execution slots (cores) plus a block store.
#pragma once

#include <memory>

#include "cluster/block_manager.h"
#include "common/types.h"

namespace stark {

struct ServerConfig {
  int cores = 8;
  Bytes ram = 16.0 * kGiB;
  // Fraction of RAM given to the block store (spark.storage.memoryFraction).
  double storage_fraction = 0.6;
};

// Cluster-wide core accounting that every Server of one Cluster keeps
// current from acquire_core/release_core/kill/restart, so the schedulers
// read the totals instead of rescanning the servers. Owned by the Cluster.
struct CoreTally {
  int free_cores = 0;     // free cores summed over alive servers
  int alive_servers = 0;
};

// Gray-failure mode: multipliers on the simulated time a task spends on
// each resource while running on this server. 1.0 everywhere = healthy.
struct ServerDegradation {
  double cpu = 1.0;
  double disk = 1.0;
  double net = 1.0;
  bool degraded() const noexcept {
    return cpu != 1.0 || disk != 1.0 || net != 1.0;
  }
};

class Server {
 public:
  // `cache` selects the block store's eviction policy (default LRU) and
  // `lineage_refcount` feeds its kLrc variant (may be empty); `tally`
  // (may be null) is the owning Cluster's core accounting. All default so
  // tests can construct bare servers unchanged.
  Server(ServerId id, const ServerConfig& config,
         const CachePolicyOptions& cache = {},
         LineageRefcountFn lineage_refcount = nullptr,
         CoreTally* tally = nullptr);

  ServerId id() const noexcept { return id_; }
  int cores() const noexcept { return config_.cores; }
  Bytes ram() const noexcept { return config_.ram; }
  bool alive() const noexcept { return alive_; }

  // Incarnation counter: bumped on restart. Driver-side bookkeeping uses it
  // to tell a restarted executor from the incarnation a task was sent to
  // (a result arriving from a dead incarnation is dropped as a zombie).
  int generation() const noexcept { return generation_; }

  // Network partition: the server keeps running (tasks execute, blocks
  // stay) but cannot exchange heartbeats, task results or shuffle data.
  bool reachable() const noexcept { return reachable_; }
  void set_reachable(bool r) noexcept { reachable_ = r; }

  const ServerDegradation& degradation() const noexcept {
    return degradation_;
  }
  void set_degradation(const ServerDegradation& d) noexcept {
    degradation_ = d;
  }
  void clear_degradation() noexcept { degradation_ = ServerDegradation{}; }

  int free_cores() const noexcept { return free_cores_; }
  bool has_free_core() const noexcept { return alive_ && free_cores_ > 0; }
  // Both throw std::logic_error on a dead server or when no core is
  // held / free, so the cluster tally can never drift silently.
  void acquire_core();
  void release_core();

  // Cumulative core-seconds of task execution on this server; divide by
  // (cores x wall time) for utilization. The task scheduler accounts it.
  void add_busy_seconds(double s) noexcept { busy_seconds_ += s; }
  double busy_seconds() const noexcept { return busy_seconds_; }

  BlockManager& storage() noexcept { return *storage_; }
  const BlockManager& storage() const noexcept { return *storage_; }

  // Deserialized working sets of tasks currently running here. The task
  // scheduler registers them at launch and removes them at completion, so
  // concurrent tasks see each other's heap pressure.
  void add_working_set(Bytes ws) noexcept { active_working_set_ += ws; }
  void remove_working_set(Bytes ws) noexcept {
    active_working_set_ -= ws;
    if (active_working_set_ < 0.0) active_working_set_ = 0.0;
  }
  Bytes active_working_set() const noexcept { return active_working_set_; }

  // Heap pressure seen by a task with the given deserialized working set:
  // storage pool usage plus all running tasks' objects, against total RAM.
  double heap_utilization(Bytes task_working_set) const noexcept;

  // Failure handling: a dead server has no cores and loses its blocks
  // (the Cluster drops them from the index). kill() on a dead server is a
  // no-op for the tally; restart() on a live one frees every core.
  void kill() noexcept;
  void restart() noexcept;

 private:
  ServerId id_;
  ServerConfig config_;
  int free_cores_;
  bool alive_ = true;
  bool reachable_ = true;
  int generation_ = 0;
  ServerDegradation degradation_;
  Bytes active_working_set_ = 0.0;
  double busy_seconds_ = 0.0;
  CoreTally* tally_ = nullptr;
  std::unique_ptr<BlockManager> storage_;
};

}  // namespace stark
