// Cluster: the set of simulated servers plus a global cached-block index.
//
// The index answers "which servers hold block B in RAM" — what Spark's
// driver-side BlockManagerMaster tracks — and keeps itself consistent with
// per-server policy-driven evictions (see cluster/eviction_policy.h) and
// server failures. Observers (the task scheduler's contention tracking,
// metrics) subscribe to block events. The cluster also hosts the lineage
// refcounts the kLrc eviction policy reads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/remote_memory.h"
#include "cluster/server.h"
#include "common/types.h"

namespace stark {

struct ClusterConfig {
  int num_servers = 40;
  ServerConfig server;
  // Rack topology for rack-level fault injection: servers [k*r, k*(r+1))
  // share rack r. 0 means a single rack spanning the whole cluster.
  int servers_per_rack = 0;
  // Eviction policy + pinning knobs shared by every server's block store
  // (see cluster/eviction_policy.h). Defaults reproduce plain LRU exactly.
  CachePolicyOptions cache;
  // Disaggregated remote-memory tier between RAM and disk (see
  // cluster/remote_memory.h). Disabled by default: demotion then goes
  // straight to the local disk store, byte-identical to the two-tier
  // engine.
  RemoteMemoryOptions remote_memory;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  // Servers and the kLrc feed point back into this object.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int size() const noexcept { return static_cast<int>(servers_.size()); }
  // Inline: the schedulers call these on every offer, so the lookup must
  // not cost a cross-TU function call. .at() keeps the bounds check.
  Server& server(ServerId id) { return *servers_.at(static_cast<std::size_t>(id)); }
  const Server& server(ServerId id) const {
    return *servers_.at(static_cast<std::size_t>(id));
  }
  const ClusterConfig& config() const noexcept { return config_; }

  // Servers currently holding the block in RAM.
  const std::vector<ServerId>& cache_locations(const BlockId& id) const;
  bool cached_on(const BlockId& id, ServerId s) const;
  bool cached_anywhere(const BlockId& id) const;

  // Stores a block on a server (policy-chosen evictions propagate to the
  // index). Returns false if the block did not fit. With `spill_on_evict`,
  // a later eviction moves the block to the server's local disk store
  // (MEMORY_AND_DISK semantics) instead of dropping it. `recompute_cost`
  // (seconds, 0 = unknown) feeds the kCostSize eviction policy. `tenant`
  // records the owner for per-tenant cache quotas (inert unless
  // ClusterConfig::cache.tenant_quota_fractions is set).
  bool insert_block(ServerId s, const BlockId& id, Bytes bytes,
                    bool spill_on_evict = false, double recompute_cost = 0.0,
                    TenantId tenant = 0);

  // Pin / unpin one replica against eviction (see BlockManager::pin). Safe
  // no-ops when the block (or the server's storage) is gone.
  void pin_block(ServerId s, const BlockId& id);
  void unpin_block(ServerId s, const BlockId& id);

  // --- lineage refcounts (kLrc eviction feed) -------------------------------
  // Submitted-but-not-completed stages reading a cached dataset, maintained
  // by the DagScheduler: +delta on stage build, -delta on stage completion
  // or job abort. Clamped at zero; every server's block store reads it.
  void bump_lineage_refcount(DatasetId dataset, int delta);
  int lineage_refcount(DatasetId dataset) const noexcept;

  // Local-disk spill store (unbounded; disk reads pay the cost model).
  Bytes disk_block_bytes(ServerId s, const BlockId& id) const;  // 0 if absent
  // Presence, not size: a legitimately empty spilled partition (e.g. a
  // fully-filtered dataset) is still a valid on-disk copy; treating
  // size-zero as absent forced a needless lineage recompute.
  bool disk_cached_on(const BlockId& id, ServerId s) const {
    const auto& store = disk_store_.at(static_cast<std::size_t>(s));
    return store.find(id) != store.end();
  }
  Bytes total_spilled_bytes() const noexcept;
  // Spilled bytes held on one server's local disk (exact maintained
  // counter; summing these in server order is what total_spilled_bytes
  // does, so the total never depends on hash-map iteration order).
  Bytes disk_used_bytes(ServerId s) const {
    return disk_used_.at(static_cast<std::size_t>(s));
  }
  // Spilled block ids on a server, sorted by (dataset, partition) so fault
  // injectors enumerating them stay deterministic across runs.
  std::vector<BlockId> spilled_blocks(ServerId s) const;
  // Drops a spilled copy without touching the in-memory one; returns true
  // if a spilled copy existed.
  bool drop_spilled_block(ServerId s, const BlockId& id);

  // Integrity faults: flip the checksum tag on one stored copy. Each
  // returns false when no such copy exists (dead server, absent block).
  // A corrupt in-memory victim that spills carries its bad tag to disk.
  bool corrupt_cached_block(ServerId s, const BlockId& id);
  bool corrupt_spilled_block(ServerId s, const BlockId& id);
  bool cached_block_corrupt(ServerId s, const BlockId& id) const;
  bool spilled_block_corrupt(ServerId s, const BlockId& id) const;

  // --- remote-memory tier (cluster/remote_memory.h) ----------------------
  // All calls are safe when the tier is disabled: predicates read false,
  // sizes 0, mutators return false / no-op, remote_stats() is null.
  bool remote_memory_enabled() const noexcept { return remote_ != nullptr; }
  bool remote_cached(const BlockId& id) const noexcept;
  Bytes remote_block_bytes(const BlockId& id) const noexcept;  // 0 if absent
  ServerId remote_block_origin(const BlockId& id) const noexcept;
  bool remote_block_corrupt(const BlockId& id) const noexcept;
  bool corrupt_remote_block(const BlockId& id);
  // Drops the pool copy (verified reads do this on a detected-corrupt
  // remote copy); returns false when absent.
  bool drop_remote_block(const BlockId& id);
  void touch_remote_block(const BlockId& id);
  Bytes remote_used_bytes() const noexcept;
  // Pool contents sorted by (dataset, partition); empty when disabled.
  std::vector<BlockId> remote_blocks() const;
  const RemoteMemoryStats* remote_stats() const noexcept {
    return remote_ ? &remote_->stats() : nullptr;
  }

  // Drops one replica (or all replicas) of a block.
  void remove_block(ServerId s, const BlockId& id);
  void remove_block_everywhere(const BlockId& id);

  // A cached read of the RAM copy on s (see BlockManager::read): one
  // store lookup answers presence and the integrity tag and refreshes the
  // copy's recency. kAbsent exactly when cached_on(id, s) is false.
  BlockManager::Read read_cached_block(ServerId s, const BlockId& id) {
    return server(s).storage().read(id);
  }

  // Failure injection: kills the server and forgets its blocks. Both calls
  // are idempotent; the return value says whether the state changed.
  bool kill_server(ServerId s);
  bool restart_server(ServerId s);

  // Network partition toggle; no-op (and no epoch bump) when unchanged.
  void set_server_reachable(ServerId s, bool reachable);

  // Monotonic counter bumped on every alive/reachable transition. Lets
  // schedulers cache topology-derived state and rebuild only after the
  // cluster actually changed.
  std::uint64_t topology_epoch() const noexcept { return topology_epoch_; }

  // Rack of a server under the configured topology (0 if single-rack).
  int rack_of(ServerId s) const noexcept;
  int num_racks() const noexcept;
  std::vector<ServerId> rack_members(int rack) const;

  // Free cores on alive servers and the number of alive servers: counters
  // the servers keep current (CoreTally), so reading them is O(1).
  int total_free_cores() const noexcept { return tally_.free_cores; }
  int alive_count() const noexcept { return tally_.alive_servers; }
  std::vector<ServerId> alive_servers() const;
  // Servers the driver can actually use: alive and not partitioned away.
  std::vector<ServerId> reachable_servers() const;

  Bytes total_cached_bytes() const noexcept;

  // Block event observers.
  using BlockObserver =
      std::function<void(ServerId, const BlockId&, bool inserted)>;
  void add_block_observer(BlockObserver obs);

  // Eviction-decision observers: each fires once per victim the eviction
  // policy picks during insert_block (before the generic not-inserted
  // notification), with the victim's size and spill fate. api::Context
  // wires the tracer's eviction-decision instants and, when overload
  // protection is on, the memory-pressure monitor's eviction-rate feed.
  using EvictionObserver =
      std::function<void(ServerId, const BlockManager::EvictedBlock&)>;
  void add_eviction_observer(EvictionObserver obs);
  // Replaces every registered eviction observer with `obs` (legacy
  // single-observer semantics; prefer add_eviction_observer).
  void set_eviction_observer(EvictionObserver obs);

  // Demotion observers: fire once per block copy moving *down* the
  // hierarchy — RAM -> remote pool (to == kRemote, origin = the evicting
  // server) and pool -> origin disk or plain RAM -> disk spill
  // (to == kDisk). api::Context wires the tracer's block-demote instants
  // when the remote tier is enabled.
  using DemotionObserver =
      std::function<void(const BlockId&, Bytes, MemoryTier to, ServerId origin)>;
  void add_demotion_observer(DemotionObserver obs);

 private:
  void notify(ServerId s, const BlockId& id, bool inserted);
  void index_remove(ServerId s, const BlockId& id);
  // Moves an evicted spill victim down the hierarchy: remote pool first
  // (when enabled), origin disk otherwise or when the pool refuses.
  void demote(ServerId s, const BlockManager::EvictedBlock& victim);
  // Disk-store mutations routed through these two so disk_used_ can never
  // drift from the store contents (re-spill subtracts the old size first).
  void disk_put(ServerId s, const BlockId& id, Bytes bytes, bool corrupted);
  bool disk_erase(ServerId s, const BlockId& id);

  struct SpilledBlock {
    Bytes bytes = 0.0;
    bool corrupted = false;
  };

  ClusterConfig config_;
  CoreTally tally_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::unordered_map<BlockId, std::vector<ServerId>, BlockIdHash> index_;
  std::vector<std::unordered_map<BlockId, SpilledBlock, BlockIdHash>>
      disk_store_;
  // Exact spilled bytes per server, maintained by disk_put/disk_erase.
  std::vector<Bytes> disk_used_;
  std::unique_ptr<RemoteMemoryPool> remote_;  // null when tier disabled
  std::vector<BlockObserver> observers_;
  std::vector<EvictionObserver> eviction_observers_;
  std::vector<DemotionObserver> demotion_observers_;
  std::unordered_map<DatasetId, int> lineage_refcounts_;
  std::vector<ServerId> empty_;
  std::uint64_t topology_epoch_ = 0;
};

}  // namespace stark
