#include "cluster/server.h"

#include <algorithm>
#include <stdexcept>

namespace stark {

Server::Server(ServerId id, const ServerConfig& config,
               const CachePolicyOptions& cache,
               LineageRefcountFn lineage_refcount, CoreTally* tally)
    : id_(id),
      config_(config),
      free_cores_(config.cores),
      tally_(tally),
      storage_(std::make_unique<BlockManager>(
          config.ram * config.storage_fraction, cache,
          std::move(lineage_refcount))) {
  if (config.cores <= 0) throw std::invalid_argument("Server: cores must be > 0");
  if (tally_) {
    tally_->free_cores += free_cores_;
    ++tally_->alive_servers;
  }
}

void Server::acquire_core() {
  if (!alive_) throw std::logic_error("Server::acquire_core on dead server");
  if (free_cores_ <= 0) throw std::logic_error("Server::acquire_core: no free core");
  --free_cores_;
  if (tally_) --tally_->free_cores;
}

void Server::release_core() {
  if (!alive_) throw std::logic_error("Server::release_core on dead server");
  if (free_cores_ >= config_.cores) {
    throw std::logic_error("Server::release_core: all cores already free");
  }
  ++free_cores_;
  if (tally_) ++tally_->free_cores;
}

double Server::heap_utilization(Bytes task_working_set) const noexcept {
  // Capped: past ~25% overcommit a real JVM spills or dies rather than
  // thrashing ever harder, so GC pressure saturates.
  const Bytes used = storage_->used() + active_working_set_ + task_working_set;
  return config_.ram > 0.0 ? std::min(1.25, used / config_.ram) : 1.25;
}

void Server::kill() noexcept {
  if (tally_ && alive_) {
    tally_->free_cores -= free_cores_;
    --tally_->alive_servers;
  }
  alive_ = false;
  free_cores_ = 0;
  active_working_set_ = 0.0;
}

void Server::restart() noexcept {
  if (tally_) {
    tally_->free_cores += config_.cores - free_cores_;
    if (!alive_) ++tally_->alive_servers;
  }
  alive_ = true;
  free_cores_ = config_.cores;
  reachable_ = true;
  degradation_ = ServerDegradation{};
  ++generation_;  // a fresh incarnation: old task results are zombies
}

}  // namespace stark
