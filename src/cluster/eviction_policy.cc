#include "cluster/eviction_policy.h"

#include <algorithm>
#include <stdexcept>

namespace stark {

const char* eviction_policy_name(EvictionPolicyKind kind) {
  switch (kind) {
    case EvictionPolicyKind::kLru: return "lru";
    case EvictionPolicyKind::kLrc: return "lrc";
    case EvictionPolicyKind::kCostSize: return "cost-size";
  }
  return "unknown";
}

void CachePolicyOptions::validate() const {
  if (min_recompute_cost <= 0.0) {
    throw std::invalid_argument(
        "CachePolicyOptions: min_recompute_cost must be > 0 (got " +
        std::to_string(min_recompute_cost) + ")");
  }
  for (std::size_t i = 0; i < tenant_quota_fractions.size(); ++i) {
    const double f = tenant_quota_fractions[i];
    if (f < 0.0 || f > 1.0) {
      throw std::invalid_argument(
          "CachePolicyOptions: tenant_quota_fractions[" + std::to_string(i) +
          "] must be in [0, 1] (got " + std::to_string(f) + ")");
    }
  }
}

EvictionPolicy::Handle EvictionPolicy::on_insert(const BlockId& id,
                                                 Bytes bytes,
                                                 double recompute_cost) {
  on_remove(id);  // resize-or-insert: never two nodes for one id
  recency_.push_front(Node{id, bytes, recompute_cost});
  index_.emplace(id, recency_.begin());
  return recency_.begin();
}

void EvictionPolicy::on_touch(const BlockId& id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  on_touch(it->second);
}

void EvictionPolicy::on_remove(const BlockId& id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  recency_.erase(it->second);
  index_.erase(it);
}

void EvictionPolicy::on_clear() {
  recency_.clear();
  index_.clear();
}

std::vector<BlockId> EvictionPolicy::blocks_mru_order() const {
  std::vector<BlockId> out;
  out.reserve(recency_.size());
  for (const Node& n : recency_) out.push_back(n.id);
  return out;
}

namespace {

bool is_pinned(const std::function<bool(const BlockId&)>& pinned,
               const BlockId& id) {
  return pinned && pinned(id);
}

// Classic LRU: the least-recently-used unpinned block. With no pins this is
// exactly recency_.back() — the victim the hardwired list used to pick —
// so the default configuration stays byte-identical.
class LruPolicy final : public EvictionPolicy {
 public:
  EvictionPolicyKind kind() const noexcept override {
    return EvictionPolicyKind::kLru;
  }
  std::optional<BlockId> choose_victim(
      const BlockId& /*incoming*/,
      const std::function<bool(const BlockId&)>& pinned) const override {
    for (auto it = recency_.rbegin(); it != recency_.rend(); ++it) {
      if (!is_pinned(pinned, it->id)) return it->id;
    }
    return std::nullopt;
  }
};

// Least-reference-count: evict the block whose dataset the fewest in-flight
// stages still read. Scanning from the LRU end with a strict `<` makes LRU
// order the tie-breaker, so with no submitted jobs (all refcounts 0) Lrc
// behaves exactly like Lru.
class LrcPolicy final : public EvictionPolicy {
 public:
  explicit LrcPolicy(LineageRefcountFn refcount)
      : refcount_(std::move(refcount)) {}
  EvictionPolicyKind kind() const noexcept override {
    return EvictionPolicyKind::kLrc;
  }
  std::optional<BlockId> choose_victim(
      const BlockId& incoming,
      const std::function<bool(const BlockId&)>& pinned) const override {
    std::optional<BlockId> best;
    int best_refs = 0;
    for (auto it = recency_.rbegin(); it != recency_.rend(); ++it) {
      if (it->id.dataset == incoming.dataset) continue;  // same-RDD guard
      if (is_pinned(pinned, it->id)) continue;
      const int refs = refcount_ ? refcount_(it->id.dataset) : 0;
      if (!best.has_value() || refs < best_refs) {
        best = it->id;
        best_refs = refs;
        if (best_refs == 0) break;  // cannot do better than dead
      }
    }
    return best;
  }

 private:
  LineageRefcountFn refcount_;
};

// Weighted cost/size: evict the block with the most bytes reclaimed per
// second of recompute risked (max size / recompute_cost). The cost floor
// keeps unknown (0) estimates finite; strict `>` from the LRU end makes LRU
// order the tie-breaker.
class CostSizePolicy final : public EvictionPolicy {
 public:
  explicit CostSizePolicy(double min_recompute_cost)
      : min_cost_(min_recompute_cost) {}
  EvictionPolicyKind kind() const noexcept override {
    return EvictionPolicyKind::kCostSize;
  }
  std::optional<BlockId> choose_victim(
      const BlockId& incoming,
      const std::function<bool(const BlockId&)>& pinned) const override {
    std::optional<BlockId> best;
    double best_score = 0.0;
    for (auto it = recency_.rbegin(); it != recency_.rend(); ++it) {
      if (it->id.dataset == incoming.dataset) continue;  // same-RDD guard
      if (is_pinned(pinned, it->id)) continue;
      const double score =
          it->bytes / std::max(min_cost_, it->recompute_cost);
      if (!best.has_value() || score > best_score) {
        best = it->id;
        best_score = score;
      }
    }
    return best;
  }

 private:
  double min_cost_;
};

}  // namespace

std::unique_ptr<EvictionPolicy> make_eviction_policy(
    const CachePolicyOptions& options, LineageRefcountFn lineage_refcount) {
  switch (options.policy) {
    case EvictionPolicyKind::kLru:
      return std::make_unique<LruPolicy>();
    case EvictionPolicyKind::kLrc:
      return std::make_unique<LrcPolicy>(std::move(lineage_refcount));
    case EvictionPolicyKind::kCostSize:
      return std::make_unique<CostSizePolicy>(options.min_recompute_cost);
  }
  throw std::invalid_argument("make_eviction_policy: unknown policy kind");
}

}  // namespace stark
