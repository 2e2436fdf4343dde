#include "rdd/dataset.h"

#include <atomic>
#include <cstdio>
#include <unordered_set>
#include <stdexcept>

namespace stark {

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kSource: return "source";
    case Op::kMap: return "map";
    case Op::kFilter: return "filter";
    case Op::kPartitionBy: return "partitionBy";
    case Op::kReduceByKey: return "reduceByKey";
    case Op::kCoGroup: return "cogroup";
    case Op::kJoin: return "join";
    case Op::kUnion: return "union";
  }
  return "?";
}

int Dataset::next_id() noexcept {
  static std::atomic<int> counter{0};
  return counter.fetch_add(1);
}

Dataset::Dataset(std::string name, Op op)
    : id_(next_id()), name_(std::move(name)), op_(op) {}

DatasetPtr Dataset::make(std::string name, Op op) {
  // std::make_shared needs a public ctor; this keeps it private.
  return DatasetPtr(new Dataset(std::move(name), op));
}

DatasetPtr Dataset::source(std::string name, KeyHistogramPtr hist,
                           int num_splits) {
  if (hist == nullptr) throw std::invalid_argument("source: null histogram");
  if (num_splits <= 0) throw std::invalid_argument("source: splits must be > 0");
  auto ds = make(std::move(name), Op::kSource);
  ds->source_hist_ = std::move(hist);
  ds->num_partitions_ = num_splits;
  return ds;
}

DatasetPtr Dataset::map(const MapSpec& spec, std::string name) {
  auto ds = make(name.empty() ? name_ + ".map" : std::move(name), Op::kMap);
  ds->deps_ = {{shared_from_this(), /*wide=*/false}};
  ds->map_spec_ = spec;
  ds->num_partitions_ = num_partitions_;
  if (spec.preserves_partitioning) {
    ds->partitioner_ = partitioner_;
    ds->ns_ = ns_;
  }
  return ds;
}

DatasetPtr Dataset::map_values(double bytes_factor, std::string name) {
  return map({.bytes_factor = bytes_factor, .preserves_partitioning = true},
             name.empty() ? name_ + ".mapValues" : std::move(name));
}

DatasetPtr Dataset::sample(double fraction, std::string name) {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("sample: fraction must be in [0, 1]");
  }
  return filter({.selectivity = fraction},
                name.empty() ? name_ + ".sample" : std::move(name));
}

DatasetPtr Dataset::distinct(PartitionerPtr p, std::string name) {
  // distinct = reduceByKey(first-wins): one record per key, holding a
  // single record's worth of bytes.
  auto rbk = reduce_by_key(std::move(p), 1.0,
                           name.empty() ? name_ + ".distinct" : std::move(name));
  rbk->distinct_ = true;
  return rbk;
}

DatasetPtr Dataset::distinct(std::string name) {
  if (partitioner_ == nullptr) {
    throw std::logic_error(
        "distinct without partitioner requires a partitioned parent");
  }
  return distinct(partitioner_, std::move(name));
}

DatasetPtr Dataset::filter(FilterSpec spec, std::string name) {
  auto ds =
      make(name.empty() ? name_ + ".filter" : std::move(name), Op::kFilter);
  ds->deps_ = {{shared_from_this(), /*wide=*/false}};
  ds->filter_spec_ = std::move(spec);
  ds->num_partitions_ = num_partitions_;
  ds->partitioner_ = partitioner_;
  ds->ns_ = ns_;
  return ds;
}

DatasetPtr Dataset::partition_by(PartitionerPtr p, std::string ns,
                                 std::string name) {
  if (p == nullptr) throw std::invalid_argument("partition_by: null partitioner");
  const bool narrow = co_partitioned_with(*p);
  auto ds = make(name.empty() ? name_ + ".partitionBy" : std::move(name),
                 Op::kPartitionBy);
  ds->deps_ = {{shared_from_this(), /*wide=*/!narrow}};
  ds->partitioner_ = std::move(p);
  ds->num_partitions_ = ds->partitioner_->num_partitions();
  ds->ns_ = ns.empty() ? (narrow ? ns_ : std::string{}) : std::move(ns);
  return ds;
}

DatasetPtr Dataset::reduce_by_key(PartitionerPtr p, double bytes_factor,
                                  std::string name) {
  if (p == nullptr) throw std::invalid_argument("reduce_by_key: null partitioner");
  const bool narrow = co_partitioned_with(*p);
  auto ds = make(name.empty() ? name_ + ".reduceByKey" : std::move(name),
                 Op::kReduceByKey);
  ds->deps_ = {{shared_from_this(), /*wide=*/!narrow}};
  ds->partitioner_ = std::move(p);
  ds->num_partitions_ = ds->partitioner_->num_partitions();
  ds->output_bytes_factor_ = bytes_factor;
  ds->ns_ = narrow ? ns_ : std::string{};
  return ds;
}

DatasetPtr Dataset::reduce_by_key(double bytes_factor, std::string name) {
  if (partitioner_ == nullptr) {
    throw std::logic_error(
        "reduce_by_key without partitioner requires a partitioned parent");
  }
  return reduce_by_key(partitioner_, bytes_factor, std::move(name));
}

DatasetPtr Dataset::cogroup(std::vector<DatasetPtr> parents, PartitionerPtr p,
                            std::string name) {
  if (parents.empty()) throw std::invalid_argument("cogroup: no parents");
  if (p == nullptr) throw std::invalid_argument("cogroup: null partitioner");
  auto ds = make(name.empty() ? "cogroup" : std::move(name), Op::kCoGroup);
  ds->partitioner_ = std::move(p);
  ds->num_partitions_ = ds->partitioner_->num_partitions();
  for (auto& parent : parents) {
    const bool narrow = parent->co_partitioned_with(*ds->partitioner_);
    if (narrow && ds->ns_.empty()) ds->ns_ = parent->ns();
    ds->deps_.push_back({std::move(parent), /*wide=*/!narrow});
  }
  return ds;
}

DatasetPtr Dataset::join(DatasetPtr left, DatasetPtr right, PartitionerPtr p,
                         double output_bytes_factor, std::string name) {
  if (left == nullptr || right == nullptr) {
    throw std::invalid_argument("join: null parent");
  }
  if (p == nullptr) throw std::invalid_argument("join: null partitioner");
  auto ds = make(name.empty() ? "join" : std::move(name), Op::kJoin);
  ds->partitioner_ = std::move(p);
  ds->num_partitions_ = ds->partitioner_->num_partitions();
  ds->output_bytes_factor_ = output_bytes_factor;
  for (auto& parent : {left, right}) {
    const bool narrow = parent->co_partitioned_with(*ds->partitioner_);
    if (narrow && ds->ns_.empty()) ds->ns_ = parent->ns();
    ds->deps_.push_back({parent, /*wide=*/!narrow});
  }
  return ds;
}

DatasetPtr Dataset::union_all(std::vector<DatasetPtr> parents,
                              std::string name) {
  if (parents.empty()) throw std::invalid_argument("union_all: no parents");
  const PartitionerPtr& p = parents.front()->partitioner();
  if (p == nullptr) {
    throw std::invalid_argument("union_all: parents must be partitioned");
  }
  for (const auto& parent : parents) {
    if (!parent->co_partitioned_with(*p)) {
      throw std::invalid_argument(
          "union_all: parents must be co-partitioned "
          "(PartitionerAwareUnionRDD semantics)");
    }
  }
  auto ds = make(name.empty() ? "union" : std::move(name), Op::kUnion);
  ds->partitioner_ = p;
  ds->num_partitions_ = p->num_partitions();
  ds->ns_ = parents.front()->ns();
  for (auto& parent : parents) {
    ds->deps_.push_back({std::move(parent), /*wide=*/false});
  }
  return ds;
}

bool Dataset::has_shuffle_dep() const noexcept {
  for (const auto& d : deps_) {
    if (d.wide) return true;
  }
  return false;
}

bool Dataset::co_partitioned_with(const Partitioner& p) const noexcept {
  return partitioner_ != nullptr && partitioner_->equals(p);
}

std::string Dataset::describe() const {
  // Appends only: GCC 12 misreports `"literal" + std::string&&` under
  // -Wrestrict.
  std::string out = "[";
  out += std::to_string(id_);
  out += "] ";
  out += name_;
  out += " <";
  out += op_name(op_);
  out += "> partitions=";
  out += std::to_string(num_partitions_);
  if (!ns_.empty()) {
    out += " ns=";
    out += ns_;
  }
  if (cache_requested_) out += " cached";
  if (partitioner_) {
    out += ' ';
    out += partitioner_->describe();
  }
  return out;
}

std::string Dataset::debug_string() const {
  std::string out;
  std::vector<std::pair<const Dataset*, int>> stack{{this, 0}};
  std::unordered_set<DatasetId> seen;
  while (!stack.empty()) {
    const auto [ds, depth] = stack.back();
    stack.pop_back();
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
    out += ds->describe();
    if (!seen.insert(ds->id()).second) {
      out += " (*)\n";  // already expanded elsewhere
      continue;
    }
    out += '\n';
    for (auto it = ds->deps().rbegin(); it != ds->deps().rend(); ++it) {
      stack.emplace_back(it->parent.get(), depth + 1);
    }
  }
  return out;
}

std::string Dataset::to_dot() const {
  std::string out = "digraph lineage {\n  rankdir=BT;\n";
  std::vector<const Dataset*> stack{this};
  std::unordered_set<DatasetId> seen{id()};
  std::string edges;
  while (!stack.empty()) {
    const Dataset* ds = stack.back();
    stack.pop_back();
    char node[256];
    std::snprintf(node, sizeof(node),
                  "  n%d [label=\"%s\\n%s p=%d%s\"%s];\n", ds->id(),
                  ds->name().c_str(), op_name(ds->op()),
                  ds->num_partitions(),
                  ds->cache_requested() ? " (cached)" : "",
                  ds->has_shuffle_dep() ? " shape=box" : "");
    out += node;
    for (const auto& dep : ds->deps()) {
      char edge[128];
      std::snprintf(edge, sizeof(edge), "  n%d -> n%d%s;\n",
                    dep.parent->id(), ds->id(),
                    dep.wide ? " [style=dashed label=\"shuffle\"]" : "");
      edges += edge;
      if (seen.insert(dep.parent->id()).second) {
        stack.push_back(dep.parent.get());
      }
    }
  }
  out += edges;
  out += "}\n";
  return out;
}

const std::vector<Bytes>& Dataset::partition_bytes() const {
  if (part_bytes_.has_value()) return *part_bytes_;
  std::vector<Bytes> out;
  switch (op_) {
    case Op::kSource: {
      // Input splits are byte-balanced, like HDFS blocks.
      const Bytes per = source_hist_->total_bytes() /
                        static_cast<double>(num_partitions_);
      out.assign(static_cast<std::size_t>(num_partitions_), per);
      break;
    }
    case Op::kMap: {
      out = deps_[0].parent->partition_bytes();
      for (auto& b : out) b *= map_spec_.bytes_factor;
      break;
    }
    case Op::kFilter: {
      if (filter_spec_.key_pred && partitioner_ != nullptr) {
        const auto& p = *partitioner_;
        out = histogram().partition_bytes(
            [&p](Key k) { return p.get_partition(k); }, num_partitions_);
      } else {
        out = deps_[0].parent->partition_bytes();
        for (auto& b : out) b *= filter_spec_.selectivity;
      }
      break;
    }
    case Op::kPartitionBy:
    case Op::kReduceByKey: {
      if (!deps_[0].wide && op_ == Op::kPartitionBy) {
        out = deps_[0].parent->partition_bytes();
      } else {
        const auto& p = *partitioner_;
        out = histogram().partition_bytes(
            [&p](Key k) { return p.get_partition(k); }, num_partitions_);
      }
      break;
    }
    case Op::kCoGroup:
    case Op::kJoin:
    case Op::kUnion: {
      out.assign(static_cast<std::size_t>(num_partitions_), 0.0);
      for (std::size_t i = 0; i < deps_.size(); ++i) {
        const auto& dep = deps_[i];
        if (!dep.wide) {
          const auto& pb = dep.parent->partition_bytes();
          for (std::size_t j = 0; j < out.size(); ++j) out[j] += pb[j];
        } else {
          const auto& sb = shuffle_input_bytes(i);
          for (std::size_t j = 0; j < out.size(); ++j) out[j] += sb[j];
        }
      }
      for (auto& b : out) b *= output_bytes_factor_;
      break;
    }
  }
  part_bytes_ = std::move(out);
  return *part_bytes_;
}

Bytes Dataset::total_bytes() const {
  Bytes total = 0.0;
  for (Bytes b : partition_bytes()) total += b;
  return total;
}

const KeyHistogram& Dataset::histogram() const {
  if (hist_ != nullptr) return *hist_;
  switch (op_) {
    case Op::kSource:
      hist_ = source_hist_;
      break;
    case Op::kMap:
      hist_ = std::make_shared<KeyHistogram>(
          deps_[0].parent->histogram().scaled(map_spec_.record_factor,
                                              map_spec_.bytes_factor));
      break;
    case Op::kFilter:
      if (filter_spec_.key_pred) {
        hist_ = std::make_shared<KeyHistogram>(
            deps_[0].parent->histogram().filtered(filter_spec_.key_pred));
      } else {
        hist_ = std::make_shared<KeyHistogram>(
            deps_[0].parent->histogram().scaled(filter_spec_.selectivity,
                                                filter_spec_.selectivity));
      }
      break;
    case Op::kPartitionBy:
      // Same content, new layout: share the parent's histogram.
      deps_[0].parent->histogram();
      hist_ = deps_[0].parent->hist_;
      break;
    case Op::kReduceByKey:
      hist_ = std::make_shared<KeyHistogram>(
          distinct_
              ? deps_[0].parent->histogram().distinct()
              : deps_[0].parent->histogram().reduced_by_key(
                    output_bytes_factor_));
      break;
    case Op::kCoGroup:
    case Op::kJoin:
    case Op::kUnion: {
      std::vector<const KeyHistogram*> inputs;
      inputs.reserve(deps_.size());
      for (const auto& dep : deps_) inputs.push_back(&dep.parent->histogram());
      auto merged = KeyHistogram::merge(inputs);
      if (output_bytes_factor_ != 1.0) {
        merged = merged.scaled(1.0, output_bytes_factor_);
      }
      hist_ = std::make_shared<KeyHistogram>(std::move(merged));
      break;
    }
  }
  return *hist_;
}

const std::vector<Bytes>& Dataset::shuffle_input_bytes(
    std::size_t dep_index) const {
  if (dep_index >= deps_.size()) {
    throw std::out_of_range("shuffle_input_bytes: bad dep index");
  }
  if (!deps_[dep_index].wide) {
    throw std::logic_error("shuffle_input_bytes: dependency is narrow");
  }
  if (shuffle_bytes_.size() != deps_.size()) {
    shuffle_bytes_.resize(deps_.size());
  }
  auto& slot = shuffle_bytes_[dep_index];
  if (!slot.has_value()) {
    const auto& p = *partitioner_;
    slot = deps_[dep_index].parent->histogram().partition_bytes(
        [&p](Key k) { return p.get_partition(k); }, num_partitions_);
  }
  return *slot;
}

}  // namespace stark
