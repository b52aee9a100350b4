// Typed emit contexts for map and reduce user functions.
//
// MapContext partitions emissions by key hash across reducers and (optionally)
// runs a task-level combiner: associative merging of values per key before
// anything is encoded — Hadoop's in-mapper combining. Every emit charges a
// small fixed op cost so the cost model sees serialization work.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mr/types.hpp"
#include "serde/kv.hpp"

namespace asyncmr::mr {

/// Ops charged per emitted/combined record (serialization + buffer work).
inline constexpr uint64_t kOpsPerEmit = 4;

/// Key -> reducer partitioner (Hadoop's default HashPartitioner).
template <typename K>
uint32_t PartitionOf(const K& key, uint32_t num_reducers) {
  return static_cast<uint32_t>(std::hash<K>{}(key) % num_reducers);
}

template <typename K, typename V>
class MapContext {
 public:
  /// `combiner` may be empty; when set, values emitted under the same key to
  /// the same reducer are merged eagerly (associative, commutative).
  MapContext(uint32_t num_reducers, std::function<V(const V&, const V&)> combiner)
      : num_reducers_(num_reducers), combiner_(std::move(combiner)) {
    if (combiner_) {
      pending_.resize(num_reducers_);
      compact_at_.assign(num_reducers_, kCompactThreshold);
    } else {
      writers_.reserve(num_reducers_);
      for (uint32_t r = 0; r < num_reducers_; ++r) writers_.emplace_back();
    }
  }

  void Emit(const K& key, const V& value) {
    const uint32_t r = PartitionOf(key, num_reducers_);
    ops_ += kOpsPerEmit;
    ++records_;
    if (combiner_) {
      pending_[r].emplace_back(key, value);
      // Bound memory at O(unique keys + threshold), matching the eager
      // hash-combine this replaced: periodically fold the buffered run. The
      // next trigger doubles with the surviving (unique-key) size so
      // compactions amortize even when unique keys exceed the threshold.
      if (pending_[r].size() >= compact_at_[r]) {
        Compact(pending_[r]);
        compact_at_[r] = std::max(kCompactThreshold, 2 * pending_[r].size());
      }
    } else {
      writers_[r].Add(key, value);
    }
  }

  /// Charges algorithmic work (the app's own op count).
  void AddOps(uint64_t n) { ops_ += n; }

  /// Declares intra-task parallelism (see WorkReport::time_scale).
  void set_time_scale(double scale) { time_scale_ = scale; }

  /// Encodes everything into per-reducer streams.
  MapTaskOutput Finish() {
    MapTaskOutput out;
    out.time_scale = time_scale_;
    out.per_reducer.reserve(num_reducers_);
    if (combiner_) {
      // Combine deferred to stable sort + run fold per reducer stream:
      // values under a key fold in emission order — exactly the sequence the
      // old eager hash-map combining applied (a compacted prefix is the fold
      // of earlier emissions and sorts stably before later ones), so results
      // are bit-identical.
      for (uint32_t r = 0; r < num_reducers_; ++r) {
        auto& recs = pending_[r];
        Compact(recs);
        serde::KvWriter<K, V> w;
        for (const auto& [k, v] : recs) w.Add(k, v);
        out.records += w.count();
        out.per_reducer.push_back(std::move(w).Finish());
      }
    } else {
      for (auto& w : writers_) {
        out.records += w.count();
        out.per_reducer.push_back(std::move(w).Finish());
      }
    }
    out.ops = ops_;
    return out;
  }

  uint64_t emitted_records() const { return records_; }

 private:
  /// Compaction threshold for the deferred-combine buffer (records).
  static constexpr size_t kCompactThreshold = size_t{1} << 15;

  /// Sorts the buffered (key, value) run stably and folds equal-key runs
  /// left to right in place, leaving one record per key in key order.
  void Compact(std::vector<std::pair<K, V>>& recs) {
    std::stable_sort(
        recs.begin(), recs.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    size_t out = 0;
    for (size_t i = 0; i < recs.size();) {
      V acc = std::move(recs[i].second);
      size_t j = i + 1;
      while (j < recs.size() && !(recs[i].first < recs[j].first)) {
        acc = combiner_(acc, recs[j].second);
        ++j;
      }
      if (out != i) recs[out].first = std::move(recs[i].first);
      recs[out].second = std::move(acc);
      ++out;
      i = j;
    }
    recs.resize(out);
  }

  uint32_t num_reducers_;
  std::function<V(const V&, const V&)> combiner_;
  std::vector<serde::KvWriter<K, V>> writers_;                    // no combiner
  std::vector<std::vector<std::pair<K, V>>> pending_;             // combiner
  std::vector<size_t> compact_at_;  // per reducer: next compaction trigger
  uint64_t ops_ = 0;
  uint64_t records_ = 0;
  double time_scale_ = 1.0;
};

template <typename K, typename V>
class ReduceContext {
 public:
  void Emit(const K& key, const V& value) {
    writer_.Add(key, value);
    ops_ += kOpsPerEmit;
  }

  void AddOps(uint64_t n) { ops_ += n; }

  ReduceTaskOutput Finish() {
    ReduceTaskOutput out;
    out.records = writer_.count();
    out.output = std::move(writer_).Finish();
    out.ops = ops_;
    return out;
  }

 private:
  serde::KvWriter<K, V> writer_;
  uint64_t ops_ = 0;
};

}  // namespace asyncmr::mr
