// Job<KMid, VMid, KOut, VOut>: the typed MapReduce front end.
//
//   Job<uint32_t, double, uint32_t, double> job(cluster, config);
//   job.set_mapper([&](uint32_t split, MapContext<uint32_t,double>& ctx) {...});
//   job.set_reducer([&](const uint32_t& k, const std::vector<double>& vs,
//                       ReduceContext<uint32_t,double>& ctx) {...});
//   auto out = job.RunBlocking(splits);
//
// KMid must be hashable (std::hash) and LessThan-comparable (the engine sorts
// keys before reduction, as Hadoop's merge does). All four types must be
// serde-serializable.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "mr/context.hpp"
#include "mr/driver.hpp"
#include "mr/types.hpp"

namespace asyncmr::mr {

/// Where the combiner runs (paper Section VI discusses both).
enum class CombineScope {
  kNone,
  kTask,        // inside each map task (Hadoop default)
  kNode,        // across map tasks on one node, before shuffle
  kTaskAndNode,
};

template <typename KOut, typename VOut>
struct JobOutput {
  JobResult raw;
  /// All reduce outputs decoded, in reducer order then key order.
  std::vector<std::pair<KOut, VOut>> records;
};

template <typename KMid, typename VMid, typename KOut, typename VOut>
class Job {
 public:
  using MapCtx = MapContext<KMid, VMid>;
  using ReduceCtx = ReduceContext<KOut, VOut>;
  using Mapper = std::function<void(uint32_t split_index, MapCtx& ctx)>;
  using Reducer = std::function<void(const KMid& key, const std::vector<VMid>& values,
                                     ReduceCtx& ctx)>;
  /// Associative + commutative merge of two values under one key.
  using Combiner = std::function<VMid(const VMid&, const VMid&)>;

  Job(cluster::SimCluster& cluster, JobConfig config)
      : cluster_(cluster), config_(std::move(config)) {}

  void set_mapper(Mapper m) { mapper_ = std::move(m); }
  void set_reducer(Reducer r) { reducer_ = std::move(r); }
  void set_combiner(Combiner c, CombineScope scope = CombineScope::kTask) {
    combiner_ = std::move(c);
    combine_scope_ = scope;
  }

  const JobConfig& config() const { return config_; }
  JobConfig& mutable_config() { return config_; }

  /// Runs the job to completion (drains virtual time) and decodes output.
  JobOutput<KOut, VOut> RunBlocking(std::vector<SplitDesc> splits) {
    AMR_CHECK(mapper_ && reducer_) << "job needs a mapper and a reducer";
    JobDriver driver(cluster_, config_);

    const bool task_combine = combiner_ && (combine_scope_ == CombineScope::kTask ||
                                            combine_scope_ == CombineScope::kTaskAndNode);
    const bool node_combine = combiner_ && (combine_scope_ == CombineScope::kNode ||
                                            combine_scope_ == CombineScope::kTaskAndNode);

    MapWork map_work = [this, task_combine](uint32_t split_index) {
      MapCtx ctx(config_.num_reducers,
                 task_combine ? combiner_ : Combiner{});
      mapper_(split_index, ctx);
      return ctx.Finish();
    };

    ReduceWork reduce_work = [this](uint32_t reducer_index,
                                    const std::vector<const serde::Buffer*>& inputs) {
      return RunReduce(reducer_index, inputs);
    };

    NodeCombineWork node_combine_work;
    if (node_combine) {
      node_combine_work = [this](uint32_t,
                                 const std::vector<const serde::Buffer*>& inputs) {
        return CombineStreams(inputs);
      };
    }

    JobOutput<KOut, VOut> out;
    out.raw = driver.RunBlocking(std::move(splits), std::move(map_work),
                                 std::move(reduce_work), std::move(node_combine_work));
    for (const serde::Buffer& buf : out.raw.reduce_outputs) {
      serde::KvReader<KOut, VOut> reader(buf);
      auto records = reader.ReadAll();
      AMR_CHECK(records.ok()) << records.status().ToString();
      auto& vec = records.value();
      out.records.insert(out.records.end(), std::make_move_iterator(vec.begin()),
                         std::make_move_iterator(vec.end()));
    }
    return out;
  }

 private:
  /// Decodes all input streams into one flat record run. A stable sort then
  /// groups duplicates while keeping each key's values in stream-arrival
  /// order, which is what Hadoop's merge of sorted segments yields — and it
  /// avoids the hash table plus one heap-allocated vector per key the old
  /// grouping paid.
  static std::vector<std::pair<KMid, VMid>> DecodeSorted(
      const std::vector<const serde::Buffer*>& inputs) {
    uint64_t total = 0;
    for (const serde::Buffer* buf : inputs) {
      total += serde::KvReader<KMid, VMid>(*buf).count();
    }
    std::vector<std::pair<KMid, VMid>> records;
    records.reserve(static_cast<size_t>(total));
    for (const serde::Buffer* buf : inputs) {
      serde::KvReader<KMid, VMid> reader(*buf);
      KMid k{};
      VMid v{};
      while (reader.Next(k, v)) records.emplace_back(std::move(k), std::move(v));
      AMR_CHECK(reader.status().ok()) << reader.status().ToString();
    }
    std::stable_sort(
        records.begin(), records.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    return records;
  }

  ReduceTaskOutput RunReduce(uint32_t /*reducer_index*/,
                             const std::vector<const serde::Buffer*>& inputs) {
    std::vector<std::pair<KMid, VMid>> records = DecodeSorted(inputs);
    const uint64_t input_records = records.size();

    ReduceCtx ctx;
    // Sort-phase cost: ops charged per record*log2(records) during the reduce
    // merge (Hadoop's sort/merge before reduction).
    if (input_records > 1) {
      ctx.AddOps(static_cast<uint64_t>(
          static_cast<double>(input_records) *
          std::log2(static_cast<double>(input_records))));
    }
    // Scan runs of equal keys; `values` is reused across keys.
    std::vector<VMid> values;
    for (size_t i = 0; i < records.size();) {
      values.clear();
      size_t j = i;
      while (j < records.size() && !(records[i].first < records[j].first)) {
        values.push_back(std::move(records[j].second));
        ++j;
      }
      reducer_(records[i].first, values, ctx);
      i = j;
    }
    return ctx.Finish();
  }

  /// Node-level combine: merges streams, one value per key, re-encodes in
  /// sorted key order (deterministic across standard libraries; the byte
  /// count is unchanged since records encode position-independently).
  serde::Buffer CombineStreams(const std::vector<const serde::Buffer*>& inputs) {
    std::vector<std::pair<KMid, VMid>> records = DecodeSorted(inputs);
    serde::KvWriter<KMid, VMid> writer;
    for (size_t i = 0; i < records.size();) {
      VMid acc = std::move(records[i].second);
      size_t j = i + 1;
      while (j < records.size() && !(records[i].first < records[j].first)) {
        acc = combiner_(acc, records[j].second);
        ++j;
      }
      writer.Add(records[i].first, acc);
      i = j;
    }
    return std::move(writer).Finish();
  }

  cluster::SimCluster& cluster_;
  JobConfig config_;
  Mapper mapper_;
  Reducer reducer_;
  Combiner combiner_;
  CombineScope combine_scope_ = CombineScope::kNone;
};

}  // namespace asyncmr::mr
