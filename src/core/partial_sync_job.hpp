// PartialSyncJob: the paper's proposed API (Section IV), executable on the
// simulated cluster. The user supplies the four functions
//
//   lmap     — local map over one partition element
//   lreduce  — local reduce over EmitLocalIntermediate() output
//   gemit    — gmap's final emission after local convergence (defaults to
//              "for each value in lreduce-output: EmitIntermediate(k, v)")
//   greduce  — global reduce over gmap outputs
//
// and this class constructs gmap from lmap/lreduce exactly as in the paper's
// Figure 1 (via core::LocalMapReduce), then runs one *global iteration* as a
// MapReduce job: a wave of gmap tasks — each iterating its local MapReduce
// eagerly to local convergence — followed by the (expensive) global
// synchronization into greduce. Callers loop over global iterations until
// their global convergence criterion holds; see apps/ for PageRank, Shortest
// Path and K-Means built on this API.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/local_runtime.hpp"
#include "core/metrics.hpp"
#include "mr/job.hpp"

namespace asyncmr::core {

/// The gmap hashtable is dense (see core/local_runtime.hpp): the state that
/// init_state returns has one slot per local key, and Combine folds the local
/// intermediates. K is the global key type and must be constructible from a
/// slot index for the default gemit.
template <typename X, typename K, typename V, typename Combine>
class PartialSyncJob {
 public:
  using LocalMR = LocalMapReduce<X, V, Combine>;
  using State = LocalState<V>;
  using Intermediate = typename LocalMR::Intermediate;
  using LocalReduceCtx = typename LocalMR::ReduceContext;
  using GlobalMapCtx = mr::MapContext<K, V>;
  using GlobalReduceCtx = mr::ReduceContext<K, V>;

  /// Supplies the elements of one partition (gmap's xs argument).
  using PartitionDataFn = std::function<std::span<const X>(uint32_t partition)>;
  /// Builds the gmap hashtable's initial contents for one partition.
  using InitStateFn = std::function<State(uint32_t partition)>;
  /// lreduce, told which partition's gmap runs it (gemit is told the same).
  using LReduceFn =
      std::function<void(uint32_t partition, uint32_t key, const V& value,
                         const State& state, LocalReduceCtx& ctx)>;
  /// gmap's final emission once the local MapReduce converged.
  using GEmitFn =
      std::function<void(uint32_t partition, const State& state, GlobalMapCtx& ctx)>;
  using GReduceFn = std::function<void(const K& key, const std::vector<V>& values,
                                       GlobalReduceCtx& ctx)>;

  struct Config {
    mr::JobConfig job;
    typename LocalMR::Config local;
    /// Compute-time multiplier for gmap tasks; < 1 models the thread pool the
    /// paper suggests for lmap/lreduce inside one host.
    double gmap_time_scale = 1.0;
  };

  PartialSyncJob(cluster::SimCluster& cluster, Config config)
      : cluster_(cluster), config_(std::move(config)) {}

  void set_lmap(typename LocalMR::LMapFn fn) { lmap_ = std::move(fn); }
  void set_lreduce(LReduceFn fn) { lreduce_ = std::move(fn); }
  void set_local_convergence(typename LocalMR::ConvergeFn fn) {
    local_converged_ = std::move(fn);
  }
  void set_greduce(GReduceFn fn) { greduce_ = std::move(fn); }
  void set_partition_data(PartitionDataFn fn) { partition_data_ = std::move(fn); }
  void set_init_state(InitStateFn fn) { init_state_ = std::move(fn); }
  /// Optional; defaults to emitting every hashtable slot as (K(i), state[i])
  /// in index order (Figure 1).
  void set_gemit(GEmitFn fn) { gemit_ = std::move(fn); }

  /// Runs one global iteration: |splits| gmap tasks, then greduce.
  mr::JobOutput<K, V> RunGlobalIteration(std::vector<mr::SplitDesc> splits) {
    AMR_CHECK(lmap_ && lreduce_ && local_converged_ && greduce_ && partition_data_ &&
              init_state_)
        << "PartialSyncJob: lmap/lreduce/local_convergence/greduce/partition_data/"
           "init_state must all be set";
    last_local_stats_.assign(splits.size(), LocalRunStats{});

    mr::Job<K, V, K, V> job(cluster_, config_.job);

    // --- gmap: Figure 1's construction --------------------------------------
    job.set_mapper([this](uint32_t partition, GlobalMapCtx& ctx) {
      LocalMR local(
          lmap_,
          [this, partition](uint32_t key, const V& value, const State& state,
                            LocalReduceCtx& lctx) {
            lreduce_(partition, key, value, state, lctx);
          },
          local_converged_, config_.local);
      State state = init_state_(partition);
      const std::span<const X> xs = partition_data_(partition);
      const LocalRunStats stats = local.Run(xs, state);
      last_local_stats_[partition] = stats;
      ctx.AddOps(stats.ops);
      ctx.set_time_scale(config_.gmap_time_scale);
      if (gemit_) {
        gemit_(partition, state, ctx);
      } else {
        for (uint32_t i = 0; i < state.size(); ++i) ctx.Emit(K(i), state[i]);
      }
    });

    job.set_reducer([this](const K& key, const std::vector<V>& values,
                           GlobalReduceCtx& ctx) { greduce_(key, values, ctx); });

    return job.RunBlocking(std::move(splits));
  }

  /// Per-partition local-MapReduce statistics from the last global iteration.
  const std::vector<LocalRunStats>& local_stats() const { return last_local_stats_; }

  /// Sum of partial synchronizations in the last global iteration.
  uint32_t last_local_iterations() const {
    uint32_t sum = 0;
    for (const auto& s : last_local_stats_) sum += s.local_iterations;
    return sum;
  }

  Config& mutable_config() { return config_; }

 private:
  cluster::SimCluster& cluster_;
  Config config_;
  typename LocalMR::LMapFn lmap_;
  LReduceFn lreduce_;
  typename LocalMR::ConvergeFn local_converged_;
  GReduceFn greduce_;
  PartitionDataFn partition_data_;
  InitStateFn init_state_;
  GEmitFn gemit_;
  std::vector<LocalRunStats> last_local_stats_;
};

}  // namespace asyncmr::core
