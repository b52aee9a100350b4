// LocalMapReduce: the paper's local (partial-synchronization) MapReduce
// runtime — the body of a gmap task (Figure 1 of the paper):
//
//   gmap(xs : X list) {
//     while (no-local-convergence-intimated) {
//       for each element x in xs { lmap(x); }   // EmitLocalIntermediate()
//       lreduce();                              // EmitLocal() -> hashtable
//     }
//     for each value in lreduce-output { EmitIntermediate(key, value); }
//   }
//
// A hashtable keyed by LK stores the intermediate and final results of the
// local MapReduce; lmap reads it, lreduce rewrites it, and on local
// convergence its contents become gmap's output. Successive local iterations
// are *eagerly scheduled*: they start immediately after the partial (local)
// synchronization, which costs no network time — only the per-iteration
// barrier between lmap and lreduce within this task.
//
// The hashtable is a FlatTable: flat storage iterated in first-insertion
// order. Run() keeps one intermediate table and one next-state table for the
// whole loop, so a local iteration clears and copies into warm buffers
// instead of allocating a node per key.
//
// Determinism contract:
//   - lreduce visits keys in first-emission order. Emission follows xs order,
//     so that order — and with it the last writer of any key that lreduce
//     writes via EmitLocal — is a pure function of the inputs.
//   - lmap invocations may run on a thread pool (the paper's Section IV notes
//     the local operations "can use a thread-pool to extract further
//     parallelism"). Per-chunk emitters merge in chunk order, which keeps
//     first-emission order and every grouped value list identical to a serial
//     run. With a combiner, each chunk folds its own emissions and the merge
//     folds the chunk results, so the fold is reassociated: results are
//     identical run to run, but may differ from serial in the last bits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "core/flat_table.hpp"
#include "mr/context.hpp"

namespace asyncmr::core {

/// The hashtable holding local MapReduce state between local iterations.
template <typename LK, typename LV>
using LocalState = FlatTable<LK, LV>;

/// Collects EmitLocalIntermediate() output of lmap calls for one iteration.
/// With a combiner (associative merge), values are folded on emit — this is
/// exactly the paper's "hashtable ... used to store the intermediate and
/// final results of the local MapReduce", and it keeps the memory footprint
/// of a local iteration at one entry per key.
template <typename LK, typename LV>
class LocalIntermediate {
 public:
  using CombineFn = std::function<LV(const LV&, const LV&)>;

  explicit LocalIntermediate(CombineFn combine = nullptr)
      : combine_(std::move(combine)) {}

  void EmitLocalIntermediate(const LK& key, const LV& value) {
    ops_ += mr::kOpsPerEmit;
    ++records_;
    if (combine_) {
      auto [it, inserted] = combined_.try_emplace(key, value);
      if (!inserted) it->second = combine_(it->second, value);
    } else {
      groups_[key].push_back(value);
    }
  }
  void AddOps(uint64_t n) { ops_ += n; }

  bool combining() const { return static_cast<bool>(combine_); }
  FlatTable<LK, std::vector<LV>>& groups() { return groups_; }
  FlatTable<LK, LV>& combined() { return combined_; }
  uint64_t ops() const { return ops_; }
  uint64_t records() const { return records_; }

  /// Empties the emitter for the next local iteration, keeping its buffers.
  void Clear() {
    groups_.clear();
    combined_.clear();
    ops_ = 0;
    records_ = 0;
  }

  /// Merges another emitter's output (thread-pool chunk merge). Chunks
  /// arrive in chunk order and each table iterates in first-emission order,
  /// so the merged key order is the serial run's first-emission order.
  void Merge(LocalIntermediate&& other) {
    if (combine_) {
      for (auto& [k, v] : other.combined_) {
        auto [it, inserted] = combined_.try_emplace(k, v);
        if (!inserted) it->second = combine_(it->second, v);
      }
    } else {
      for (auto& [k, vs] : other.groups_) {
        auto& dst = groups_[k];
        dst.insert(dst.end(), vs.begin(), vs.end());
      }
    }
    ops_ += other.ops_;
    records_ += other.records_;
  }

 private:
  CombineFn combine_;
  FlatTable<LK, std::vector<LV>> groups_;
  FlatTable<LK, LV> combined_;
  uint64_t ops_ = 0;
  uint64_t records_ = 0;
};

/// lreduce's emit context: EmitLocal() rewrites the hashtable entry that the
/// next local iteration (or the final global emission) will observe.
template <typename LK, typename LV>
class LocalReduceContext {
 public:
  explicit LocalReduceContext(LocalState<LK, LV>& next) : next_(next) {}
  void EmitLocal(const LK& key, const LV& value) {
    next_[key] = value;
    ops_ += mr::kOpsPerEmit;
  }
  void AddOps(uint64_t n) { ops_ += n; }
  uint64_t ops() const { return ops_; }

 private:
  LocalState<LK, LV>& next_;
  uint64_t ops_ = 0;
};

struct LocalRunStats {
  uint32_t local_iterations = 0;   // partial synchronizations performed
  uint64_t ops = 0;                // serial operation count
  uint64_t intermediate_records = 0;
  bool hit_iteration_cap = false;
};

template <typename X, typename LK, typename LV>
class LocalMapReduce {
 public:
  /// lmap: consumes one element, reads the state hashtable, emits local
  /// intermediates.
  using LMapFn = std::function<void(const X& x, const LocalState<LK, LV>& state,
                                    LocalIntermediate<LK, LV>& out)>;
  /// lreduce: folds the values emitted under one key; EmitLocal() publishes
  /// the new state entry.
  using LReduceFn =
      std::function<void(const LK& key, const std::vector<LV>& values,
                         const LocalState<LK, LV>& state,
                         LocalReduceContext<LK, LV>& ctx)>;
  /// Local convergence test ("no-local-convergence-intimated" in Fig. 1).
  using ConvergeFn = std::function<bool(const LocalState<LK, LV>& prev,
                                        const LocalState<LK, LV>& next,
                                        uint32_t completed_iterations)>;

  struct Config {
    uint32_t max_local_iterations = 1000;
    /// >1 runs lmap over a thread pool (deterministic chunk merge).
    uint32_t lmap_threads = 1;
    /// Optional associative combiner folded on EmitLocalIntermediate().
    typename LocalIntermediate<LK, LV>::CombineFn lcombine;
    /// Optional hook before each lmap phase (e.g. snapshot the hashtable into
    /// a dense cache the lmap closure reads).
    std::function<void(const LocalState<LK, LV>&)> on_iteration_start;
  };

  LocalMapReduce(LMapFn lmap, LReduceFn lreduce, ConvergeFn converged,
                 Config config = {})
      : lmap_(std::move(lmap)),
        lreduce_(std::move(lreduce)),
        converged_(std::move(converged)),
        config_(config) {
    AMR_CHECK(lmap_ && lreduce_ && converged_);
    AMR_CHECK_GE(config_.max_local_iterations, 1u);
  }

  /// Runs local iterations to convergence; `state` is the gmap hashtable,
  /// updated in place. Returns partial-sync statistics.
  LocalRunStats Run(std::span<const X> xs, LocalState<LK, LV>& state) const {
    LocalRunStats stats;
    // Reused by every local iteration: cleared or overwritten, never rebuilt.
    LocalIntermediate<LK, LV> intermediate(config_.lcombine);
    LocalState<LK, LV> next;
    std::vector<LV> one(1, LV{});
    while (stats.local_iterations < config_.max_local_iterations) {
      // --- lmap phase -------------------------------------------------------
      if (config_.on_iteration_start) config_.on_iteration_start(state);
      RunLmapPhase(xs, state, intermediate);
      stats.ops += intermediate.ops();
      stats.intermediate_records += intermediate.records();

      // --- partial synchronization: lreduce phase ----------------------------
      next = state;  // untouched keys keep their value
      LocalReduceContext<LK, LV> ctx(next);
      if (intermediate.combining()) {
        for (auto& [key, value] : intermediate.combined()) {
          one[0] = std::move(value);
          lreduce_(key, one, state, ctx);
        }
      } else {
        for (const auto& [key, values] : intermediate.groups()) {
          lreduce_(key, values, state, ctx);
        }
      }
      stats.ops += ctx.ops();
      ++stats.local_iterations;

      const bool done = converged_(state, next, stats.local_iterations);
      std::swap(state, next);
      if (done) return stats;
    }
    stats.hit_iteration_cap = true;
    return stats;
  }

 private:
  /// Refills `out` with one lmap sweep over xs.
  void RunLmapPhase(std::span<const X> xs, const LocalState<LK, LV>& state,
                    LocalIntermediate<LK, LV>& out) const {
    out.Clear();
    if (config_.lmap_threads <= 1 || xs.size() < 2 * config_.lmap_threads) {
      for (const X& x : xs) lmap_(x, state, out);
      return;
    }
    // Thread-pool execution with deterministic chunk-order merge.
    const size_t chunks = config_.lmap_threads;
    const size_t chunk_size = (xs.size() + chunks - 1) / chunks;
    std::vector<LocalIntermediate<LK, LV>> partials(
        chunks, LocalIntermediate<LK, LV>(config_.lcombine));
    ThreadPool& pool = GlobalThreadPool();
    std::vector<std::future<void>> futs;
    futs.reserve(chunks);
    for (size_t c = 0; c < chunks; ++c) {
      futs.push_back(pool.Submit([this, &xs, &state, &partials, c, chunk_size] {
        const size_t lo = c * chunk_size;
        const size_t hi = std::min(xs.size(), lo + chunk_size);
        for (size_t i = lo; i < hi; ++i) lmap_(xs[i], state, partials[c]);
      }));
    }
    for (auto& f : futs) f.get();
    for (auto& p : partials) out.Merge(std::move(p));
  }

  LMapFn lmap_;
  LReduceFn lreduce_;
  ConvergeFn converged_;
  Config config_;
};

}  // namespace asyncmr::core
