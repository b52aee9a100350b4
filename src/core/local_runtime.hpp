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
// A hashtable stores the intermediate and final results of the local
// MapReduce; lmap reads it, lreduce rewrites it, and on local convergence its
// contents become gmap's output. Successive local iterations are *eagerly
// scheduled*: they start immediately after the partial (local)
// synchronization, which costs no network time — only the per-iteration
// barrier between lmap and lreduce within this task.
//
// The hashtable is dense: its keys are the indices [0, m) of the state that
// the caller seeds, one slot per key (a graph partition's member index, a
// centroid id). The intermediate table has the same m slots, a live flag per
// slot and a touched list in first-emission order. A key's first emission is
// stored as-is; later ones fold into it through the Combine functor, in
// emission order — no identity value is folded in, so a key's value is the
// left fold of exactly its emitted values, whatever the table's layout (a
// hashed table gives the same bits). Run() keeps one intermediate table and
// one next-state vector for the whole loop, so a local iteration clears and
// copies into warm buffers.
//
// Every local reduce is a fold: each lreduce sees one combined value per key.
// The uncombined lreduce(key, values) form is not offered, because every local
// reduce in the paper's apps (PageRank, shortest path, K-Means, Jacobi) is an
// associative fold, and the uncombined MapReduce is the General engine's
// mr::Job, which groups values per key.
//
// Determinism contract:
//   - lreduce visits keys in first-emission order (the touched list).
//     Emission follows xs order, so that order — and with it the last writer
//     of any key that lreduce writes via EmitLocal — is a pure function of the
//     inputs. Each key folds its values in emission order.
//   - Keys that no lmap emits keep their slot: lreduce writes into a copy of
//     the state.
//   - lmap runs serially on the calling thread. The paper's Section IV notes
//     the local operations "can use a thread-pool to extract further
//     parallelism"; that intra-host pool is modeled in virtual time by
//     PartialSyncJob::Config::gmap_time_scale, not executed.
//
// Under AMR_AUDIT, EmitLocalIntermediate and EmitLocal check that the key is
// a slot of the state, key < m: an out-of-range dense key would otherwise
// write past the table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "mr/context.hpp"

namespace asyncmr::core {

/// The hashtable holding local MapReduce state between local iterations:
/// slot i holds the value of key i.
template <typename LV>
using LocalState = std::vector<LV>;

/// Local combiner for sums (PageRank, Jacobi).
struct SumCombine {
  double operator()(double a, double b) const { return a + b; }
};

/// Local combiner for minima (shortest path).
struct MinCombine {
  double operator()(double a, double b) const { return std::min(a, b); }
};

/// Collects EmitLocalIntermediate() output of lmap calls for one iteration,
/// folding each key's values on emit through Combine — the paper's
/// "hashtable ... used to store the intermediate and final results of the
/// local MapReduce", one entry per key.
template <typename LV, typename Combine>
class LocalIntermediate {
 public:
  /// An emitter over the keys [0, m).
  explicit LocalIntermediate(size_t m) : values_(m), live_(m, 0) {}

  /// Always inlined: it is the Eager lmaps' per-edge call. Left to GCC's
  /// unit-wide heuristics, an unrelated edit elsewhere in the app's
  /// translation unit can leave it out of line in an lmap and slow
  /// pr-eager-k16 by a fifth.
  [[gnu::always_inline]] void EmitLocalIntermediate(uint32_t key, LV value) {
    AUDIT_CHECK(key < values_.size())
        << "local key " << key << " outside the state's " << values_.size()
        << " slots";
    ops_ += mr::kOpsPerEmit;
    ++records_;
    if (live_[key]) {
      values_[key] = Combine{}(std::move(values_[key]), value);
    } else {
      live_[key] = 1;
      values_[key] = std::move(value);
      touched_.push_back(key);
    }
  }
  void AddOps(uint64_t n) { ops_ += n; }

  /// Keys emitted since the last Clear(), in first-emission order.
  std::span<const uint32_t> touched() const { return touched_; }
  /// The folded value of a touched key.
  const LV& value(uint32_t key) const { return values_[key]; }
  uint64_t ops() const { return ops_; }
  uint64_t records() const { return records_; }

  /// Empties the emitter for the next local iteration, keeping its buffers.
  void Clear() {
    for (uint32_t key : touched_) live_[key] = 0;
    touched_.clear();
    ops_ = 0;
    records_ = 0;
  }

 private:
  std::vector<LV> values_;
  std::vector<uint8_t> live_;
  std::vector<uint32_t> touched_;
  uint64_t ops_ = 0;
  uint64_t records_ = 0;
};

/// lreduce's emit context: EmitLocal() rewrites the hashtable slot that the
/// next local iteration (or the final global emission) will observe.
template <typename LV>
class LocalReduceContext {
 public:
  explicit LocalReduceContext(LocalState<LV>& next) : next_(next) {}
  void EmitLocal(uint32_t key, LV value) {
    AUDIT_CHECK(key < next_.size())
        << "local key " << key << " outside the state's " << next_.size()
        << " slots";
    next_[key] = std::move(value);
    ops_ += mr::kOpsPerEmit;
  }
  void AddOps(uint64_t n) { ops_ += n; }
  uint64_t ops() const { return ops_; }

 private:
  LocalState<LV>& next_;
  uint64_t ops_ = 0;
};

struct LocalRunStats {
  uint32_t local_iterations = 0;   // partial synchronizations performed
  uint64_t ops = 0;                // serial operation count
  uint64_t intermediate_records = 0;
  bool hit_iteration_cap = false;
};

/// Combine is a stateless functor, LV(LV acc, const LV& value), folding a
/// later emission into a key's accumulated value.
template <typename X, typename LV, typename Combine>
class LocalMapReduce {
 public:
  using Intermediate = LocalIntermediate<LV, Combine>;
  using ReduceContext = LocalReduceContext<LV>;

  /// lmap: consumes one element, reads the state hashtable, emits local
  /// intermediates.
  using LMapFn = std::function<void(const X& x, const LocalState<LV>& state,
                                    Intermediate& out)>;
  /// lreduce: receives the folded value of one key; EmitLocal() publishes
  /// the new state entry.
  using LReduceFn = std::function<void(uint32_t key, const LV& value,
                                       const LocalState<LV>& state,
                                       ReduceContext& ctx)>;
  /// Local convergence test ("no-local-convergence-intimated" in Fig. 1).
  using ConvergeFn = std::function<bool(const LocalState<LV>& prev,
                                        const LocalState<LV>& next,
                                        uint32_t completed_iterations)>;

  struct Config {
    uint32_t max_local_iterations = 1000;
    /// Optional hook before each lmap phase (e.g. copy the hashtable into a
    /// contiguous cache the lmap closure reads).
    std::function<void(const LocalState<LV>&)> on_iteration_start;
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
  /// updated in place, and its size fixes the key range. Returns
  /// partial-sync statistics.
  LocalRunStats Run(std::span<const X> xs, LocalState<LV>& state) const {
    LocalRunStats stats;
    // Reused by every local iteration: cleared or overwritten, never rebuilt.
    Intermediate intermediate(state.size());
    LocalState<LV> next;
    while (stats.local_iterations < config_.max_local_iterations) {
      // --- lmap phase -------------------------------------------------------
      if (config_.on_iteration_start) config_.on_iteration_start(state);
      intermediate.Clear();
      for (const X& x : xs) lmap_(x, state, intermediate);
      stats.ops += intermediate.ops();
      stats.intermediate_records += intermediate.records();

      // --- partial synchronization: lreduce phase ----------------------------
      next = state;  // untouched keys keep their value
      ReduceContext ctx(next);
      for (uint32_t key : intermediate.touched()) {
        lreduce_(key, intermediate.value(key), state, ctx);
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
  LMapFn lmap_;
  LReduceFn lreduce_;
  ConvergeFn converged_;
  Config config_;
};

}  // namespace asyncmr::core
