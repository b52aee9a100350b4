// Helpers shared by the benchmark applications (PageRank, SSSP, K-Means,
// and the extension apps): the wave drivers' round bookkeeping, the graph
// apps' boundary plan, the async apps' delta filters, and dense contribution
// accumulators used to pre-combine map emissions efficiently.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "async/async_engine.hpp"
#include "cluster/cluster.hpp"
#include "common/check.hpp"
#include "core/metrics.hpp"
#include "graph/partition.hpp"
#include "mr/types.hpp"

namespace asyncmr::apps {

/// Sentinel for "unreached" distances.
inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// The round bookkeeping of the wave drivers: General (one MapReduce job per
/// iteration) and Eager (one PartialSyncJob global iteration per round).
/// Construction stages the partition images once under a unique DFS prefix,
/// "/<job_prefix>-gen-<n>" or "/<job_prefix>-eag-<n>" with n the files
/// written so far (so repeated runs can share a cluster), and fixes the
/// round splits: each partition's image bytes plus its per-round payload,
/// the same every round. Round r's job is "<job_prefix>-g<r>" or
/// "<job_prefix>-e<r>" and writes to "<prefix>/it<r>".
class WaveRounds {
 public:
  enum class Kind { kGeneral, kEager };

  WaveRounds(cluster::SimCluster& cluster, const std::string& job_prefix,
             Kind kind, uint32_t num_reducers,
             const std::vector<serde::Buffer>& images,
             const std::vector<uint64_t>& payload_bytes);

  /// A graph app's rounds (PageRank, SSSP, Jacobi, and components through
  /// SSSP): g's partition images, one (vertex, value) output record per
  /// member as the payload, 16 reducers wide.
  static WaveRounds ForGraph(cluster::SimCluster& cluster,
                             const std::string& job_prefix, Kind kind,
                             const graph::Digraph& g,
                             const graph::Partitioning& partitioning);

  /// Round r's job: its name, output path and reducer count.
  mr::JobConfig RoundJob(uint32_t round) const;

  const std::vector<mr::SplitDesc>& splits() const { return splits_; }

  /// Appends round r's row to trace: every RoundTrace field JobStats
  /// carries, plus the round's partial syncs (0 for General) and residual.
  static void Record(core::RunTrace& trace, uint32_t round,
                     const mr::JobStats& stats, uint32_t local_iterations,
                     double residual);

 private:
  std::string job_name_;  // "<job_prefix>-g" or "<job_prefix>-e"
  std::string prefix_;
  uint32_t num_reducers_;
  std::vector<mr::SplitDesc> splits_;
};

/// Writes each (vertex, value) reduce record into values; returns the
/// inf-norm change (the PageRank and Jacobi wave residual).
double ApplyValues(const std::vector<std::pair<uint32_t, double>>& records,
                   std::vector<double>& values);

/// The single aggregate round every async app reports: engine time span,
/// ops, bytes pushed, total worker iterations (as local_iterations) and the
/// final residual.
core::RunTrace AsyncRunTrace(const std::string& name,
                             const async::AsyncResult& result);

/// The boundary structure of a locality partition, built once per (graph,
/// partitioning) for the Eager and async graph apps (PageRank, Jacobi, SSSP,
/// components). Iterations only read it. Every list is in a fixed order, so
/// sums and min-folds over it run in the same order on every run:
///  * members ascending, and local_of[v] = v's index in its own partition;
///  * internal adjacency as CSR over local indices, in the graph's CSR
///    neighbour order;
///  * the same internal edges as a pull layout for the block solves
///    (ForEachInternalSum): targets in pull_order, a stable sort by
///    descending internal in-degree, cut into slices of kPullLanes. Each
///    slice stores its targets' sources column-major (the k-th source of
///    every lane, then the (k+1)-th), each lane ascending by local index with
///    multi-edges kept and padded to the slice's depth with the sentinel
///    members.size(). Sorting by degree keeps the padding small;
///  * out-groups in ascending peer order. A group holds its sorted distinct
///    cut-edge targets and, per target ordinal j, the run of edges
///    [run_begin[j], run_begin[j + 1]) into sources (and weights, when the
///    graph is weighted). The runs come from a stable sort of the
///    source-major cut-edge list by target, so each run lists its sources in
///    CSR order;
///  * in_peers, the partitions with an out-group toward this one, ascending;
///    their groups' targets are the receive domains of the partition's
///    StateStore (InTargets).
struct BoundaryPlan {
  /// Targets per pull slice: enough independent add chains to hide the
  /// floating-point add latency.
  static constexpr uint32_t kPullLanes = 4;

  struct OutGroup {
    uint32_t peer = 0;
    std::vector<graph::VertexId> targets;  // ascending, distinct
    std::vector<uint32_t> run_begin;       // targets.size() + 1 offsets
    std::vector<uint32_t> sources;         // per cut edge: source local index
    std::vector<double> weights;           // per cut edge; empty if unweighted

    uint64_t num_edges() const { return sources.size(); }

    /// Sum of contrib(source local index) over target j's run, in run order.
    /// Seeding, pushing and auditing a filtered sum all go through here, so
    /// they agree bit for bit.
    template <typename ContribFn>
    double RunSum(size_t j, ContribFn&& contrib) const {
      double sum = 0.0;
      for (uint32_t e = run_begin[j]; e < run_begin[j + 1]; ++e) {
        sum += contrib(sources[e]);
      }
      return sum;
    }
  };

  struct Part {
    std::vector<graph::VertexId> members;     // ascending
    std::vector<uint32_t> internal_offsets;   // members.size() + 1
    std::vector<uint32_t> internal_targets;   // local indices
    std::vector<double> internal_weights;     // empty if unweighted
    std::vector<OutGroup> out;                // ascending peer
    std::vector<uint32_t> in_peers;           // ascending
    std::vector<uint32_t> pull_order;         // targets, descending in-degree
    std::vector<uint32_t> pull_slice_begin;   // slices + 1 offsets
    std::vector<uint32_t> pull_sources;       // column-major, padded

    std::span<const uint32_t> Internal(uint32_t i) const {
      return {internal_targets.data() + internal_offsets[i],
              internal_targets.data() + internal_offsets[i + 1]};
    }
    uint64_t internal_edges() const { return internal_targets.size(); }

    /// Calls fn(t, sum) once per member t, sum being value[s] summed over
    /// t's internal in-edges (s, t) in ascending s, starting from +0.0: the
    /// rounding of a scatter `acc[t] += value[s]` over Internal(s) in
    /// ascending s. value holds members.size() + 1 entries, the last 0.0 for
    /// the padding; a sum that starts at +0.0 is never -0.0, so adding it is
    /// exact. Four lanes run interleaved, so the adds of one target do not
    /// wait on another's; targets arrive in pull_order.
    template <typename Fn>
    void ForEachInternalSum(std::span<const double> value, Fn&& fn) const {
      static_assert(kPullLanes == 4);
      const size_t m = pull_order.size();
      AMR_DCHECK(value.size() == m + 1 && value[m] == 0.0);
      for (size_t s = 0; s + 1 < pull_slice_begin.size(); ++s) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (uint32_t k = pull_slice_begin[s]; k < pull_slice_begin[s + 1];
             k += kPullLanes) {
          s0 += value[pull_sources[k]];
          s1 += value[pull_sources[k + 1]];
          s2 += value[pull_sources[k + 2]];
          s3 += value[pull_sources[k + 3]];
        }
        const double sums[kPullLanes] = {s0, s1, s2, s3};
        const size_t first = s * kPullLanes;
        for (size_t lane = 0; lane < kPullLanes && first + lane < m; ++lane) {
          fn(pull_order[first + lane], sums[lane]);
        }
      }
    }

    /// Index into out of the group toward peer; out.size() when none.
    size_t GroupTo(uint32_t peer) const {
      for (size_t b = 0; b < out.size(); ++b) {
        if (out[b].peer == peer) return b;
      }
      return out.size();
    }
  };

  std::vector<uint32_t> local_of;  // global vertex -> index in its partition
  std::vector<Part> parts;

  static BoundaryPlan Build(const graph::Digraph& g,
                            const graph::Partitioning& partitioning);

  /// Visits every cut edge as fn(p, i, q, l, w): sender partition p, source
  /// local index i, receiver partition q, target local index l and weight w
  /// (1.0 when unweighted). Senders go in ascending order, so each target
  /// sees its edges in sender-partition, then source, then CSR order, the
  /// order of a source-major scan of the whole graph. A fold applied edge by
  /// edge (the Eager drivers' frozen external values) therefore rounds as
  /// that scan does; summing each run first (RunSum) would not.
  template <typename Fn>
  void ForEachCutEdge(Fn&& fn) const {
    for (uint32_t p = 0; p < parts.size(); ++p) {
      for (const OutGroup& group : parts[p].out) {
        for (size_t j = 0; j < group.targets.size(); ++j) {
          const uint32_t l = local_of[group.targets[j]];
          for (uint32_t e = group.run_begin[j]; e < group.run_begin[j + 1]; ++e) {
            fn(p, group.sources[e], group.peer, l,
               group.weights.empty() ? 1.0 : group.weights[e]);
          }
        }
      }
    }
  }

  /// The receive domains of partition p's StateStore, parallel to
  /// parts[p].in_peers: for each in-peer q, the targets of q's out-group
  /// toward p, ascending. Every boundary update q sends p is keyed by one.
  std::vector<std::vector<graph::VertexId>> InTargets(uint32_t p) const {
    std::vector<std::vector<graph::VertexId>> domains;
    domains.reserve(parts[p].in_peers.size());
    for (uint32_t q : parts[p].in_peers) {
      domains.push_back(parts[q].out[parts[q].GroupTo(p)].targets);
    }
    return domains;
  }

  /// local_of[v], checked: v must be a member of partition p (a boundary
  /// update addressed to a vertex the receiver does not own is a bug).
  uint32_t LocalIndex(uint32_t p, graph::VertexId v) const {
    AMR_CHECK(v < local_of.size() && local_of[v] < parts[p].members.size() &&
              parts[p].members[local_of[v]] == v)
        << "vertex " << v << " is not a member of partition " << p;
    return local_of[v];
  }
};

/// The sender side of filtered boundary communication: for every
/// (partition, out-group, target ordinal) of a plan, the last value pushed.
/// `resend` is the app's "never sent" sentinel, a value no real push can
/// match within the filter (+inf for sums and distances, UINT32_MAX for
/// labels), so re-announcement is a fill with it.
template <typename T>
class DeltaFilter {
 public:
  DeltaFilter(const BoundaryPlan& plan, T initial, T resend)
      : plan_(&plan), resend_(resend), sent_(plan.parts.size()) {
    for (size_t p = 0; p < plan.parts.size(); ++p) {
      for (const auto& group : plan.parts[p].out) {
        sent_[p].emplace_back(group.targets.size(), initial);
      }
    }
  }

  /// Group b of partition p, indexed by target ordinal.
  std::vector<T>& sent(uint32_t p, size_t b) { return sent_[p][b]; }

  /// Re-announces every target of p on its next push: the receivers' views
  /// of p belong to a dead epoch.
  void ResendAll(uint32_t p) {
    for (auto& group : sent_[p]) std::fill(group.begin(), group.end(), resend_);
  }

  /// Re-announces p's targets in `peer`: the peer restarted from a
  /// checkpoint, or a batch toward it was abandoned.
  void ResendTo(uint32_t p, uint32_t peer) {
    const size_t b = plan_->parts[p].GroupTo(peer);
    if (b < sent_[p].size()) {
      std::fill(sent_[p][b].begin(), sent_[p][b].end(), resend_);
    }
  }

 private:
  const BoundaryPlan* plan_;
  T resend_;
  std::vector<std::vector<std::vector<T>>> sent_;
};

/// Declares the plan's out-groups as the engine's send topology and routes
/// peer restarts to the filter's re-announcement. plan and filter must
/// outlive the engine's run.
template <typename T>
void AttachBoundary(async::AsyncEngine& engine, const BoundaryPlan& plan,
                    DeltaFilter<T>& filter) {
  engine.set_out_peers([&plan](uint32_t p) {
    std::vector<uint32_t> peers;
    for (const auto& group : plan.parts[p].out) peers.push_back(group.peer);
    return peers;
  });
  engine.set_on_peer_restart([&filter](uint32_t p, uint32_t restarted) {
    filter.ResendTo(p, restarted);
  });
}

/// A receiver's external sums (PageRank, Jacobi): per member, the sum over
/// in-peers of the latest value each one sent, kept incrementally. Under
/// AMR_AUDIT it also counts its roundings: each `sum += next - prev` rounds
/// twice, and is off by at most DBL_EPSILON * (|prev| + |next| + |sum|).
struct ExternalSums {
  std::vector<double> values;  // per member
  AMR_IF_AUDIT(uint64_t roundings = 0; double magnitude = 0.0;)

  void Replace(uint32_t i, double prev, double next) {
    double& sum = values[i];
    sum += next - prev;
    AMR_IF_AUDIT(++roundings; magnitude = std::max(
        magnitude, std::abs(prev) + std::abs(next) + std::abs(sum));)
  }
};

/// The send_eps contract of a delta-filtered sum (PageRank, Jacobi), checked
/// per member on a converged run. A sender withholds a change of at most
/// send_eps = tolerance / (2 P) per target, so a receiver with at most P - 1
/// in-peers holds an external sum within tolerance / 2 of the one rebuilt
/// from the senders' final iterates. Beyond that only rounding separates
/// them: `roundings` operations, each off by at most DBL_EPSILON *
/// `magnitude`. A free function so negative tests can feed it a violating
/// pair directly (tests/test_audit.cpp).
inline void AuditWithheldSum(double ext, double recomputed, double tolerance,
                             uint64_t roundings, double magnitude) {
  const double slack = static_cast<double>(roundings) *
                       std::numeric_limits<double>::epsilon() * magnitude;
  AUDIT_CHECK(std::abs(ext - recomputed) <= 0.5 * tolerance + slack)
      << "filtered boundary sum drifted past send_eps: held " << ext
      << ", recomputed " << recomputed << ", bound " << 0.5 * tolerance
      << " + " << slack << " rounding";
}

#ifdef AMR_AUDIT
/// Rebuilds every member's external sum from the senders' final iterates
/// (contrib(sender part, source local index), through the same RunSum the
/// push uses) and checks it against the receiver's ExternalSums part.ext
/// under AuditWithheldSum.
template <typename Part, typename ContribFn>
void AuditWithheldSums(const BoundaryPlan& plan, const std::vector<Part>& parts,
                       double tolerance, ContribFn contrib) {
  std::vector<std::vector<double>> sums;
  for (const auto& part : plan.parts) sums.emplace_back(part.members.size(), 0.0);
  std::vector<std::vector<double>> abs_sums = sums;
  for (size_t p = 0; p < plan.parts.size(); ++p) {
    for (const auto& group : plan.parts[p].out) {
      for (size_t j = 0; j < group.targets.size(); ++j) {
        const double sum = group.RunSum(
            j, [&](uint32_t i) { return contrib(parts[p], i); });
        const uint32_t l = plan.local_of[group.targets[j]];
        sums[group.peer][l] += sum;
        abs_sums[group.peer][l] += std::abs(sum);
      }
    }
  }
  for (size_t q = 0; q < plan.parts.size(); ++q) {
    const ExternalSums& ext = parts[q].ext;
    // The rebuild adds one rounding per in-peer, each within its abs sum.
    const uint64_t roundings = ext.roundings + plan.parts[q].in_peers.size();
    for (size_t l = 0; l < sums[q].size(); ++l) {
      AuditWithheldSum(ext.values[l], sums[q][l], tolerance, roundings,
                       std::max(ext.magnitude, abs_sums[q][l]));
    }
  }
}
#endif  // AMR_AUDIT

/// Dense accumulator for pre-combining (target, double) contributions inside
/// one map task without hashing: O(edges + size/64) per use, reusable across
/// tasks. Touched entries are tracked in a bitset, so they drain in ascending
/// index order without a sort.
class DenseAccumulator {
 public:
  explicit DenseAccumulator(uint32_t size)
      : values_(size, 0.0), touched_bits_((size + 63) / 64, 0) {}

  void Add(uint32_t index, double value) {
    Touch(index);
    values_[index] += value;
  }

  /// Minimum-combine variant (SSSP).
  void Min(uint32_t index, double value) {
    if (Touch(index) || value < values_[index]) values_[index] = value;
  }

  /// Ascending (index, value) pairs; clears the accumulator for reuse.
  std::vector<std::pair<uint32_t, double>> DrainSorted();

  size_t touched_count() const { return touched_count_; }

 private:
  /// Marks index touched; true when it was untouched before.
  bool Touch(uint32_t index) {
    uint64_t& word = touched_bits_[index >> 6];
    const uint64_t bit = uint64_t{1} << (index & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++touched_count_;
    return true;
  }

  std::vector<double> values_;
  std::vector<uint64_t> touched_bits_;
  size_t touched_count_ = 0;
};

}  // namespace asyncmr::apps
