// PageRank on iterative MapReduce (paper Section V.B).
//
// The update is the paper's Equation (1):
//     PR(d) = (1 - chi) + chi * sum_{(s,d) in E} PR(s) / outdeg(s)
// with damping chi, all ranks initialized to 1, and convergence declared when
// the infinity norm of the rank change drops below `tolerance` (the paper
// uses 1e-5).
//
// Three distributed implementations are provided, all the affine driver of
// affine.hpp under PageRank's rule (d_u = outdeg(u), F(s) = (1 - chi) +
// chi * s; see pagerank.cpp):
//  * GeneralPageRank — the paper's baseline: each map task takes a whole
//    partition (more competitive than single-adjacency-list maps), performs
//    one contribution sweep, and a global reduce accumulates; one MapReduce
//    job per iteration, output round-tripping through the DFS.
//  * EagerPageRank — the paper's contribution: each gmap runs a local
//    MapReduce (lmap/lreduce via core::PartialSyncJob) on its partition to
//    local convergence with external contributions frozen, eagerly scheduling
//    local iterations, then emits contributions for all out-edges into the
//    global reduce.
//  * AsyncPageRank — beyond the paper: no global barrier at all. One
//    long-lived worker per partition on async::AsyncEngine performs block
//    solves and pushes boundary contributions directly to the neighboring
//    partitions as byte-counted flows, with a configurable staleness window
//    (0 = lockstep A/B baseline, unbounded = pure async).
// All converge to the same fixed point as SerialPageRank.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "async/async_engine.hpp"
#include "cluster/cluster.hpp"
#include "core/metrics.hpp"
#include "graph/partition.hpp"

namespace asyncmr::apps {

/// The damping factor chi of Equation (1).
inline constexpr double kPageRankDamping = 0.85;

struct PageRankConfig {
  double tolerance = 1e-5;             // global convergence, inf-norm
  uint32_t max_global_iterations = 200;
  uint32_t max_local_iterations = 128; // eager: per-gmap cap
  /// Async: transport, termination and checkpoint knobs forwarded to the
  /// engine — see async::EngineTuning.
  async::EngineTuning async_tuning;
  std::string job_prefix = "pr";
};

struct PageRankResult {
  std::vector<double> ranks;
  core::RunTrace trace;
  bool converged = false;
};

/// Serial power iteration with the identical update rule; the correctness
/// oracle for both distributed implementations.
std::vector<double> SerialPageRank(const graph::Digraph& g, const PageRankConfig& config,
                                   uint32_t* iterations_out = nullptr);

PageRankResult GeneralPageRank(cluster::SimCluster& cluster, const graph::Digraph& g,
                               const graph::Partitioning& partitioning,
                               const PageRankConfig& config);

PageRankResult EagerPageRank(cluster::SimCluster& cluster, const graph::Digraph& g,
                             const graph::Partitioning& partitioning,
                             const PageRankConfig& config);

/// Barrier-free PageRank on the asynchronous engine. Each iteration a worker
/// block-solves its partition to local convergence against its current view
/// of external contributions, then pushes refreshed boundary contributions to
/// the partitions that consume them (delta-filtered, so a converged
/// neighborhood goes quiet). `staleness` is the engine's window: 0 reproduces
/// synchronized rounds, async::kUnboundedStaleness never waits. Detailed
/// engine counters are returned through `engine_stats` when non-null; the
/// RunTrace contains a single aggregate round.
PageRankResult AsyncPageRank(cluster::SimCluster& cluster, const graph::Digraph& g,
                             const graph::Partitioning& partitioning,
                             const PageRankConfig& config,
                             uint32_t staleness = async::kUnboundedStaleness,
                             async::AsyncResult* engine_stats = nullptr);

}  // namespace asyncmr::apps
