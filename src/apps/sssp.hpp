// Single-Source Shortest Path on iterative MapReduce (paper Section V.C).
//
// Distances start at 0 for the source and infinity elsewhere; each iteration
// relaxes edges (Bellman-Ford in MapReduce form). The General implementation
// performs one relaxation sweep per MapReduce job; the Eager implementation's
// gmap relaxes *within* its partition to local convergence (all paths through
// the sub-graph considered, exactly the paper's description of asynchronous
// Dijkstra) before the global synchronization accounts for cross-partition
// edges. The Async implementation removes the global synchronization
// entirely: chaotic relaxation on async::AsyncEngine through the shared
// min-propagation driver (monotone.hpp), workers pushing each boundary
// vertex's best candidate straight to the neighboring partition (the
// min-combine is monotone, so any staleness is safe). All converge to
// Dijkstra's distances. Connected components runs on the same drivers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "async/async_engine.hpp"
#include "cluster/cluster.hpp"
#include "core/metrics.hpp"
#include "graph/partition.hpp"

namespace asyncmr::apps {

struct SsspConfig {
  graph::VertexId source = 0;
  uint32_t max_global_iterations = 2000;
  uint32_t max_local_iterations = 4096;  // eager: per-gmap cap
  /// Async: transport, termination and checkpoint knobs forwarded to the
  /// engine — see async::EngineTuning.
  async::EngineTuning async_tuning;
  std::string job_prefix = "sssp";
};

struct SsspResult {
  std::vector<double> distances;  // kInfDistance when unreachable
  core::RunTrace trace;
  bool converged = false;
};

/// Dijkstra with a binary heap; the correctness oracle.
std::vector<double> SerialDijkstra(const graph::Digraph& g, graph::VertexId source);

SsspResult GeneralSssp(cluster::SimCluster& cluster, const graph::Digraph& g,
                       const graph::Partitioning& partitioning,
                       const SsspConfig& config);

SsspResult EagerSssp(cluster::SimCluster& cluster, const graph::Digraph& g,
                     const graph::Partitioning& partitioning,
                     const SsspConfig& config);

/// Barrier-free SSSP on the asynchronous engine: each worker runs internal
/// Bellman-Ford to a fixed point, then pushes, per boundary vertex, the best
/// candidate over its cut edges when it improves on the last one sent (the
/// natural delta filter — a settled frontier goes quiet).
/// The worker residual is its count of changed distances, so the run
/// terminates once no distance changes anywhere with nothing in flight.
SsspResult AsyncSssp(cluster::SimCluster& cluster, const graph::Digraph& g,
                     const graph::Partitioning& partitioning,
                     const SsspConfig& config,
                     uint32_t staleness = async::kUnboundedStaleness,
                     async::AsyncResult* engine_stats = nullptr);

}  // namespace asyncmr::apps
