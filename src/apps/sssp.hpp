// Single-Source Shortest Path on iterative MapReduce (paper Section V.C).
//
// Distances start at 0 for the source and infinity elsewhere; each iteration
// relaxes edges (Bellman-Ford in MapReduce form). The General implementation
// performs one relaxation sweep per MapReduce job; the Eager implementation's
// gmap relaxes *within* its partition to local convergence (all paths through
// the sub-graph considered, exactly the paper's description of asynchronous
// Dijkstra) before the global synchronization accounts for cross-partition
// edges. The Async implementation removes the global synchronization
// entirely: chaotic relaxation on async::AsyncEngine, workers pushing
// improved boundary candidates straight to the neighboring partitions (the
// min-combine is monotone, so any staleness is safe). All converge to
// Dijkstra's distances.
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
  /// Optional custom initialization (size n). Overrides `source` when
  /// non-empty. Connected Components reuses the SSSP engine this way:
  /// zero-weight edges + initial_distances[v] = v computes min-label
  /// propagation (the paper's Section V.E application class).
  std::vector<double> initial_distances;
};

struct SsspResult {
  std::vector<double> distances;  // kInfDistance when unreachable
  core::RunTrace trace;
  bool converged = false;
};

/// AsyncSssp's wire record: an improved distance candidate for one
/// cross-partition vertex (min-combined at the receiver).
struct SsspCandidateUpdate {
  uint32_t vertex = 0;
  double distance = 0.0;
  AMR_SERDE_FIELDS(vertex, distance)
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
/// Bellman-Ford to a fixed point, then pushes only *improved* cross-partition
/// candidates (the natural delta filter — a settled frontier goes quiet).
/// The worker residual is its count of changed distances, so the run
/// terminates once no distance changes anywhere with nothing in flight.
SsspResult AsyncSssp(cluster::SimCluster& cluster, const graph::Digraph& g,
                     const graph::Partitioning& partitioning,
                     const SsspConfig& config,
                     uint32_t staleness = async::kUnboundedStaleness,
                     async::AsyncResult* engine_stats = nullptr);

}  // namespace asyncmr::apps
