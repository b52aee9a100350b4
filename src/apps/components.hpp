// Connected Components via min-label propagation — one of the application
// classes the paper claims partial synchronization extends to ("Shortest Path
// represents a class of applications over sparse graphs that includes
// minimum spanning trees, transitive closure, and connected components",
// Section VI). Every engine runs it as SSSP's min-propagation, over the
// symmetrized graph with initial label = vertex id: the General and Eager
// variants through the SSSP wave drivers on zero-weight edges, the Async
// variant through the shared min-propagation driver (monotone.hpp) on native
// uint32 labels. The min-reduction propagates each component's smallest id to
// all members; the Eager variant collapses whole within-partition components
// per global iteration.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/sssp.hpp"

namespace asyncmr::apps {

struct ComponentsConfig {
  uint32_t max_global_iterations = 2000;
  uint32_t max_local_iterations = 4096;
  /// Async: transport, termination and checkpoint knobs forwarded to the
  /// engine — see async::EngineTuning.
  async::EngineTuning async_tuning;
  std::string job_prefix = "cc";
};

struct ComponentsResult {
  /// label[v] = smallest vertex id in v's (weakly) connected component.
  std::vector<graph::VertexId> labels;
  core::RunTrace trace;
  bool converged = false;
  uint32_t num_components = 0;
};

/// Union-find reference over the same (symmetrized) edge set.
std::vector<graph::VertexId> SerialComponents(const graph::Digraph& g);

/// Symmetrizes g (adds every reverse edge; weights dropped), the edge set on
/// which weak components are defined.
graph::Digraph Symmetrized(const graph::Digraph& g);

ComponentsResult GeneralComponents(cluster::SimCluster& cluster,
                                   const graph::Digraph& g,
                                   const graph::Partitioning& partitioning,
                                   const ComponentsConfig& config);

ComponentsResult EagerComponents(cluster::SimCluster& cluster,
                                 const graph::Digraph& g,
                                 const graph::Partitioning& partitioning,
                                 const ComponentsConfig& config);

/// Barrier-free components on the asynchronous engine: chaotic min-label
/// propagation on uint32 labels, which travel as varints where SSSP's
/// distances take 8 bytes. Each worker floods labels through its partition's
/// symmetrized sub-graph to a fixed point, then pushes only *improved* labels
/// over cut edges; min-combine is monotone, so any staleness is safe and the
/// final labels are exact.
ComponentsResult AsyncComponents(cluster::SimCluster& cluster,
                                 const graph::Digraph& g,
                                 const graph::Partitioning& partitioning,
                                 const ComponentsConfig& config,
                                 uint32_t staleness = async::kUnboundedStaleness,
                                 async::AsyncResult* engine_stats = nullptr);

}  // namespace asyncmr::apps
