#include "apps/components.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "apps/monotone.hpp"

namespace asyncmr::apps {

namespace {

/// Zero-weight edges turn SSSP's min-plus relaxation into min-label flooding.
graph::Digraph ZeroWeighted(const graph::Digraph& g) {
  std::vector<graph::Edge> edges = g.ToEdges();
  for (auto& e : edges) e.weight = 0.0;
  return graph::Digraph::FromEdges(g.num_vertices(), std::move(edges),
                                   /*weighted=*/true);
}

/// Every vertex its own label: label[v] = v.
template <typename T>
std::vector<T> IdentityLabels(uint32_t n) {
  std::vector<T> labels(n);
  std::iota(labels.begin(), labels.end(), T{0});
  return labels;
}

ComponentsResult ToResult(std::vector<graph::VertexId> labels, core::RunTrace trace,
                          bool converged) {
  const std::unordered_set<graph::VertexId> distinct(labels.begin(), labels.end());
  const auto num_components = static_cast<uint32_t>(distinct.size());
  return {std::move(labels), std::move(trace), converged, num_components};
}

/// The wave engines flood labels as SSSP distances from identity labels.
ComponentsResult FromSssp(SsspResult&& sssp) {
  std::vector<graph::VertexId> labels(sssp.distances.begin(), sssp.distances.end());
  return ToResult(std::move(labels), std::move(sssp.trace), sssp.converged);
}

SsspConfig ToSsspConfig(const ComponentsConfig& config) {
  SsspConfig sssp;
  sssp.max_global_iterations = config.max_global_iterations;
  sssp.max_local_iterations = config.max_local_iterations;
  sssp.job_prefix = config.job_prefix;
  return sssp;
}

/// Min-label flooding as a min-propagation rule (see monotone.hpp): labels
/// are vertex ids, every vertex holds one from the start, and an edge carries
/// its source's label unchanged.
struct LabelRule {
  using Value = uint32_t;
  static constexpr const char* kName = "components";
  static constexpr uint32_t kNeverSent = std::numeric_limits<uint32_t>::max();

  static bool Reached(uint32_t) { return true; }
  static uint32_t Relax(uint32_t label, double) { return label; }
  static bool Improves(uint32_t cand, uint32_t cur) { return cand < cur; }
  /// Labels compare exactly: no filter withholds anything.
  static double Slack(double) { return 0.0; }
};

}  // namespace

graph::Digraph Symmetrized(const graph::Digraph& g) {
  std::vector<graph::Edge> edges = g.ToEdges();
  const size_t forward = edges.size();
  edges.reserve(forward * 2);
  for (size_t i = 0; i < forward; ++i) {
    edges.push_back({edges[i].dst, edges[i].src, edges[i].weight});
  }
  return graph::Digraph::FromEdges(g.num_vertices(), std::move(edges), g.weighted());
}

std::vector<graph::VertexId> SerialComponents(const graph::Digraph& g) {
  const uint32_t n = g.num_vertices();
  std::vector<graph::VertexId> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<graph::VertexId(graph::VertexId)> find =
      [&](graph::VertexId v) -> graph::VertexId {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];  // path halving
      v = parent[v];
    }
    return v;
  };
  for (graph::VertexId u = 0; u < n; ++u) {
    for (graph::VertexId t : g.OutNeighbors(u)) {
      const graph::VertexId ru = find(u), rt = find(t);
      if (ru != rt) parent[std::max(ru, rt)] = std::min(ru, rt);
    }
  }
  std::vector<graph::VertexId> labels(n);
  for (graph::VertexId v = 0; v < n; ++v) labels[v] = find(v);
  return labels;
}

ComponentsResult GeneralComponents(cluster::SimCluster& cluster,
                                   const graph::Digraph& g,
                                   const graph::Partitioning& partitioning,
                                   const ComponentsConfig& config) {
  const graph::Digraph undirected = ZeroWeighted(Symmetrized(g));
  return FromSssp(monotone::GeneralSssp(cluster, undirected, partitioning,
                                        ToSsspConfig(config),
                                        IdentityLabels<double>(g.num_vertices())));
}

ComponentsResult EagerComponents(cluster::SimCluster& cluster,
                                 const graph::Digraph& g,
                                 const graph::Partitioning& partitioning,
                                 const ComponentsConfig& config) {
  const graph::Digraph undirected = ZeroWeighted(Symmetrized(g));
  return FromSssp(monotone::EagerSssp(cluster, undirected, partitioning,
                                      ToSsspConfig(config),
                                      IdentityLabels<double>(g.num_vertices())));
}

ComponentsResult AsyncComponents(cluster::SimCluster& cluster,
                                 const graph::Digraph& g,
                                 const graph::Partitioning& partitioning,
                                 const ComponentsConfig& config,
                                 uint32_t staleness,
                                 async::AsyncResult* engine_stats) {
  auto run = monotone::Async<LabelRule>(cluster, Symmetrized(g), partitioning, config,
                                        IdentityLabels<uint32_t>(g.num_vertices()),
                                        staleness, engine_stats);
  return ToResult(std::move(run.x), std::move(run.trace), run.converged);
}

}  // namespace asyncmr::apps
