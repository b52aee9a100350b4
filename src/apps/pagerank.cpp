#include "apps/pagerank.hpp"

#include <algorithm>
#include <cmath>

#include "apps/affine.hpp"

namespace asyncmr::apps {

namespace {

/// Equation (1) as an affine rule (see affine.hpp): d_u = outdeg(u) and
/// F(s) = (1 - chi) + chi * s on every engine.
struct PageRankRule {
  static constexpr const char* kName = "pagerank";
  static constexpr double kInitial = 1.0;
  // Eager and async local convergence threshold (inf-norm of one local
  // iteration's change). A decade below the global tolerance so local solves
  // land close enough to the block fixed point that the outer iteration, not
  // leftover local error, controls the endgame.
  static constexpr double kLocalTolerance = 1e-6;
  static constexpr uint64_t kLmapOps = 2;
  static constexpr uint64_t kLreduceOps = 1;

  const graph::Digraph& g;

  double Divisor(graph::VertexId u) const { return g.OutDegree(u); }
  static double Rank(double sum) {
    return (1.0 - kPageRankDamping) + kPageRankDamping * sum;
  }
  double General(graph::VertexId, double sum) const { return Rank(sum); }
  double Eager(graph::VertexId, double sum) const { return Rank(sum); }
  double Async(graph::VertexId, double sum, double ext) const { return Rank(sum + ext); }
};

PageRankResult ToResult(affine::Run run) {
  return {std::move(run.x), std::move(run.trace), run.converged};
}

}  // namespace

std::vector<double> SerialPageRank(const graph::Digraph& g,
                                   const PageRankConfig& config,
                                   uint32_t* iterations_out) {
  const uint32_t n = g.num_vertices();
  std::vector<double> ranks(n, 1.0);
  std::vector<double> sums(n, 0.0);
  const double chi = kPageRankDamping;
  uint32_t iter = 0;
  const uint32_t cap = config.max_global_iterations * 10;
  for (; iter < cap; ++iter) {
    std::fill(sums.begin(), sums.end(), 0.0);
    for (graph::VertexId u = 0; u < n; ++u) {
      const uint32_t deg = g.OutDegree(u);
      if (deg == 0) continue;
      const double c = ranks[u] / deg;
      for (graph::VertexId t : g.OutNeighbors(u)) sums[t] += c;
    }
    double residual = 0.0;
    for (graph::VertexId v = 0; v < n; ++v) {
      const double next = (1.0 - chi) + chi * sums[v];
      residual = std::max(residual, std::abs(next - ranks[v]));
      ranks[v] = next;
    }
    if (residual < config.tolerance) {
      ++iter;
      break;
    }
  }
  if (iterations_out != nullptr) *iterations_out = iter;
  return ranks;
}

PageRankResult GeneralPageRank(cluster::SimCluster& cluster, const graph::Digraph& g,
                               const graph::Partitioning& partitioning,
                               const PageRankConfig& config) {
  return ToResult(affine::General(cluster, g, partitioning, config, PageRankRule{g}));
}

PageRankResult EagerPageRank(cluster::SimCluster& cluster, const graph::Digraph& g,
                             const graph::Partitioning& partitioning,
                             const PageRankConfig& config) {
  return ToResult(affine::Eager(cluster, g, partitioning, config, PageRankRule{g}));
}

PageRankResult AsyncPageRank(cluster::SimCluster& cluster, const graph::Digraph& g,
                             const graph::Partitioning& partitioning,
                             const PageRankConfig& config, uint32_t staleness,
                             async::AsyncResult* engine_stats) {
  return ToResult(affine::Async(cluster, g, partitioning, config, PageRankRule{g},
                                staleness, engine_stats));
}

}  // namespace asyncmr::apps
