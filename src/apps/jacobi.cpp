#include "apps/jacobi.hpp"

#include <algorithm>
#include <cmath>

#include "apps/affine.hpp"

namespace asyncmr::apps {

namespace {

/// Row v of the system solved for x_v, as an affine rule (see affine.hpp):
/// d_u = 1 and F_v(s) = (b[v] + s) / (deg(v) + 1). General divides by the
/// diagonal; Eager and Async multiply by its precomputed inverse.
struct JacobiRule {
  static constexpr const char* kName = "jacobi";
  static constexpr double kInitial = 0.0;
  // Eager and async local convergence threshold, a decade below the global
  // tolerance.
  static constexpr double kLocalTolerance = 1e-9;
  static constexpr uint64_t kLmapOps = 1;
  static constexpr uint64_t kLreduceOps = 3;

  JacobiRule(const graph::Digraph& g_sym, const std::vector<double>& rhs)
      : g(g_sym), b(rhs), inv_diag(g_sym.num_vertices()) {
    AMR_CHECK_EQ(b.size(), g.num_vertices());
    for (graph::VertexId v = 0; v < inv_diag.size(); ++v) {
      inv_diag[v] = 1.0 / (g.OutDegree(v) + 1.0);
    }
  }

  const graph::Digraph& g;
  const std::vector<double>& b;
  std::vector<double> inv_diag;

  static double Divisor(graph::VertexId) { return 1.0; }
  double General(graph::VertexId v, double sum) const {
    return (b[v] + sum) / (g.OutDegree(v) + 1.0);
  }
  double Eager(graph::VertexId v, double sum) const { return (b[v] + sum) * inv_diag[v]; }
  double Async(graph::VertexId v, double sum, double ext) const {
    return (b[v] + sum + ext) * inv_diag[v];
  }
};

JacobiResult ToResult(affine::Run run, const graph::Digraph& g_sym,
                      const std::vector<double>& b) {
  JacobiResult result{std::move(run.x), std::move(run.trace), run.converged};
  result.residual_inf = JacobiResidual(g_sym, b, result.x);
  return result;
}

}  // namespace

std::vector<double> SerialJacobi(const graph::Digraph& g_sym,
                                 const std::vector<double>& b,
                                 const JacobiConfig& config,
                                 uint32_t* iterations_out) {
  const uint32_t n = g_sym.num_vertices();
  AMR_CHECK_EQ(b.size(), n);
  std::vector<double> x(n, 0.0), sums(n, 0.0);
  uint32_t iter = 0;
  for (; iter < config.max_global_iterations * 10; ++iter) {
    std::fill(sums.begin(), sums.end(), 0.0);
    for (graph::VertexId u = 0; u < n; ++u) {
      for (graph::VertexId t : g_sym.OutNeighbors(u)) sums[t] += x[u];
    }
    double residual = 0.0;
    for (graph::VertexId v = 0; v < n; ++v) {
      const double next = (b[v] + sums[v]) / (g_sym.OutDegree(v) + 1.0);
      residual = std::max(residual, std::abs(next - x[v]));
      x[v] = next;
    }
    if (residual < config.tolerance) {
      ++iter;
      break;
    }
  }
  if (iterations_out != nullptr) *iterations_out = iter;
  return x;
}

double JacobiResidual(const graph::Digraph& g_sym, const std::vector<double>& b,
                      const std::vector<double>& x) {
  const uint32_t n = g_sym.num_vertices();
  std::vector<double> ax(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    ax[v] = (g_sym.OutDegree(v) + 1.0) * x[v];
  }
  for (graph::VertexId v = 0; v < n; ++v) {
    for (graph::VertexId t : g_sym.OutNeighbors(v)) ax[t] -= x[v];
  }
  double r = 0.0;
  for (graph::VertexId v = 0; v < n; ++v) r = std::max(r, std::abs(ax[v] - b[v]));
  return r;
}

JacobiResult GeneralJacobi(cluster::SimCluster& cluster, const graph::Digraph& g_sym,
                           const std::vector<double>& b,
                           const graph::Partitioning& partitioning,
                           const JacobiConfig& config) {
  return ToResult(
      affine::General(cluster, g_sym, partitioning, config, JacobiRule(g_sym, b)),
      g_sym, b);
}

JacobiResult EagerJacobi(cluster::SimCluster& cluster, const graph::Digraph& g_sym,
                         const std::vector<double>& b,
                         const graph::Partitioning& partitioning,
                         const JacobiConfig& config) {
  return ToResult(
      affine::Eager(cluster, g_sym, partitioning, config, JacobiRule(g_sym, b)),
      g_sym, b);
}

JacobiResult AsyncJacobi(cluster::SimCluster& cluster, const graph::Digraph& g_sym,
                         const std::vector<double>& b,
                         const graph::Partitioning& partitioning,
                         const JacobiConfig& config, uint32_t staleness,
                         async::AsyncResult* engine_stats) {
  return ToResult(affine::Async(cluster, g_sym, partitioning, config,
                                JacobiRule(g_sym, b), staleness, engine_stats),
                  g_sym, b);
}

}  // namespace asyncmr::apps
