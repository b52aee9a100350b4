// Asynchronous Jacobi linear solver — the "broader applicability" class the
// paper claims in Section VI: "Asynchronous mat-vecs form the core of
// iterative linear system solvers."
//
// Solves A x = b for the diagonally dominant system induced by a graph:
//     A = D + I - Adj(sym)    (D = symmetrized degree diagonal)
// i.e. row v:  (deg(v)+1) x[v] - sum_{u ~ v} x[u] = b[v].
// The Jacobi update x'[v] = (b[v] + sum_{u~v} x[u]) / (deg(v)+1) is the same
// affine fixed point as PageRank's, so all three engines are the affine
// driver of affine.hpp under Jacobi's rule (d_u = 1, F_v(s) = (b[v] + s) /
// (deg(v) + 1); see jacobi.cpp): the General engine performs one sweep per
// MapReduce job; the Eager engine iterates each partition's block to local
// convergence with frozen external values (block-Jacobi) before each global
// synchronization; the Async engine does the same without a barrier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "async/async_engine.hpp"
#include "cluster/cluster.hpp"
#include "core/metrics.hpp"
#include "graph/partition.hpp"

namespace asyncmr::apps {

struct JacobiConfig {
  double tolerance = 1e-8;             // inf-norm of iterate change
  uint32_t max_global_iterations = 500;
  uint32_t max_local_iterations = 256;
  /// Async: transport, termination and checkpoint knobs forwarded to the
  /// engine — see async::EngineTuning.
  async::EngineTuning async_tuning;
  std::string job_prefix = "jac";
};

struct JacobiResult {
  std::vector<double> x;
  core::RunTrace trace;
  bool converged = false;
  /// Final residual ||Ax - b||_inf (true algebraic residual, not the
  /// iterate-change criterion).
  double residual_inf = 0.0;
};

/// Serial Jacobi sweeps with the identical update; the oracle.
std::vector<double> SerialJacobi(const graph::Digraph& g_sym,
                                 const std::vector<double>& b,
                                 const JacobiConfig& config,
                                 uint32_t* iterations_out = nullptr);

/// ||Ax - b||_inf for the graph-induced system.
double JacobiResidual(const graph::Digraph& g_sym, const std::vector<double>& b,
                      const std::vector<double>& x);

/// Both engines expect a *symmetrized* graph (see apps::Symmetrized).
JacobiResult GeneralJacobi(cluster::SimCluster& cluster, const graph::Digraph& g_sym,
                           const std::vector<double>& b,
                           const graph::Partitioning& partitioning,
                           const JacobiConfig& config);

JacobiResult EagerJacobi(cluster::SimCluster& cluster, const graph::Digraph& g_sym,
                         const std::vector<double>& b,
                         const graph::Partitioning& partitioning,
                         const JacobiConfig& config);

/// Barrier-free Jacobi on the asynchronous engine (chaotic block-Jacobi:
/// Chazan & Miranker's asynchronous relaxation, convergent here because the
/// graph-induced system is diagonally dominant). Each worker block-solves its
/// partition against its current view of external boundary rows, then pushes
/// refreshed row sums to the partitions that consume them, delta-filtered so
/// a settled neighborhood goes quiet.
JacobiResult AsyncJacobi(cluster::SimCluster& cluster, const graph::Digraph& g_sym,
                         const std::vector<double>& b,
                         const graph::Partitioning& partitioning,
                         const JacobiConfig& config,
                         uint32_t staleness = async::kUnboundedStaleness,
                         async::AsyncResult* engine_stats = nullptr);

}  // namespace asyncmr::apps
