// Example: asynchronous Jacobi linear solver — the sparse-solver application
// class the paper's Section VI claims for partial synchronization
// ("Asynchronous mat-vecs form the core of iterative linear system
// solvers"). Solves the graph-Laplacian-plus-identity system A x = b on the
// simulated cluster: General vs Eager (block-Jacobi inner iterations) vs the
// barrier-free engine (chaotic block-Jacobi, boundary rows pushed
// peer-to-peer).
#include <cstdio>

#include "apps/components.hpp"
#include "apps/jacobi.hpp"
#include "common/options.hpp"
#include "common/string_util.hpp"
#include "graph/generator.hpp"
#include "graph/partitioner.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);

  graph::PrefAttachConfig config;
  config.num_vertices = static_cast<graph::VertexId>(opts.Scaled(20'000, 2'000));
  config.num_in = 2;
  config.num_out = 2;
  config.locality_window = std::max<graph::VertexId>(8, config.num_vertices / 1000);
  config.max_edge_age = 4 * config.locality_window;
  config.seed = opts.seed;
  const auto g = apps::Symmetrized(graph::PreferentialAttachment(config));
  std::printf("system: A = D + I - Adj over %s (diagonally dominant SPD)\n",
              g.Describe().c_str());

  std::vector<double> b(g.num_vertices());
  Rng rng(opts.seed + 5);
  for (double& v : b) v = rng.NextDouble(-1.0, 1.0);

  const uint32_t k = std::max<uint32_t>(4, g.num_vertices() / 700);
  const auto part = graph::MultilevelPartition(g, k, opts.seed);
  std::printf("partitions: %u (%s)\n\n", k,
              graph::EvaluatePartition(g, part).ToString().c_str());

  apps::JacobiConfig jacobi;

  std::printf("General Jacobi (one mat-vec sweep per job)...\n");
  cluster::SimCluster general_cluster(cluster::ClusterSpec::Ec2Large8());
  const auto general = apps::GeneralJacobi(general_cluster, g, b, part, jacobi);
  std::printf("  %u global iterations, %s virtual, ||Ax-b||inf = %.2e\n\n",
              general.trace.global_iterations(),
              HumanSeconds(general.trace.total_seconds()).c_str(),
              general.residual_inf);

  std::printf("Eager Jacobi (block solves to local convergence per gmap)...\n");
  cluster::SimCluster eager_cluster(cluster::ClusterSpec::Ec2Large8());
  const auto eager = apps::EagerJacobi(eager_cluster, g, b, part, jacobi);
  std::printf("  %u global iterations (+%s partial syncs), %s virtual, "
              "||Ax-b||inf = %.2e\n\n",
              eager.trace.global_iterations(),
              WithThousands(eager.trace.total_local_iterations()).c_str(),
              HumanSeconds(eager.trace.total_seconds()).c_str(),
              eager.residual_inf);

  std::printf("Async Jacobi (barrier-free chaotic block-Jacobi)...\n");
  cluster::SimCluster async_cluster(cluster::ClusterSpec::Ec2Large8());
  async::AsyncResult stats;
  const auto async_result = apps::AsyncJacobi(async_cluster, g, b, part, jacobi,
                                              async::kUnboundedStaleness, &stats);
  std::printf("  %s worker iterations, %s virtual (%s merge ops charged), "
              "||Ax-b||inf = %.2e\n\n",
              WithThousands(stats.total_iterations).c_str(),
              HumanSeconds(stats.seconds()).c_str(),
              WithThousands(stats.total_merge_ops).c_str(),
              async_result.residual_inf);

  std::printf("speedup: eager %.1fx, async %.1fx over general\n\n",
              general.trace.total_seconds() / eager.trace.total_seconds(),
              general.trace.total_seconds() / stats.seconds());

  // --- fault injection: the same solve on a crashy cluster -------------------
  // Workers checkpoint every few iterations (write-behind through the DFS
  // cost model) and a crashed worker restarts from its last durable snapshot
  // with a bumped epoch (ClusterSpec::worker_crash_rate — see README
  // "Fault tolerance"). The run must converge to the same solution; the
  // overhead is restart downtime plus rolled-back progress.
  std::printf("Async Jacobi again, with worker crashes injected...\n");
  auto crashy_spec = cluster::ClusterSpec::Ec2Large8();
  crashy_spec.worker_crash_rate = 2.0 / k;  // ~2 crashes per virtual second
  crashy_spec.worker_restart_delay_s = 0.25;
  cluster::SimCluster crashy_cluster(crashy_spec);
  async::AsyncResult crashy_stats;
  const auto crashy_result = apps::AsyncJacobi(crashy_cluster, g, b, part, jacobi,
                                               async::kUnboundedStaleness,
                                               &crashy_stats);
  std::printf("  %u worker crashes, %u checkpoints (%s), %s recovery time\n",
              crashy_stats.worker_restarts, crashy_stats.checkpoints_written,
              HumanBytes(crashy_stats.checkpoint_bytes).c_str(),
              HumanSeconds(crashy_stats.recovery_seconds).c_str());
  std::printf("  %s virtual (+%.0f%% over the clean run), converged=%s, "
              "||Ax-b||inf = %.2e\n",
              HumanSeconds(crashy_stats.seconds()).c_str(),
              100.0 * (crashy_stats.seconds() / stats.seconds() - 1.0),
              crashy_result.converged ? "yes" : "NO", crashy_result.residual_inf);

  // The bound tests/test_jacobi.cpp asserts on ||Ax-b||inf for every engine.
  bool correct = crashy_result.converged;
  for (double r : {general.residual_inf, eager.residual_inf, async_result.residual_inf,
                   crashy_result.residual_inf}) {
    correct = correct && r < 1e-6;
  }
  if (!correct) std::printf("MISMATCH: a solve missed ||Ax-b||inf < 1e-6\n");
  return correct ? 0 : 1;
}
