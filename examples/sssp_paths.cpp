// Example: Single-Source Shortest Path over a transaction-style network —
// the paper's second application ("networks of financial transactions,
// citation graphs ... require computation of results in reasonable
// (interactive) times"). Compares one-hop-per-job Bellman-Ford (General)
// with Eager partition-local relaxation, validated against Dijkstra.
#include <algorithm>
#include <cstdio>

#include "apps/app_common.hpp"
#include "apps/sssp.hpp"
#include "common/options.hpp"
#include "common/string_util.hpp"
#include "graph/generator.hpp"
#include "graph/partitioner.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);

  graph::PrefAttachConfig config;
  config.num_vertices = static_cast<graph::VertexId>(opts.Scaled(30'000, 2'000));
  config.num_in = 3;
  config.num_out = 3;
  config.locality_window = std::max<graph::VertexId>(8, config.num_vertices / 1000);
  config.max_edge_age = 4 * config.locality_window;
  config.seed = opts.seed;
  const auto g =
      graph::WithRandomWeights(graph::PreferentialAttachment(config), 1.0, 10.0,
                               opts.seed + 7);
  std::printf("network: %s, random edge weights in [1, 10)\n", g.Describe().c_str());

  const uint32_t k = std::max<uint32_t>(4, g.num_vertices() / 700);
  const auto part = graph::MultilevelPartition(g, k, opts.seed);
  std::printf("partitions: %u (%s)\n\n", k,
              graph::EvaluatePartition(g, part).ToString().c_str());

  apps::SsspConfig sssp;
  sssp.source = 0;

  std::printf("General SSSP (one relaxation sweep per job)...\n");
  cluster::SimCluster general_cluster(cluster::ClusterSpec::Ec2Large8());
  const auto general = apps::GeneralSssp(general_cluster, g, part, sssp);
  std::printf("  %u global iterations, %s virtual time\n\n",
              general.trace.global_iterations(),
              HumanSeconds(general.trace.total_seconds()).c_str());

  std::printf("Eager SSSP (all paths within a sub-graph per gmap)...\n");
  cluster::SimCluster eager_cluster(cluster::ClusterSpec::Ec2Large8());
  const auto eager = apps::EagerSssp(eager_cluster, g, part, sssp);
  std::printf("  %u global iterations, %s virtual time\n\n",
              eager.trace.global_iterations(),
              HumanSeconds(eager.trace.total_seconds()).c_str());

  const auto oracle = apps::SerialDijkstra(g, sssp.source);
  uint64_t reached = 0;
  double max_err = 0;
  double max_dist = 0;
  bool reach_match = true;
  for (size_t v = 0; v < oracle.size(); ++v) {
    if (oracle[v] == apps::kInfDistance) {
      reach_match = reach_match && general.distances[v] == apps::kInfDistance &&
                    eager.distances[v] == apps::kInfDistance;
      continue;
    }
    ++reached;
    max_dist = std::max(max_dist, oracle[v]);
    max_err = std::max({max_err, std::abs(general.distances[v] - oracle[v]),
                        std::abs(eager.distances[v] - oracle[v])});
  }
  // The bound tests/test_sssp.cpp asserts per vertex against Dijkstra.
  const bool correct = reach_match && max_err <= 1e-9;
  std::printf("correctness: %s of %s vertices reachable, max error vs Dijkstra %.1e%s\n",
              WithThousands(reached).c_str(), WithThousands(oracle.size()).c_str(),
              max_err, correct ? "" : " (MISMATCH)");
  std::printf("graph weighted eccentricity from source: %.1f\n", max_dist);
  std::printf("speedup: %.1fx (%u -> %u global synchronizations)\n",
              general.trace.total_seconds() / eager.trace.total_seconds(),
              general.trace.global_iterations(), eager.trace.global_iterations());
  return correct ? 0 : 1;
}
