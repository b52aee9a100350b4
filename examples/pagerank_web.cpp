// Example: PageRank over a synthetic web crawl — the paper's flagship
// application. Generates a crawl-ordered power-law graph, partitions it with
// the multilevel (METIS-style) partitioner, and runs General vs Eager
// PageRank side by side, reporting the global-iteration and time savings.
//
// Environment: AMR_SCALE scales the graph (default here: 30K vertices).
#include <cstdio>

#include "apps/pagerank.hpp"
#include "common/options.hpp"
#include "common/string_util.hpp"
#include "graph/generator.hpp"
#include "graph/partitioner.hpp"
#include "graph/powerlaw.hpp"

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

  std::printf("generating web graph (%s vertices)...\n",
              WithThousands(config.num_vertices).c_str());
  const auto g = graph::PreferentialAttachment(config);
  const auto fit = graph::FitInDegreePowerLaw(g);
  std::printf("  %s, in-degree power-law alpha=%.2f\n\n", g.Describe().c_str(),
              fit.exponent);

  const uint32_t k = std::max<uint32_t>(4, g.num_vertices() / 700);
  std::printf("partitioning into %u locality-enhanced partitions (multilevel)...\n", k);
  const auto part = graph::MultilevelPartition(g, k, opts.seed);
  const auto quality = graph::EvaluatePartition(g, part);
  std::printf("  %s\n\n", quality.ToString().c_str());

  apps::PageRankConfig pr;

  std::printf("General PageRank (one MapReduce job per iteration)...\n");
  cluster::SimCluster general_cluster(cluster::ClusterSpec::Ec2Large8());
  const auto general = apps::GeneralPageRank(general_cluster, g, part, pr);
  std::printf("  %u global iterations, %s virtual time\n\n",
              general.trace.global_iterations(),
              HumanSeconds(general.trace.total_seconds()).c_str());

  std::printf("Eager PageRank (local MapReduce to convergence inside each gmap)...\n");
  cluster::SimCluster eager_cluster(cluster::ClusterSpec::Ec2Large8());
  const auto eager = apps::EagerPageRank(eager_cluster, g, part, pr);
  std::printf("  %u global iterations (+%s partial synchronizations), %s virtual time\n\n",
              eager.trace.global_iterations(),
              WithThousands(eager.trace.total_local_iterations()).c_str(),
              HumanSeconds(eager.trace.total_seconds()).c_str());

  // Same answer, verified against the serial oracle.
  const auto serial = apps::SerialPageRank(g, pr);
  double general_err = 0, eager_err = 0;
  for (size_t v = 0; v < serial.size(); ++v) {
    general_err = std::max(general_err, std::abs(general.ranks[v] - serial[v]));
    eager_err = std::max(eager_err, std::abs(eager.ranks[v] - serial[v]));
  }
  // The bound tests/test_pagerank.cpp asserts against the same oracle.
  const bool correct = general_err < 1e-3 && eager_err < 1e-3;
  std::printf("correctness: max |rank - serial oracle| general=%.1e eager=%.1e%s\n",
              general_err, eager_err, correct ? "" : " (MISMATCH)");
  std::printf("speedup: %.1fx (%u -> %u global synchronizations)\n",
              general.trace.total_seconds() / eager.trace.total_seconds(),
              general.trace.global_iterations(), eager.trace.global_iterations());

  // Top pages.
  std::vector<std::pair<double, graph::VertexId>> top;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    top.emplace_back(eager.ranks[v], v);
  }
  std::partial_sort(top.begin(), top.begin() + 5, top.end(), std::greater<>());
  std::printf("\ntop pages by rank:\n");
  for (int i = 0; i < 5; ++i) {
    std::printf("  #%d vertex %-8u rank %.2f (in-degree %u)\n", i + 1, top[i].second,
                top[i].first, g.InDegrees()[top[i].second]);
  }
  return correct ? 0 : 1;
}
