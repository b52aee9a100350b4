// Application tests: Single-Source Shortest Path vs Dijkstra oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/app_common.hpp"
#include "apps/monotone.hpp"
#include "apps/sssp.hpp"
#include "graph/generator.hpp"
#include "graph/partitioner.hpp"

namespace asyncmr::apps {
namespace {

cluster::ClusterSpec QuietSpec() {
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.straggler_prob = 0.0;
  spec.speed_jitter = 0.0;
  return spec;
}

graph::Digraph WeightedTestGraph(graph::VertexId n = 3000, uint64_t seed = 7) {
  graph::PrefAttachConfig config;
  config.num_vertices = n;
  config.num_in = 3;
  config.num_out = 3;
  config.locality_window = std::max<graph::VertexId>(4, n / 150);
  config.max_edge_age = 4 * config.locality_window;
  config.seed = seed;
  return graph::WithRandomWeights(graph::PreferentialAttachment(config), 1.0, 10.0,
                                  seed + 1);
}

void ExpectDistancesEqual(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t v = 0; v < want.size(); ++v) {
    if (want[v] == kInfDistance) {
      EXPECT_EQ(got[v], kInfDistance) << "vertex " << v;
    } else {
      EXPECT_NEAR(got[v], want[v], 1e-9) << "vertex " << v;
    }
  }
}

TEST(SerialDijkstra, HandLineGraph) {
  const graph::Digraph g = graph::Digraph::FromEdges(
      4, {{0, 1, 2.0}, {1, 2, 3.0}, {2, 3, 1.0}, {0, 3, 10.0}}, true);
  const auto dist = SerialDijkstra(g, 0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 2.0);
  EXPECT_DOUBLE_EQ(dist[2], 5.0);
  EXPECT_DOUBLE_EQ(dist[3], 6.0);  // via the chain, not the direct edge
}

TEST(SerialDijkstra, UnreachableIsInfinity) {
  const graph::Digraph g = graph::Digraph::FromEdges(3, {{0, 1, 1.0}}, true);
  const auto dist = SerialDijkstra(g, 0);
  EXPECT_EQ(dist[2], kInfDistance);
}

TEST(GeneralSssp, MatchesDijkstra) {
  const auto g = WeightedTestGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  SsspConfig config;
  cluster::SimCluster sim(QuietSpec());
  const auto result = GeneralSssp(sim, g, part, config);
  EXPECT_TRUE(result.converged);
  ExpectDistancesEqual(result.distances, SerialDijkstra(g, 0));
}

TEST(EagerSssp, MatchesDijkstra) {
  const auto g = WeightedTestGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  SsspConfig config;
  cluster::SimCluster sim(QuietSpec());
  const auto result = EagerSssp(sim, g, part, config);
  EXPECT_TRUE(result.converged);
  ExpectDistancesEqual(result.distances, SerialDijkstra(g, 0));
}

TEST(EagerSssp, FewerGlobalIterations) {
  const auto g = WeightedTestGraph(4000);
  const auto part = graph::MultilevelPartition(g, 8);
  SsspConfig config;
  cluster::SimCluster sim1(QuietSpec());
  const auto general = GeneralSssp(sim1, g, part, config);
  cluster::SimCluster sim2(QuietSpec());
  const auto eager = EagerSssp(sim2, g, part, config);
  EXPECT_LT(eager.trace.global_iterations(), general.trace.global_iterations() / 2);
  EXPECT_LT(eager.trace.total_seconds(), general.trace.total_seconds());
}

TEST(EagerSssp, GridOracle) {
  // Unweighted grid: distances are Manhattan path lengths.
  const graph::Digraph g = graph::Grid2d(20, 20);
  graph::Partitioning part = graph::RangePartition(g, 4);
  SsspConfig config;
  cluster::SimCluster sim(QuietSpec());
  const auto result = EagerSssp(sim, g, part, config);
  const auto dij = SerialDijkstra(g, 0);
  ExpectDistancesEqual(result.distances, dij);
  EXPECT_DOUBLE_EQ(result.distances[19], 19.0);  // top-right corner of row 0
}

TEST(EagerSssp, StartVectorGivesMultipleSources) {
  // The internal entry point Components floods labels through takes its
  // start vector as an argument: two zero-cost sources here.
  const graph::Digraph g = graph::Grid2d(10, 1);  // a line of 10
  graph::Partitioning part = graph::RangePartition(g, 2);
  std::vector<double> start(10, kInfDistance);
  start[0] = 0.0;
  start[9] = 0.0;
  cluster::SimCluster sim(QuietSpec());
  const auto result = monotone::EagerSssp(sim, g, part, SsspConfig{}, start);
  EXPECT_DOUBLE_EQ(result.distances[5], 4.0);  // nearer to 9
  EXPECT_DOUBLE_EQ(result.distances[4], 4.0);  // nearer to 0
}

TEST(Sssp, UnreachableVerticesStayInfinite) {
  graph::Digraph g = graph::Digraph::FromEdges(
      6, {{0, 1, 1.0}, {1, 2, 1.0}, {4, 5, 1.0}}, true);  // 3,4,5 unreachable
  graph::Partitioning part;
  part.num_parts = 2;
  part.part_of = {0, 0, 0, 1, 1, 1};
  SsspConfig config;
  cluster::SimCluster sim(QuietSpec());
  const auto result = EagerSssp(sim, g, part, config);
  EXPECT_EQ(result.distances[3], kInfDistance);
  EXPECT_EQ(result.distances[4], kInfDistance);
  EXPECT_EQ(result.distances[5], kInfDistance);
  EXPECT_DOUBLE_EQ(result.distances[2], 2.0);
}

TEST(Sssp, SourceInLatePartition) {
  const auto g = WeightedTestGraph(1000);
  const auto part = graph::RangePartition(g, 4);
  SsspConfig config;
  config.source = 900;  // lives in the last partition
  cluster::SimCluster sim(QuietSpec());
  const auto result = EagerSssp(sim, g, part, config);
  ExpectDistancesEqual(result.distances, SerialDijkstra(g, 900));
}

TEST(Sssp, GeneralIterationCountTracksGraphDepth) {
  // On a line graph, one Bellman-Ford sweep advances the frontier by one hop
  // per global iteration; Eager crosses a whole partition per iteration.
  const graph::Digraph g = graph::Grid2d(40, 1);
  const auto part = graph::RangePartition(g, 4);
  SsspConfig config;
  cluster::SimCluster sim1(QuietSpec());
  const auto general = GeneralSssp(sim1, g, part, config);
  EXPECT_GE(general.trace.global_iterations(), 39u);
  cluster::SimCluster sim2(QuietSpec());
  const auto eager = EagerSssp(sim2, g, part, config);
  EXPECT_LE(eager.trace.global_iterations(), 6u);  // ~one per partition + detect
}

TEST(Sssp, DeterministicAcrossRuns) {
  const auto g = WeightedTestGraph(1000);
  const auto part = graph::MultilevelPartition(g, 4);
  SsspConfig config;
  auto run = [&] {
    cluster::SimCluster sim(QuietSpec());
    return EagerSssp(sim, g, part, config);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.trace.total_seconds(), b.trace.total_seconds());
  EXPECT_EQ(a.distances, b.distances);
}

TEST(AsyncSssp, OneCandidatePerTargetPerPush) {
  // Partition 0 = {0, 1, 2} reaches 1 and 2 at distance 1; two cut edges lead
  // into partition 1 = {3}, 1 -> 3 (weight 10) before 2 -> 3 (weight 1). The
  // push folds the run of cut edges into target 3 to its best candidate, so
  // it sends 2 once instead of 11 and then 2.
  const graph::Digraph g = graph::Digraph::FromEdges(
      4, {{0, 1, 1.0}, {0, 2, 1.0}, {1, 3, 10.0}, {2, 3, 1.0}}, true);
  graph::Partitioning part;
  part.num_parts = 2;
  part.part_of = {0, 0, 0, 1};
  SsspConfig config;
  cluster::SimCluster sim(QuietSpec());
  async::AsyncResult stats;
  const auto result =
      AsyncSssp(sim, g, part, config, async::kUnboundedStaleness, &stats);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(stats.update_records, 1u);
  EXPECT_EQ(result.distances[3], 2.0);
}

}  // namespace
}  // namespace asyncmr::apps
