// Unit tests: CSR digraph, generators, power-law fit, graph I/O.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "apps/components.hpp"
#include "graph/generator.hpp"
#include "graph/graph.hpp"
#include "graph/graph_io.hpp"
#include "graph/powerlaw.hpp"

namespace asyncmr::graph {
namespace {

Digraph Triangle() {
  return Digraph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}});
}

TEST(Digraph, BasicAccessors) {
  const Digraph g = Triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.OutNeighbors(0)[0], 1u);
  EXPECT_FALSE(g.weighted());
}

TEST(Digraph, AdjacencyRowsSorted) {
  const Digraph g = Digraph::FromEdges(4, {{0, 3, 1}, {0, 1, 1}, {0, 2, 1}});
  const auto row = g.OutNeighbors(0);
  EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
}

TEST(Digraph, InDegrees) {
  const Digraph g = Digraph::FromEdges(4, {{0, 1, 1}, {2, 1, 1}, {3, 1, 1}, {1, 0, 1}});
  const auto in = g.InDegrees();
  EXPECT_EQ(in[1], 3u);
  EXPECT_EQ(in[0], 1u);
  EXPECT_EQ(in[2], 0u);
}

TEST(Digraph, TransposeInvolution) {
  const Digraph g = Digraph::FromEdges(
      5, {{0, 1, 2.0}, {1, 2, 3.0}, {3, 4, 1.5}, {4, 0, 0.5}}, true);
  const Digraph gt = g.Transpose();
  EXPECT_EQ(gt.num_edges(), g.num_edges());
  EXPECT_EQ(gt.OutNeighbors(1)[0], 0u);
  const Digraph gtt = gt.Transpose();
  EXPECT_EQ(gtt.ToEdges().size(), g.ToEdges().size());
  // Round trip preserves the weighted edge set.
  auto norm = [](std::vector<Edge> es) {
    std::sort(es.begin(), es.end(), [](const Edge& a, const Edge& b) {
      return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
    });
    return es;
  };
  const auto a = norm(g.ToEdges()), b = norm(gtt.ToEdges());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_DOUBLE_EQ(a[i].weight, b[i].weight);
  }
}

TEST(Digraph, WeightsPreserved) {
  const Digraph g = Digraph::FromEdges(3, {{0, 1, 2.5}, {0, 2, 7.0}}, true);
  EXPECT_TRUE(g.weighted());
  EXPECT_DOUBLE_EQ(g.OutWeights(0)[0], 2.5);
  EXPECT_DOUBLE_EQ(g.OutWeights(0)[1], 7.0);
}

TEST(Generator, PreferentialAttachmentShape) {
  PrefAttachConfig config;
  config.num_vertices = 5000;
  config.num_conn = 2;
  config.num_in = 2;
  config.num_out = 2;
  const Digraph g = PreferentialAttachment(config);
  EXPECT_EQ(g.num_vertices(), 5000u);
  // Roughly numConn * (1 + numIn + numOut) edges per joiner, minus collisions.
  EXPECT_GT(g.num_edges(), 5000u * 4);
  EXPECT_LT(g.num_edges(), 5000u * 12);
  // No self loops.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId t : g.OutNeighbors(v)) EXPECT_NE(t, v);
  }
}

TEST(Generator, PreferentialAttachmentDeterministic) {
  PrefAttachConfig config;
  config.num_vertices = 2000;
  config.seed = 5;
  const Digraph a = PreferentialAttachment(config);
  const Digraph b = PreferentialAttachment(config);
  EXPECT_EQ(a.targets(), b.targets());
}

TEST(Generator, PowerLawTail) {
  PrefAttachConfig config;
  config.num_vertices = 30000;
  config.num_in = 3;
  config.num_out = 3;
  const Digraph g = PreferentialAttachment(config);
  const PowerLawFit fit = FitInDegreePowerLaw(g);
  // Heavy-tailed in-degree: exponent in the typical web-graph band and a
  // reasonable log-log fit (the paper's Table II argument).
  EXPECT_GT(fit.exponent, 1.3);
  EXPECT_LT(fit.exponent, 3.5);
  EXPECT_GT(fit.r2, 0.5);
  // Hubs exist: max in-degree far above the mean.
  const auto dist = InDegreeDistribution(g);
  EXPECT_GT(dist.max_degree, 20 * dist.mean);
}

TEST(Generator, LocalityWindowBoundsEdgeSpan) {
  PrefAttachConfig config;
  config.num_vertices = 10000;
  config.locality_window = 100;
  config.max_edge_age = 400;
  const Digraph g = PreferentialAttachment(config);
  uint64_t long_edges = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId t : g.OutNeighbors(v)) {
      const uint64_t span = v > t ? v - t : t - v;
      if (span > 500) ++long_edges;
    }
  }
  // The age clamp keeps essentially all edges within ~max_edge_age.
  EXPECT_LT(static_cast<double>(long_edges) / g.num_edges(), 0.02);
}

TEST(Generator, ErdosRenyiExactEdgeCount) {
  const Digraph g = ErdosRenyi(500, 3000, 7);
  EXPECT_EQ(g.num_edges(), 3000u);
  std::set<std::pair<VertexId, VertexId>> distinct;
  for (const Edge& e : g.ToEdges()) {
    EXPECT_NE(e.src, e.dst);
    distinct.insert({e.src, e.dst});
  }
  EXPECT_EQ(distinct.size(), 3000u);  // no duplicates
}

TEST(Generator, RmatSize) {
  RmatConfig config;
  config.scale = 10;
  config.num_edges = 5000;
  const Digraph g = Rmat(config);
  EXPECT_EQ(g.num_vertices(), 1024u);
  EXPECT_EQ(g.num_edges(), 5000u);
}

TEST(Generator, Grid2dStructure) {
  const Digraph g = Grid2d(4, 3);
  EXPECT_EQ(g.num_vertices(), 12u);
  // Interior vertex has 4 out-neighbors; corner has 2.
  EXPECT_EQ(g.OutDegree(5), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
}

TEST(Generator, RandomWeightsInRange) {
  const Digraph g0 = ErdosRenyi(100, 500, 3);
  const Digraph g = WithRandomWeights(g0, 1.0, 10.0, 4);
  ASSERT_TRUE(g.weighted());
  for (const Edge& e : g.ToEdges()) {
    EXPECT_GE(e.weight, 1.0);
    EXPECT_LT(e.weight, 10.0);
  }
}

TEST(GraphIo, BinaryRoundTrip) {
  const Digraph g = WithRandomWeights(ErdosRenyi(200, 1000, 9), 0.5, 2.0, 10);
  const auto buf = EncodeGraph(g);
  const auto decoded = DecodeGraph(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().num_vertices(), g.num_vertices());
  EXPECT_EQ(decoded.value().targets(), g.targets());
  EXPECT_EQ(decoded.value().weights(), g.weights());
}

TEST(GraphIo, CorruptBufferRejected) {
  const auto buf = EncodeGraph(Triangle());
  std::vector<uint8_t> bytes(buf.view().begin(), buf.view().end() - 3);
  EXPECT_FALSE(DecodeGraph(serde::Buffer{std::move(bytes)}).ok());
}

TEST(GraphIo, EdgeListTextRoundTrip) {
  const Digraph g = Digraph::FromEdges(4, {{0, 1, 2.0}, {2, 3, 0.5}}, true);
  const auto text = ToEdgeListText(g);
  const auto decoded = FromEdgeListText(text);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().num_vertices(), 4u);
  EXPECT_EQ(decoded.value().num_edges(), 2u);
  EXPECT_DOUBLE_EQ(decoded.value().OutWeights(0)[0], 2.0);
}

TEST(GraphIo, BadTextRejected) {
  EXPECT_FALSE(FromEdgeListText("1 banana").ok());
}

TEST(GraphIo, PartitionImageSizesTrackMembers) {
  const Digraph g = ErdosRenyi(100, 600, 5);
  Partitioning p;
  p.num_parts = 2;
  p.part_of.assign(100, 0);
  for (VertexId v = 50; v < 100; ++v) p.part_of[v] = 1;
  const auto images = EncodeAllPartitionImages(g, p);
  ASSERT_EQ(images.size(), 2u);
  EXPECT_GT(images[0].size(), 100u);
  EXPECT_GT(images[1].size(), 100u);
}

TEST(Symmetrized, MakesEdgesBidirectional) {
  const Digraph g = Digraph::FromEdges(3, {{0, 1, 1.0}});
  const Digraph sym = apps::Symmetrized(g);
  EXPECT_EQ(sym.num_edges(), 2u);
  EXPECT_EQ(sym.OutNeighbors(1)[0], 0u);
}

}  // namespace
}  // namespace asyncmr::graph
