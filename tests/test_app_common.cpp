// Unit tests: the shared app helpers — DenseAccumulator against a std::map
// reference, BoundaryPlan / DeltaFilter against the per-app grouping they
// replaced (std::map by peer, then a sort by target) and the cut-edge visit
// against a full source-major scan, its pull sums against the scatter fold
// they replaced, and the Eager and async graph drivers, which read the plan,
// on its degenerate partitionings.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/app_common.hpp"
#include "apps/components.hpp"
#include "apps/jacobi.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace asyncmr::apps {
namespace {

using Pairs = std::vector<std::pair<uint32_t, double>>;

enum class Combine { kAdd, kMin };

// Random indices with many repeats, always including the word boundaries
// 0, 63, 64 and the last index.
std::vector<uint32_t> RandomIndices(Rng& rng, uint32_t n, size_t count) {
  std::vector<uint32_t> indices{0, 63, 64, n - 1, 0, n - 1};
  const auto hot = static_cast<uint32_t>(rng.NextBounded(n));
  while (indices.size() < count) {
    indices.push_back(rng.NextBool(0.2) ? hot : static_cast<uint32_t>(rng.NextBounded(n)));
  }
  return indices;
}

// Applies one round of random updates to acc and to a std::map reference,
// then checks the drain against the reference.
void CheckRound(DenseAccumulator& acc, Rng& rng, uint32_t n, Combine combine) {
  std::map<uint32_t, double> reference;
  for (uint32_t index : RandomIndices(rng, n, 3 * n / 4)) {
    const double value = rng.NextDouble(-10.0, 10.0);
    if (combine == Combine::kAdd) {
      acc.Add(index, value);
      reference[index] += value;
    } else {
      acc.Min(index, value);
      auto [it, inserted] = reference.emplace(index, value);
      if (!inserted && value < it->second) it->second = value;
    }
  }
  EXPECT_EQ(acc.touched_count(), reference.size());

  const Pairs drained = acc.DrainSorted();
  const Pairs expected(reference.begin(), reference.end());
  EXPECT_EQ(drained, expected);  // ascending, exact values
  EXPECT_EQ(acc.touched_count(), 0u);
  EXPECT_TRUE(acc.DrainSorted().empty());
}

TEST(DenseAccumulator, AddMatchesMapReferenceAcrossReuse) {
  Rng rng(11);
  for (uint32_t n : {65u, 128u, 1000u}) {
    DenseAccumulator acc(n);
    for (int round = 0; round < 5; ++round) CheckRound(acc, rng, n, Combine::kAdd);
  }
}

TEST(DenseAccumulator, MinMatchesMapReferenceAcrossReuse) {
  Rng rng(12);
  for (uint32_t n : {65u, 128u, 1000u}) {
    DenseAccumulator acc(n);
    for (int round = 0; round < 5; ++round) CheckRound(acc, rng, n, Combine::kMin);
  }
}

TEST(DenseAccumulator, ReusedAccumulatorStartsFromZero) {
  DenseAccumulator acc(200);
  acc.Add(64, 5.0);
  acc.Add(199, -1.0);
  acc.Min(0, 3.0);
  ASSERT_EQ(acc.DrainSorted(), (Pairs{{0, 3.0}, {64, 5.0}, {199, -1.0}}));

  // A drained slot holds no residue: Add starts from 0, and Min takes the
  // first value even when it is larger than the drained one.
  acc.Add(64, 0.25);
  acc.Min(0, 7.0);
  EXPECT_EQ(acc.touched_count(), 2u);
  EXPECT_EQ(acc.DrainSorted(), (Pairs{{0, 7.0}, {64, 0.25}}));
}

// --- BoundaryPlan --------------------------------------------------------------

// A random multigraph over five partitions:
//  * part 0 owns vertices [0, 10) and every edge touching them stays inside,
//    so it has no cut edges in either direction;
//  * parts 1-3 share the other vertices at random;
//  * part 4 is empty.
// Both blocks get self-loops and repeated edges (with distinct weights when
// weighted), so runs hold several edges from one source.
struct PlanCase {
  graph::Digraph g;
  graph::Partitioning partitioning;
};

PlanCase RandomPlanCase(uint64_t seed, bool weighted) {
  constexpr uint32_t kClosed = 10;
  constexpr uint32_t kN = 70;
  Rng rng(seed);
  PlanCase c;
  c.partitioning.num_parts = 5;
  c.partitioning.part_of.resize(kN);
  for (uint32_t v = 0; v < kN; ++v) {
    c.partitioning.part_of[v] =
        v < kClosed ? 0 : 1 + static_cast<uint32_t>(rng.NextBounded(3));
  }
  std::vector<graph::Edge> edges;
  auto add = [&](uint32_t lo, uint32_t hi, size_t count) {
    for (size_t k = 0; k < count; ++k) {
      const auto u = static_cast<graph::VertexId>(lo + rng.NextBounded(hi - lo));
      const auto t = rng.NextBool(0.1)
                         ? u
                         : static_cast<graph::VertexId>(lo + rng.NextBounded(hi - lo));
      const double w = static_cast<double>(1 + rng.NextBounded(9));
      edges.push_back({u, t, w});
      if (rng.NextBool(0.2)) edges.push_back({u, t, w + 0.5});  // multi-edge
    }
  };
  add(0, kClosed, 30);
  add(kClosed, kN, 400);
  c.g = graph::Digraph::FromEdges(kN, std::move(edges), weighted);
  return c;
}

// (sender partition, source vertex, weight): one cut edge as a target sees it.
using CutRef = std::tuple<uint32_t, graph::VertexId, double>;

// ForEachCutEdge against a source-major scan over p, its members and their
// CSR edges, filtered by part_of[t] != p: per target, the same edges in the
// same order, so an edge-by-edge fold rounds as the scan does.
void CheckCutEdgeOrder(const PlanCase& c, const BoundaryPlan& plan) {
  const graph::Digraph& g = c.g;
  const graph::Partitioning& partitioning = c.partitioning;
  std::map<graph::VertexId, std::vector<CutRef>> expected;
  for (uint32_t p = 0; p < partitioning.num_parts; ++p) {
    for (graph::VertexId u : plan.parts[p].members) {
      for (uint64_t e = g.offsets()[u]; e < g.offsets()[u + 1]; ++e) {
        const graph::VertexId t = g.targets()[e];
        if (partitioning.part_of[t] == p) continue;
        expected[t].emplace_back(p, u, g.weighted() ? g.weights()[e] : 1.0);
      }
    }
  }
  std::map<graph::VertexId, std::vector<CutRef>> visited;
  plan.ForEachCutEdge([&](uint32_t p, uint32_t i, uint32_t q, uint32_t l, double w) {
    ASSERT_LT(l, plan.parts[q].members.size());
    const graph::VertexId t = plan.parts[q].members[l];
    EXPECT_EQ(partitioning.part_of[t], q);
    EXPECT_NE(p, q);
    visited[t].emplace_back(p, plan.parts[p].members[i], w);
  });
  EXPECT_EQ(visited, expected);
}

// (target, source local index, CSR position, weight): sorting by the whole
// tuple is the old per-app `std::sort` of a source-major list, with the CSR
// position breaking ties between repeated edges of one source.
using RefEdge = std::tuple<graph::VertexId, uint32_t, uint64_t, double>;

void CheckPlanAgainstReference(const PlanCase& c) {
  const graph::Digraph& g = c.g;
  const graph::Partitioning& partitioning = c.partitioning;
  const BoundaryPlan plan = BoundaryPlan::Build(g, partitioning);
  const auto members = partitioning.Members();
  ASSERT_EQ(plan.parts.size(), partitioning.num_parts);
  ASSERT_EQ(plan.local_of.size(), g.num_vertices());

  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto& part = plan.parts[partitioning.part_of[v]];
    ASSERT_LT(plan.local_of[v], part.members.size());
    EXPECT_EQ(part.members[plan.local_of[v]], v);
    EXPECT_EQ(plan.LocalIndex(partitioning.part_of[v], v), plan.local_of[v]);
  }

  for (uint32_t p = 0; p < partitioning.num_parts; ++p) {
    const BoundaryPlan::Part& part = plan.parts[p];
    EXPECT_EQ(part.members, members[p]);

    std::vector<uint32_t> internal;
    std::vector<double> internal_weights;
    std::map<uint32_t, std::vector<RefEdge>> boundary;
    ASSERT_EQ(part.internal_offsets.size(), part.members.size() + 1);
    for (uint32_t i = 0; i < part.members.size(); ++i) {
      const graph::VertexId u = part.members[i];
      std::vector<uint32_t> row;
      for (uint64_t e = g.offsets()[u]; e < g.offsets()[u + 1]; ++e) {
        const graph::VertexId t = g.targets()[e];
        const double w = g.weighted() ? g.weights()[e] : 1.0;
        const uint32_t q = partitioning.part_of[t];
        if (q == p) {
          row.push_back(plan.local_of[t]);
          if (g.weighted()) internal_weights.push_back(w);
        } else {
          boundary[q].emplace_back(t, i, e, w);
        }
      }
      const auto span = part.Internal(i);
      EXPECT_EQ(std::vector<uint32_t>(span.begin(), span.end()), row)
          << "internal row of member " << i << " in part " << p;
      internal.insert(internal.end(), row.begin(), row.end());
    }
    EXPECT_EQ(part.internal_targets, internal);
    EXPECT_EQ(part.internal_weights, internal_weights);
    EXPECT_EQ(part.internal_edges(), internal.size());

    ASSERT_EQ(part.out.size(), boundary.size()) << "part " << p;
    size_t b = 0;
    for (auto& [q, edges] : boundary) {
      std::sort(edges.begin(), edges.end());
      const BoundaryPlan::OutGroup& group = part.out[b];
      EXPECT_EQ(group.peer, q);  // std::map order: ascending peer
      EXPECT_EQ(part.GroupTo(q), b);
      ASSERT_EQ(group.run_begin.size(), group.targets.size() + 1);
      EXPECT_EQ(group.run_begin.front(), 0u);
      EXPECT_EQ(group.run_begin.back(), group.sources.size());
      EXPECT_TRUE(std::is_sorted(group.targets.begin(), group.targets.end()));
      EXPECT_EQ(std::adjacent_find(group.targets.begin(), group.targets.end()),
                group.targets.end());
      EXPECT_EQ(group.weights.size(), g.weighted() ? group.sources.size() : 0u);
      std::vector<std::tuple<graph::VertexId, uint32_t, double>> flat, expected;
      for (size_t j = 0; j < group.targets.size(); ++j) {
        EXPECT_LT(group.run_begin[j], group.run_begin[j + 1]) << "empty run";
        for (uint32_t e = group.run_begin[j]; e < group.run_begin[j + 1]; ++e) {
          flat.emplace_back(group.targets[j], group.sources[e],
                            g.weighted() ? group.weights[e] : 1.0);
        }
      }
      for (const auto& [t, i, pos, w] : edges) expected.emplace_back(t, i, w);
      EXPECT_EQ(flat, expected) << "runs of part " << p << " toward " << q;
      ++b;
    }
    EXPECT_EQ(part.GroupTo(p), part.out.size());  // no group toward itself

    EXPECT_TRUE(std::is_sorted(part.in_peers.begin(), part.in_peers.end()));
    for (uint32_t q = 0; q < partitioning.num_parts; ++q) {
      const bool sends = plan.parts[q].GroupTo(p) < plan.parts[q].out.size();
      const bool listed =
          std::find(part.in_peers.begin(), part.in_peers.end(), q) != part.in_peers.end();
      EXPECT_EQ(sends, listed) << q << " -> " << p;
    }
  }

  // The closed partition and the empty one have no cut edges either way.
  for (uint32_t p : {0u, 4u}) {
    EXPECT_TRUE(plan.parts[p].out.empty()) << "part " << p;
    EXPECT_TRUE(plan.parts[p].in_peers.empty()) << "part " << p;
  }
  EXPECT_TRUE(plan.parts[4].members.empty());
  EXPECT_FALSE(plan.parts[0].internal_targets.empty());

  CheckCutEdgeOrder(c, plan);
}

TEST(BoundaryPlan, MatchesGroupedReferenceUnweighted) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    CheckPlanAgainstReference(RandomPlanCase(seed, /*weighted=*/false));
  }
}

TEST(BoundaryPlan, MatchesGroupedReferenceWeighted) {
  for (uint64_t seed = 11; seed <= 18; ++seed) {
    CheckPlanAgainstReference(RandomPlanCase(seed, /*weighted=*/true));
  }
}

TEST(BoundaryPlan, RunSumFoldsInRunOrder) {
  const PlanCase c = RandomPlanCase(3, /*weighted=*/false);
  const BoundaryPlan plan = BoundaryPlan::Build(c.g, c.partitioning);
  for (const auto& part : plan.parts) {
    for (const auto& group : part.out) {
      for (size_t j = 0; j < group.targets.size(); ++j) {
        double expected = 0.0;
        for (uint32_t e = group.run_begin[j]; e < group.run_begin[j + 1]; ++e) {
          expected += 1.0 / (1.0 + group.sources[e]);
        }
        EXPECT_EQ(group.RunSum(j, [](uint32_t i) { return 1.0 / (1.0 + i); }),
                  expected);
      }
    }
  }
}

// The block solves' pull sums against the scatter `acc[t] += value[i]` over
// Internal(i) in ascending i that they replaced. Values of mixed sign and
// magnitude (1e16 next to 1) make the result depend on summation order, so
// only the same adds in the same order compare equal.
TEST(BoundaryPlan, PullSumsMatchScatterFold) {
  size_t order_sensitive = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const PlanCase c = RandomPlanCase(seed, /*weighted=*/false);
    const BoundaryPlan plan = BoundaryPlan::Build(c.g, c.partitioning);
    Rng rng(100 + seed);
    for (uint32_t p = 0; p < plan.parts.size(); ++p) {
      const BoundaryPlan::Part& part = plan.parts[p];
      const auto m = static_cast<uint32_t>(part.members.size());
      std::vector<double> value(m + 1, 0.0);
      for (uint32_t i = 0; i < m; ++i) {
        const double magnitude = rng.NextBool(0.3) ? 1e16 : 1.0;
        value[i] = (rng.NextBool(0.5) ? -magnitude : magnitude) * rng.NextDouble(1.0, 2.0);
      }
      std::vector<double> scatter(m, 0.0);
      std::vector<double> reversed(m, 0.0);
      for (uint32_t i = 0; i < m; ++i) {
        for (uint32_t t : part.Internal(i)) scatter[t] += value[i];
        for (uint32_t t : part.Internal(m - 1 - i)) reversed[t] += value[m - 1 - i];
      }
      for (uint32_t t = 0; t < m; ++t) order_sensitive += scatter[t] != reversed[t];

      std::vector<int> visits(m, 0);
      part.ForEachInternalSum(value, [&](uint32_t t, double sum) {
        ASSERT_LT(t, m) << "part " << p;
        ++visits[t];
        EXPECT_EQ(sum, scatter[t]) << "seed " << seed << " part " << p << " target " << t;
      });
      EXPECT_EQ(visits, std::vector<int>(m, 1)) << "seed " << seed << " part " << p;
    }
    EXPECT_TRUE(plan.parts[4].pull_order.empty());  // the empty part visits nothing
  }
  EXPECT_GT(order_sensitive, 0u) << "the values do not make summation order matter";
}

TEST(DeltaFilter, ReannouncementFillsTheSentinel) {
  const PlanCase c = RandomPlanCase(5, /*weighted=*/false);
  const BoundaryPlan plan = BoundaryPlan::Build(c.g, c.partitioning);
  constexpr uint32_t kNever = 999;
  DeltaFilter<uint32_t> filter(plan, 7, kNever);
  const uint32_t p = 1;
  const auto& out = plan.parts[p].out;
  ASSERT_GE(out.size(), 2u);
  for (size_t b = 0; b < out.size(); ++b) {
    EXPECT_EQ(filter.sent(p, b), std::vector<uint32_t>(out[b].targets.size(), 7));
  }

  filter.ResendTo(p, out[1].peer);
  EXPECT_EQ(filter.sent(p, 0), std::vector<uint32_t>(out[0].targets.size(), 7));
  EXPECT_EQ(filter.sent(p, 1), std::vector<uint32_t>(out[1].targets.size(), kNever));
  filter.ResendTo(p, /*peer=*/0);  // p sends nothing to the closed part
  EXPECT_EQ(filter.sent(p, 0), std::vector<uint32_t>(out[0].targets.size(), 7));

  filter.ResendAll(p);
  for (size_t b = 0; b < out.size(); ++b) {
    EXPECT_EQ(filter.sent(p, b),
              std::vector<uint32_t>(out[b].targets.size(), kNever));
  }
}

// --- Graph drivers on the plan's degenerate partitionings -----------------------
//
// RandomPlanCase partitionings hold a closed part, an empty part, self-loops
// and repeated edges; each Eager and async driver must still reach its serial
// oracle under the bound its own suite asserts.

cluster::ClusterSpec QuietSpec() {
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.straggler_prob = 0.0;
  spec.speed_jitter = 0.0;
  return spec;
}

TEST(EagerOnPlanCases, PageRankMatchesSerialOracle) {
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    const PlanCase c = RandomPlanCase(seed, /*weighted=*/false);
    PageRankConfig config;
    cluster::SimCluster sim(QuietSpec());
    const auto result = EagerPageRank(sim, c.g, c.partitioning, config);
    EXPECT_TRUE(result.converged) << "seed " << seed;
    const auto serial = SerialPageRank(c.g, config);
    ASSERT_EQ(result.ranks.size(), serial.size());
    for (size_t v = 0; v < serial.size(); ++v) {
      EXPECT_NEAR(result.ranks[v], serial[v], 1e-3) << "seed " << seed << " vertex " << v;
    }
  }
}

TEST(EagerOnPlanCases, SsspMatchesDijkstra) {
  for (uint64_t seed = 31; seed <= 34; ++seed) {
    const PlanCase c = RandomPlanCase(seed, /*weighted=*/true);
    SsspConfig config;
    config.source = 10;  // outside the closed part, which stays unreachable
    ASSERT_NE(c.partitioning.part_of[config.source], 0u);
    cluster::SimCluster sim(QuietSpec());
    const auto result = EagerSssp(sim, c.g, c.partitioning, config);
    EXPECT_TRUE(result.converged) << "seed " << seed;
    const auto oracle = SerialDijkstra(c.g, config.source);
    ASSERT_EQ(result.distances.size(), oracle.size());
    for (size_t v = 0; v < oracle.size(); ++v) {
      if (oracle[v] == kInfDistance) {
        EXPECT_EQ(result.distances[v], kInfDistance) << "seed " << seed << " vertex " << v;
      } else {
        EXPECT_NEAR(result.distances[v], oracle[v], 1e-9)
            << "seed " << seed << " vertex " << v;
      }
    }
    for (graph::VertexId v = 0; v < 10; ++v) EXPECT_EQ(oracle[v], kInfDistance);
  }
}

TEST(EagerOnPlanCases, JacobiMatchesResidualBound) {
  for (uint64_t seed = 41; seed <= 44; ++seed) {
    const PlanCase c = RandomPlanCase(seed, /*weighted=*/false);
    const graph::Digraph g_sym = Symmetrized(c.g);
    const std::vector<double> b(g_sym.num_vertices(), 1.0);
    JacobiConfig config;
    cluster::SimCluster sim(QuietSpec());
    const auto result = EagerJacobi(sim, g_sym, b, c.partitioning, config);
    EXPECT_TRUE(result.converged) << "seed " << seed;
    EXPECT_LT(JacobiResidual(g_sym, b, result.x), 1e-6) << "seed " << seed;
  }
}

TEST(AsyncOnPlanCases, PageRankMatchesSerialOracle) {
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    const PlanCase c = RandomPlanCase(seed, /*weighted=*/false);
    PageRankConfig config;
    cluster::SimCluster sim(QuietSpec());
    const auto result = AsyncPageRank(sim, c.g, c.partitioning, config);
    EXPECT_TRUE(result.converged) << "seed " << seed;
    const auto serial = SerialPageRank(c.g, config);
    ASSERT_EQ(result.ranks.size(), serial.size());
    for (size_t v = 0; v < serial.size(); ++v) {
      EXPECT_NEAR(result.ranks[v], serial[v], 1e-3) << "seed " << seed << " vertex " << v;
    }
  }
}

TEST(AsyncOnPlanCases, JacobiMatchesResidualBound) {
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    const PlanCase c = RandomPlanCase(seed, /*weighted=*/false);
    const graph::Digraph g_sym = Symmetrized(c.g);
    const std::vector<double> b(g_sym.num_vertices(), 1.0);
    JacobiConfig config;
    cluster::SimCluster sim(QuietSpec());
    const auto result = AsyncJacobi(sim, g_sym, b, c.partitioning, config);
    EXPECT_TRUE(result.converged) << "seed " << seed;
    EXPECT_LT(JacobiResidual(g_sym, b, result.x), 1e-6) << "seed " << seed;
  }
}

}  // namespace
}  // namespace asyncmr::apps
