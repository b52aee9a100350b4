// Golden pins for the graph drivers, affine (PageRank, Jacobi) and
// min-propagation (SSSP, Components): every engine's result vector, virtual
// time, iteration counts and (async) wire and checkpoint volume, folded into
// one 64-bit FNV-1a digest per run and compared against constants recorded
// from a known-good build. A refactor of the drivers that
// moves any bit of any of these (an op constant, the association of an update,
// the order of a sum, the bytes of a boundary record or a checkpoint image)
// fails here, on a graph small enough to run in tier 1.
//
// To re-record after an intended change, run the binary with
// --gtest_also_run_disabled_tests --gtest_filter=*PrintDigests and paste the
// printed tables over kAffineGolden and kMinGolden.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/components.hpp"
#include "apps/jacobi.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "graph/generator.hpp"
#include "graph/partitioner.hpp"

namespace asyncmr::apps {
namespace {

constexpr uint32_t kParts = 8;

cluster::ClusterSpec QuietSpec() {
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.straggler_prob = 0.0;
  spec.speed_jitter = 0.0;
  return spec;
}

/// Crashes often enough to fire several times within a test-scale run, with
/// a respawn short enough that recovery does not dominate it.
cluster::ClusterSpec CrashySpec() {
  auto spec = QuietSpec();
  spec.worker_crash_rate = 0.6;
  spec.worker_restart_delay_s = 0.5;
  return spec;
}

graph::Digraph TestGraph(graph::VertexId n, uint64_t seed) {
  graph::PrefAttachConfig config;
  config.num_vertices = n;
  config.num_in = 3;
  config.num_out = 3;
  config.locality_window = std::max<graph::VertexId>(4, n / 150);
  config.max_edge_age = 4 * config.locality_window;
  config.seed = seed;
  return graph::PreferentialAttachment(config);
}

/// 64-bit FNV-1a over the bytes of the values folded in.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      hash_ ^= (v >> (8 * k)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(uint32_t v) { Add(uint64_t{v}); }
  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(uint64_t{values.size()});
    for (T v : values) Add(v);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

template <typename T>
uint64_t WaveDigest(const std::vector<T>& x, const core::RunTrace& trace,
                    bool converged) {
  Digest d;
  d.Add(x);
  d.Add(trace.total_seconds());
  d.Add(uint64_t{trace.global_iterations()});
  d.Add(trace.total_local_iterations());
  d.Add(trace.total_ops());
  d.Add(uint64_t{converged});
  return d.value();
}

template <typename T>
uint64_t AsyncDigest(const std::vector<T>& x, const core::RunTrace& trace,
                     bool converged, const async::AsyncResult& stats) {
  Digest d;
  d.Add(WaveDigest(x, trace, converged));
  d.Add(stats.total_iterations);
  d.Add(stats.update_records);
  d.Add(stats.bytes_sent);
  d.Add(stats.checkpoint_bytes);
  d.Add(uint64_t{stats.worker_restarts});
  return d.value();
}

/// A Components run's digest also covers its component count.
uint64_t WithCount(uint64_t digest, uint32_t num_components) {
  Digest d;
  d.Add(digest);
  d.Add(num_components);
  return d.value();
}

struct Case {
  std::string name;
  uint64_t digest;
};

/// Runs every pinned affine driver once, in a fixed order, each on a fresh
/// cluster.
std::vector<Case> RunAffine() {
  const graph::Digraph g = TestGraph(1500, 7);
  const graph::Partitioning part = graph::MultilevelPartition(g, kParts);
  const graph::Digraph g_sym = Symmetrized(TestGraph(1200, 11));
  const graph::Partitioning part_sym = graph::MultilevelPartition(g_sym, kParts);
  // A non-uniform right-hand side, so the association of b in every update
  // is pinned too.
  std::vector<double> b(g_sym.num_vertices());
  for (uint32_t v = 0; v < b.size(); ++v) b[v] = 1.0 + 0.25 * (v % 7);

  std::vector<Case> cases;
  const PageRankConfig pr;
  const JacobiConfig jac;
  PageRankConfig pr_ckpt;
  pr_ckpt.async_tuning.checkpoint_interval = 4;
  JacobiConfig jac_ckpt;
  jac_ckpt.async_tuning.checkpoint_interval = 4;
  PageRankConfig pr_capped;
  pr_capped.max_local_iterations = 2;
  {
    cluster::SimCluster sim(QuietSpec());
    const auto r = GeneralPageRank(sim, g, part, pr);
    cases.push_back({"general-pagerank", WaveDigest(r.ranks, r.trace, r.converged)});
  }
  {
    cluster::SimCluster sim(QuietSpec());
    const auto r = EagerPageRank(sim, g, part, pr);
    cases.push_back({"eager-pagerank", WaveDigest(r.ranks, r.trace, r.converged)});
  }
  {
    cluster::SimCluster sim(QuietSpec());
    const auto r = EagerPageRank(sim, g, part, pr_capped);
    cases.push_back(
        {"eager-pagerank-cap2", WaveDigest(r.ranks, r.trace, r.converged)});
  }
  {
    cluster::SimCluster sim(QuietSpec());
    async::AsyncResult stats;
    const auto r =
        AsyncPageRank(sim, g, part, pr, async::kUnboundedStaleness, &stats);
    cases.push_back(
        {"async-pagerank", AsyncDigest(r.ranks, r.trace, r.converged, stats)});
  }
  {
    cluster::SimCluster sim(CrashySpec());
    async::AsyncResult stats;
    const auto r =
        AsyncPageRank(sim, g, part, pr_ckpt, async::kUnboundedStaleness, &stats);
    EXPECT_GE(stats.worker_restarts, 1u);
    cases.push_back(
        {"async-pagerank-crash", AsyncDigest(r.ranks, r.trace, r.converged, stats)});
  }
  {
    cluster::SimCluster sim(QuietSpec());
    const auto r = GeneralJacobi(sim, g_sym, b, part_sym, jac);
    cases.push_back({"general-jacobi", WaveDigest(r.x, r.trace, r.converged)});
  }
  {
    cluster::SimCluster sim(QuietSpec());
    const auto r = EagerJacobi(sim, g_sym, b, part_sym, jac);
    cases.push_back({"eager-jacobi", WaveDigest(r.x, r.trace, r.converged)});
  }
  {
    cluster::SimCluster sim(QuietSpec());
    async::AsyncResult stats;
    const auto r =
        AsyncJacobi(sim, g_sym, b, part_sym, jac, async::kUnboundedStaleness, &stats);
    cases.push_back({"async-jacobi", AsyncDigest(r.x, r.trace, r.converged, stats)});
  }
  {
    cluster::SimCluster sim(CrashySpec());
    async::AsyncResult stats;
    const auto r = AsyncJacobi(sim, g_sym, b, part_sym, jac_ckpt,
                               async::kUnboundedStaleness, &stats);
    EXPECT_GE(stats.worker_restarts, 1u);
    EXPECT_GT(stats.checkpoint_bytes, 0u);
    cases.push_back(
        {"async-jacobi-crash", AsyncDigest(r.x, r.trace, r.converged, stats)});
  }
  return cases;
}

/// Runs every pinned min-propagation driver once, in a fixed order, each on a
/// fresh cluster: SSSP on a weighted graph, Components on an unweighted one.
std::vector<Case> RunMin() {
  const graph::Digraph g = TestGraph(1500, 7);
  const graph::Partitioning part = graph::MultilevelPartition(g, kParts);
  const graph::Digraph g_w = graph::WithRandomWeights(g, 1.0, 10.0, /*seed=*/8);

  std::vector<Case> cases;
  const SsspConfig sssp;
  const ComponentsConfig cc;
  SsspConfig sssp_ckpt;
  sssp_ckpt.async_tuning.checkpoint_interval = 4;
  ComponentsConfig cc_ckpt;
  cc_ckpt.async_tuning.checkpoint_interval = 4;
  SsspConfig sssp_capped;
  sssp_capped.max_local_iterations = 2;
  {
    cluster::SimCluster sim(QuietSpec());
    const auto r = GeneralSssp(sim, g_w, part, sssp);
    cases.push_back({"general-sssp", WaveDigest(r.distances, r.trace, r.converged)});
  }
  {
    cluster::SimCluster sim(QuietSpec());
    const auto r = EagerSssp(sim, g_w, part, sssp);
    cases.push_back({"eager-sssp", WaveDigest(r.distances, r.trace, r.converged)});
  }
  {
    cluster::SimCluster sim(QuietSpec());
    const auto r = EagerSssp(sim, g_w, part, sssp_capped);
    cases.push_back(
        {"eager-sssp-cap2", WaveDigest(r.distances, r.trace, r.converged)});
  }
  {
    cluster::SimCluster sim(QuietSpec());
    async::AsyncResult stats;
    const auto r = AsyncSssp(sim, g_w, part, sssp, async::kUnboundedStaleness, &stats);
    cases.push_back(
        {"async-sssp", AsyncDigest(r.distances, r.trace, r.converged, stats)});
  }
  {
    cluster::SimCluster sim(CrashySpec());
    async::AsyncResult stats;
    const auto r =
        AsyncSssp(sim, g_w, part, sssp_ckpt, async::kUnboundedStaleness, &stats);
    EXPECT_GE(stats.worker_restarts, 1u);
    EXPECT_GT(stats.checkpoint_bytes, 0u);
    cases.push_back(
        {"async-sssp-crash", AsyncDigest(r.distances, r.trace, r.converged, stats)});
  }
  {
    cluster::SimCluster sim(QuietSpec());
    const auto r = GeneralComponents(sim, g, part, cc);
    cases.push_back({"general-components",
                     WithCount(WaveDigest(r.labels, r.trace, r.converged),
                               r.num_components)});
  }
  {
    cluster::SimCluster sim(QuietSpec());
    const auto r = EagerComponents(sim, g, part, cc);
    cases.push_back({"eager-components",
                     WithCount(WaveDigest(r.labels, r.trace, r.converged),
                               r.num_components)});
  }
  {
    cluster::SimCluster sim(QuietSpec());
    async::AsyncResult stats;
    const auto r =
        AsyncComponents(sim, g, part, cc, async::kUnboundedStaleness, &stats);
    cases.push_back({"async-components",
                     WithCount(AsyncDigest(r.labels, r.trace, r.converged, stats),
                               r.num_components)});
  }
  {
    cluster::SimCluster sim(CrashySpec());
    async::AsyncResult stats;
    const auto r =
        AsyncComponents(sim, g, part, cc_ckpt, async::kUnboundedStaleness, &stats);
    EXPECT_GE(stats.worker_restarts, 1u);
    EXPECT_GT(stats.checkpoint_bytes, 0u);
    cases.push_back({"async-components-crash",
                     WithCount(AsyncDigest(r.labels, r.trace, r.converged, stats),
                               r.num_components)});
  }
  return cases;
}

void ExpectGolden(const std::vector<Case>& cases, const std::vector<Case>& golden) {
  ASSERT_EQ(cases.size(), golden.size());
  for (size_t c = 0; c < cases.size(); ++c) {
    EXPECT_EQ(cases[c].name, golden[c].name);
    EXPECT_EQ(cases[c].digest, golden[c].digest) << cases[c].name;
  }
}

const std::vector<Case> kAffineGolden = {
    {"general-pagerank", 0xfde69ba15f195f12ull},
    {"eager-pagerank", 0xa81c4dee5743c70cull},
    {"eager-pagerank-cap2", 0x7f710ff81fbe857aull},
    {"async-pagerank", 0x7ea6a2cfea2a4f91ull},
    {"async-pagerank-crash", 0xe4d77b56f2b80d04ull},
    {"general-jacobi", 0xabfde4b09fdb0b4bull},
    {"eager-jacobi", 0x55d794f17084118full},
    {"async-jacobi", 0x00246a2d551ade70ull},
    {"async-jacobi-crash", 0x5509e7c509b57639ull},
};

const std::vector<Case> kMinGolden = {
    {"general-sssp", 0x3589ccdc6c123d64ull},
    {"eager-sssp", 0x90a23270dfd20474ull},
    {"eager-sssp-cap2", 0x4f9596f9b6776a18ull},
    {"async-sssp", 0x872393ea62903ed9ull},
    {"async-sssp-crash", 0xed8663941dbdb83dull},
    {"general-components", 0x2702776515cf291cull},
    {"eager-components", 0xb23c839ca78dda67ull},
    {"async-components", 0xba8999b4b90ce7e7ull},
    {"async-components-crash", 0x3d5ed4e2d061a5fcull},
};

TEST(Golden, AffineDriversAreBitIdentical) { ExpectGolden(RunAffine(), kAffineGolden); }

TEST(Golden, MinDriversAreBitIdentical) { ExpectGolden(RunMin(), kMinGolden); }

TEST(Golden, DISABLED_PrintDigests) {
  std::vector<Case> cases = RunAffine();
  for (Case& c : RunMin()) cases.push_back(std::move(c));
  for (const Case& c : cases) {
    std::printf("    {\"%s\", 0x%016llxull},\n", c.name.c_str(),
                static_cast<unsigned long long>(c.digest));
  }
}

}  // namespace
}  // namespace asyncmr::apps
