// Integration tests: whole-pipeline runs — generate -> partition -> stage ->
// iterate to convergence — under realistic cluster behaviour: stragglers,
// transient task failures (deterministic replay), combiners, larger clusters.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/components.hpp"
#include "apps/jacobi.hpp"
#include "apps/kmeans.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "graph/partitioner.hpp"

namespace asyncmr {
namespace {

graph::Digraph PipelineGraph(uint64_t seed = 21) {
  graph::PrefAttachConfig config;
  config.num_vertices = 3000;
  config.num_in = 3;
  config.num_out = 3;
  config.locality_window = 20;
  config.max_edge_age = 80;
  config.seed = seed;
  return graph::PreferentialAttachment(config);
}

double MaxDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(Integration, PageRankSurvivesTaskFailures) {
  const auto g = PipelineGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.task_failure_prob = 0.15;  // heavy transient failure rate
  spec.seed = 31;
  cluster::SimCluster sim(spec);
  const auto eager = apps::EagerPageRank(sim, g, part, config);
  EXPECT_TRUE(eager.converged);
  // Fault tolerance does not change the answer (deterministic replay).
  EXPECT_LT(MaxDiff(eager.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

TEST(Integration, FailuresCostTimeButNotCorrectness) {
  const auto g = PipelineGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  auto healthy_spec = cluster::ClusterSpec::Ec2Large8();
  healthy_spec.straggler_prob = 0;
  healthy_spec.speed_jitter = 0;
  cluster::SimCluster healthy(healthy_spec);
  const auto base = apps::EagerPageRank(healthy, g, part, config);

  auto faulty_spec = healthy_spec;
  faulty_spec.task_failure_prob = 0.2;
  cluster::SimCluster faulty(faulty_spec);
  const auto injected = apps::EagerPageRank(faulty, g, part, config);

  EXPECT_EQ(MaxDiff(base.ranks, injected.ranks), 0.0);  // identical results
  EXPECT_GT(injected.trace.total_seconds(), base.trace.total_seconds());
}

/// One wave run reduced to what the failure test compares: its trace and its
/// answer vector.
struct WaveRun {
  core::RunTrace trace;
  std::vector<double> answer;
};

/// Runs solve on a failure-free cluster and on the same cluster with
/// task_failure_prob = 0.1 (the seed of
/// GeneralPageRank.FaultInjectionIsDeterministic). The retries must show in
/// the trace and must not move the answer.
template <typename Solve>
void ExpectRetriesCountedNotFelt(const std::string& name, Solve solve) {
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.seed = 1234;
  cluster::SimCluster clean(spec);
  const WaveRun base = solve(clean);
  spec.task_failure_prob = 0.1;
  cluster::SimCluster faulty(spec);
  const WaveRun injected = solve(faulty);
  EXPECT_EQ(base.trace.total_failed_attempts(), 0u) << name;
  EXPECT_GT(injected.trace.total_failed_attempts(), 0u) << name;
  EXPECT_EQ(base.answer, injected.answer) << name;
}

TEST(Integration, EveryWaveDriverReportsFailedAttempts) {
  // Bounded runs, as in FaultInjectionIsDeterministic: twelve global rounds
  // of at most eight local iterations retry enough attempts, and
  // convergence is not the point.
  constexpr uint32_t kRounds = 12;
  constexpr uint32_t kLocalIterations = 8;
  apps::PageRankConfig pr;
  pr.max_global_iterations = kRounds;
  pr.max_local_iterations = kLocalIterations;
  apps::SsspConfig sssp;
  sssp.max_global_iterations = kRounds;
  sssp.max_local_iterations = kLocalIterations;
  apps::JacobiConfig jacobi;
  jacobi.max_global_iterations = kRounds;
  jacobi.max_local_iterations = kLocalIterations;
  apps::ComponentsConfig cc;
  cc.max_global_iterations = kRounds;
  cc.max_local_iterations = kLocalIterations;
  const auto g = PipelineGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  const auto gw = graph::WithRandomWeights(g, 1.0, 10.0, 2);
  const auto g_sym = apps::Symmetrized(g);
  const auto part_sym = graph::MultilevelPartition(g_sym, 8);
  std::vector<double> b(g_sym.num_vertices());
  Rng rng(5);
  for (double& v : b) v = rng.NextDouble(-1.0, 1.0);
  apps::CensusLikeConfig data_config;
  data_config.num_points = 2000;
  data_config.dims = 8;
  data_config.planted_clusters = 4;
  const auto data = apps::GenerateCensusLike(data_config);
  apps::KMeansConfig km;
  km.k = 4;
  km.num_partitions = 8;
  km.threshold = 0.05;
  km.max_global_iterations = kRounds;
  km.max_local_iterations = kLocalIterations;
  auto labels = [](const apps::ComponentsResult& r) {
    return WaveRun{r.trace, std::vector<double>(r.labels.begin(), r.labels.end())};
  };

  ExpectRetriesCountedNotFelt("GeneralPageRank", [&](cluster::SimCluster& sim) {
    const auto r = apps::GeneralPageRank(sim, g, part, pr);
    return WaveRun{r.trace, r.ranks};
  });
  ExpectRetriesCountedNotFelt("EagerPageRank", [&](cluster::SimCluster& sim) {
    const auto r = apps::EagerPageRank(sim, g, part, pr);
    return WaveRun{r.trace, r.ranks};
  });
  ExpectRetriesCountedNotFelt("GeneralSssp", [&](cluster::SimCluster& sim) {
    const auto r = apps::GeneralSssp(sim, gw, part, sssp);
    return WaveRun{r.trace, r.distances};
  });
  ExpectRetriesCountedNotFelt("EagerSssp", [&](cluster::SimCluster& sim) {
    const auto r = apps::EagerSssp(sim, gw, part, sssp);
    return WaveRun{r.trace, r.distances};
  });
  ExpectRetriesCountedNotFelt("GeneralJacobi", [&](cluster::SimCluster& sim) {
    const auto r = apps::GeneralJacobi(sim, g_sym, b, part_sym, jacobi);
    return WaveRun{r.trace, r.x};
  });
  ExpectRetriesCountedNotFelt("EagerJacobi", [&](cluster::SimCluster& sim) {
    const auto r = apps::EagerJacobi(sim, g_sym, b, part_sym, jacobi);
    return WaveRun{r.trace, r.x};
  });
  ExpectRetriesCountedNotFelt("GeneralKMeans", [&](cluster::SimCluster& sim) {
    const auto r = apps::GeneralKMeans(sim, data, km);
    return WaveRun{r.trace, r.centroids};
  });
  ExpectRetriesCountedNotFelt("EagerKMeans", [&](cluster::SimCluster& sim) {
    const auto r = apps::EagerKMeans(sim, data, km);
    return WaveRun{r.trace, r.centroids};
  });
  ExpectRetriesCountedNotFelt("GeneralComponents", [&](cluster::SimCluster& sim) {
    return labels(apps::GeneralComponents(sim, g, part, cc));
  });
  ExpectRetriesCountedNotFelt("EagerComponents", [&](cluster::SimCluster& sim) {
    return labels(apps::EagerComponents(sim, g, part, cc));
  });
}

TEST(Integration, SpeculativeExecutionHelpsUnderStragglers) {
  const auto g = PipelineGraph();
  const auto part = graph::MultilevelPartition(g, 16);
  apps::PageRankConfig config;
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.straggler_prob = 0.15;
  spec.straggler_slowdown_min = 6.0;
  spec.straggler_slowdown_max = 10.0;
  spec.seed = 17;
  cluster::SimCluster plain(spec);
  const auto without = apps::EagerPageRank(plain, g, part, config);
  spec.speculative_factor = 1.5;
  cluster::SimCluster speculative(spec);
  const auto with = apps::EagerPageRank(speculative, g, part, config);
  // Speculation never changes results, and must not systematically hurt
  // (backup attempts consume otherwise-idle slots). Run-to-run straggler
  // draws differ, so allow noise on the timing comparison.
  EXPECT_EQ(MaxDiff(without.ranks, with.ranks), 0.0);
  EXPECT_LT(with.trace.total_seconds(), without.trace.total_seconds() * 1.15);
}

TEST(Integration, CombinerComposesWithPartialSync) {
  // Paper Section VI: combiners act on gmap output, orthogonal to local
  // reduce. With a node-level combiner the shuffle shrinks; results match.
  const auto g = PipelineGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;

  auto quiet = cluster::ClusterSpec::Ec2Large8();
  quiet.straggler_prob = 0;
  quiet.speed_jitter = 0;
  cluster::SimCluster sim(quiet);
  const auto eager = apps::EagerPageRank(sim, g, part, config);
  EXPECT_TRUE(eager.converged);
  EXPECT_GT(eager.trace.total_shuffle_bytes(), 0u);
}

TEST(Integration, LargerClusterShortensGeneralIterations) {
  // Discussion-section scaling: the same workload on a 64-node cloud slice
  // finishes its (compute-bound) map waves faster than on 8 nodes.
  const auto g = PipelineGraph();
  const auto part = graph::MultilevelPartition(g, 64);
  apps::PageRankConfig config;
  config.max_global_iterations = 3;  // time three fixed rounds

  auto small_spec = cluster::ClusterSpec::Ec2Large8();
  small_spec.straggler_prob = 0;
  small_spec.speed_jitter = 0;
  cluster::SimCluster small(small_spec);
  const auto on_small = apps::GeneralPageRank(small, g, part, config);

  auto big_spec = cluster::ClusterSpec::Cloud(64);
  big_spec.straggler_prob = 0;
  big_spec.speed_jitter = 0;
  cluster::SimCluster big(big_spec);
  const auto on_big = apps::GeneralPageRank(big, g, part, config);

  EXPECT_LT(on_big.trace.total_seconds(), on_small.trace.total_seconds());
}

TEST(Integration, AllThreeAppsOneCluster) {
  // Sequential jobs on one shared simulated cluster (DFS namespace reuse).
  const auto g = PipelineGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.straggler_prob = 0;
  spec.speed_jitter = 0;
  cluster::SimCluster sim(spec);

  apps::PageRankConfig pr_config;
  const auto pr = apps::EagerPageRank(sim, g, part, pr_config);
  EXPECT_TRUE(pr.converged);

  const auto gw = graph::WithRandomWeights(g, 1.0, 10.0, 2);
  apps::SsspConfig sssp_config;
  const auto sssp = apps::EagerSssp(sim, gw, part, sssp_config);
  EXPECT_TRUE(sssp.converged);

  apps::CensusLikeConfig data_config;
  data_config.num_points = 2000;
  data_config.dims = 8;
  data_config.planted_clusters = 4;
  const auto data = apps::GenerateCensusLike(data_config);
  apps::KMeansConfig km_config;
  km_config.k = 4;
  km_config.num_partitions = 8;
  km_config.threshold = 0.05;
  const auto km = apps::EagerKMeans(sim, data, km_config);
  EXPECT_TRUE(km.converged);

  // Virtual time advanced monotonically across all three workloads.
  EXPECT_GT(sim.now(), pr.trace.total_seconds());
}

TEST(Integration, EndToEndDeterminismWithFaults) {
  const auto g = PipelineGraph(77);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  auto run = [&] {
    auto spec = cluster::ClusterSpec::Ec2Large8();
    spec.task_failure_prob = 0.1;
    spec.straggler_prob = 0.2;
    spec.seed = 4242;
    cluster::SimCluster sim(spec);
    return apps::EagerPageRank(sim, g, part, config);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.trace.total_seconds(), b.trace.total_seconds());
  EXPECT_EQ(a.trace.global_iterations(), b.trace.global_iterations());
  EXPECT_EQ(MaxDiff(a.ranks, b.ranks), 0.0);
}

}  // namespace
}  // namespace asyncmr
