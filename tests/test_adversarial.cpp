// Adversarial cluster model tests: partition-heal re-announcement driving
// every async app back to its oracle, crash+partition combined recovery,
// same-seed bit-identical determinism with every adversarial knob on, Safra
// termination soundness under lossy links, peer suspicion under bounded
// staleness, and checkpoint corruption detection/fallback.
//
// The whole binary carries a tight ctest wall-clock TIMEOUT (CMakeLists):
// every adversarial run here must TERMINATE — a retry/suspicion/termination
// livelock trips the guard instead of hanging the suite.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/components.hpp"
#include "apps/jacobi.hpp"
#include "apps/kmeans.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "async/checkpoint.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "graph/partitioner.hpp"

namespace asyncmr {
namespace {

cluster::ClusterSpec QuietSpec() {
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.straggler_prob = 0.0;
  spec.speed_jitter = 0.0;
  return spec;
}

// A rack-1 partition open from t=0: the first wave of cross-rack update
// batches (workers are placed p % 8, so partitions 4-7 sit in rack 1) times
// out, retries ride the backoff schedule through the window, and the heal at
// end_s force-re-announces every severed send edge. Short detect/backoff
// keep test runs quick.
cluster::ClusterSpec PartitionedSpec(double heal_at = 0.3) {
  auto spec = QuietSpec();
  spec.topology.partitions = {{0.0, heal_at, {1}}};
  spec.topology.partition_detect_s = 0.1;
  return spec;
}

graph::Digraph TestGraph(graph::VertexId n = 3000, uint64_t seed = 7) {
  graph::PrefAttachConfig config;
  config.num_vertices = n;
  config.num_in = 3;
  config.num_out = 3;
  config.locality_window = std::max<graph::VertexId>(4, n / 150);
  config.max_edge_age = 4 * config.locality_window;
  config.seed = seed;
  return graph::PreferentialAttachment(config);
}

double MaxDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

void ExpectPartitionBit(const async::AsyncResult& stats) {
  // The window actually hit the run: batch flows failed (killed or timed
  // out), the retry machinery engaged, and the heal re-announced severed
  // edges (the run cannot have terminated earlier — failed batches keep
  // their senders non-quiescent).
  EXPECT_GT(stats.flow_drops, 0u);
  EXPECT_GT(stats.batch_retries, 0u);
  EXPECT_GT(stats.retry_backoff_seconds, 0.0);
  EXPECT_GT(stats.partition_heal_reannouncements, 0u);
}

// --- partition heal -> oracle, all five apps ---------------------------------

TEST(PartitionHeal, PageRankMatchesSerialOracle) {
  const auto g = TestGraph(1500, 23);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  cluster::SimCluster sim(PartitionedSpec());
  async::AsyncResult stats;
  const auto result =
      apps::AsyncPageRank(sim, g, part, config, async::kUnboundedStaleness, &stats);
  ExpectPartitionBit(stats);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

TEST(PartitionHeal, SsspMatchesDijkstra) {
  const auto g =
      graph::WithRandomWeights(TestGraph(2000, 13), 1.0, 10.0, /*seed=*/99);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::SsspConfig config;
  cluster::SimCluster sim(PartitionedSpec());
  async::AsyncResult stats;
  const auto result =
      apps::AsyncSssp(sim, g, part, config, async::kUnboundedStaleness, &stats);
  ExpectPartitionBit(stats);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.distances, apps::SerialDijkstra(g, config.source)), 1e-9);
}

TEST(PartitionHeal, ComponentsMatchUnionFindExactly) {
  const auto g = TestGraph(2000, 9);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::ComponentsConfig config;
  cluster::SimCluster sim(PartitionedSpec());
  async::AsyncResult stats;
  const auto result = apps::AsyncComponents(sim, g, part, config,
                                            async::kUnboundedStaleness, &stats);
  ExpectPartitionBit(stats);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.labels, apps::SerialComponents(apps::Symmetrized(g)));
}

TEST(PartitionHeal, KMeansMatchesLloyd) {
  apps::CensusLikeConfig data_config;
  data_config.num_points = 3000;
  data_config.seed = 11;
  const auto data = apps::GenerateCensusLike(data_config);
  apps::KMeansConfig config;
  config.k = 4;
  config.num_partitions = 8;
  config.seed = 5;
  const auto lloyd = apps::SerialLloyd(data, config);
  cluster::SimCluster sim(PartitionedSpec());
  async::AsyncResult stats;
  const auto result =
      apps::AsyncKMeans(sim, data, config, async::kUnboundedStaleness, &stats);
  ExpectPartitionBit(stats);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.sse, lloyd.sse * 1.3);
}

TEST(PartitionHeal, JacobiConvergesToSolution) {
  const auto g = apps::Symmetrized(TestGraph(1500, 31));
  std::vector<double> b(g.num_vertices());
  Rng rng(77);
  for (double& v : b) v = rng.NextDouble(-1.0, 1.0);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::JacobiConfig config;
  config.tolerance = 1e-6;
  cluster::SimCluster sim(PartitionedSpec());
  async::AsyncResult stats;
  const auto result = apps::AsyncJacobi(sim, g, b, part, config,
                                        async::kUnboundedStaleness, &stats);
  ExpectPartitionBit(stats);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.residual_inf, 1e-4);
}

// --- combined faults ---------------------------------------------------------

TEST(Adversarial, CrashDuringPartitionStillConvergesToOracle) {
  // Crashes and a partition overlapping: a worker can die with batches in
  // retry (the unconditional pending_retries decrement must survive the
  // epoch bump), restore behind a severed link, and still be healed by the
  // re-announcement paths.
  const auto g = TestGraph(1500);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  config.async_tuning.checkpoint_interval = 4;
  auto spec = PartitionedSpec();
  spec.worker_crash_rate = 0.6;
  spec.worker_restart_delay_s = 0.5;
  cluster::SimCluster sim(spec);
  async::AsyncResult stats;
  const auto result =
      apps::AsyncPageRank(sim, g, part, config, async::kUnboundedStaleness, &stats);
  ExpectPartitionBit(stats);
  EXPECT_GE(stats.worker_restarts, 1u);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

TEST(Adversarial, SafraBalanceHoldsUnderLossyLinks) {
  // Termination soundness under per-flow drops: every wire attempt is a
  // batches_sent at the sender and every terminal outcome a batches_received
  // somewhere (the receiver on delivery, the SENDER self-acking a failure),
  // so the Safra sums balance after the queue drains — the run terminates
  // exactly once everything in flight has resolved, and still reaches the
  // oracle because abandoned batches are repaired by re-announcement.
  const auto g = TestGraph(1500, 23);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  auto spec = QuietSpec();
  spec.topology.flow_loss_prob = 0.3;
  cluster::SimCluster sim(spec);
  async::AsyncResult stats;
  const auto result =
      apps::AsyncPageRank(sim, g, part, config, async::kUnboundedStaleness, &stats);
  EXPECT_GT(stats.flow_drops, 0u);
  EXPECT_GT(stats.batch_retries, 0u);
  uint64_t sent = 0, received = 0;
  for (const auto& w : stats.workers) {
    sent += w.batches_sent;
    received += w.batches_received;
  }
  EXPECT_EQ(sent, received);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

TEST(Adversarial, SuspicionUnblocksBoundedStalenessAcrossPartition) {
  // Bounded staleness across a partition: rack-0 workers gate-block on
  // rack-1 clocks that cannot cross the severed link. The suspicion timeout
  // lets them proceed in bounded degradation; deliveries after the heal
  // un-suspect the peers and the run still converges to the oracle.
  const auto g = TestGraph(1500, 21);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  config.async_tuning.suspicion_timeout_s = 0.1;
  cluster::SimCluster sim(PartitionedSpec(/*heal_at=*/0.5));
  async::AsyncResult stats;
  const auto result = apps::AsyncPageRank(sim, g, part, config, /*staleness=*/1,
                                          &stats);
  ExpectPartitionBit(stats);
  EXPECT_GT(stats.peers_suspected, 0u);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

TEST(Adversarial, AllKnobsOnIsBitIdenticalAcrossRuns) {
  // The determinism invariant survives the full adversarial stack: loss,
  // partitions, degraded links, background load, static speed spread,
  // crashes, checkpoint corruption, bounded staleness with suspicion. Same
  // seed => bit-identical results and the same DES fired-event count.
  const auto g = TestGraph(1200, 9);
  const auto part = graph::MultilevelPartition(g, 6);
  apps::PageRankConfig config;
  config.async_tuning.checkpoint_interval = 4;
  config.async_tuning.suspicion_timeout_s = 0.15;
  config.async_tuning.checkpoint_corruption_prob = 0.3;
  auto run = [&](async::AsyncResult* stats, uint64_t* fired) {
    auto spec = QuietSpec();
    spec.topology.flow_loss_prob = 0.15;
    spec.topology.partitions = {{0.0, 0.2, {1}}};
    spec.topology.partition_detect_s = 0.05;
    spec.topology.degrade_rate = 0.5;
    spec.topology.degrade_duration_s = 0.2;
    spec.bg_load_rate = 0.5;
    spec.bg_load_duration_s = 0.1;
    spec.worker_crash_rate = 0.4;
    spec.worker_restart_delay_s = 0.5;
    spec.ApplySpeedSpread(4.0);
    cluster::SimCluster sim(spec);
    auto result = apps::AsyncPageRank(sim, g, part, config, /*staleness=*/2, stats);
    *fired = sim.queue().fired_count();
    return result;
  };
  async::AsyncResult a_stats, b_stats;
  uint64_t a_fired = 0, b_fired = 0;
  const auto a = run(&a_stats, &a_fired);
  const auto b = run(&b_stats, &b_fired);
  EXPECT_EQ(MaxDiff(a.ranks, b.ranks), 0.0);
  EXPECT_EQ(a_fired, b_fired);
  EXPECT_EQ(a_stats, b_stats);
  // The adversarial machinery actually engaged in this configuration.
  EXPECT_GT(a_stats.flow_drops, 0u);
}

// --- checkpoint integrity ----------------------------------------------------

TEST(CheckpointIntegrity, VerifiedLookupFallsBackPastCorruptNewest) {
  cluster::SimCluster sim(QuietSpec());
  async::CheckpointStore store(sim.dfs());
  store.ResetPartitions(1);
  serde::Buffer initial;
  initial.AppendByte(1);
  store.Write(0, std::move(initial), 0.0, /*free_write=*/true);
  serde::Buffer older;
  for (int i = 0; i < 64; ++i) older.AppendByte(2);
  store.Write(0, std::move(older), 1.0, /*free_write=*/false);
  serde::Buffer newest;
  for (int i = 0; i < 128; ++i) newest.AppendByte(3);
  store.Write(0, std::move(newest), 100.0, /*free_write=*/false);

  store.CorruptNewest(0);
  const serde::Buffer* restored = store.LatestDurableVerified(0, 1e18);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->size(), 64u);  // fell back to the previous snapshot
  EXPECT_EQ(store.stats().corruptions_detected, 1u);
  // Quarantine: a second lookup neither re-detects nor re-offers the corrupt
  // slot (CrashWorker picks, RestoreWorker re-reads).
  const serde::Buffer* again = store.LatestDurableVerified(0, 1e18);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->size(), 64u);
  EXPECT_EQ(store.stats().corruptions_detected, 1u);
}

TEST(CheckpointIntegrity, PruneKeepsTwoDurablePlusPinnedInitial) {
  cluster::SimCluster sim(QuietSpec());
  async::CheckpointStore store(sim.dfs());
  store.ResetPartitions(1);
  serde::Buffer initial;
  initial.AppendByte(1);
  store.Write(0, std::move(initial), 0.0, /*free_write=*/true);
  for (int i = 0; i < 6; ++i) {
    serde::Buffer snap;
    for (int j = 0; j <= i; ++j) snap.AppendByte(9);
    store.Write(0, std::move(snap), 100.0 * (i + 1), /*free_write=*/false);
  }
  // Pruning bounds retention: the pinned initial, the two newest durable
  // snapshots at the last write, and the just-written one — NOT all six.
  // Corrupting each retained paid snapshot in turn walks the fallback chain
  // down to the pinned (never-corrupted) initial snapshot.
  store.CorruptNewest(0);
  const serde::Buffer* second = store.LatestDurableVerified(0, 1e18);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->size(), 5u);
  store.CorruptNewest(0);
  const serde::Buffer* third = store.LatestDurableVerified(0, 1e18);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->size(), 4u);  // snapshots 1-3 were pruned away
  store.CorruptNewest(0);
  const serde::Buffer* last_resort = store.LatestDurableVerified(0, 1e18);
  ASSERT_NE(last_resort, nullptr);
  EXPECT_EQ(last_resort->size(), 1u);  // the pinned initial snapshot
  EXPECT_EQ(store.stats().corruptions_detected, 3u);
}

TEST(CheckpointIntegrity, CorruptionInjectionRecoversToOracle) {
  // Every paid checkpoint write corrupted: recovery detects each one (CRC
  // recorded pre-corruption) and restores the pinned initial snapshot — the
  // run pays more rolled-back progress but still reaches the oracle.
  const auto g = TestGraph(1500);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  config.async_tuning.checkpoint_interval = 4;
  config.async_tuning.checkpoint_corruption_prob = 1.0;
  auto spec = QuietSpec();
  spec.worker_crash_rate = 0.6;
  spec.worker_restart_delay_s = 0.5;
  cluster::SimCluster sim(spec);
  async::AsyncResult stats;
  const auto result =
      apps::AsyncPageRank(sim, g, part, config, async::kUnboundedStaleness, &stats);
  EXPECT_GE(stats.worker_restarts, 1u);
  EXPECT_GT(stats.checkpoint_corruptions_detected, 0u);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

// --- heterogeneity knobs -----------------------------------------------------

TEST(Heterogeneity, SpeedSpreadIsGeometricWithExactIdentityAtOne) {
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.ApplySpeedSpread(1.0);
  for (const auto& n : spec.nodes) EXPECT_EQ(n.speed_factor, 1.0);
  spec.ApplySpeedSpread(8.0);
  EXPECT_EQ(spec.nodes.front().speed_factor, 1.0);
  EXPECT_NEAR(spec.nodes.back().speed_factor, 1.0 / 8.0, 1e-12);
  for (size_t i = 1; i < spec.nodes.size(); ++i) {
    EXPECT_LT(spec.nodes[i].speed_factor, spec.nodes[i - 1].speed_factor);
  }
}

TEST(Heterogeneity, PowerLawPartitionIsSkewedAndComplete) {
  const auto g = TestGraph(3000, 7);
  const auto part = graph::PowerLawPartition(g, 8, 0.7);
  std::vector<uint32_t> sizes(8, 0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_LT(part.part_of[v], 8u);
    ++sizes[part.part_of[v]];
  }
  for (size_t i = 1; i < sizes.size(); ++i) EXPECT_LE(sizes[i], sizes[i - 1]);
  EXPECT_GT(sizes.front(), 2u * sizes.back());  // actually skewed
  for (uint32_t s : sizes) EXPECT_GT(s, 0u);    // no empty part
  // alpha = 0 degenerates to the equal split.
  const auto flat = graph::PowerLawPartition(g, 8, 0.0);
  std::vector<uint32_t> flat_sizes(8, 0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) ++flat_sizes[flat.part_of[v]];
  for (uint32_t s : flat_sizes) EXPECT_NEAR(s, 3000.0 / 8.0, 1.0);
}

TEST(Heterogeneity, StragglersSlowTheRunButPreserveTheFixedPoint) {
  // Background-load episodes + a speed spread stretch virtual time but are
  // pure compute-cost multipliers: the computed trajectory (iteration
  // content) reaches the same oracle.
  const auto g = TestGraph(1500, 23);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  auto slow_spec = QuietSpec();
  slow_spec.bg_load_rate = 2.0;
  slow_spec.bg_load_duration_s = 0.05;
  slow_spec.bg_load_factor = 4.0;
  slow_spec.ApplySpeedSpread(4.0);
  cluster::SimCluster slow_sim(slow_spec);
  async::AsyncResult slow_stats;
  const auto slow = apps::AsyncPageRank(slow_sim, g, part, config,
                                        async::kUnboundedStaleness, &slow_stats);
  cluster::SimCluster fast_sim(QuietSpec());
  async::AsyncResult fast_stats;
  const auto fast = apps::AsyncPageRank(fast_sim, g, part, config,
                                        async::kUnboundedStaleness, &fast_stats);
  EXPECT_TRUE(slow.converged);
  EXPECT_GT(slow_stats.seconds(), fast_stats.seconds());
  EXPECT_LT(MaxDiff(slow.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

}  // namespace
}  // namespace asyncmr
