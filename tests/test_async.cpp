// Async engine tests: DES determinism, bounded-staleness semantics (0 =
// synchronized rounds), convergence of async PageRank/SSSP to the serial
// oracles, termination-proof and residual-accounting edge cases, the
// generalized update payload, the calendar far store's bit-identity with the
// heap, and the virtual-time win over the partial-sync baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <string_view>

#include "apps/affine.hpp"
#include "apps/components.hpp"
#include "apps/jacobi.hpp"
#include "apps/kmeans.hpp"
#include "apps/monotone.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "async/checkpoint.hpp"
#include "async/state_store.hpp"
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

// --- state store -------------------------------------------------------------

TEST(ClockTable, StalenessGate) {
  async::ClockTable clocks({1, 2});
  // First iteration always admitted.
  EXPECT_TRUE(clocks.AdmitsIteration(1, 0));
  // Lockstep (S=0): iteration 2 requires every peer to have completed 1.
  EXPECT_FALSE(clocks.AdmitsIteration(2, 0));
  clocks.Observe(1, 1);
  EXPECT_FALSE(clocks.AdmitsIteration(2, 0));
  clocks.Observe(2, 1);
  EXPECT_TRUE(clocks.AdmitsIteration(2, 0));
  EXPECT_FALSE(clocks.AdmitsIteration(3, 0));
  // Window S=2 admits up to iteration 4 on the same clocks.
  EXPECT_TRUE(clocks.AdmitsIteration(4, 2));
  EXPECT_FALSE(clocks.AdmitsIteration(5, 2));
  // Unbounded never gates.
  EXPECT_TRUE(clocks.AdmitsIteration(1000, async::kUnboundedStaleness));
}

TEST(ClockTable, ObservationsAreMonotone) {
  async::ClockTable clocks({5});
  EXPECT_TRUE(clocks.Observe(5, 3));
  EXPECT_FALSE(clocks.Observe(5, 2));  // stale observation ignored
  EXPECT_EQ(clocks.clock_of(5), 3u);
  EXPECT_EQ(clocks.min_clock(), 3u);
  EXPECT_EQ(clocks.max_clock(), 3u);
}

TEST(ClockTable, SparsePeerIdSpaceUsesOrderedLookup) {
  // Widely spread peer ids take the sorted-lookup path instead of a dense
  // O(max peer id) table; semantics must be identical.
  async::ClockTable clocks({1'000'000, 5, 70'000});
  EXPECT_TRUE(clocks.Observe(70'000, 2));
  EXPECT_TRUE(clocks.Observe(5, 1));
  EXPECT_FALSE(clocks.Observe(70'000, 1));  // stale
  EXPECT_EQ(clocks.clock_of(1'000'000), 0u);
  EXPECT_EQ(clocks.clock_of(70'000), 2u);
  EXPECT_EQ(clocks.clock_of(5), 1u);
  EXPECT_EQ(clocks.min_clock(), 0u);
  EXPECT_EQ(clocks.max_clock(), 2u);
}

TEST(StateStore, PutReturnsReplacedValue) {
  async::StateStore<double> store({0, 1}, {{7, 42}, {42}});
  const auto first = store.Put(0, 42, 1.5, /*clock=*/1);
  EXPECT_TRUE(first.applied);
  EXPECT_EQ(first.replaced, std::nullopt);
  const auto second = store.Put(0, 42, 2.5, /*clock=*/2);
  EXPECT_TRUE(second.applied);
  EXPECT_EQ(second.replaced, std::optional<double>(1.5));
  EXPECT_EQ(store.Put(1, 42, 9.0, /*clock=*/1).replaced,
            std::nullopt);  // per-peer views
  EXPECT_EQ(store.Find(0, 42)->value, 2.5);
  EXPECT_EQ(store.Find(0, 7), nullptr);   // in the domain, never put
  EXPECT_EQ(store.Find(0, 99), nullptr);  // outside the domain
  EXPECT_EQ(store.total_entries(), 2u);
}

TEST(StateStore, EpochAwareVersioningForRestartedSenders) {
  // A crashed worker restarts from a checkpoint with a bumped epoch and a
  // rolled-back clock. Its re-sent records (newer epoch, LOWER clock) must
  // land — the clock guard alone would reject them as stale — while records
  // from its dead epoch (in flight at the crash) must be rejected even with
  // a HIGHER clock: the restarted trajectory supersedes them, and the reborn
  // delta filter could never repair an overwrite it does not know about.
  async::StateStore<double> store({0}, {{7}});
  EXPECT_TRUE(store.Put(0, 7, 1.0, /*clock=*/9, /*epoch=*/0).applied);
  // Restarted sender: epoch 1, clock rolled back to 3.
  const auto reborn = store.Put(0, 7, 2.0, /*clock=*/3, /*epoch=*/1);
  EXPECT_TRUE(reborn.applied);
  EXPECT_EQ(reborn.replaced, std::optional<double>(1.0));
  EXPECT_EQ(store.Find(0, 7)->epoch, 1u);
  EXPECT_EQ(store.Find(0, 7)->clock, 3u);
  // Dead-epoch straggler with a high clock: rejected.
  const auto stale = store.Put(0, 7, 9.0, /*clock=*/42, /*epoch=*/0);
  EXPECT_FALSE(stale.applied);
  EXPECT_EQ(store.Find(0, 7)->value, 2.0);
  // Within the new epoch the clock guard works as before.
  EXPECT_FALSE(store.Put(0, 7, 9.0, /*clock=*/2, /*epoch=*/1).applied);
  EXPECT_TRUE(store.Put(0, 7, 4.0, /*clock=*/4, /*epoch=*/1).applied);
}

TEST(StateStore, SnapshotRestoreRoundTrip) {
  const std::vector<std::vector<uint32_t>> domains = {{10, 11, 99}, {10}};
  async::StateStore<double> store({2, 5}, domains);
  store.Put(2, 10, 1.25, /*clock=*/3, /*epoch=*/1);
  store.Put(2, 11, -4.0, /*clock=*/2);
  store.Put(5, 10, 9.5, /*clock=*/7);
  store.ObserveClock(5, 7);

  serde::Buffer buf;
  serde::Writer w(buf);
  store.SnapshotTo(w);

  async::StateStore<double> restored({2, 5}, domains);
  restored.Put(2, 99, 123.0, 1);  // overwritten state must not survive
  serde::Reader r(buf);
  ASSERT_TRUE(restored.RestoreFrom(r).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.total_entries(), 3u);
  EXPECT_EQ(restored.Find(2, 10)->value, 1.25);
  EXPECT_EQ(restored.Find(2, 10)->epoch, 1u);
  EXPECT_EQ(restored.Find(2, 11)->clock, 2u);
  EXPECT_EQ(restored.Find(5, 10)->value, 9.5);
  EXPECT_EQ(restored.clocks().clock_of(5), 7u);
  EXPECT_EQ(restored.Find(2, 99), nullptr);
}

TEST(StateStore, RejectsStaleOutOfOrderWrites) {
  // The fluid network completes flows by remaining bytes, so a sender's
  // later (smaller) batch can land before an earlier large one. Replacement
  // semantics must not roll a key back when the stale batch finally arrives —
  // the sender's delta filter believes the fresh value is in place and would
  // never repair the overwrite.
  async::StateStore<double> store({0}, {{7}});
  EXPECT_TRUE(store.Put(0, 7, 1.0, /*clock=*/1).applied);
  EXPECT_TRUE(store.Put(0, 7, 3.0, /*clock=*/3).applied);
  const auto stale = store.Put(0, 7, 2.0, /*clock=*/2);
  EXPECT_FALSE(stale.applied);
  EXPECT_EQ(stale.replaced, std::nullopt);
  EXPECT_EQ(store.Find(0, 7)->value, 3.0);
  EXPECT_EQ(store.Find(0, 7)->clock, 3u);
  // Equal clocks (idempotent redelivery) are accepted.
  EXPECT_TRUE(store.Put(0, 7, 3.5, /*clock=*/3).applied);
  EXPECT_EQ(store.Find(0, 7)->value, 3.5);
}

TEST(StateStore, SnapshotBytesMatchTheSortedKeyImage) {
  // Checkpoint bytes set the virtual DFS write time, so the image is pinned:
  // these are the bytes the hash-map store (one unordered_map per peer, keys
  // sorted at snapshot) wrote for the same calls. Absent slots (key 3 of
  // peer 2, key 10 of peer 5, all of peer 9) write nothing, and an
  // equal-version redelivery replaces the value in place.
  async::StateStore<double> store({2, 5, 9}, {{3, 10, 11, 40, 300}, {10, 20}, {1}});
  store.Put(2, 40, 0.5, 1);
  store.Put(2, 10, 1.25, 3, /*epoch=*/1);
  store.Put(2, 11, -4.0, 2);
  store.Put(2, 300, 2.0, 4);
  EXPECT_TRUE(store.Put(2, 11, -4.5, 2).applied);  // equal-version redelivery
  store.Put(5, 20, 9.5, 7);
  store.ObserveClock(5, 7);
  store.ObserveClock(2, 4);

  serde::Buffer buf;
  serde::Writer w(buf);
  store.SnapshotTo(w);
  const std::vector<uint8_t> golden = {
      0x03, 0x04, 0x07, 0x00, 0x04, 0x0a, 0x03, 0x01, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xf4, 0x3f, 0x0b, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x12, 0xc0, 0x28, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xe0, 0x3f, 0xac, 0x02, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x40, 0x01, 0x14, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x23, 0x40, 0x00};
  EXPECT_EQ(std::vector<uint8_t>(buf.view().begin(), buf.view().end()), golden);
}

TEST(StateStore, CoalescedBatchOfTwoAscendingRunsRestartsTheCursor) {
  // Coalescing joins a sender's emissions: 20, 30, 50 then 10, 30. Each run
  // ascends; the second starts below the cursor, so lookup restarts from the
  // front and still lands every key in its own slot.
  async::StateStore<double> store({4}, {{10, 20, 30, 40, 50}});
  for (uint32_t key : {20u, 30u, 50u}) {
    EXPECT_TRUE(store.Put(4, key, key * 1.0, /*clock=*/1).applied);
  }
  EXPECT_EQ(store.Put(4, 10, 1.0, /*clock=*/2).replaced, std::nullopt);
  EXPECT_EQ(store.Put(4, 30, 3.0, /*clock=*/2).replaced, std::optional<double>(30.0));
  EXPECT_EQ(store.total_entries(), 4u);
  EXPECT_EQ(store.Find(4, 10)->value, 1.0);
  EXPECT_EQ(store.Find(4, 20)->value, 20.0);
  EXPECT_EQ(store.Find(4, 30)->value, 3.0);
  EXPECT_EQ(store.Find(4, 30)->clock, 2u);
  EXPECT_EQ(store.Find(4, 40), nullptr);
  EXPECT_EQ(store.Find(4, 50)->value, 50.0);
}

TEST(StateStore, RestoreOfAKeyOutsideTheDomainIsDataLoss) {
  async::StateStore<double> wide({1}, {{5, 6, 7}});
  wide.Put(1, 5, 0.5, 1);
  wide.Put(1, 7, 0.7, 1);
  serde::Buffer buf;
  serde::Writer w(buf);
  wide.SnapshotTo(w);

  async::StateStore<double> narrow({1}, {{5, 6}});
  serde::Reader r(buf);
  const Status status = narrow.RestoreFrom(r);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(StateStoreDeathTest, PutOutsideTheDomainDies) {
  async::StateStore<double> store({1}, {{5, 6}});
  EXPECT_DEATH(store.Put(1, 9, 1.0, 1), "outside peer 1's receive domain");
  EXPECT_DEATH(store.Put(1, 4, 1.0, 1), "outside peer 1's receive domain");
}

// --- generalized update payload ----------------------------------------------

TEST(UpdateBatch, AppUpdateTypesRoundTrip) {
  {
    async::UpdateBatch batch;
    async::AppendUpdate(batch, apps::BoundarySumUpdate{7, 0.125});
    async::AppendUpdate(batch, apps::BoundarySumUpdate{1u << 30, -3.5});
    EXPECT_EQ(batch.records, 2u);
    // Wire bytes are the real encoded size, not an estimate.
    EXPECT_EQ(batch.payload.size(),
              serde::EncodedSize(apps::BoundarySumUpdate{7, 0.125}) +
                  serde::EncodedSize(apps::BoundarySumUpdate{1u << 30, -3.5}));
    const auto out = async::DecodeBatch<apps::BoundarySumUpdate>(batch);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].vertex, 7u);
    EXPECT_EQ(out[0].sum, 0.125);
    EXPECT_EQ(out[1].vertex, 1u << 30);
    EXPECT_EQ(out[1].sum, -3.5);
  }
  {
    // The min-propagation records pin the wire format: a varint vertex id,
    // then a fixed 8-byte distance (SSSP) or a varint label (Components).
    // Ids below 2^7 take one byte; ids in [2^21, 2^28) take four.
    async::UpdateBatch batch;
    async::AppendUpdate(batch, apps::MinUpdate<double>{3, 17.25});
    EXPECT_EQ(batch.payload.size(), 9u);
    async::AppendUpdate(batch, apps::MinUpdate<double>{1u << 21, -0.5});
    EXPECT_EQ(batch.payload.size(), 9u + 12u);
    const auto out = async::DecodeBatch<apps::MinUpdate<double>>(batch);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].vertex, 3u);
    EXPECT_EQ(out[0].value, 17.25);
    EXPECT_EQ(out[1].vertex, 1u << 21);
    EXPECT_EQ(out[1].value, -0.5);
  }
  {
    async::UpdateBatch batch;
    async::AppendUpdate(batch, apps::MinUpdate<uint32_t>{99, 4});
    EXPECT_EQ(batch.payload.size(), 2u);
    async::AppendUpdate(batch, apps::MinUpdate<uint32_t>{1u << 21, (1u << 28) - 1});
    EXPECT_EQ(batch.payload.size(), 2u + 8u);
    const auto out = async::DecodeBatch<apps::MinUpdate<uint32_t>>(batch);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].vertex, 99u);
    EXPECT_EQ(out[0].value, 4u);
    EXPECT_EQ(out[1].vertex, 1u << 21);
    EXPECT_EQ(out[1].value, (1u << 28) - 1);
  }
  {
    // The heterogeneous case the generalization exists for: a variable-length
    // vector payload.
    apps::KmPartialUpdate update;
    update.centroid = 5;
    update.count = 1234;
    update.sum = {1.0, -2.5, 0.0, 1e-9};
    async::UpdateBatch batch;
    async::AppendUpdate(batch, update);
    async::AppendUpdate(batch, update);
    const auto out = async::DecodeBatch<apps::KmPartialUpdate>(batch);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].centroid, 5u);
    EXPECT_EQ(out[1].count, 1234u);
    EXPECT_EQ(out[1].sum, update.sum);
  }
}

TEST(UpdateBatch, ClearKeepsNothingVisible) {
  async::UpdateBatch batch;
  async::AppendUpdate(batch, apps::MinUpdate<uint32_t>{1, 2});
  EXPECT_FALSE(batch.empty());
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.records, 0u);
  EXPECT_EQ(batch.payload.size(), 0u);
  EXPECT_TRUE(async::DecodeBatch<apps::MinUpdate<uint32_t>>(batch).empty());
}

// --- termination-proof and residual accounting -------------------------------

TEST(QuiescentForTermination, BlockedWorkerWithPendingInputIsNotQuiescent) {
  using async::QuiescentForTermination;
  using async::WorkerPhase;
  // The regression: a gate-blocked worker holding unconsumed input WILL
  // recompute once its staleness gate opens, so a termination circuit must
  // not count it quiescent. (It used to: the predicate accepted kBlocked
  // regardless of pending_input, letting a circuit prove "termination" while
  // input that would change the final residual sat unapplied.)
  EXPECT_FALSE(QuiescentForTermination(WorkerPhase::kBlocked,
                                       /*capped=*/false, /*pending_input=*/true));
  // Parked without input is quiescent; unconsumed input disqualifies idle too.
  EXPECT_TRUE(QuiescentForTermination(WorkerPhase::kIdle, false, false));
  EXPECT_TRUE(QuiescentForTermination(WorkerPhase::kBlocked, false, false));
  EXPECT_FALSE(QuiescentForTermination(WorkerPhase::kIdle, false, true));
  // Active phases are never quiescent.
  EXPECT_FALSE(QuiescentForTermination(WorkerPhase::kWaitingSlot, false, false));
  EXPECT_FALSE(QuiescentForTermination(WorkerPhase::kComputing, false, false));
  // A capped worker never iterates again: quiescent even with unconsumed
  // input (counting it non-quiescent would circulate the token forever).
  EXPECT_TRUE(QuiescentForTermination(WorkerPhase::kIdle, true, true));
  EXPECT_TRUE(QuiescentForTermination(WorkerPhase::kBlocked, true, true));
}

TEST(QuiescentForTermination, WorkerMidRestartIsNotQuiescent) {
  using async::QuiescentForTermination;
  using async::WorkerPhase;
  // A crashed worker awaiting its checkpoint restore WILL recompute once it
  // resumes — a token circuit that counted it done could prove "termination"
  // out from under the recovery. This holds even for a worker that was
  // capped when it died: it restores to a rolled-back, un-capped clock.
  EXPECT_FALSE(QuiescentForTermination(WorkerPhase::kDown,
                                       /*capped=*/false, /*pending_input=*/false));
  EXPECT_FALSE(QuiescentForTermination(WorkerPhase::kDown, false, true));
  EXPECT_FALSE(QuiescentForTermination(WorkerPhase::kDown, true, false));
  EXPECT_FALSE(QuiescentForTermination(WorkerPhase::kDown, true, true));
}

// --- checkpoint/replay -------------------------------------------------------

TEST(WorkerSnapshot, SerdeRoundTrip) {
  async::WorkerSnapshot snap;
  snap.partition = 5;
  snap.epoch = 2;
  snap.iterations = 17;
  snap.unmerged_records = 321;
  snap.last_residual = 0.125;
  snap.peer_clocks = {4, 17, 0};
  snap.app_state = std::string("\x01\x00\xff payload", 11);

  const auto decoded = serde::Decode<async::WorkerSnapshot>(serde::Encode(snap));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().partition, 5u);
  EXPECT_EQ(decoded.value().epoch, 2u);
  EXPECT_EQ(decoded.value().iterations, 17u);
  EXPECT_EQ(decoded.value().unmerged_records, 321u);
  EXPECT_EQ(decoded.value().last_residual, 0.125);
  EXPECT_EQ(decoded.value().peer_clocks, snap.peer_clocks);
  EXPECT_EQ(decoded.value().app_state, snap.app_state);
}

TEST(CheckpointStore, WriteBehindDurabilityAndAbort) {
  cluster::SimCluster sim(QuietSpec());
  async::CheckpointStore store(sim.dfs());
  store.ResetPartitions(1);

  serde::Buffer initial;
  initial.AppendByte(1);
  store.Write(0, std::move(initial), /*now=*/0.0, /*free_write=*/true);
  // The free initial snapshot is durable immediately.
  ASSERT_NE(store.LatestDurable(0, 0.0), nullptr);
  EXPECT_EQ(store.stats().checkpoints_written, 0u);

  serde::Buffer big;
  for (int i = 0; i < 4096; ++i) big.AppendByte(2);
  store.Write(0, std::move(big), /*now=*/10.0, /*free_write=*/false);
  EXPECT_EQ(store.stats().checkpoints_written, 1u);
  EXPECT_EQ(store.stats().bytes_written, 4096u);
  EXPECT_GT(store.stats().write_seconds, 0.0);

  // Until the write-behind horizon passes, recovery still sees the initial
  // snapshot; afterwards the new one.
  const serde::Buffer* at_write = store.LatestDurable(0, 10.0);
  ASSERT_NE(at_write, nullptr);
  EXPECT_EQ(at_write->size(), 1u);
  const double durable_at = 10.0 + sim.dfs().EstimateWriteSeconds(4096);
  const serde::Buffer* later = store.LatestDurable(0, durable_at + 1e-9);
  ASSERT_NE(later, nullptr);
  EXPECT_EQ(later->size(), 4096u);

  // A crash mid-write aborts the dying incarnation's pipeline.
  serde::Buffer pending;
  pending.AppendByte(3);
  pending.AppendByte(3);
  store.Write(0, std::move(pending), /*now=*/durable_at + 1.0, /*free_write=*/false);
  store.AbortPending(0, durable_at + 1.0);
  const serde::Buffer* after_abort = store.LatestDurable(0, 1e18);
  ASSERT_NE(after_abort, nullptr);
  EXPECT_EQ(after_abort->size(), 4096u);
}

TEST(AsyncPageRank, CheckpointingOffTheCriticalPathAtCrashRateZero) {
  // The acceptance bar: with crash rate 0 and checkpointing enabled, results
  // AND the virtual-time trace are bit-identical to checkpointing disabled —
  // checkpoint writes are write-behind, so their cost shows up only in the
  // explicit accounting (and in recovery when crashes actually happen).
  const auto g = TestGraph(1500, 23);
  const auto part = graph::MultilevelPartition(g, 8);
  auto run = [&](uint32_t interval, async::AsyncResult* stats, uint64_t* fired) {
    apps::PageRankConfig config;
    config.async_tuning.checkpoint_interval = interval;
    cluster::SimCluster sim(QuietSpec());
    auto result =
        apps::AsyncPageRank(sim, g, part, config, async::kUnboundedStaleness, stats);
    *fired = sim.queue().fired_count();
    return result;
  };
  async::AsyncResult with_stats, without_stats;
  uint64_t with_fired = 0, without_fired = 0;
  const auto with = run(4, &with_stats, &with_fired);
  const auto without = run(0, &without_stats, &without_fired);

  EXPECT_EQ(MaxDiff(with.ranks, without.ranks), 0.0);
  EXPECT_EQ(with_fired, without_fired);
  EXPECT_DOUBLE_EQ(with_stats.end_seconds, without_stats.end_seconds);
  EXPECT_EQ(with_stats.total_iterations, without_stats.total_iterations);
  EXPECT_EQ(with_stats.update_batches, without_stats.update_batches);
  // The cost is explicitly charged, not hidden: checkpoints were written and
  // their background DFS time accounted.
  EXPECT_EQ(with_stats.worker_restarts, 0u);
  EXPECT_GT(with_stats.checkpoints_written, 0u);
  EXPECT_GT(with_stats.checkpoint_bytes, 0u);
  EXPECT_GT(with_stats.checkpoint_write_seconds, 0.0);
  EXPECT_EQ(with_stats.recovery_seconds, 0.0);
  EXPECT_EQ(without_stats.checkpoints_written, 0u);
}

cluster::ClusterSpec CrashySpec(double rate) {
  auto spec = QuietSpec();
  spec.worker_crash_rate = rate;
  // Test-scale runs converge in under a virtual second, so the default 3 s
  // respawn would make every crash an extinction-level event (recovery
  // windows spawn more crashes than they retire). A short respawn keeps the
  // crash/recovery dynamics observable AND terminating at rates high enough
  // to actually fire within the run.
  spec.worker_restart_delay_s = 0.5;
  return spec;
}

TEST(AsyncPageRank, CrashRecoveryConvergesToOracle) {
  // The acceptance bar: a run with >= 1 injected crash still terminates (no
  // hung Safra circuit — Run() returning at all proves the token circuit
  // drained) and converges to the serial oracle.
  const auto g = TestGraph(1500);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  config.async_tuning.checkpoint_interval = 4;
  cluster::SimCluster sim(CrashySpec(0.6));
  async::AsyncResult stats;
  const auto result =
      apps::AsyncPageRank(sim, g, part, config, async::kUnboundedStaleness, &stats);
  EXPECT_GE(stats.worker_restarts, 1u);
  EXPECT_GT(stats.recovery_seconds, 0.0);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(stats.residual_known);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

TEST(AsyncPageRank, CrashRecoveryUnderBoundedStalenessConvergesToOracle) {
  // Bounded window + crashes exercises the clock rollback machinery: peers'
  // gating views are Reset to the restored clock and the restarted worker's
  // own view is refreshed, or the SSP gate would deadlock against peers that
  // converged and went silent.
  const auto g = TestGraph(1500, 21);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  config.async_tuning.checkpoint_interval = 4;
  cluster::SimCluster sim(CrashySpec(0.6));
  async::AsyncResult stats;
  const auto result = apps::AsyncPageRank(sim, g, part, config, /*staleness=*/2,
                                          &stats);
  EXPECT_GE(stats.worker_restarts, 1u);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

TEST(AsyncPageRank, CrashScheduleIsDeterministic) {
  const auto g = TestGraph(1200, 9);
  const auto part = graph::MultilevelPartition(g, 6);
  apps::PageRankConfig config;
  config.async_tuning.checkpoint_interval = 4;
  auto run = [&](async::AsyncResult* stats, uint64_t* fired) {
    cluster::SimCluster sim(CrashySpec(0.6));
    auto result = apps::AsyncPageRank(sim, g, part, config,
                                      async::kUnboundedStaleness, stats);
    *fired = sim.queue().fired_count();
    return result;
  };
  async::AsyncResult a_stats, b_stats;
  uint64_t a_fired = 0, b_fired = 0;
  const auto a = run(&a_stats, &a_fired);
  const auto b = run(&b_stats, &b_fired);
  EXPECT_GE(a_stats.worker_restarts, 1u);
  EXPECT_EQ(MaxDiff(a.ranks, b.ranks), 0.0);
  EXPECT_EQ(a_fired, b_fired);
  EXPECT_EQ(a_stats, b_stats);
}

TEST(AsyncSssp, CrashRecoveryMatchesDijkstra) {
  // Monotone min-combine under crashes: rolled-back distances re-relax from
  // the in-peers' forced re-announcements.
  const auto g =
      graph::WithRandomWeights(TestGraph(2000, 13), 1.0, 10.0, /*seed=*/99);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::SsspConfig config;
  config.async_tuning.checkpoint_interval = 4;
  cluster::SimCluster sim(CrashySpec(0.6));
  async::AsyncResult stats;
  const auto result =
      apps::AsyncSssp(sim, g, part, config, async::kUnboundedStaleness, &stats);
  EXPECT_GE(stats.worker_restarts, 1u);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.distances, apps::SerialDijkstra(g, config.source)), 1e-9);
}

TEST(AsyncJacobi, CrashRecoveryConvergesToSolution) {
  // Replacement semantics with near-zero boundary row sums: the
  // re-announcement must be unconditional (a cleared delta filter would stay
  // silent within send_eps while the restored peer holds dead-epoch state).
  const auto g = apps::Symmetrized(TestGraph(1500, 31));
  std::vector<double> b(g.num_vertices());
  Rng rng(77);
  for (double& v : b) v = rng.NextDouble(-1.0, 1.0);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::JacobiConfig config;
  config.tolerance = 1e-6;
  config.async_tuning.checkpoint_interval = 4;
  cluster::SimCluster sim(CrashySpec(0.6));
  async::AsyncResult stats;
  const auto result = apps::AsyncJacobi(sim, g, b, part, config,
                                        async::kUnboundedStaleness, &stats);
  EXPECT_GE(stats.worker_restarts, 1u);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.residual_inf, 1e-4);
}

TEST(AsyncEngine, ZeroIterationCapReportsResidualUnknown) {
  // max_iterations_per_worker = 0: every worker caps before its first
  // iteration, so no residual is ever measured. The run must terminate
  // unconverged with a finite, flagged-unknown residual — not leak the
  // ledger's +inf "not yet measured" sentinel into the result.
  cluster::SimCluster sim(QuietSpec());
  async::AsyncConfig config;
  config.max_iterations_per_worker = 0;
  config.name = "cap0";
  async::AsyncEngine engine(sim, 3, config);
  engine.set_compute([](uint32_t, async::AsyncContext& ctx) {
    ctx.set_residual(1.0);
  });
  engine.set_apply(
      [](uint32_t, uint32_t, uint32_t, uint32_t, const async::UpdateBatch&) {});
  const auto result = engine.Run();
  EXPECT_FALSE(result.converged);
  EXPECT_FALSE(result.residual_known);
  EXPECT_TRUE(std::isfinite(result.final_residual));
  EXPECT_EQ(result.total_iterations, 0u);
  ASSERT_EQ(result.workers.size(), 3u);
  for (const auto& w : result.workers) {
    EXPECT_EQ(w.iterations, 0u);
    EXPECT_FALSE(w.residual_known);
    EXPECT_TRUE(std::isfinite(w.last_residual));
  }
}

namespace {
struct PingUpdate {
  uint32_t value = 0;
  AMR_SERDE_FIELDS(value)
};
}  // namespace

TEST(AsyncEngine, MergeCostIsChargedIntoReceiverVirtualTime) {
  // Two lockstep workers (staleness 0, so every delivered record is consumed
  // before the receiver's next iteration) ping one record to each other every
  // iteration until capped. An iteration is charged its compute ops plus one
  // merge op per record applied since the worker's previous iteration, and
  // its virtual duration is those ops at the cluster's per-op rate.
  constexpr uint64_t kComputeOps = 1000;
  const cluster::ClusterSpec spec = QuietSpec();
  cluster::SimCluster sim(spec);
  obs::TraceSink trace;
  async::AsyncConfig config;
  config.staleness_bound = 0;
  config.max_iterations_per_worker = 5;
  config.tuning.obs.trace = &trace;
  config.name = "merge";
  async::AsyncEngine engine(sim, 2, config);
  uint64_t unmerged[2] = {0, 0};  // records applied since p's last iteration
  uint64_t merged = 0;
  engine.set_compute([&](uint32_t p, async::AsyncContext& ctx) {
    merged += unmerged[p];
    unmerged[p] = 0;
    ctx.AddOps(kComputeOps);
    ctx.set_residual(1.0);  // never converges; the cap terminates the run
    ctx.Emit(1 - p, PingUpdate{ctx.iteration()});
  });
  engine.set_apply([&](uint32_t p, uint32_t, uint32_t, uint32_t,
                       const async::UpdateBatch& batch) {
    unmerged[p] += async::DecodeBatch<PingUpdate>(batch).size();
  });
  const auto result = engine.Run();
  EXPECT_EQ(result.total_iterations, 10u);
  EXPECT_GT(merged, 0u);
  // Records delivered after the receiver's last iteration are never merged.
  EXPECT_LE(merged, result.update_records);
  EXPECT_EQ(result.total_merge_ops, merged);
  EXPECT_EQ(result.total_ops,
            kComputeOps * result.total_iterations + result.total_merge_ops);
  double compute_seconds = 0.0;
  for (const obs::TraceSink::Event& e : trace.events()) {
    if (std::string_view(e.name) == "compute") compute_seconds += e.dur_s;
  }
  EXPECT_NEAR(compute_seconds,
              static_cast<double>(result.total_ops) * spec.per_op_seconds,
              1e-9 * compute_seconds);
}

// --- async PageRank ----------------------------------------------------------

TEST(AsyncPageRank, DeterministicAcrossRuns) {
  const auto g = TestGraph(1500);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  auto run = [&](uint64_t* fired) {
    cluster::SimCluster sim(QuietSpec());
    async::AsyncResult stats;
    auto result = apps::AsyncPageRank(sim, g, part, config,
                                      async::kUnboundedStaleness, &stats);
    *fired = sim.queue().fired_count();
    return std::make_pair(result, stats);
  };
  uint64_t a_fired = 0;
  uint64_t b_fired = 0;
  const auto [a, a_stats] = run(&a_fired);
  const auto [b, b_stats] = run(&b_fired);
  // Bit-identical results and identical virtual timelines, down to the DES
  // kernel's fired-event count (the strictest trace fingerprint we keep).
  EXPECT_EQ(MaxDiff(a.ranks, b.ranks), 0.0);
  EXPECT_EQ(a_fired, b_fired);
  EXPECT_GT(a_fired, 0u);
  EXPECT_EQ(a_stats, b_stats);
}

TEST(AsyncPageRank, CalendarQueueBitIdenticalToHeap) {
  // End-to-end pin for the calendar far store: a whole async run on the
  // noisy spec (stragglers and jitter draw from the shared cluster RNG, so
  // any reordering of events would shift the stream) must reproduce the
  // heap run exactly.
  const auto g = TestGraph(1200, 7);
  const auto part = graph::MultilevelPartition(g, 8);
  auto run = [&](sim::QueueMode mode, async::AsyncResult* stats) {
    apps::PageRankConfig config;
    auto spec = cluster::ClusterSpec::Ec2Large8();
    spec.queue_mode = mode;
    cluster::SimCluster sim(spec);
    return apps::AsyncPageRank(sim, g, part, config, async::kUnboundedStaleness,
                               stats);
  };
  async::AsyncResult heap_stats, calendar_stats;
  const auto heap = run(sim::QueueMode::kHeap, &heap_stats);
  const auto calendar = run(sim::QueueMode::kCalendar, &calendar_stats);
  EXPECT_TRUE(heap.converged);
  EXPECT_EQ(heap.ranks, calendar.ranks);
  EXPECT_EQ(heap.converged, calendar.converged);
  // Whole-struct EXACT equality (doubles compared with ==): the calendar far
  // store promises bit-identity with the heap, not approximation.
  EXPECT_EQ(heap_stats, calendar_stats);
}

TEST(AsyncPageRank, StalenessZeroMatchesPartialSyncFixedPoint) {
  const auto g = TestGraph(1200, 11);
  const auto part = graph::MultilevelPartition(g, 6);
  apps::PageRankConfig config;
  cluster::SimCluster sim_async(QuietSpec());
  const auto bsp = apps::AsyncPageRank(sim_async, g, part, config, /*staleness=*/0);
  EXPECT_TRUE(bsp.converged);
  cluster::SimCluster sim_eager(QuietSpec());
  const auto eager = apps::EagerPageRank(sim_eager, g, part, config);
  EXPECT_TRUE(eager.converged);
  EXPECT_LT(MaxDiff(bsp.ranks, eager.ranks), 1e-3);
  EXPECT_LT(MaxDiff(bsp.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

TEST(AsyncPageRank, UnboundedStalenessMatchesSerialOracle) {
  const auto g = TestGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  cluster::SimCluster sim(QuietSpec());
  async::AsyncResult stats;
  const auto result =
      apps::AsyncPageRank(sim, g, part, config, async::kUnboundedStaleness, &stats);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
  EXPECT_GT(stats.total_iterations, 0u);
  EXPECT_GT(stats.token_circuits, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
  // Every worker iterated and none hit the cap.
  for (const auto& w : stats.workers) {
    EXPECT_GT(w.iterations, 0u);
    EXPECT_LT(w.iterations, 10u * config.max_global_iterations);
  }
}

TEST(AsyncPageRank, BoundedWindowMatchesSerialOracle) {
  const auto g = TestGraph(1500, 21);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  cluster::SimCluster sim(QuietSpec());
  const auto result = apps::AsyncPageRank(sim, g, part, config, /*staleness=*/3);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

TEST(AsyncPageRank, BoundedWindowUnderStragglersMatchesSerialOracle) {
  // Regression companion for the termination-proof fix: jitter + stragglers
  // on a tight staleness window constantly park workers in kBlocked while
  // payload batches land on them, and the noisy timeline maximizes token
  // circuits racing those deliveries. A circuit must never prove termination
  // while such unconsumed input could still change the final ranks.
  const auto g = TestGraph(1500, 31);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  cluster::SimCluster sim(cluster::ClusterSpec::Ec2Large8());  // noise on
  async::AsyncResult stats;
  const auto result = apps::AsyncPageRank(sim, g, part, config, /*staleness=*/1,
                                          &stats);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(stats.residual_known);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

TEST(AsyncPageRank, CappedRunTerminatesUnconverged) {
  const auto g = TestGraph(1000, 3);
  const auto part = graph::MultilevelPartition(g, 4);
  apps::PageRankConfig config;
  config.tolerance = 1e-12;  // unreachable
  config.max_global_iterations = 1;  // per-worker cap = 10
  cluster::SimCluster sim(QuietSpec());
  async::AsyncResult stats;
  const auto result =
      apps::AsyncPageRank(sim, g, part, config, async::kUnboundedStaleness, &stats);
  EXPECT_FALSE(result.converged);
  for (const auto& w : stats.workers) EXPECT_LE(w.iterations, 10u);
}

TEST(AsyncPageRank, SinglePartitionIsLocalSolve) {
  const auto g = TestGraph(800);
  const auto part = graph::RangePartition(g, 1);
  apps::PageRankConfig config;
  config.max_local_iterations = 2000;
  cluster::SimCluster sim(QuietSpec());
  async::AsyncResult stats;
  const auto result =
      apps::AsyncPageRank(sim, g, part, config, async::kUnboundedStaleness, &stats);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
  EXPECT_EQ(stats.update_batches, 0u);  // nobody to talk to
}

// --- async SSSP --------------------------------------------------------------

TEST(AsyncSssp, MatchesDijkstra) {
  const auto g =
      graph::WithRandomWeights(TestGraph(2000, 13), 1.0, 10.0, /*seed=*/99);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::SsspConfig config;
  cluster::SimCluster sim(QuietSpec());
  async::AsyncResult stats;
  const auto result =
      apps::AsyncSssp(sim, g, part, config, async::kUnboundedStaleness, &stats);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.distances, apps::SerialDijkstra(g, config.source)), 1e-9);
  EXPECT_GT(stats.total_iterations, 0u);
}

TEST(AsyncSssp, StalenessZeroMatchesDijkstra) {
  const auto g = graph::WithRandomWeights(TestGraph(1200, 5), 1.0, 4.0, /*seed=*/17);
  const auto part = graph::MultilevelPartition(g, 6);
  apps::SsspConfig config;
  cluster::SimCluster sim(QuietSpec());
  const auto result = apps::AsyncSssp(sim, g, part, config, /*staleness=*/0);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.distances, apps::SerialDijkstra(g, config.source)), 1e-9);
}

TEST(AsyncSssp, DeterministicAcrossRuns) {
  const auto g = graph::WithRandomWeights(TestGraph(1200, 5), 1.0, 4.0, /*seed=*/17);
  const auto part = graph::MultilevelPartition(g, 6);
  apps::SsspConfig config;
  auto run = [&] {
    cluster::SimCluster sim(QuietSpec());
    return apps::AsyncSssp(sim, g, part, config);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(MaxDiff(a.distances, b.distances), 0.0);
  EXPECT_DOUBLE_EQ(a.trace.total_seconds(), b.trace.total_seconds());
}

// --- batch coalescing --------------------------------------------------------

cluster::ClusterSpec CongestedSpec() {
  auto spec = QuietSpec();
  // A NIC two decades slower than EC2's: flows linger, workers outrun the
  // network, and every edge exercises the merge-into-pending path.
  spec.topology.node_bandwidth_Bps = 1.25e6;
  spec.topology.loopback_bandwidth_Bps = 2.0e7;
  return spec;
}

TEST(AsyncCoalescing, PageRankMatchesOracleAndSavesFlows) {
  const auto g = TestGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  config.async_tuning.coalesce_batches = true;
  cluster::SimCluster sim(CongestedSpec());
  async::AsyncResult stats;
  const auto result =
      apps::AsyncPageRank(sim, g, part, config, async::kUnboundedStaleness, &stats);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
  // Coalescing actually fired, and the savings accounting is self-consistent:
  // each merged emission avoided one flow and one wire envelope.
  EXPECT_GT(stats.coalesced_batches, 0u);
  EXPECT_EQ(stats.coalesced_bytes_saved,
            stats.coalesced_batches * async::kUpdateEnvelopeBytes);
  uint64_t worker_coalesced = 0;
  uint64_t sent = 0;
  uint64_t received = 0;
  for (const auto& w : stats.workers) {
    worker_coalesced += w.coalesced_batches;
    sent += w.batches_sent;
    received += w.batches_received;
  }
  EXPECT_EQ(worker_coalesced, stats.coalesced_batches);
  // The Safra sums still balance at termination, and only real flows count.
  EXPECT_EQ(sent, received);
  EXPECT_EQ(stats.update_batches, sent);
}

TEST(AsyncCoalescing, BoundedWindowClockCarriersStillPropagate) {
  // Under a bounded window every edge carries (possibly empty) clock-bearing
  // batches; merging them into a pending batch must keep the newest clock or
  // the SSP gate would deadlock.
  const auto g = TestGraph(1500, 21);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  config.async_tuning.coalesce_batches = true;
  cluster::SimCluster sim(CongestedSpec());
  async::AsyncResult stats;
  const auto result = apps::AsyncPageRank(sim, g, part, config, /*staleness=*/2, &stats);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
  EXPECT_GT(stats.coalesced_batches, 0u);
}

TEST(AsyncCoalescing, SsspMatchesDijkstra) {
  const auto g =
      graph::WithRandomWeights(TestGraph(2000, 13), 1.0, 10.0, /*seed=*/99);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::SsspConfig config;
  config.async_tuning.coalesce_batches = true;
  cluster::SimCluster sim(CongestedSpec());
  async::AsyncResult stats;
  const auto result =
      apps::AsyncSssp(sim, g, part, config, async::kUnboundedStaleness, &stats);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.distances, apps::SerialDijkstra(g, config.source)), 1e-9);
}

TEST(AsyncCoalescing, ComponentsMatchUnionFindExactly) {
  const auto g = TestGraph(2000, 9);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::ComponentsConfig config;
  config.async_tuning.coalesce_batches = true;
  cluster::SimCluster sim(CongestedSpec());
  async::AsyncResult stats;
  const auto result = apps::AsyncComponents(sim, g, part, config,
                                            async::kUnboundedStaleness, &stats);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.labels, apps::SerialComponents(apps::Symmetrized(g)));
}

TEST(AsyncCoalescing, KMeansBroadcastSavesFlowsAndMatchesLloyd) {
  // K-Means broadcasts partials all-to-all every iteration — the workload
  // coalescing exists for.
  apps::CensusLikeConfig data_config;
  data_config.num_points = 3000;
  data_config.seed = 11;
  const auto data = apps::GenerateCensusLike(data_config);
  apps::KMeansConfig config;
  config.k = 4;
  config.num_partitions = 8;
  config.seed = 5;
  const auto lloyd = apps::SerialLloyd(data, config);
  config.async_tuning.coalesce_batches = true;
  cluster::SimCluster sim(CongestedSpec());
  async::AsyncResult stats;
  const auto result =
      apps::AsyncKMeans(sim, data, config, async::kUnboundedStaleness, &stats);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.sse, lloyd.sse * 1.3);
  EXPECT_GT(stats.coalesced_batches, 0u);
}

TEST(AsyncCoalescing, JacobiConvergesToSolution) {
  const auto g = apps::Symmetrized(TestGraph(1500, 31));
  std::vector<double> b(g.num_vertices());
  Rng rng(77);
  for (double& v : b) v = rng.NextDouble(-1.0, 1.0);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::JacobiConfig config;
  config.tolerance = 1e-6;
  config.async_tuning.coalesce_batches = true;
  cluster::SimCluster sim(CongestedSpec());
  async::AsyncResult stats;
  const auto result = apps::AsyncJacobi(sim, g, b, part, config,
                                        async::kUnboundedStaleness, &stats);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.residual_inf, 1e-4);
}

TEST(AsyncCoalescing, SurvivesCrashRecovery) {
  // Pending batches die with a crashed sender (never counted sent) and the
  // in-flight flags belong to dead-epoch flows; the recovery re-announcement
  // must still drive the run to the oracle fixed point.
  const auto g = TestGraph(1500, 31);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  config.async_tuning.checkpoint_interval = 4;
  config.async_tuning.coalesce_batches = true;
  cluster::ClusterSpec spec = CrashySpec(0.6);
  spec.topology.node_bandwidth_Bps = 12.5e6;  // lingering flows + crashes
  cluster::SimCluster sim(spec);
  async::AsyncResult stats;
  const auto result = apps::AsyncPageRank(sim, g, part, config,
                                          async::kUnboundedStaleness, &stats);
  EXPECT_GE(stats.worker_restarts, 1u);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, apps::SerialPageRank(g, config)), 1e-3);
}

TEST(AsyncCoalescing, DeterministicAcrossRuns) {
  const auto g = TestGraph(1200, 5);
  const auto part = graph::MultilevelPartition(g, 6);
  apps::PageRankConfig config;
  config.async_tuning.coalesce_batches = true;
  auto run = [&](uint64_t* fired) {
    cluster::SimCluster sim(CongestedSpec());
    async::AsyncResult stats;
    auto result =
        apps::AsyncPageRank(sim, g, part, config, async::kUnboundedStaleness, &stats);
    *fired = sim.queue().fired_count();
    return std::make_pair(result.ranks, stats.coalesced_batches);
  };
  uint64_t a_fired = 0;
  uint64_t b_fired = 0;
  const auto [a_ranks, a_coalesced] = run(&a_fired);
  const auto [b_ranks, b_coalesced] = run(&b_fired);
  EXPECT_EQ(MaxDiff(a_ranks, b_ranks), 0.0);
  EXPECT_EQ(a_coalesced, b_coalesced);
  EXPECT_EQ(a_fired, b_fired);
}

// --- adaptive token backoff --------------------------------------------------

TEST(AsyncEngine, AdaptiveTokenBackoffConvergesWithFewerCircuits) {
  const auto g = TestGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig fixed_config;
  cluster::SimCluster sim_fixed(QuietSpec());
  async::AsyncResult fixed_stats;
  const auto fixed = apps::AsyncPageRank(sim_fixed, g, part, fixed_config,
                                         async::kUnboundedStaleness, &fixed_stats);

  apps::PageRankConfig adaptive_config;
  adaptive_config.async_tuning.adaptive_token_backoff = true;
  cluster::SimCluster sim_adaptive(QuietSpec());
  async::AsyncResult adaptive_stats;
  const auto adaptive =
      apps::AsyncPageRank(sim_adaptive, g, part, adaptive_config,
                          async::kUnboundedStaleness, &adaptive_stats);

  EXPECT_TRUE(fixed.converged);
  EXPECT_TRUE(adaptive.converged);
  // Token RPCs ride the same network as update flows, so the timelines
  // diverge — but both land on the oracle, and the adaptive pause (>= the
  // fixed default, scaled to the measured circuit time) can only cut the
  // number of control-plane circuits.
  EXPECT_LT(MaxDiff(adaptive.ranks, apps::SerialPageRank(g, adaptive_config)), 1e-3);
  EXPECT_LE(adaptive_stats.token_circuits, fixed_stats.token_circuits);
}

// --- the paper-beating claim -------------------------------------------------

TEST(AsyncVsPartialSync, AsyncConvergesInLessVirtualTime) {
  // The power-law graph scenario: async propagation beats the partial-sync
  // baseline on virtual time to convergence because it never pays the
  // per-round job submit + shuffle + DFS barrier.
  const auto g = TestGraph(4000);
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  cluster::SimCluster sim_eager(QuietSpec());
  const auto eager = apps::EagerPageRank(sim_eager, g, part, config);
  cluster::SimCluster sim_async(QuietSpec());
  const auto async_result = apps::AsyncPageRank(sim_async, g, part, config);
  ASSERT_TRUE(eager.converged);
  ASSERT_TRUE(async_result.converged);
  EXPECT_LT(MaxDiff(async_result.ranks, eager.ranks), 2e-3);
  EXPECT_LE(async_result.trace.total_seconds(), eager.trace.total_seconds());
}

}  // namespace
}  // namespace asyncmr
