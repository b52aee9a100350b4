// Negative tests for the AMR_AUDIT contract families: each AUDIT_CHECK is
// tripped by deliberately corrupted input and must abort with its
// diagnostic. Positive twins pin that clean inputs do NOT trip. The whole
// suite is a no-op (skipped) when the contracts are compiled out — CI's
// Debug jobs build with -DAMR_AUDIT=ON, where every family must fire.
#include <gtest/gtest.h>

#include "async/checkpoint.hpp"
#include "async/progress.hpp"
#include "async/state_store.hpp"
#include "common/check.hpp"
#include "core/flat_table.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"

namespace {

using asyncmr::kAuditEnabled;

#define SKIP_WITHOUT_AUDIT() \
  if (!kAuditEnabled) GTEST_SKIP() << "built without -DAMR_AUDIT=ON"

// --- event queue -------------------------------------------------------------

TEST(AuditEventQueue, CleanRunDoesNotTrip) {
  asyncmr::sim::EventQueue q;
  int fired = 0;
  q.Schedule(1.0, [&] { ++fired; });
  q.ScheduleAfter(0.0, [&] { ++fired; });
  q.RunUntilEmpty();
  EXPECT_EQ(fired, 2);
}

#ifdef AMR_AUDIT

TEST(AuditEventQueueDeathTest, PopIntoThePastTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(
      {
        asyncmr::sim::EventQueue q;
        q.Schedule(1.0, [] {});
        q.TestOnlySetNow(5.0);  // pending event is now in the past
        q.RunOne();
      },
      "popped into the past");
}

TEST(AuditEventQueueDeathTest, SlotAccountingTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(
      {
        asyncmr::sim::EventQueue q;
        q.Schedule(1.0, [] {});
        q.TestOnlyLeakFreeSlot();  // bogus free-list entry: slot 0 is live
        q.Schedule(2.0, [] {});    // alloc reuses the live slot
      },
      "slot accounting diverged");
}

TEST(AuditEventQueueDeathTest, CalendarPopIntoThePastTrips) {
  SKIP_WITHOUT_AUDIT();
  // The pop-monotonicity contract holds in calendar mode too: the rotation
  // scan / direct-search fallback must never surface a key below now_.
  EXPECT_DEATH(
      {
        asyncmr::sim::EventQueue q(asyncmr::sim::QueueMode::kCalendar);
        q.Schedule(1.0, [] {});
        q.TestOnlySetNow(5.0);  // pending event is now in the past
        q.RunOne();
      },
      "popped into the past");
}

TEST(AuditEventQueueDeathTest, CalendarOccupancyTrips) {
  SKIP_WITHOUT_AUDIT();
  // Bucket-occupancy accounting: the sum of stored keys must equal the
  // cal_size_ counter at every rebuild. Corrupt the counter, then insert
  // past the grow threshold (2 x 16 initial buckets) to force one.
  EXPECT_DEATH(
      {
        asyncmr::sim::EventQueue q(asyncmr::sim::QueueMode::kCalendar);
        q.TestOnlyCorruptCalendarOccupancy();
        for (int i = 0; i < 40; ++i) {
          q.Schedule(1.0 + i, [] {});
        }
      },
      "calendar bucket occupancy diverged");
}

TEST(AuditEventQueue, CleanCalendarRunDoesNotTrip) {
  // Positive twin: a calendar queue run through grow, drain, and shrink
  // rebuilds with the audit contracts armed sails through.
  asyncmr::sim::EventQueue q(asyncmr::sim::QueueMode::kCalendar);
  uint64_t fired = 0;
  for (int i = 0; i < 200; ++i) q.Schedule(1.0 + i * 0.25, [&fired] { ++fired; });
  q.RunUntilEmpty();
  EXPECT_EQ(fired, 200u);
}

#endif  // AMR_AUDIT

// --- fluid network -----------------------------------------------------------

asyncmr::net::TopologyConfig SmallTopology() {
  asyncmr::net::TopologyConfig cfg;
  cfg.num_nodes = 4;
  cfg.nodes_per_rack = 2;
  return cfg;
}

TEST(AuditNetwork, CleanTransfersDoNotTrip) {
  asyncmr::sim::EventQueue q;
  asyncmr::net::Network net(q, asyncmr::net::Topology(SmallTopology()));
  int done = 0;
  net.Transfer(0, 1, 1 << 20, [&] { ++done; });
  net.Transfer(0, 2, 1 << 20, [&] { ++done; });
  net.Transfer(3, 3, 1 << 16, [&] { ++done; });
  q.RunUntilEmpty();
  EXPECT_EQ(done, 3);
#ifdef AMR_AUDIT
  net.AuditInvariants();  // whole-model sweep on the drained network
#endif
}

#ifdef AMR_AUDIT

TEST(AuditNetworkDeathTest, ByteConservationTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(
      {
        asyncmr::sim::EventQueue q;
        asyncmr::net::Network net(q, asyncmr::net::Topology(SmallTopology()));
        net.Transfer(0, 1, 1 << 20, [] {});
        q.RunUntilEmpty();
        net.TestOnlyCorruptConservation();  // phantom injected byte
        net.AuditInvariants();
      },
      "byte conservation broken");
}

TEST(AuditNetworkDeathTest, NodeRateOversubscriptionTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(
      {
        asyncmr::sim::EventQueue q;
        asyncmr::net::Network net(q, asyncmr::net::Topology(SmallTopology()));
        net.Transfer(0, 1, 1 << 24, [] {});
        // Run just until the payload enters the fluid model, then inflate
        // every active rate far past the NIC's fair share.
        while (net.active_flows() == 0 && q.RunOne()) {
        }
        net.TestOnlyInflateRates(100.0);
        net.AuditInvariants();
      },
      "oversubscribed");
}

#endif  // AMR_AUDIT

// --- flat hashtable index ----------------------------------------------------

TEST(AuditFlatTable, GrowingTableDoesNotTrip) {
  // Positive twin: growth from empty through several rehashes, then a
  // reserve-driven one, re-verifies a sound index every time.
  asyncmr::core::FlatTable<uint32_t, double> table;
  for (uint32_t k = 0; k < 1000; ++k) table[k * 4096] = k;
  table.reserve(5000);
  EXPECT_EQ(table.size(), 1000u);
  EXPECT_EQ(table.at(999u * 4096), 999.0);
}

#ifdef AMR_AUDIT

TEST(AuditFlatTableDeathTest, DuplicateKeyTripsOnRehash) {
  SKIP_WITHOUT_AUDIT();
  // Entry 1 takes entry 0's key behind the index's back. The next rehash
  // places both, but a probe for that key stops at entry 0, so entry 1 is
  // unreachable from its home slot.
  using Table = asyncmr::core::FlatTable<uint32_t, double>;
  EXPECT_DEATH(
      {
        Table table;
        table[1] = 1.0;
        table[2] = 2.0;
        table.TestOnlyOverwriteKey(1, 1);
        for (uint32_t k = 3; k < 40; ++k) table[k] = 0.0;  // forces a rehash
      },
      "unreachable from its home slot");
}

#endif  // AMR_AUDIT

// --- Safra ledger balance ----------------------------------------------------

TEST(AuditSafra, BalancedLedgersDoNotTrip) {
  asyncmr::async::AuditSafraBalance(/*sent=*/5, /*received=*/3,
                                    /*in_flight=*/2);
  asyncmr::async::AuditSafraBalance(0, 0, 0);
}

TEST(AuditSafraDeathTest, ImbalanceTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(asyncmr::async::AuditSafraBalance(/*sent=*/3, /*received=*/1,
                                                 /*in_flight=*/1),
               "Safra ledger imbalance");
}

// --- token generation discipline ---------------------------------------------

TEST(AuditTokenGeneration, LiveGenerationDoesNotTrip) {
  asyncmr::async::AuditTokenGeneration(/*token_generation=*/0,
                                       /*live_generation=*/0);
  asyncmr::async::AuditTokenGeneration(7, 7);  // after regenerations
}

TEST(AuditTokenGenerationDeathTest, StaleGenerationCompletingTrips) {
  SKIP_WITHOUT_AUDIT();
  // A token whose generation trails the live counter reached CompleteCircuit:
  // the HandleTokenAt drop failed, and a written-off circuit is about to
  // double-terminate the run.
  EXPECT_DEATH(asyncmr::async::AuditTokenGeneration(/*token_generation=*/3,
                                                    /*live_generation=*/5),
               "stale token generation");
}

// --- node worker-ledger -------------------------------------------------------

TEST(AuditNodeLedger, MatchingCountsDoNotTrip) {
  asyncmr::async::AuditNodeLedger(/*resident_workers=*/4, /*ledger_count=*/4);
  asyncmr::async::AuditNodeLedger(0, 0);  // node with no residents
}

TEST(AuditNodeLedgerDeathTest, DriftedLedgerTrips) {
  SKIP_WITHOUT_AUDIT();
  // The incrementally-maintained per-node resident count disagrees with a
  // fresh placement scan: a node crash would fence the wrong worker set.
  EXPECT_DEATH(asyncmr::async::AuditNodeLedger(/*resident_workers=*/3,
                                               /*ledger_count=*/2),
               "node worker-ledger drift");
}

// --- state-store version monotonicity ----------------------------------------

TEST(AuditStateStore, AdvancingVersionsDoNotTrip) {
  asyncmr::async::AuditVersionAdvance(1, 5, 1, 5);  // idempotent redelivery
  asyncmr::async::AuditVersionAdvance(1, 5, 1, 6);  // clock advance
  asyncmr::async::AuditVersionAdvance(1, 5, 2, 0);  // restart: epoch wins
}

TEST(AuditStateStoreDeathTest, EpochRegressionTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(asyncmr::async::AuditVersionAdvance(2, 5, 1, 9),
               "version regressed");
}

TEST(AuditStateStoreDeathTest, ClockRegressionTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(asyncmr::async::AuditVersionAdvance(1, 5, 1, 4),
               "version regressed");
}

// --- checkpoint image round-trip ---------------------------------------------

asyncmr::serde::Buffer EncodedSnapshot() {
  asyncmr::async::WorkerSnapshot snap;
  snap.partition = 3;
  snap.epoch = 1;
  snap.iterations = 17;
  snap.unmerged_records = 42;
  snap.last_residual = 0.125;
  snap.peer_clocks = {16, 17, 15};
  snap.app_state = "opaque application payload";
  return asyncmr::serde::Encode(snap);
}

TEST(AuditCheckpoint, IntactImageDoesNotTrip) {
  asyncmr::async::AuditCheckpointImage(EncodedSnapshot());
}

TEST(AuditCheckpointDeathTest, CorruptImageTrips) {
  SKIP_WITHOUT_AUDIT();
  EXPECT_DEATH(
      {
        asyncmr::serde::Buffer corrupt = EncodedSnapshot();
        corrupt.AppendByte(0xFF);  // trailing garbage: decode must reject
        asyncmr::async::AuditCheckpointImage(corrupt);
      },
      "checkpoint image");
}

}  // namespace
