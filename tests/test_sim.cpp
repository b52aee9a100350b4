// Unit tests: discrete-event kernel — ordering, determinism, cancellation,
// and the calendar far store pinned differentially against the heap.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace asyncmr::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(2.0, [&] { order.push_back(2); });
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5.0, [&order, i] { order.push_back(i); });
  }
  q.RunUntilEmpty();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleAfterIsRelative) {
  EventQueue q;
  double fired_at = -1;
  q.Schedule(2.0, [&] {
    q.ScheduleAfter(3.0, [&] { fired_at = q.now(); });
  });
  q.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.Schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // second cancel is a no-op
  q.RunUntilEmpty();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelOneOfMany) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] { order.push_back(1); });
  const EventId id = q.Schedule(2.0, [&] { order.push_back(2); });
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.Cancel(id);
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(2.0, [&] { order.push_back(2); });
  q.Schedule(5.0, [&] { order.push_back(5); });
  q.RunUntil(3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntilEmpty();
  EXPECT_EQ(order.size(), 3u);
}

TEST(EventQueue, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.ScheduleAfter(1.0, recurse);
  };
  q.ScheduleAfter(1.0, recurse);
  q.RunUntilEmpty();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, DeterministicTrace) {
  auto run = [] {
    EventQueue q;
    std::vector<double> times;
    for (int i = 0; i < 100; ++i) {
      q.Schedule(static_cast<double>((i * 37) % 50),
                 [&times, &q] { times.push_back(q.now()); });
    }
    q.RunUntilEmpty();
    return times;
  };
  EXPECT_EQ(run(), run());
}

TEST(EventQueue, FiredCountExcludesCancelled) {
  EventQueue q;
  q.Schedule(1.0, [] {});
  const EventId id = q.Schedule(2.0, [] {});
  q.Cancel(id);
  q.RunUntilEmpty();
  EXPECT_EQ(q.fired_count(), 1u);
}

TEST(EventQueue, CancelFromInsideAnEvent) {
  // The network model cancels and reschedules completion events from within
  // running events (Rebalance); the queue must support that reentrancy.
  EventQueue q;
  std::vector<int> order;
  EventId victim = 0;
  q.Schedule(1.0, [&] {
    order.push_back(1);
    EXPECT_TRUE(q.Cancel(victim));
    q.Schedule(2.5, [&] { order.push_back(25); });
  });
  victim = q.Schedule(2.0, [&] { order.push_back(2); });
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 25, 3}));
}

TEST(EventQueue, CancelAlreadyFiredReturnsFalse) {
  EventQueue q;
  const EventId id = q.Schedule(1.0, [] {});
  q.RunUntilEmpty();
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(9999));  // unknown id
}

TEST(EventQueue, CancelKeepsFifoOrderOfSurvivors) {
  // Cancelling some events at a shared timestamp must not disturb the FIFO
  // tie-break among the survivors.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(q.Schedule(7.0, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 12; i += 3) q.Cancel(ids[i]);  // drop 0, 3, 6, 9
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 7, 8, 10, 11}));
}

TEST(EventQueue, PendingCountExcludesCancelled) {
  EventQueue q;
  const EventId a = q.Schedule(1.0, [] {});
  q.Schedule(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntilEmpty();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_FALSE(q.RunOne());  // empty queue reports no work
}

TEST(EventQueue, RunUntilSkipsCancelledBoundaryEvents) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(2.0, [&] { order.push_back(2); });
  q.Cancel(a);
  q.RunUntil(1.5);
  EXPECT_TRUE(order.empty());
  EXPECT_DOUBLE_EQ(q.now(), 1.5);
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, DeterministicTraceWithInterleavedCancels) {
  // The async engine relies on bit-identical event traces across runs even
  // under heavy cancel/reschedule churn (network rebalancing).
  auto run = [] {
    EventQueue q;
    std::vector<std::pair<double, int>> trace;
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i) {
      const double at = static_cast<double>((i * 131) % 17);
      ids.push_back(q.Schedule(at, [&trace, &q, i] {
        trace.emplace_back(q.now(), i);
      }));
      if (i % 3 == 0 && i > 0) q.Cancel(ids[i / 2]);
    }
    q.RunUntilEmpty();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(EventQueue, DoubleCancelReturnsFalseAndPendingStaysCorrect) {
  // Regression: a second Cancel of the same id must be a no-op — the old
  // queue's cancelled-set bookkeeping could make pending() drift.
  EventQueue q;
  const EventId a = q.Schedule(1.0, [] {});
  q.Schedule(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntilEmpty();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.fired_count(), 1u);
}

TEST(EventQueue, SlabReuseUnderCancelHeavyChurn) {
  // Slots are recycled across rounds of schedule/cancel churn; counters and
  // cancellation semantics must hold throughout.
  EventQueue q;
  uint64_t fired = 0;
  std::vector<EventId> ids;
  for (int round = 0; round < 100; ++round) {
    ids.clear();
    for (int i = 0; i < 50; ++i) {
      ids.push_back(q.ScheduleAfter(1.0 + 0.01 * i, [&fired] { ++fired; }));
    }
    EXPECT_EQ(q.pending(), 50u);
    for (int i = 0; i < 50; i += 2) EXPECT_TRUE(q.Cancel(ids[i]));
    for (int i = 0; i < 50; i += 2) EXPECT_FALSE(q.Cancel(ids[i]));
    EXPECT_EQ(q.pending(), 25u);
    q.RunUntil(q.now() + 2.0);
    EXPECT_EQ(q.pending(), 0u);
  }
  EXPECT_EQ(fired, 2500u);
  EXPECT_EQ(q.fired_count(), 2500u);
}

TEST(EventQueue, CancelOfSentinelZeroIdIsRejected) {
  // Regression: after slot 0 is freed its seq marker is 0; Cancel(0) — the
  // network model's "no event" sentinel — must not match it (that would
  // double-free the slot and underflow pending()).
  EventQueue q;
  const EventId a = q.Schedule(1.0, [] {});
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_EQ(q.pending(), 0u);
  int fired = 0;
  q.Schedule(1.0, [&] { ++fired; });
  q.Schedule(1.0, [&] { ++fired; });
  EXPECT_FALSE(q.Cancel(0));
  q.RunUntilEmpty();
  EXPECT_EQ(fired, 2);  // both events kept distinct slots and fired
}

TEST(EventQueue, StaleIdOfReusedSlotDoesNotCancelNewEvent) {
  EventQueue q;
  const EventId a = q.Schedule(1.0, [] {});
  EXPECT_TRUE(q.Cancel(a));
  // The new event may land in the recycled slot; a's stale id must not
  // reach it.
  bool fired = false;
  q.Schedule(1.0, [&] { fired = true; });
  EXPECT_FALSE(q.Cancel(a));
  q.RunUntilEmpty();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, ZeroDelayEventsPreserveGlobalFifoOrder) {
  // A zero-delay event scheduled from inside a running event still fires
  // after same-timestamp events that were scheduled earlier.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] {
    order.push_back(1);
    q.ScheduleAfter(0.0, [&] { order.push_back(2); });
  });
  q.Schedule(1.0, [&] { order.push_back(3); });
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
}

TEST(EventQueue, ZeroDelayEventsCanBeCancelled) {
  EventQueue q;
  bool fired = false;
  q.Schedule(1.0, [&] {
    const EventId imm = q.ScheduleAfter(0.0, [&] { fired = true; });
    EXPECT_TRUE(q.Cancel(imm));
    EXPECT_FALSE(q.Cancel(imm));
  });
  q.RunUntilEmpty();
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, ZeroDelayChainsDrainInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  std::function<void(int)> hop = [&](int depth) {
    order.push_back(depth);
    if (depth < 5) q.ScheduleAfter(0.0, [&hop, depth] { hop(depth + 1); });
  };
  q.Schedule(2.0, [&] { hop(0); });
  q.Schedule(2.0, [&] { order.push_back(100); });
  q.RunUntilEmpty();
  // The first chain hop interleaves with the pre-scheduled peer at t=2,
  // then the remaining hops drain in order.
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, FifoAcrossReschedules) {
  // Ids issued later always fire later at equal timestamps, even when the
  // earlier id at that timestamp was scheduled from inside an event.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] {
    q.Schedule(5.0, [&] { order.push_back(1); });  // id issued at t=1
  });
  q.Schedule(2.0, [&] {
    q.Schedule(5.0, [&] { order.push_back(2); });  // id issued at t=2
  });
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RescheduleRetimesWithoutTouchingCallback) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.Schedule(5.0, [&] { order.push_back(1); });
  q.Schedule(3.0, [&] { order.push_back(2); });
  const EventId a2 = q.Reschedule(a, 1.0);
  ASSERT_NE(a2, 0u);
  EXPECT_EQ(q.pending(), 2u);  // a retime is not a new event
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.fired_count(), 2u);
}

TEST(EventQueue, RescheduleMatchesCancelPlusScheduleOrdering) {
  // A rescheduled event takes a fresh sequence number: among equal
  // timestamps it fires after everything scheduled before the retime,
  // exactly like Cancel + Schedule would.
  EventQueue q;
  std::vector<int> order;
  const EventId early = q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(4.0, [&] { order.push_back(2); });
  q.Reschedule(early, 4.0);
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleOfStaleIdFails) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.Schedule(1.0, [&] { ++fired; });
  const EventId a2 = q.Reschedule(a, 2.0);
  ASSERT_NE(a2, 0u);
  EXPECT_EQ(q.Reschedule(a, 3.0), 0u);   // old id died with the retime
  EXPECT_FALSE(q.Cancel(a));             // likewise for Cancel
  q.RunUntilEmpty();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.Reschedule(a2, 4.0), 0u);  // already fired
  const EventId b = q.Schedule(5.0, [&] { ++fired; });
  ASSERT_TRUE(q.Cancel(b));
  EXPECT_EQ(q.Reschedule(b, 6.0), 0u);   // already cancelled
  q.RunUntilEmpty();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RescheduleToNowUsesImmediatePath) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] {
    const EventId late = q.Schedule(9.0, [&] { order.push_back(2); });
    q.Schedule(1.0, [&] { order.push_back(1); });
    q.Reschedule(late, 1.0);  // lands on the zero-delay FIFO behind the above
  });
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- calendar far store vs heap (differential) ------------------------------

using Trace = std::vector<std::pair<double, int>>;

// A self-driving churn workload exercising every queue operation the
// simulation uses: far inserts at mixed horizons, zero-delay immediates,
// Cancel and Reschedule. All randomness comes from a fixed Rng seed, so both
// modes execute the same op script as long as their firing orders agree —
// any divergence shows up in the recorded trace.
Trace RunChurnScript(QueueMode mode) {
  EventQueue q(mode);
  Trace trace;
  Rng rng(123);
  std::vector<EventId> open;
  int tag = 0;
  int rounds = 0;
  std::function<void()> driver = [&] {
    // A burst of future events spanning several calendar bucket widths.
    for (int i = 0; i < 6; ++i) {
      const int t = tag++;
      open.push_back(q.Schedule(q.now() + rng.NextDouble(0.0, 12.0),
                                [&trace, &q, t] { trace.emplace_back(q.now(), t); }));
    }
    // Zero-delay events ride the immediate FIFO.
    for (int i = 0; i < 2; ++i) {
      const int t = tag++;
      q.ScheduleAfter(0.0, [&trace, &q, t] { trace.emplace_back(q.now(), t); });
    }
    // Cancel/reschedule churn over the open set (ids may already be stale —
    // both modes must agree on the outcome either way).
    if (open.size() > 8) {
      q.Cancel(open[open.size() / 2]);
      const EventId nid = q.Reschedule(open[open.size() / 3],
                                       q.now() + rng.NextDouble(0.0, 6.0));
      if (nid != 0) open[open.size() / 3] = nid;
    }
    if (++rounds < 60) q.ScheduleAfter(rng.NextDouble(0.01, 1.5), driver);
  };
  q.ScheduleAfter(0.0, driver);
  q.RunUntilEmpty();
  EXPECT_EQ(q.pending(), 0u);
  return trace;
}

TEST(CalendarQueue, ChurnScriptMatchesHeapByteForByte) {
  const Trace heap = RunChurnScript(QueueMode::kHeap);
  const Trace cal = RunChurnScript(QueueMode::kCalendar);
  ASSERT_EQ(heap.size(), cal.size());
  EXPECT_EQ(heap, cal);
}

TEST(CalendarQueue, OneBucketPileupKeepsFifoOrder) {
  // Pathological distribution: every event at the same timestamp lands in a
  // single calendar bucket. The sorted-bucket insert degrades to O(n) per op
  // but the FIFO tie-break must survive, including interleaved cancels.
  auto run = [](QueueMode mode) {
    EventQueue q(mode);
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 2000; ++i) {
      ids.push_back(q.Schedule(7.0, [&order, i] { order.push_back(i); }));
    }
    for (int i = 0; i < 2000; i += 7) q.Cancel(ids[i]);
    q.RunUntilEmpty();
    return order;
  };
  EXPECT_EQ(run(QueueMode::kHeap), run(QueueMode::kCalendar));
}

TEST(CalendarQueue, WidthResizeCyclesPreserveOrder) {
  // Drain-while-inserting across horizons that force the calendar through
  // grow and shrink rebuilds; interleave wide and dense timestamp regimes so
  // the width recomputation actually changes.
  auto run = [](QueueMode mode) {
    EventQueue q(mode);
    Trace trace;
    for (int i = 0; i < 300; ++i) {
      const double at = (i % 3 == 0) ? i * 1000.0 : 1.0 + i * 1e-6;
      q.Schedule(at, [&trace, &q, i] { trace.emplace_back(q.now(), i); });
    }
    // Drain halfway, then refill densely to trigger a shrink then a grow.
    for (int i = 0; i < 150; ++i) q.RunOne();
    for (int i = 300; i < 700; ++i) {
      q.Schedule(q.now() + 1e-3 + i * 1e-7,
                 [&trace, &q, i] { trace.emplace_back(q.now(), i); });
    }
    q.RunUntilEmpty();
    return trace;
  };
  EXPECT_EQ(run(QueueMode::kHeap), run(QueueMode::kCalendar));
}

}  // namespace
}  // namespace asyncmr::sim
