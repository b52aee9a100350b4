// Discrete-event simulation kernel: a virtual clock plus a deterministic
// event queue. Cluster, network and DFS models schedule callbacks here;
// virtual time ("EC2 seconds") advances only through this queue, never from
// the host clock, so simulations are bit-reproducible for a given seed.
//
// Determinism: events at equal timestamps fire in scheduling order (FIFO
// tie-break by sequence number).
//
// Implementation: this is the hottest path in the whole simulator, so events
// live in a slab of reusable slots with the callback stored inline (no
// per-event std::function heap allocation for callables up to
// EventFn::kInlineBytes) and the heap orders plain (time, seq, slot,
// generation) tuples.
// An EventId packs (sequence number << 24 | slot index); the slot records
// the sequence number of the event it currently holds (0 = free), so the
// never-reused sequence acts as a perfect generation: stale ids (fired or
// cancelled events, reused slots) fail Cancel safely and stale heap entries
// are skipped on pop — Schedule, Cancel and RunOne never touch a hash table,
// and a cancelled slot is reusable immediately. Heap entries are single
// 128-bit keys — the event time's IEEE bits (virtual time is never negative,
// so bit order equals numeric order) above the packed id, whose sequence
// number is the FIFO tie-break — making the sift one branchless compare per
// level. Ids are never 0 (the network model uses 0 as a "no event"
// sentinel).
//
// Zero-delay events (slot grants, immediate continuations — a large share
// of cluster traffic) skip the heap: events scheduled at exactly `now` go to
// an O(1) FIFO whose entries provably all share time == now, so one key
// compare against the heap top preserves the exact global firing order.
//
// Two far-future stores implement the same key order behind QueueMode:
// kHeap (the default, a binary heap of keys — O(log n) sift per op) and
// kCalendar (a calendar queue: keys hashed by time into width-sized buckets,
// each bucket a small sorted vector — O(1) amortized insert/pop when event
// times are spread, which the fluid-flow completion times are). The calendar
// stores the *full* 128-bit keys and resolves minima by bucket rotation plus
// a direct-search fallback, so its pop sequence is byte-identical to the
// heap's — the CalendarQueue cases in tests/test_sim.cpp pin that
// differentially, and bucket occupancy carries its own AUDIT_CHECK contract.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace asyncmr::sim {

/// Virtual time in seconds.
using SimTime = double;

/// Handle for cancelling a scheduled event. Never 0 for a real event.
using EventId = uint64_t;

/// Move-only callable with a large inline buffer: the slab's event storage.
/// Falls back to the heap only for callables over kInlineBytes (rare; the
/// simulator's capture lists are a `this` pointer plus a few scalars, and
/// 48 bytes covers them while keeping EventFn itself at 64 bytes).
class EventFn {
 public:
  static constexpr size_t kInlineBytes = 48;

  EventFn() = default;
  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  template <typename F>
  void Set(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>, "event callback must be invocable");
    Reset();
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      heap_ = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
    }
  }

  void operator()() { ops_->invoke(*this); }
  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(*this);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(EventFn&);
    void (*move)(EventFn& dst, EventFn& src);  // dst is raw storage
    void (*destroy)(EventFn&);
  };

  // Members are declared before the vtable templates: static member
  // initializers are not complete-class contexts, so the lambdas below can
  // only name what is already declared. The heap fallback pointer shares
  // the inline buffer (which Ops table is installed says which is active).
  const Ops* ops_ = nullptr;
  union {
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    void* heap_;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](EventFn& self) { (*std::launder(reinterpret_cast<Fn*>(self.buf_)))(); },
      [](EventFn& dst, EventFn& src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src.buf_));
        ::new (static_cast<void*>(dst.buf_)) Fn(std::move(*from));
        from->~Fn();
      },
      [](EventFn& self) { std::launder(reinterpret_cast<Fn*>(self.buf_))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](EventFn& self) { (*static_cast<Fn*>(self.heap_))(); },
      [](EventFn& dst, EventFn& src) {
        dst.heap_ = src.heap_;
        src.heap_ = nullptr;
      },
      [](EventFn& self) { delete static_cast<Fn*>(self.heap_); },
  };

  void MoveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) ops_->move(*this, other);
    other.ops_ = nullptr;
  }
};

/// Far-future event store selector. kHeap is the exact reference everything
/// defaults to; kCalendar trades the heap sift for O(1) amortized bucket ops
/// while popping the identical event sequence (same 128-bit key order).
enum class QueueMode : uint8_t {
  kHeap = 0,
  kCalendar = 1,
};

class EventQueue {
 public:
  EventQueue() = default;
  explicit EventQueue(QueueMode mode) : mode_(mode) {}

  QueueMode mode() const { return mode_; }

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules fn at absolute virtual time `at` (must be >= now).
  template <typename F>
  EventId Schedule(SimTime at, F&& fn) {
    AMR_CHECK(at >= now_) << "cannot schedule in the past: at=" << at
                          << " now=" << now_;
    at += 0.0;  // normalize -0.0: key order must equal numeric order
    const uint32_t slot = AllocSlot();
    const uint64_t seq = next_seq_++;
    AMR_CHECK(seq < (uint64_t{1} << (64 - kSlotBits))) << "event seq exhausted";
    Slot& s = slab_[slot];
    s.fn.Set(std::forward<F>(fn));
    s.seq = seq;
    const EventId id = (seq << kSlotBits) | slot;
    const HeapKey key = MakeKey(at, id);
    if (at == now_) {
      // Zero-delay fast path: appended in seq order, and every queued
      // immediate shares time == now (an immediate always fires before the
      // clock can advance), so the FIFO front is the immediates' minimum.
      immediate_.push_back(key);
    } else {
      PushFar(key);
    }
    ++live_;
    // Slot accounting contract: every slab slot is exactly one of {free,
    // holding a live event}. A double-free or leaked slot breaks this sum.
    AUDIT_CHECK(live_ + free_slots_.size() == slab_.size())
        << "event slab slot accounting diverged: live=" << live_
        << " free=" << free_slots_.size() << " slab=" << slab_.size();
    return id;
  }

  /// Schedules fn `delay` seconds from now (delay >= 0).
  template <typename F>
  EventId ScheduleAfter(SimTime delay, F&& fn) {
    return Schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event; returns false if already fired, already
  /// cancelled, or unknown. Idempotent: double-cancel is a safe no-op.
  bool Cancel(EventId id);

  /// Moves a pending event to absolute time `at` (must be >= now) without
  /// touching its callback: the slot is reused in place, so a retime costs
  /// one heap push instead of Cancel + Schedule's slot free/alloc plus a
  /// callback move. Ordering semantics are identical to Cancel + Schedule —
  /// the event gets a fresh sequence number, so among equal timestamps it
  /// fires after everything already scheduled. Returns the event's new id,
  /// or 0 if `id` is stale (already fired or cancelled); the old id becomes
  /// stale on success. This is the network rebalancer's bulk-retime path:
  /// a fluid-model rate change rewrites many completion times per event.
  EventId Reschedule(EventId id, SimTime at);

  /// Fires the earliest pending event, advancing the clock to its timestamp.
  /// Returns false when no events are pending.
  bool RunOne();

  /// Runs until the queue drains.
  void RunUntilEmpty();

  /// Runs events with time <= t, then advances the clock to exactly t.
  void RunUntil(SimTime t);

  /// Pending (non-cancelled, non-fired) event count.
  size_t pending() const { return live_; }

  /// Total events fired so far (for determinism assertions in tests).
  uint64_t fired_count() const { return fired_; }

#ifdef AMR_AUDIT
  /// Test-only corruption hooks for the negative audit tests
  /// (tests/test_audit.cpp): force the clock ahead so a pending event
  /// violates pop monotonicity, leak a bogus free-list entry so the slot
  /// accounting contract trips, or skew the calendar's occupancy counter so
  /// the bucket-accounting contract trips at the next rebuild. Compiled only
  /// under AMR_AUDIT.
  void TestOnlySetNow(SimTime t) { now_ = t; }
  void TestOnlyLeakFreeSlot() { free_slots_.push_back(0); }
  void TestOnlyCorruptCalendarOccupancy() { ++cal_size_; }
#endif

 private:
  /// Low bits of an EventId / heap key hold the slot, the rest the sequence
  /// number: 16M concurrent events, ~1.1e12 events per queue lifetime.
  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;

  struct Slot {
    // Sequence number of the event this slot currently holds; 0 = free.
    // Never reused, so it doubles as a perfect generation: stale ids fail
    // Cancel, stale heap entries are discarded on pop. First so staleness
    // probes touch the line's head.
    uint64_t seq = 0;
    EventFn fn;
  };

  /// Heap entry: (time bits << 64) | (seq << kSlotBits) | slot. Strictly
  /// increasing in (time, scheduling order) — one unsigned compare gives
  /// min-time-then-FIFO, and the low half is the event id for slot lookup.
  using HeapKey = unsigned __int128;

  static HeapKey MakeKey(SimTime time, uint64_t id) {
    return (static_cast<HeapKey>(std::bit_cast<uint64_t>(time)) << 64) | id;
  }
  static SimTime TimeOf(HeapKey k) {
    return std::bit_cast<SimTime>(static_cast<uint64_t>(k >> 64));
  }
  static uint32_t SlotOf(HeapKey k) {
    return static_cast<uint32_t>(static_cast<uint64_t>(k) & kSlotMask);
  }
  static uint64_t SeqOf(HeapKey k) {
    return static_cast<uint64_t>(k) >> kSlotBits;
  }

  bool IsStale(HeapKey k) const { return slab_[SlotOf(k)].seq != SeqOf(k); }

  uint32_t AllocSlot() {
    if (!free_slots_.empty()) {
      const uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    AMR_CHECK(slab_.size() < (uint64_t{1} << kSlotBits)) << "event slab exhausted";
    slab_.emplace_back();
    return static_cast<uint32_t>(slab_.size() - 1);
  }

  void FreeSlot(uint32_t slot) {
    Slot& s = slab_[slot];
    s.fn.Reset();
    s.seq = 0;  // invalidate the id and any heap entry for this event
    free_slots_.push_back(slot);
  }

  /// Earliest live key across the immediate FIFO and the far store; stale
  /// (cancelled) entries are discarded along the way. Returns false when no
  /// live event remains. On true, *key/*from_far say where to pop from.
  bool PeekEarliest(HeapKey* key, bool* from_far);

  // --- far-future store (mode-dispatched) ------------------------------------
  void PushFar(HeapKey key);
  /// Earliest live far key after lazy stale purge; false when none remain.
  bool FarPeek(HeapKey* key);
  /// Pops the key the immediately preceding FarPeek returned.
  void FarPop(HeapKey key);

  // --- calendar store --------------------------------------------------------
  // Buckets hold full keys sorted DESCENDING so the bucket minimum pops from
  // the back in O(1). Bucket index is floor(time / width) mod nbuckets; the
  // width floor keeps time / width inside uint64 range for any time the
  // queue has seen. cal_size_ counts stored keys (live + not-yet-purged
  // stale) and is the occupancy contract checked at every rebuild.
  size_t CalendarBucketIndex(SimTime t) const {
    return static_cast<size_t>(static_cast<uint64_t>(t / cal_width_)) &
           (cal_buckets_.size() - 1);
  }
  void CalendarInsert(HeapKey key);
  bool CalendarPeek(HeapKey* key);  // maintains cal_min_ cache
  void CalendarPop(HeapKey key);
  void CalendarRebuild(size_t min_buckets);

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 1;
  uint64_t fired_ = 0;
  size_t live_ = 0;
  QueueMode mode_ = QueueMode::kHeap;
  std::priority_queue<HeapKey, std::vector<HeapKey>, std::greater<>> heap_;
  std::vector<HeapKey> immediate_;  // all at time == now_; FIFO via imm_head_
  size_t imm_head_ = 0;
  std::vector<Slot> slab_;
  std::vector<uint32_t> free_slots_;

  // Calendar state (used only in kCalendar mode). cal_min_ caches the result
  // of the last bucket scan: it is <= every stored key (inserts fold in), so
  // while it stays live it IS the minimum and repeated peeks are O(1).
  std::vector<std::vector<HeapKey>> cal_buckets_;
  double cal_width_ = 1.0;
  size_t cal_size_ = 0;
  double cal_max_time_ = 0.0;  // for the width floor at rebuild
  HeapKey cal_min_ = 0;
  bool cal_min_valid_ = false;
};

}  // namespace asyncmr::sim
