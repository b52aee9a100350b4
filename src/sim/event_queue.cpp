#include "sim/event_queue.hpp"

#include <algorithm>
#include <functional>

namespace asyncmr::sim {

namespace {
// Calendar sizing policy. Buckets double when occupancy passes 2x and halve
// below 1/4x (hysteresis so a stable population never thrashes); width is
// recomputed at each rebuild from the live span so ~1 event lands per bucket
// under a uniform spread. The width floor bounds time/width inside uint64
// for any timestamp the queue has handled (max_time * 1e12 < 2^63), and
// catches the all-events-at-one-instant case (span 0).
constexpr size_t kCalendarMinBuckets = 16;

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

bool EventQueue::Cancel(EventId id) {
  const uint64_t seq = SeqOf(id);
  // Real ids always carry seq >= 1; seq 0 (e.g. the "no event" sentinel 0)
  // must not match a free slot's seq marker, or the slot would be freed
  // twice and pending() would underflow.
  if (seq == 0) return false;
  const uint32_t slot = SlotOf(id);
  if (slot >= slab_.size()) return false;
  if (slab_[slot].seq != seq) return false;  // fired/cancelled/reused
  // Free immediately — the slot is reusable right away; the orphaned heap
  // or FIFO entry is discarded (stale seq) when it surfaces.
  FreeSlot(slot);
  --live_;
  return true;
}

EventId EventQueue::Reschedule(EventId id, SimTime at) {
  const uint64_t seq = SeqOf(id);
  if (seq == 0) return 0;
  const uint32_t slot = SlotOf(id);
  if (slot >= slab_.size()) return 0;
  if (slab_[slot].seq != seq) return 0;  // fired/cancelled/reused
  AMR_CHECK(at >= now_) << "cannot reschedule into the past: at=" << at
                        << " now=" << now_;
  at += 0.0;  // normalize -0.0: key order must equal numeric order
  const uint64_t new_seq = next_seq_++;
  AMR_CHECK(new_seq < (uint64_t{1} << (64 - kSlotBits))) << "event seq exhausted";
  // Re-stamping the slot's seq invalidates the old heap/FIFO entry exactly
  // like Cancel does; the callback stays where it is.
  slab_[slot].seq = new_seq;
  const EventId new_id = (new_seq << kSlotBits) | slot;
  const HeapKey key = MakeKey(at, new_id);
  if (at == now_) {
    immediate_.push_back(key);
  } else {
    PushFar(key);
  }
  return new_id;  // live_ unchanged: still one pending event
}

void EventQueue::PushFar(HeapKey key) {
  if (mode_ == QueueMode::kCalendar) {
    CalendarInsert(key);
  } else {
    heap_.push(key);
  }
}

bool EventQueue::FarPeek(HeapKey* key) {
  if (mode_ == QueueMode::kCalendar) return CalendarPeek(key);
  while (!heap_.empty() && IsStale(heap_.top())) heap_.pop();
  if (heap_.empty()) return false;
  *key = heap_.top();
  return true;
}

void EventQueue::FarPop(HeapKey key) {
  if (mode_ == QueueMode::kCalendar) {
    CalendarPop(key);
  } else {
    heap_.pop();
  }
}

// --- calendar store ----------------------------------------------------------

void EventQueue::CalendarInsert(HeapKey key) {
  if (cal_buckets_.empty()) cal_buckets_.resize(kCalendarMinBuckets);
  const SimTime t = TimeOf(key);
  cal_max_time_ = std::max(cal_max_time_, t);
  std::vector<HeapKey>& b = cal_buckets_[CalendarBucketIndex(t)];
  b.insert(std::upper_bound(b.begin(), b.end(), key, std::greater<HeapKey>()),
           key);
  ++cal_size_;
  // Fold into the min cache: the new key is live, so if it undercuts the
  // cached minimum it becomes the minimum.
  if (cal_min_valid_ && key < cal_min_) cal_min_ = key;
  if (cal_size_ > 2 * cal_buckets_.size()) CalendarRebuild(kCalendarMinBuckets);
}

bool EventQueue::CalendarPeek(HeapKey* key) {
  if (cal_min_valid_ && !IsStale(cal_min_)) {
    *key = cal_min_;
    return true;
  }
  cal_min_valid_ = false;
  if (cal_size_ == 0) return false;
  const size_t n = cal_buckets_.size();
  // Rotate from now_'s bucket: every stored live key is >= now_ (schedule-
  // in-past is checked), so the first bucket whose minimum falls inside its
  // current-year window holds the global minimum — equal times always share
  // a bucket, so the tie-break never crosses buckets. Stale backs are purged
  // as they surface; stale keys elsewhere in a bucket wait their turn.
  uint64_t year = static_cast<uint64_t>(now_ / cal_width_);
  SimTime top = static_cast<SimTime>(year + 1) * cal_width_;
  size_t cur = static_cast<size_t>(year) & (n - 1);
  for (size_t rot = 0; rot < n; ++rot) {
    std::vector<HeapKey>& b = cal_buckets_[cur];
    while (!b.empty() && IsStale(b.back())) {
      b.pop_back();
      AUDIT_CHECK(cal_size_ > 0) << "calendar occupancy underflow";
      --cal_size_;
    }
    if (!b.empty() && TimeOf(b.back()) < top) {
      cal_min_ = b.back();
      cal_min_valid_ = true;
      *key = cal_min_;
      return true;
    }
    cur = (cur + 1) & (n - 1);
    top += cal_width_;
  }
  // Direct search: everything left is at least a full rotation ahead of
  // now_ (sparse far future). Take the min over bucket minima.
  bool found = false;
  HeapKey best = 0;
  for (std::vector<HeapKey>& b : cal_buckets_) {
    while (!b.empty() && IsStale(b.back())) {
      b.pop_back();
      AUDIT_CHECK(cal_size_ > 0) << "calendar occupancy underflow";
      --cal_size_;
    }
    if (!b.empty() && (!found || b.back() < best)) {
      best = b.back();
      found = true;
    }
  }
  if (!found) return false;
  cal_min_ = best;
  cal_min_valid_ = true;
  *key = cal_min_;
  return true;
}

void EventQueue::CalendarPop(HeapKey key) {
  std::vector<HeapKey>& b = cal_buckets_[CalendarBucketIndex(TimeOf(key))];
  // The popped key came from CalendarPeek, which purged stale backs of its
  // bucket, so the bucket minimum must be exactly this key.
  AUDIT_CHECK(!b.empty() && b.back() == key)
      << "calendar popped a key that is not its bucket's minimum";
  b.pop_back();
  AUDIT_CHECK(cal_size_ > 0) << "calendar occupancy underflow";
  --cal_size_;
  cal_min_valid_ = false;
  if (cal_buckets_.size() > kCalendarMinBuckets &&
      cal_size_ < cal_buckets_.size() / 4) {
    CalendarRebuild(kCalendarMinBuckets);
  }
}

void EventQueue::CalendarRebuild(size_t min_buckets) {
  // Occupancy contract: cal_size_ must equal the number of stored keys — a
  // drifted counter means an insert/pop path double-counted or leaked.
  size_t stored = 0;
  for (const std::vector<HeapKey>& b : cal_buckets_) stored += b.size();
  AUDIT_CHECK(stored == cal_size_)
      << "calendar bucket occupancy diverged: counted " << stored
      << " stored keys, occupancy counter says " << cal_size_;
  std::vector<HeapKey> live;
  live.reserve(cal_size_);
  SimTime lo = 0.0, hi = 0.0;
  for (std::vector<HeapKey>& b : cal_buckets_) {
    for (HeapKey k : b) {
      if (IsStale(k)) continue;
      const SimTime t = TimeOf(k);
      if (live.empty()) {
        lo = hi = t;
      } else {
        lo = std::min(lo, t);
        hi = std::max(hi, t);
      }
      live.push_back(k);
    }
    b.clear();
  }
  const size_t n = std::max(min_buckets, NextPow2(live.size()));
  cal_buckets_.assign(n, {});
  const double floor_w = std::max(1e-9, cal_max_time_ * 1e-12);
  cal_width_ =
      std::max(floor_w, (hi - lo) / static_cast<double>(std::max<size_t>(
                            1, live.size())));
  cal_size_ = 0;
  cal_min_valid_ = false;
  for (HeapKey k : live) {
    std::vector<HeapKey>& b = cal_buckets_[CalendarBucketIndex(TimeOf(k))];
    b.insert(std::upper_bound(b.begin(), b.end(), k, std::greater<HeapKey>()),
             k);
    ++cal_size_;
  }
}

// --- unified peek/pop --------------------------------------------------------

bool EventQueue::PeekEarliest(HeapKey* key, bool* from_far) {
  // Skip cancelled fronts lazily; the FIFO storage is recycled once drained.
  while (imm_head_ < immediate_.size() && IsStale(immediate_[imm_head_])) {
    ++imm_head_;
  }
  if (imm_head_ == immediate_.size() && imm_head_ != 0) {
    immediate_.clear();
    imm_head_ = 0;
  }
  HeapKey far;
  const bool have_far = FarPeek(&far);
  const bool have_imm = imm_head_ < immediate_.size();
  if (!have_imm && !have_far) return false;
  // Queued immediates all carry time == now_, which ties or beats every
  // far entry's time, so one key compare resolves the FIFO/seq order too.
  if (have_imm && (!have_far || immediate_[imm_head_] < far)) {
    *key = immediate_[imm_head_];
    *from_far = false;
  } else {
    *key = far;
    *from_far = true;
  }
  return true;
}

bool EventQueue::RunOne() {
  HeapKey e;
  bool from_far = false;
  if (!PeekEarliest(&e, &from_far)) return false;
  if (from_far) {
    FarPop(e);
  } else {
    ++imm_head_;
  }
  // Pop contracts: virtual time never runs backwards (the heap key order is
  // the clock), and the popped key's generation must match its slot — a
  // mismatch here means PeekEarliest leaked a stale entry, which would fire
  // a cancelled (or someone else's) callback.
  AUDIT_CHECK(TimeOf(e) >= now_)
      << "event queue popped into the past: event t=" << TimeOf(e)
      << " now=" << now_;
  AUDIT_CHECK(slab_[SlotOf(e)].seq == SeqOf(e))
      << "popped a stale heap key: slot " << SlotOf(e) << " holds seq "
      << slab_[SlotOf(e)].seq << ", key carries " << SeqOf(e);
  // Move the callback out and free the slot before firing: the callback
  // may schedule (reusing this slot) or grow the slab reentrantly.
  const uint32_t slot = SlotOf(e);
  EventFn fn = std::move(slab_[slot].fn);
  FreeSlot(slot);
  --live_;
  AUDIT_CHECK(live_ + free_slots_.size() == slab_.size())
      << "event slab slot accounting diverged: live=" << live_
      << " free=" << free_slots_.size() << " slab=" << slab_.size();
  now_ = TimeOf(e);
  ++fired_;
  fn();
  return true;
}

void EventQueue::RunUntilEmpty() {
  while (RunOne()) {
  }
}

void EventQueue::RunUntil(SimTime t) {
  AMR_CHECK(t >= now_);
  t += 0.0;  // normalize -0.0 so future now_ comparisons stay exact
  HeapKey e;
  bool from_far = false;
  while (PeekEarliest(&e, &from_far)) {
    if (TimeOf(e) > t) break;
    RunOne();
  }
  now_ = t;
}

}  // namespace asyncmr::sim
