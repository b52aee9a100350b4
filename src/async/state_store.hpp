// Versioned receive state for the barrier-free asynchronous engine.
//
// StateStore<V> is a ClockTable (clock_table.hpp) plus one versioned
// key/value view per in-peer. Put() records a peer's value for a key at the
// sender's iteration clock and returns the value it replaces, so
// applications can maintain aggregates (sums, mins) incrementally as entries
// are overwritten. The clock guards against out-of-order delivery: the fluid
// network model completes flows by remaining bytes, so a sender's later
// (smaller) batch can land before an earlier large one — for replacement
// semantics the late stale record must be rejected, or it would overwrite
// the fresher value and the sender's delta filter would never repair it.
//
// Each record also carries the sender's *epoch* for checkpoint/replay fault
// tolerance: a worker that crashes restarts from its last checkpoint with a
// bumped epoch and an iteration clock that rolled BACK, so its re-sent
// records carry (newer epoch, lower clock). Versions compare
// lexicographically by (epoch, clock): a newer epoch always wins — the clock
// guard alone would wrongly reject the restarted sender's fresh state as
// stale — while a record from a dead epoch is rejected even if its clock is
// higher, because the sender's post-restart trajectory supersedes it.
//
// Layout: every in-peer sends a fixed set of keys, known before the run (a
// graph app's out-group targets, K-Means' centroid ids). Each view holds
// that *receive domain* as an ascending key list and, parallel to it, one
// dense slot per key plus a presence flag; nothing is hashed. One emission
// arrives in ascending key order and a coalesced batch is several such runs
// joined, so Put() finds its slot with a per-view cursor: it walks forward
// from the last slot it found, and restarts from the front when a key is
// smaller than the cursor's. A run over a view costs O(domain) in all, not
// O(log domain) per record. SnapshotTo() walks the slots in key order and
// skips absent ones, so the image is the sorted (key, clock, epoch, value)
// list with no sort.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "async/clock_table.hpp"
#include "common/check.hpp"
#include "serde/serde.hpp"

namespace asyncmr::async {

/// Version-monotonicity contract for an applied StateStore write: a write
/// that replaces a stored entry must carry a version that is not older than
/// the one it replaces, under the lexicographic (epoch, clock) order — the
/// Put() guard is supposed to have rejected everything else. A violation
/// means stale out-of-order state overwrote fresher state, which the
/// sender's delta filter can never repair. Checked by Put on every replace
/// under AMR_AUDIT; a free function so negative tests can feed it corrupted
/// version pairs directly (tests/test_audit.cpp).
inline void AuditVersionAdvance(uint32_t prev_epoch, uint32_t prev_clock,
                                uint32_t epoch, uint32_t clock) {
  AUDIT_CHECK(epoch > prev_epoch ||
              (epoch == prev_epoch && clock >= prev_clock))
      << "state-store version regressed: stored (epoch " << prev_epoch
      << ", clock " << prev_clock << ") replaced by (epoch " << epoch
      << ", clock " << clock << ")";
}

template <typename V>
class StateStore {
 public:
  using Key = uint32_t;

  /// A stored value plus the (epoch, clock) version it was produced at.
  struct Entry {
    V value;
    uint32_t clock = 0;
    uint32_t epoch = 0;  // sender incarnation (bumped per restart)
  };

  /// Outcome of a Put: whether the write took effect (false = rejected as a
  /// stale out-of-order delivery) and, when it replaced an entry, the
  /// previous value — so callers can adjust incremental aggregates.
  struct PutResult {
    bool applied = false;
    std::optional<V> replaced;
  };

  StateStore() = default;
  /// domains[i] is the receive domain of peers[i]: every key that peer may
  /// send, strictly ascending.
  StateStore(std::vector<uint32_t> peers, std::vector<std::vector<Key>> domains)
      : clocks_(std::move(peers)) {
    AMR_CHECK_EQ(domains.size(), clocks_.peers().size());
    views_.reserve(domains.size());
    for (size_t i = 0; i < domains.size(); ++i) {
      std::vector<Key>& keys = domains[i];
      AMR_CHECK(std::adjacent_find(keys.begin(), keys.end(), [](Key a, Key b) {
                  return a >= b;
                }) == keys.end())
          << "receive domain of peer " << clocks_.peers()[i]
          << " is not strictly ascending";
      View& view = views_.emplace_back();
      view.entries.resize(keys.size());
      view.present.assign(keys.size(), 0);
      view.keys = std::move(keys);
    }
  }

  /// Records `value` as peer `from`'s state for `key`, produced at the
  /// sender's iteration `clock` in its incarnation `epoch`. Versions order
  /// lexicographically by (epoch, clock): a write older than the stored
  /// entry's version is rejected (see file comment); an equal version is
  /// accepted (idempotent redelivery), and a newer epoch is accepted even at
  /// a lower clock (the sender restarted from a checkpoint). A key outside
  /// `from`'s receive domain is a bug.
  PutResult Put(uint32_t from, Key key, V value, uint32_t clock,
                uint32_t epoch = 0) {
    View& view = views_[clocks_.IndexOf(from)];
    const size_t s = view.Locate(key);
    AMR_CHECK(s < view.keys.size())
        << "key " << key << " is outside peer " << from << "'s receive domain";
    Entry& entry = view.entries[s];
    PutResult result;
    if (view.present[s] == 0) {
      view.present[s] = 1;
      ++view.count;
      entry = Entry{std::move(value), clock, epoch};
      result.applied = true;
      return result;
    }
    if (epoch < entry.epoch || (epoch == entry.epoch && clock < entry.clock)) {
      return result;  // stale delivery (out-of-order or dead-epoch)
    }
    AMR_IF_AUDIT(AuditVersionAdvance(entry.epoch, entry.clock, epoch, clock);)
    result.applied = true;
    result.replaced = std::move(entry.value);
    entry = Entry{std::move(value), clock, epoch};
    return result;
  }

  /// The entry stored from `from` for `key`; nullptr when absent or outside
  /// the receive domain.
  const Entry* Find(uint32_t from, Key key) const {
    const View& view = views_[clocks_.IndexOf(from)];
    const auto it = std::lower_bound(view.keys.begin(), view.keys.end(), key);
    if (it == view.keys.end() || *it != key) return nullptr;
    const auto s = static_cast<size_t>(it - view.keys.begin());
    return view.present[s] != 0 ? &view.entries[s] : nullptr;
  }

  void ObserveClock(uint32_t from, uint32_t clock) { clocks_.Observe(from, clock); }

  bool AdmitsIteration(uint32_t iteration, uint32_t staleness) const {
    return clocks_.AdmitsIteration(iteration, staleness);
  }

  const ClockTable& clocks() const { return clocks_; }

  size_t total_entries() const {
    size_t n = 0;
    for (const View& view : views_) n += view.count;
    return n;
  }

  /// Serializes the mutable state (observed clocks + every per-peer view)
  /// into a worker checkpoint: per view its entry count, then its present
  /// entries in ascending key order. Requires Serde<V>.
  void SnapshotTo(serde::Writer& w) const {
    serde::Serde<std::vector<uint32_t>>::Write(w, clocks_.clock_values());
    for (const View& view : views_) {
      w.WriteVarU64(view.count);
      for (size_t s = 0; s < view.keys.size(); ++s) {
        if (view.present[s] == 0) continue;
        const Entry& entry = view.entries[s];
        w.WriteVarU64(view.keys[s]);
        w.WriteVarU64(entry.clock);
        w.WriteVarU64(entry.epoch);
        serde::Serde<V>::Write(w, entry.value);
      }
    }
  }

  /// Restores the state written by SnapshotTo (the peer list and receive
  /// domains are structural and must already match). A key outside its
  /// view's domain, or one written twice, is DataLoss.
  Status RestoreFrom(serde::Reader& r) {
    std::vector<uint32_t> clock_values;
    AMR_RETURN_IF_ERROR(
        serde::Serde<std::vector<uint32_t>>::Read(r, clock_values));
    if (clock_values.size() != clocks_.peers().size()) {
      return Status::DataLoss("state-store checkpoint peer count mismatch");
    }
    clocks_.RestoreClockValues(clock_values);
    for (View& view : views_) {
      uint64_t n = 0;
      AMR_RETURN_IF_ERROR(r.ReadVarU64(n));
      std::fill(view.present.begin(), view.present.end(), 0);
      view.count = 0;
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t key = 0, clock = 0, epoch = 0;
        AMR_RETURN_IF_ERROR(r.ReadVarU64(key));
        AMR_RETURN_IF_ERROR(r.ReadVarU64(clock));
        AMR_RETURN_IF_ERROR(r.ReadVarU64(epoch));
        const size_t s = key <= std::numeric_limits<Key>::max()
                             ? view.Locate(static_cast<Key>(key))
                             : view.keys.size();
        if (s == view.keys.size()) {
          return Status::DataLoss("state-store checkpoint key outside the receive domain");
        }
        if (view.present[s] != 0) {
          return Status::DataLoss("state-store checkpoint repeats a key");
        }
        Entry& entry = view.entries[s];
        entry.clock = static_cast<uint32_t>(clock);
        entry.epoch = static_cast<uint32_t>(epoch);
        AMR_RETURN_IF_ERROR(serde::Serde<V>::Read(r, entry.value));
        view.present[s] = 1;
        ++view.count;
      }
    }
    return Status::Ok();
  }

 private:
  /// One in-peer's entries: a slot per key of its receive domain.
  struct View {
    std::vector<Key> keys;         // the receive domain, ascending
    std::vector<Entry> entries;    // parallel to keys
    std::vector<uint8_t> present;  // parallel to keys: 1 when entries[s] is set
    size_t count = 0;              // present slots
    size_t cursor = 0;             // the slot Locate last found

    /// The slot of key, or keys.size() when key is outside the domain; walks
    /// from the cursor (see file comment).
    size_t Locate(Key key) {
      size_t s = cursor;
      if (s >= keys.size() || key < keys[s]) s = 0;  // a new ascending run
      while (s < keys.size() && keys[s] < key) ++s;
      if (s == keys.size() || keys[s] != key) return keys.size();
      cursor = s;
      return s;
    }
  };

  ClockTable clocks_;
  std::vector<View> views_;  // parallel to clocks_.peers()
};

}  // namespace asyncmr::async
