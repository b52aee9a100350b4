// Per-peer iteration clocks for the barrier-free asynchronous engine.
//
// ClockTable tracks, per peer partition, the highest iteration count
// ("clock") observed from that peer, and answers the bounded-staleness
// admission question: may a worker start its k-th iteration yet? The engine
// keeps one per worker for its gate; StateStore (state_store.hpp) keeps one
// beside its versioned views.
//
// Staleness semantics (SSP-style): with bound S, a worker may start its k-th
// iteration (1-based) only once every tracked peer has completed at least
// k - 1 - S iterations. The gate bounds *lag*, not *lead*: iteration k is
// guaranteed to see every peer's k-1-S updates, but fresher updates that
// happen to have arrived are visible too (the usual SSP contract). S = 0
// therefore gives synchronized rounds — no worker computes on state older
// than the previous round — which is the barrier-strength A/B baseline for
// the asynchronous modes. S = kUnboundedStaleness disables the gate entirely
// (pure asynchrony).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace asyncmr::async {

/// Staleness bound meaning "no bound": workers never wait for peers.
inline constexpr uint32_t kUnboundedStaleness =
    std::numeric_limits<uint32_t>::max();

class ClockTable {
 public:
  ClockTable() = default;
  explicit ClockTable(std::vector<uint32_t> peers)
      : peers_(std::move(peers)), clocks_(peers_.size(), 0) {
    uint32_t max_peer = 0;
    for (uint32_t p : peers_) max_peer = std::max(max_peer, p);
    // Peer -> index lookup replaces the old linear scan per observation
    // (which made all-to-all rounds quadratic per partition). When the peer
    // id space is dense (the all-to-all case) a direct table gives O(1) at
    // memory proportional to the peer list itself; for sparse topologies at
    // large P a dense table would cost O(max peer id) per partition, so fall
    // back to binary search over a sorted copy — O(log d), O(d) memory.
    if (!peers_.empty() &&
        static_cast<size_t>(max_peer) < 4 * peers_.size() + 64) {
      index_of_.assign(static_cast<size_t>(max_peer) + 1, kNotAPeer);
      for (size_t i = 0; i < peers_.size(); ++i) {
        AMR_CHECK(index_of_[peers_[i]] == kNotAPeer)
            << "duplicate peer partition " << peers_[i];
        index_of_[peers_[i]] = static_cast<uint32_t>(i);
      }
    } else {
      sorted_.reserve(peers_.size());
      for (size_t i = 0; i < peers_.size(); ++i) {
        sorted_.emplace_back(peers_[i], static_cast<uint32_t>(i));
      }
      std::sort(sorted_.begin(), sorted_.end());
      for (size_t i = 1; i < sorted_.size(); ++i) {
        AMR_CHECK(sorted_[i - 1].first != sorted_[i].first)
            << "duplicate peer partition " << sorted_[i].first;
      }
    }
  }

  /// Records that `peer` has completed `clock` iterations (monotone).
  /// Returns true if the observation advanced the peer's clock.
  bool Observe(uint32_t peer, uint32_t clock) {
    const size_t i = IndexOf(peer);
    if (clock <= clocks_[i]) return false;
    clocks_[i] = clock;
    return true;
  }

  /// Forcibly sets `peer`'s clock, allowing a decrease: a crashed peer
  /// resumed from a checkpoint at a lower iteration clock, and the staleness
  /// gate must see the rollback or it would admit iterations the SSP lag
  /// bound no longer justifies against that peer.
  void Reset(uint32_t peer, uint32_t clock) { clocks_[IndexOf(peer)] = clock; }

  /// Observed clocks, parallel to peers() — the mutable slice of this table,
  /// captured into worker checkpoints.
  const std::vector<uint32_t>& clock_values() const { return clocks_; }

  /// Restores the observed clocks from a checkpoint (peer list must match).
  void RestoreClockValues(const std::vector<uint32_t>& values) {
    AMR_CHECK_EQ(values.size(), clocks_.size());
    clocks_ = values;
  }

  uint32_t clock_of(uint32_t peer) const { return clocks_[IndexOf(peer)]; }

  /// Minimum observed clock; max uint32 when no peers are tracked.
  uint32_t min_clock() const {
    uint32_t m = std::numeric_limits<uint32_t>::max();
    for (uint32_t c : clocks_) m = std::min(m, c);
    return m;
  }

  /// Maximum observed clock; 0 when no peers are tracked.
  uint32_t max_clock() const {
    uint32_t m = 0;
    for (uint32_t c : clocks_) m = std::max(m, c);
    return m;
  }

  /// Bounded-staleness gate for starting the `iteration`-th (1-based)
  /// iteration under bound `staleness` (see file comment).
  bool AdmitsIteration(uint32_t iteration, uint32_t staleness) const {
    if (staleness == kUnboundedStaleness || peers_.empty()) return true;
    const int64_t need =
        static_cast<int64_t>(iteration) - 1 - static_cast<int64_t>(staleness);
    if (need <= 0) return true;
    return static_cast<int64_t>(min_clock()) >= need;
  }

  const std::vector<uint32_t>& peers() const { return peers_; }

  /// Index of `peer` in peers() — O(1) dense / O(log d) sparse; checks
  /// membership.
  size_t IndexOf(uint32_t peer) const {
    if (!index_of_.empty()) {
      AMR_CHECK(peer < index_of_.size() && index_of_[peer] != kNotAPeer)
          << "unknown peer partition " << peer;
      return index_of_[peer];
    }
    const auto it = std::lower_bound(
        sorted_.begin(), sorted_.end(),
        std::pair<uint32_t, uint32_t>{peer, 0});
    AMR_CHECK(it != sorted_.end() && it->first == peer)
        << "unknown peer partition " << peer;
    return it->second;
  }

 private:
  static constexpr uint32_t kNotAPeer = std::numeric_limits<uint32_t>::max();

  std::vector<uint32_t> peers_;
  std::vector<uint32_t> clocks_;    // parallel to peers_
  std::vector<uint32_t> index_of_;  // dense: peer id -> index (empty if sparse)
  std::vector<std::pair<uint32_t, uint32_t>> sorted_;  // sparse: (peer, index)
};

}  // namespace asyncmr::async
