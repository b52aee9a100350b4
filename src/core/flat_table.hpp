// FlatTable: the local MapReduce runtime's hashtable — flat storage, and
// iteration in first-insertion order.
//
// Entries live contiguously in a std::vector<std::pair<K, V>> in the order
// their keys were first inserted. A power-of-two, linear-probing index of
// uint32_t entry positions finds them: a key's home slot is std::hash<K>
// scrambled by a Fibonacci multiply, high bits taken. Lookups touch one index
// slot and one entry in the common case instead of chasing list nodes, and
// copy-assignment, clear() and reuse across local iterations recycle both
// buffers rather than reallocating one node per key.
//
// Determinism: iteration order is a pure function of the insertion sequence;
// the hash layout never reaches it. There is no erase — the local runtime
// never removes a key, and dropping erase keeps the order contract trivial.
//
// Under AMR_AUDIT every rehash re-verifies the index: each entry is reachable
// by probing from its key's home slot, and the occupied-slot count equals
// size().
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace asyncmr::core {

template <typename K, typename V>
class FlatTable {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatTable() = default;
  FlatTable(std::initializer_list<value_type> init) {
    reserve(init.size());
    for (const value_type& kv : init) try_emplace(kv.first, kv.second);
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  /// Makes room for n entries without a rehash.
  void reserve(size_t n) {
    entries_.reserve(n);
    if (n * kLoadDenominator > slots_.size()) Rehash(n);
  }

  /// Drops every entry; both buffers keep their capacity.
  void clear() {
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), kEmpty);
  }

  iterator find(const K& key) {
    const uint32_t pos = Lookup(key);
    return pos == kEmpty ? end() : begin() + pos;
  }
  const_iterator find(const K& key) const {
    const uint32_t pos = Lookup(key);
    return pos == kEmpty ? end() : begin() + pos;
  }
  size_t count(const K& key) const { return Lookup(key) == kEmpty ? 0 : 1; }

  V& at(const K& key) {
    const uint32_t pos = Lookup(key);
    AMR_CHECK(pos != kEmpty) << "FlatTable::at: key not present";
    return entries_[pos].second;
  }
  const V& at(const K& key) const {
    const uint32_t pos = Lookup(key);
    AMR_CHECK(pos != kEmpty) << "FlatTable::at: key not present";
    return entries_[pos].second;
  }

  /// Inserts (key, V(args...)) at the end of the order unless key is present.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    if ((entries_.size() + 1) * kLoadDenominator > slots_.size()) {
      Rehash(entries_.size() + 1);
    }
    size_t slot = HomeSlot(key);
    for (;; slot = (slot + 1) & mask_) {
      const uint32_t pos = slots_[slot];
      if (pos == kEmpty) break;
      if (entries_[pos].first == key) return {begin() + pos, false};
    }
    const uint32_t pos = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    slots_[slot] = pos;
    return {begin() + pos, true};
  }
  template <typename... Args>
  std::pair<iterator, bool> emplace(const K& key, Args&&... args) {
    return try_emplace(key, std::forward<Args>(args)...);
  }
  V& operator[](const K& key) { return try_emplace(key).first->second; }

#ifdef AMR_AUDIT
  /// Test-only: rewrites the key stored at entry `pos` without re-indexing.
  /// Giving it another entry's key plants a duplicate that the next rehash's
  /// reachability contract must catch. Compiled only under AMR_AUDIT.
  void TestOnlyOverwriteKey(size_t pos, const K& key) { entries_[pos].first = key; }
#endif

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  /// The index stays at most 1/kLoadDenominator full.
  static constexpr size_t kLoadDenominator = 2;
  static constexpr size_t kMinSlots = 16;

  size_t HomeSlot(const K& key) const {
    const uint64_t h = static_cast<uint64_t>(std::hash<K>{}(key));
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Entry position of key, or kEmpty.
  uint32_t Lookup(const K& key) const {
    if (slots_.empty()) return kEmpty;
    for (size_t slot = HomeSlot(key);; slot = (slot + 1) & mask_) {
      const uint32_t pos = slots_[slot];
      if (pos == kEmpty || entries_[pos].first == key) return pos;
    }
  }

  /// Rebuilds the index with room for at least n entries. Keys are unique, so
  /// each entry goes to the first empty slot of its probe chain.
  void Rehash(size_t n) {
    const size_t slots = std::bit_ceil(std::max(kMinSlots, n * kLoadDenominator));
    slots_.assign(slots, kEmpty);
    mask_ = slots - 1;
    shift_ = 64 - std::countr_zero(slots);
    for (size_t pos = 0; pos < entries_.size(); ++pos) {
      size_t slot = HomeSlot(entries_[pos].first);
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask_;
      slots_[slot] = static_cast<uint32_t>(pos);
    }
    AMR_IF_AUDIT(AuditIndex());
  }

#ifdef AMR_AUDIT
  void AuditIndex() const {
    const size_t occupied = static_cast<size_t>(
        std::count_if(slots_.begin(), slots_.end(), [](uint32_t s) { return s != kEmpty; }));
    AUDIT_CHECK(occupied == entries_.size())
        << "flat table index occupancy diverged: " << occupied
        << " occupied slots, size() is " << entries_.size();
    for (size_t pos = 0; pos < entries_.size(); ++pos) {
      AUDIT_CHECK(Lookup(entries_[pos].first) == pos)
          << "flat table entry " << pos << " unreachable from its home slot";
    }
  }
#endif

  std::vector<value_type> entries_;  // first-insertion order
  std::vector<uint32_t> slots_;      // entry positions; kEmpty marks a hole
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace asyncmr::core
