// Typed key-value record streams: the on-the-wire representation of map
// outputs. A KvWriter appends encoded (K,V) records to a buffer; a KvReader
// iterates them back. Shuffle segments, DFS iteration outputs, and RPC
// payloads are all KvStreams, so "bytes moved" in the cost model equals the
// real encoded size of the data.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "serde/serde.hpp"

namespace asyncmr::serde {

template <typename K, typename V>
class KvWriter {
 public:
  KvWriter() = default;

  void Add(const K& key, const V& value) {
    Writer w(buffer_);
    Serde<K>::Write(w, key);
    Serde<V>::Write(w, value);
    ++count_;
  }

  uint64_t count() const { return count_; }
  size_t byte_size() const { return buffer_.size(); }
  const Buffer& buffer() const { return buffer_; }

  /// Pre-sizes the record buffer (e.g. from a known encoded size).
  void Reserve(size_t bytes) { buffer_.reserve(bytes); }

  /// Clears the stream for reuse; the buffer keeps its capacity.
  void Reset() {
    buffer_.clear();
    count_ = 0;
  }

  /// Finalizes into a length-prefixed stream buffer. Prepends the header
  /// into the accumulation buffer and moves it out — no second copy of the
  /// record payload.
  Buffer Finish() && {
    uint8_t header[kMaxVarU64Bytes];
    const size_t n = EncodeVarU64(count_, header);
    buffer_.Prepend(header, n);
    return std::move(buffer_);
  }

 private:
  Buffer buffer_;
  uint64_t count_ = 0;
};

template <typename K, typename V>
class KvReader {
 public:
  explicit KvReader(std::span<const uint8_t> bytes) : reader_(bytes) {
    status_ = reader_.ReadVarU64(count_);
  }
  explicit KvReader(const Buffer& buf) : KvReader(buf.view()) {}
  /// The reader holds a view into the buffer, not a copy — a temporary would
  /// dangle before the first Next().
  explicit KvReader(Buffer&&) = delete;

  /// Records announced by the stream header.
  uint64_t count() const { return count_; }

  /// Reads the next record. Returns false at end-of-stream; check status()
  /// afterwards to distinguish clean EOF from corruption.
  bool Next(K& key, V& value) {
    if (!status_.ok() || read_ >= count_) return false;
    // status_ is only assigned on failure, so a clean record costs no
    // Status move.
    if (Status s = Serde<K>::Read(reader_, key); !s.ok()) return Fail(std::move(s));
    if (Status s = Serde<V>::Read(reader_, value); !s.ok()) return Fail(std::move(s));
    ++read_;
    return true;
  }

  Status status() const { return status_; }

  /// Drains the stream into a vector; returns error on corruption.
  Result<std::vector<std::pair<K, V>>> ReadAll() {
    std::vector<std::pair<K, V>> out;
    out.reserve(static_cast<size_t>(count_));
    K k{};
    V v{};
    while (Next(k, v)) out.emplace_back(std::move(k), std::move(v));
    if (!status_.ok()) return status_;
    if (read_ != count_) return Status::DataLoss("kv stream shorter than header count");
    return out;
  }

 private:
  bool Fail(Status s) {
    status_ = std::move(s);
    return false;
  }

  Reader reader_{std::span<const uint8_t>{}};
  uint64_t count_ = 0;
  uint64_t read_ = 0;
  Status status_;
};

/// Encodes a vector of pairs as a KvStream buffer.
template <typename K, typename V>
Buffer EncodeKvStream(const std::vector<std::pair<K, V>>& records) {
  KvWriter<K, V> w;
  for (const auto& [k, v] : records) w.Add(k, v);
  return std::move(w).Finish();
}

}  // namespace asyncmr::serde
