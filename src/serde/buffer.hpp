// Growable byte buffer: the unit of data exchanged through the simulated
// network, DFS blocks, and shuffle segments. Byte counts from these buffers
// feed the cost model, so everything that "moves" in the simulation is
// actually serialized.
//
// The buffer owns raw storage (pointer, size, capacity). Appends are one
// capacity compare and a memcpy; growth doubles out of line and never
// zero-fills, since every byte below size() was written by an append.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <utility>

namespace asyncmr::serde {

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::span<const uint8_t> bytes) { Append(bytes.data(), bytes.size()); }

  Buffer(const Buffer& other) : Buffer(other.view()) {}
  Buffer& operator=(const Buffer& other) {
    if (this != &other) {
      size_ = 0;
      Append(other.data_, other.size_);
    }
    return *this;
  }
  Buffer(Buffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }
  ~Buffer() { std::free(data_); }

  const uint8_t* data() const { return data_; }
  uint8_t* data() { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }
  void reserve(size_t n) {
    if (n > capacity_) Reallocate(n);
  }

  void Append(const void* src, size_t n) {
    if (n > capacity_ - size_) Grow(n);
    if (n != 0) std::memcpy(data_ + size_, src, n);
    size_ += n;
  }

  void AppendByte(uint8_t b) {
    if (size_ == capacity_) Grow(1);
    data_[size_++] = b;
  }

  /// Appends the bytes `fill(dst)` writes to dst, at most max of them;
  /// `fill` returns how many it wrote. Lets an encoder write in place, with
  /// no copy through a scratch array.
  template <typename Fill>
  void AppendUpTo(size_t max, Fill fill) {
    if (max > capacity_ - size_) Grow(max);
    size_ += fill(data_ + size_);
  }

  /// Inserts n bytes at the front (memmove of the payload, no new buffer —
  /// lets KvWriter::Finish prepend its header without copying the stream).
  void Prepend(const void* src, size_t n) {
    if (n > capacity_ - size_) Grow(n);
    if (n == 0) return;
    if (size_ != 0) std::memmove(data_ + n, data_, size_);
    std::memcpy(data_, src, n);
    size_ += n;
  }

  std::span<const uint8_t> view() const { return {data_, size_}; }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.size_ == b.size_ && (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

 private:
  /// Makes room for n more bytes: at least doubles the capacity.
  void Grow(size_t n);
  /// Moves the payload into storage of exactly `capacity` bytes.
  void Reallocate(size_t capacity);

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace asyncmr::serde
