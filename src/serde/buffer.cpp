#include "serde/buffer.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/check.hpp"

namespace asyncmr::serde {

void Buffer::Grow(size_t n) { Reallocate(std::max(capacity_ * 2, size_ + n)); }

void Buffer::Reallocate(size_t capacity) {
  void* grown = std::realloc(data_, capacity);
  AMR_CHECK(grown != nullptr) << "out of memory growing a buffer to " << capacity << " bytes";
  data_ = static_cast<uint8_t*>(grown);
  capacity_ = capacity;
}

}  // namespace asyncmr::serde
