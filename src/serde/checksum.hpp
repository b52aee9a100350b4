// CRC32 (IEEE, table-driven, slicing-by-8). The simulated DFS records one per
// block on write (BlockMeta::checksum), and async checkpoints store one per
// slot and verify it on restore. DFS reads do not recompute block CRCs:
// replica corruption is modeled by the namenode's replica_corrupt flags.
#pragma once

#include <cstdint>
#include <span>

namespace asyncmr::serde {

/// CRC-32 (IEEE 802.3 polynomial, reflected).
uint32_t Crc32(std::span<const uint8_t> bytes, uint32_t seed = 0);

}  // namespace asyncmr::serde
