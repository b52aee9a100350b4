// Helpers shared by the benchmark applications (PageRank, SSSP, K-Means,
// and the extension apps): per-partition graph views and dense contribution
// accumulators used to pre-combine map emissions efficiently.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "async/async_engine.hpp"
#include "core/metrics.hpp"
#include "graph/partition.hpp"

namespace asyncmr::apps {

/// Sentinel for "unreached" distances.
inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// The single aggregate round every async app reports: engine time span,
/// ops, bytes pushed, total worker iterations (as local_iterations) and the
/// final residual.
core::RunTrace AsyncRunTrace(const std::string& name,
                             const async::AsyncResult& result);

/// Per-partition view of a digraph: members plus, for each member, its
/// out-neighbors split into partition-internal targets and all targets.
/// Built once per (graph, partitioning); iterations only read it.
struct PartitionView {
  // Flattened member list per partition.
  std::vector<std::vector<graph::VertexId>> members;
  // For each partition, for each member (parallel to members[p]):
  // indices into the graph's CSR row of targets inside the same partition.
  std::vector<std::vector<std::vector<uint32_t>>> internal_target_index;

  static PartitionView Build(const graph::Digraph& g, const graph::Partitioning& p);
};

/// Dense accumulator for pre-combining (target, double) contributions inside
/// one map task without hashing: O(edges + size/64) per use, reusable across
/// tasks. Touched entries are tracked in a bitset, so they drain in ascending
/// index order without a sort.
class DenseAccumulator {
 public:
  explicit DenseAccumulator(uint32_t size)
      : values_(size, 0.0), touched_bits_((size + 63) / 64, 0) {}

  void Add(uint32_t index, double value) {
    Touch(index);
    values_[index] += value;
  }

  /// Minimum-combine variant (SSSP).
  void Min(uint32_t index, double value) {
    if (Touch(index) || value < values_[index]) values_[index] = value;
  }

  /// Ascending (index, value) pairs; clears the accumulator for reuse.
  std::vector<std::pair<uint32_t, double>> DrainSorted();

  size_t touched_count() const { return touched_count_; }

 private:
  /// Marks index touched; true when it was untouched before.
  bool Touch(uint32_t index) {
    uint64_t& word = touched_bits_[index >> 6];
    const uint64_t bit = uint64_t{1} << (index & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++touched_count_;
    return true;
  }

  std::vector<double> values_;
  std::vector<uint64_t> touched_bits_;
  size_t touched_count_ = 0;
};

}  // namespace asyncmr::apps
