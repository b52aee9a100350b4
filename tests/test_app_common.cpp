// Unit tests: the shared app helpers — DenseAccumulator against a std::map
// reference.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "apps/app_common.hpp"
#include "common/rng.hpp"

namespace asyncmr::apps {
namespace {

using Pairs = std::vector<std::pair<uint32_t, double>>;

enum class Combine { kAdd, kMin };

// Random indices with many repeats, always including the word boundaries
// 0, 63, 64 and the last index.
std::vector<uint32_t> RandomIndices(Rng& rng, uint32_t n, size_t count) {
  std::vector<uint32_t> indices{0, 63, 64, n - 1, 0, n - 1};
  const auto hot = static_cast<uint32_t>(rng.NextBounded(n));
  while (indices.size() < count) {
    indices.push_back(rng.NextBool(0.2) ? hot : static_cast<uint32_t>(rng.NextBounded(n)));
  }
  return indices;
}

// Applies one round of random updates to acc and to a std::map reference,
// then checks the drain against the reference.
void CheckRound(DenseAccumulator& acc, Rng& rng, uint32_t n, Combine combine) {
  std::map<uint32_t, double> reference;
  for (uint32_t index : RandomIndices(rng, n, 3 * n / 4)) {
    const double value = rng.NextDouble(-10.0, 10.0);
    if (combine == Combine::kAdd) {
      acc.Add(index, value);
      reference[index] += value;
    } else {
      acc.Min(index, value);
      auto [it, inserted] = reference.emplace(index, value);
      if (!inserted && value < it->second) it->second = value;
    }
  }
  EXPECT_EQ(acc.touched_count(), reference.size());

  const Pairs drained = acc.DrainSorted();
  const Pairs expected(reference.begin(), reference.end());
  EXPECT_EQ(drained, expected);  // ascending, exact values
  EXPECT_EQ(acc.touched_count(), 0u);
  EXPECT_TRUE(acc.DrainSorted().empty());
}

TEST(DenseAccumulator, AddMatchesMapReferenceAcrossReuse) {
  Rng rng(11);
  for (uint32_t n : {65u, 128u, 1000u}) {
    DenseAccumulator acc(n);
    for (int round = 0; round < 5; ++round) CheckRound(acc, rng, n, Combine::kAdd);
  }
}

TEST(DenseAccumulator, MinMatchesMapReferenceAcrossReuse) {
  Rng rng(12);
  for (uint32_t n : {65u, 128u, 1000u}) {
    DenseAccumulator acc(n);
    for (int round = 0; round < 5; ++round) CheckRound(acc, rng, n, Combine::kMin);
  }
}

TEST(DenseAccumulator, ReusedAccumulatorStartsFromZero) {
  DenseAccumulator acc(200);
  acc.Add(64, 5.0);
  acc.Add(199, -1.0);
  acc.Min(0, 3.0);
  ASSERT_EQ(acc.DrainSorted(), (Pairs{{0, 3.0}, {64, 5.0}, {199, -1.0}}));

  // A drained slot holds no residue: Add starts from 0, and Min takes the
  // first value even when it is larger than the drained one.
  acc.Add(64, 0.25);
  acc.Min(0, 7.0);
  EXPECT_EQ(acc.touched_count(), 2u);
  EXPECT_EQ(acc.DrainSorted(), (Pairs{{0, 7.0}, {64, 0.25}}));
}

}  // namespace
}  // namespace asyncmr::apps
