#include "grid/cell_index.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "data/point_set.h"

namespace dbscout::grid {
namespace {

/// A deterministic spread of distinct coordinates of the given dims,
/// including negative and very large components.
CellCoord KeyFor(size_t i, size_t dims) {
  CellCoord c = CellCoord::Zero(dims);
  const int64_t v = static_cast<int64_t>(i);
  for (size_t k = 0; k < dims; ++k) {
    c[k] = (k % 2 == 0 ? v : -v) * static_cast<int64_t>(k + 1);
  }
  c[dims - 1] += (i % 3 == 0) ? int64_t{4'000'000'000'000'000'000}
                              : int64_t{-4'000'000'000'000'000'000};
  return c;
}

class CellIndexDimsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CellIndexDimsTest, FindsEveryKeyAcrossGrowthsAndRejectsAbsentOnes) {
  const size_t dims = GetParam();
  CellIndex index(dims);
  // Enough keys for at least three doublings of the initial table.
  const size_t n = 8 * CellIndex::kInitialCapacity + 3;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(index.Find(KeyFor(i, dims)), CellIndex::kAbsent) << i;
    EXPECT_EQ(index.Insert(KeyFor(i, dims)), i);
  }
  EXPECT_EQ(index.size(), n);
  EXPECT_GE(index.table()->capacity(), 8 * CellIndex::kInitialCapacity);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(index.Find(KeyFor(i, dims)), i) << i;
  }
  for (size_t i = n; i < 2 * n; ++i) {
    EXPECT_EQ(index.Find(KeyFor(i, dims)), CellIndex::kAbsent) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, CellIndexDimsTest,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                           kMaxDims));

TEST(CellIndexTest, NeighboringAndExtremeKeysStayDistinct) {
  CellIndex index(2);
  const int64_t big = 4'000'000'000'000'000'000;
  const std::vector<std::vector<int64_t>> keys = {
      {0, 0}, {0, 1}, {1, 0}, {-1, 0}, {0, -1}, {-1, -1},
      {big, 0}, {-big, 0}, {big, -big}, {-big, big}, {big, big}};
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.Insert(CellCoord(keys[i])), i);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(index.Find(CellCoord(keys[i])), i);
  }
  const std::vector<int64_t> absent[] = {{1, 1}, {-big, -big}, {big, 1}};
  for (const auto& key : absent) {
    EXPECT_EQ(index.Find(CellCoord(key)), CellIndex::kAbsent);
  }
}

TEST(CellIndexTest, SharedTableKeepsItsKeysAndStopsChangingAfterGrowth) {
  CellIndex index(2);
  const size_t first = CellIndex::kInitialCapacity / 2 - 1;
  for (size_t i = 0; i < first; ++i) {
    index.Insert(KeyFor(i, 2));
  }
  const auto held = index.table();
  // One more key still fits this generation: a holder sees it appear (and
  // must treat ids beyond its own bound as absent).
  index.Insert(KeyFor(first, 2));
  EXPECT_EQ(held->Find(KeyFor(first, 2)), first);
  // The next inserts grow the index twice; the held generation is no
  // longer written and still answers for every key it had.
  for (size_t i = first + 1; i < 4 * CellIndex::kInitialCapacity; ++i) {
    index.Insert(KeyFor(i, 2));
  }
  EXPECT_NE(index.table(), held);
  EXPECT_EQ(held->capacity(), CellIndex::kInitialCapacity);
  for (size_t i = 0; i <= first; ++i) {
    EXPECT_EQ(held->Find(KeyFor(i, 2)), i);
  }
  for (size_t i = first + 1; i < 4 * CellIndex::kInitialCapacity; ++i) {
    EXPECT_EQ(held->Find(KeyFor(i, 2)), CellIndex::kAbsent);
    EXPECT_EQ(index.Find(KeyFor(i, 2)), i);
  }
}

}  // namespace
}  // namespace dbscout::grid
