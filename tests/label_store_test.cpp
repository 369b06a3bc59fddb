#include "pll/label_store.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace parapll::pll {
namespace {

TEST(QueryRowsTest, CommonHubMinimum) {
  const std::vector<LabelEntry> a = {{0, 5}, {2, 1}, {4, 9}};
  const std::vector<LabelEntry> b = {{1, 2}, {2, 2}, {4, 1}};
  // hub 2: 1+2 = 3; hub 4: 9+1 = 10.
  EXPECT_EQ(QueryRows(a, b), 3u);
}

TEST(QueryRowsTest, NoCommonHubIsInfinite) {
  const std::vector<LabelEntry> a = {{0, 5}};
  const std::vector<LabelEntry> b = {{1, 2}};
  EXPECT_EQ(QueryRows(a, b), graph::kInfiniteDistance);
}

TEST(QueryRowsTest, EmptyRows) {
  const std::vector<LabelEntry> a;
  const std::vector<LabelEntry> b = {{1, 2}};
  EXPECT_EQ(QueryRows(a, b), graph::kInfiniteDistance);
  EXPECT_EQ(QueryRows(a, a), graph::kInfiniteDistance);
}

TEST(MutableLabelsTest, AppendAndIterate) {
  MutableLabels labels(3);
  labels.Append(1, 0, 7);
  labels.Append(1, 1, 0);
  std::vector<LabelEntry> seen;
  labels.ForEach(1, [&seen](graph::VertexId hub, graph::Distance dist) {
    seen.push_back(LabelEntry{hub, dist});
    return false;
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (LabelEntry{0, 7}));
  EXPECT_EQ(labels.TotalEntries(), 2u);
}

TEST(MutableLabelsTest, ForEachStopsWhenTheCallbackSaysSo) {
  MutableLabels labels(1);
  labels.Append(0, 0, 7);
  labels.Append(0, 1, 3);
  labels.Append(0, 2, 1);
  std::size_t calls = 0;
  labels.ForEach(0, [&calls](graph::VertexId, graph::Distance dist) {
    ++calls;
    return dist == 3;
  });
  EXPECT_EQ(calls, 2u);
}

TEST(LabelStoreTest, FromRowsSortsAndDedups) {
  std::vector<std::vector<LabelEntry>> rows(1);
  rows[0] = {{5, 9}, {1, 3}, {5, 4}, {3, 2}};
  const LabelStore store = LabelStore::FromRows(std::move(rows));
  const auto row = store.Row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], (LabelEntry{1, 3}));
  EXPECT_EQ(row[1], (LabelEntry{3, 2}));
  EXPECT_EQ(row[2], (LabelEntry{5, 4}));  // min dist kept for hub 5
}

TEST(LabelStoreTest, QueryAcrossVertices) {
  std::vector<std::vector<LabelEntry>> rows(2);
  rows[0] = {{0, 0}, {7, 4}};
  rows[1] = {{1, 0}, {7, 6}};
  const LabelStore store = LabelStore::FromRows(std::move(rows));
  EXPECT_EQ(store.Query(0, 1), 10u);
  EXPECT_EQ(store.Query(0, 0), 0u);  // self-hub 0 twice: 0+0
}

TEST(LabelStoreTest, AvgLabelSizeAndMemory) {
  std::vector<std::vector<LabelEntry>> rows(4);
  rows[0] = {{0, 0}};
  rows[1] = {{0, 1}, {1, 0}};
  rows[2] = {{0, 2}, {1, 3}, {2, 0}};
  const LabelStore store = LabelStore::FromRows(std::move(rows));
  EXPECT_EQ(store.TotalEntries(), 6u);
  EXPECT_DOUBLE_EQ(store.AvgLabelSize(), 1.5);
  EXPECT_GT(store.MemoryBytes(), 6 * sizeof(LabelEntry));
}

// MemoryBytes must report *capacity* bytes — what the process actually
// holds — not the smaller size-based figure that undercounted before the
// store.memory_bytes gauge relied on it. Moved-in vectors keep their
// capacity, so an over-reserved FromFlat input pins the distinction.
TEST(LabelStoreTest, MemoryBytesReportsCapacityNotSize) {
  std::vector<std::uint64_t> offsets = {0, 2};
  std::vector<LabelEntry> entries = {
      {1, 4}, {graph::kInvalidVertex, graph::kInfiniteDistance}};
  offsets.reserve(64);
  entries.reserve(128);
  const std::size_t offsets_capacity = offsets.capacity();
  const std::size_t entries_capacity = entries.capacity();
  const LabelStore store =
      LabelStore::FromFlat(std::move(offsets), std::move(entries));
  EXPECT_EQ(store.MemoryBytes(),
            offsets_capacity * sizeof(std::uint64_t) +
                entries_capacity * sizeof(LabelEntry));
  EXPECT_GT(store.MemoryBytes(),
            2 * sizeof(std::uint64_t) + 2 * sizeof(LabelEntry));
}

TEST(LabelStoreTest, FromFlatMatchesFromRows) {
  std::vector<std::vector<LabelEntry>> rows(2);
  rows[0] = {{0, 0}, {7, 4}};
  rows[1] = {{1, 0}, {7, 6}};
  const LabelStore want = LabelStore::FromRows(std::move(rows));
  // The physical layout FromFlat consumes: sentinel-terminated rows with
  // sentinel-inclusive offsets — exactly what format v2 stores on disk.
  const LabelEntry sentinel{graph::kInvalidVertex, graph::kInfiniteDistance};
  const LabelStore got = LabelStore::FromFlat(
      {0, 3, 6}, {{0, 0}, {7, 4}, sentinel, {1, 0}, {7, 6}, sentinel});
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.Query(0, 1), 10u);
}

TEST(LabelStoreTest, FromFlatRejectsBrokenInvariants) {
  const LabelEntry sentinel{graph::kInvalidVertex, graph::kInfiniteDistance};
  // Missing sentinel at a row end.
  EXPECT_THROW(
      LabelStore::FromFlat({0, 2}, {{0, 1}, {1, 2}}), std::runtime_error);
  // Offsets not starting at zero / not covering the entries.
  EXPECT_THROW(LabelStore::FromFlat({1, 2}, {{0, 1}, sentinel}),
               std::runtime_error);
  EXPECT_THROW(LabelStore::FromFlat({0, 1}, {sentinel, sentinel}),
               std::runtime_error);
  // Empty row: offsets must still advance past a sentinel.
  EXPECT_THROW(LabelStore::FromFlat({0, 0}, {}), std::runtime_error);
  // Unsorted / duplicate hubs inside a row.
  EXPECT_THROW(
      LabelStore::FromFlat({0, 3}, {{5, 1}, {2, 3}, sentinel}),
      std::runtime_error);
  EXPECT_THROW(
      LabelStore::FromFlat({0, 3}, {{2, 1}, {2, 3}, sentinel}),
      std::runtime_error);
  // A sentinel hub mid-row is corruption, not an early terminator.
  EXPECT_THROW(
      LabelStore::FromFlat({0, 3}, {{2, 1}, sentinel, sentinel}),
      std::runtime_error);
}

TEST(LabelStoreTest, SerializeRoundTrip) {
  std::vector<std::vector<LabelEntry>> rows(3);
  rows[0] = {{0, 0}};
  rows[1] = {{0, 5}, {1, 0}};
  rows[2] = {{2, 0}};
  const LabelStore store = LabelStore::FromRows(std::move(rows));
  std::stringstream buffer;
  store.Serialize(buffer);
  const LabelStore loaded = LabelStore::Deserialize(buffer);
  EXPECT_EQ(store, loaded);
}

TEST(LabelStoreTest, DeserializeRejectsGarbage) {
  std::stringstream buffer;
  buffer << "garbage bytes here and more of them";
  EXPECT_THROW(LabelStore::Deserialize(buffer), std::runtime_error);
}

TEST(LabelStoreTest, EmptyStore) {
  const LabelStore store = LabelStore::FromRows({});
  EXPECT_EQ(store.NumVertices(), 0u);
  EXPECT_EQ(store.TotalEntries(), 0u);
  EXPECT_DOUBLE_EQ(store.AvgLabelSize(), 0.0);
}

TEST(LabelStoreTest, FromMutableMatchesFromRows) {
  MutableLabels labels(2);
  labels.Append(0, 0, 0);
  labels.Append(1, 0, 4);
  labels.Append(1, 1, 0);
  const LabelStore store = LabelStore::FromMutable(labels);
  EXPECT_EQ(store.TotalEntries(), 3u);
  EXPECT_EQ(store.Query(0, 1), 4u);
}

}  // namespace
}  // namespace parapll::pll
