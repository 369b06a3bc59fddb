#include "pll/compact_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"
#include "build/pipeline.hpp"

namespace parapll::pll {
namespace {

using graph::WeightModel;
using graph::WeightOptions;

TEST(Varint, SmallValuesAreOneByte) {
  std::stringstream buffer;
  WriteVarint(buffer, 0);
  WriteVarint(buffer, 127);
  EXPECT_EQ(buffer.str().size(), 2u);
  EXPECT_EQ(ReadVarint(buffer), 0u);
  EXPECT_EQ(ReadVarint(buffer), 127u);
}

TEST(Varint, BoundaryValuesRoundTrip) {
  const std::uint64_t values[] = {
      0, 1, 127, 128, 16383, 16384, (1ULL << 32) - 1, 1ULL << 32,
      ~0ULL, ~0ULL - 1, 0x8000000000000000ULL};
  std::stringstream buffer;
  for (const auto v : values) {
    WriteVarint(buffer, v);
  }
  for (const auto v : values) {
    EXPECT_EQ(ReadVarint(buffer), v);
  }
}

TEST(Varint, TruncationThrows) {
  std::stringstream buffer;
  buffer.put(static_cast<char>(0x80));  // continuation bit, then EOF
  EXPECT_THROW(ReadVarint(buffer), std::runtime_error);
}

TEST(CompactIo, StoreRoundTrip) {
  const auto g = graph::BarabasiAlbert(
      150, 3, WeightOptions{WeightModel::kUniform, 100}, 5);
  const Index index = build::Run(g, {}).artifact.index;
  std::stringstream buffer;
  WriteCompact(index.Store(), buffer);
  const LabelStore loaded = ReadCompactStore(buffer);
  EXPECT_EQ(loaded, index.Store());
}

TEST(CompactIo, IndexRoundTripQueriesMatch) {
  const auto g = graph::RoadGrid(
      8, 8, 0.8, 3, WeightOptions{WeightModel::kRoadLike, 100}, 6);
  // The compact container carries no manifest; compare rows and order.
  const Index built = build::Run(g, {}).artifact.index;
  const Index index(built.Store(), built.Order());
  std::stringstream buffer;
  WriteCompactIndex(index, buffer);
  const Index loaded = ReadCompactIndex(buffer);
  EXPECT_EQ(loaded, index);
}

TEST(CompactIo, EmptyStore) {
  const LabelStore empty = LabelStore::FromRows({});
  std::stringstream buffer;
  WriteCompact(empty, buffer);
  EXPECT_EQ(ReadCompactStore(buffer), empty);
}

TEST(CompactIo, BadMagicThrows) {
  std::stringstream buffer;
  WriteVarint(buffer, 12345);
  EXPECT_THROW(ReadCompactStore(buffer), std::runtime_error);
}

TEST(CompactIo, CompactIsSubstantiallySmaller) {
  const auto g = graph::BarabasiAlbert(
      300, 4, WeightOptions{WeightModel::kUniform, 100}, 7);
  const Index index = build::Run(g, {}).artifact.index;
  std::stringstream fixed_buffer;
  index.Store().Serialize(fixed_buffer);
  const std::size_t fixed_size = fixed_buffer.str().size();
  const std::size_t compact_size = CompactSizeBytes(index.Store());
  EXPECT_LT(compact_size * 3, fixed_size);
}

TEST(CompactIo, SizePredictionMatchesActualBytes) {
  const auto g = graph::ErdosRenyi(
      100, 250, WeightOptions{WeightModel::kUniform, 50}, 8);
  const Index index = build::Run(g, {}).artifact.index;
  std::stringstream buffer;
  WriteCompact(index.Store(), buffer);
  EXPECT_EQ(buffer.str().size(), CompactSizeBytes(index.Store()));
}

}  // namespace
}  // namespace parapll::pll
