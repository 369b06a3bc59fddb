#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"

namespace parapll::graph {
namespace {

TEST(IoTest, ReadsWeightedEdgeList) {
  std::istringstream in("0 1 5\n1 2 7\n");
  const Graph g = ReadEdgeListText(in);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Neighbors(0)[0].weight, 5u);
}

TEST(IoTest, WeightColumnDefaultsToOne) {
  std::istringstream in("0 1\n1 2\n");
  const Graph g = ReadEdgeListText(in);
  EXPECT_EQ(g.Neighbors(0)[0].weight, 1u);
}

TEST(IoTest, SkipsCommentsAndBlankLines) {
  std::istringstream in("# header\n\n  # indented comment\n0 1 2\n");
  const Graph g = ReadEdgeListText(in);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(IoTest, CompactsSparseIdsWhenAsked) {
  std::istringstream in("1000000 2000000 3\n2000000 5 4\n");
  const Graph g = ReadEdgeListText(in, /*compact_ids=*/true);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(IoTest, LiteralIdsByDefault) {
  std::istringstream in("0 7 2\n");
  const Graph g = ReadEdgeListText(in);
  EXPECT_EQ(g.NumVertices(), 8u);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(IoTest, HeaderPreservesIsolatedVertices) {
  std::istringstream in("# n=10 m=1\n0 1 2\n");
  const Graph g = ReadEdgeListText(in);
  EXPECT_EQ(g.NumVertices(), 10u);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(IoTest, MalformedLineThrows) {
  std::istringstream in("0 x 3\n");
  EXPECT_THROW(ReadEdgeListText(in), std::runtime_error);
}

TEST(IoTest, ZeroWeightThrows) {
  std::istringstream in("0 1 0\n");
  EXPECT_THROW(ReadEdgeListText(in), std::runtime_error);
}

TEST(IoTest, TextRoundTrip) {
  const Graph g = ErdosRenyi(
      30, 60, WeightOptions{WeightModel::kUniform, 50}, 5);
  std::stringstream buffer;
  WriteEdgeListText(g, buffer);
  const Graph g2 = ReadEdgeListText(buffer);
  EXPECT_EQ(g, g2);
}

TEST(IoTest, FileRoundTrips) {
  const Graph g = Cycle(12, WeightOptions{WeightModel::kUniform, 9}, 2);
  const std::string text_path = testing::TempDir() + "/parapll_io_test.txt";
  WriteEdgeListTextFile(g, text_path);
  EXPECT_EQ(ReadEdgeListTextFile(text_path), g);
}

TEST(IoTest, MissingFileThrows) {
  EXPECT_THROW(ReadEdgeListTextFile("/nonexistent/nope.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace parapll::graph
