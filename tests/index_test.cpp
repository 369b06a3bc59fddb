#include "pll/index.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "build/pipeline.hpp"
#include "pll/format_v2.hpp"
#include "pll/verify.hpp"

namespace parapll::pll {
namespace {

using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;

const WeightOptions kUniform{WeightModel::kUniform, 10};

Index BuildTestIndex(const Graph& g) {
  return build::Run(g, {}).artifact.index;
}

TEST(IndexTest, QueriesUseOriginalIds) {
  // Star graph: the center is renamed to rank 0 internally, but queries
  // must still address it by its original id.
  const Graph g = graph::Star(6, WeightOptions{WeightModel::kUnit, 1}, 1);
  const Index index = BuildTestIndex(g);
  EXPECT_EQ(index.Query(1, 2), 2u);  // leaf-leaf via center
  EXPECT_EQ(index.Query(0, 4), 1u);
}

TEST(IndexTest, SelfQueryIsZero) {
  const Graph g = graph::ErdosRenyi(30, 60, kUniform, 2);
  const Index index = BuildTestIndex(g);
  for (graph::VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(index.Query(v, v), 0u);
  }
}

TEST(IndexTest, SaveLoadFileRoundTrip) {
  const Graph g = graph::Cycle(20, kUniform, 4);
  const Index index = BuildTestIndex(g);
  const std::string path = testing::TempDir() + "/parapll_index_test.bin";
  WriteIndexFile(index, path);
  const Index loaded = Index::LoadFile(path);
  EXPECT_EQ(index, loaded);
}

TEST(IndexTest, MemoryBytesScalesWithEntries) {
  const Graph small = graph::BarabasiAlbert(40, 2, kUniform, 6);
  const Graph large = graph::BarabasiAlbert(200, 3, kUniform, 6);
  EXPECT_LT(BuildTestIndex(small).MemoryBytes(),
            BuildTestIndex(large).MemoryBytes());
}

TEST(VerifyTest, DetectsCorruptIndex) {
  const Graph g = graph::Path(5, WeightOptions{WeightModel::kUnit, 1}, 1);
  // An index whose store claims everything is at distance 0 via hub 0.
  std::vector<std::vector<LabelEntry>> rows(5);
  for (auto& row : rows) {
    row = {{0, 0}};
  }
  std::vector<graph::VertexId> order = {0, 1, 2, 3, 4};
  const Index bogus(LabelStore::FromRows(std::move(rows)), std::move(order));
  const auto verdict = VerifyExhaustive(g, bogus);
  EXPECT_FALSE(verdict.Ok());
  EXPECT_GT(verdict.mismatches, 0u);
  EXPECT_NE(verdict.ToString().find("mismatches"), std::string::npos);
}

TEST(VerifyTest, SampledChecksRequestedPairCount) {
  const Graph g = graph::ErdosRenyi(40, 90, kUniform, 7);
  const Index index = BuildTestIndex(g);
  const auto verdict = VerifySampled(g, index, 250, 1);
  EXPECT_TRUE(verdict.Ok());
  EXPECT_EQ(verdict.pairs_checked, 250u);
}

}  // namespace
}  // namespace parapll::pll
