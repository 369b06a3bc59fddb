#include "pll/knn_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/dijkstra.hpp"
#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace parapll::pll {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::WeightModel;
using graph::WeightOptions;

const WeightOptions kUniform{WeightModel::kUniform, 10};

// Reference top-k via one Dijkstra.
std::vector<KnnResult> BruteForceKnn(const Graph& g, VertexId s,
                                     std::size_t k) {
  const auto dist = baseline::DijkstraAll(g, s);
  std::vector<KnnResult> all;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (v != s && dist[v] != graph::kInfiniteDistance) {
      all.push_back(KnnResult{v, dist[v]});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const KnnResult& a, const KnnResult& b) {
              if (a.dist != b.dist) return a.dist < b.dist;
              return a.vertex < b.vertex;
            });
  if (all.size() > k) {
    all.resize(k);
  }
  return all;
}

TEST(KnnEngine, PathGraphNeighborsInOrder) {
  const Graph g = graph::Path(7, WeightOptions{WeightModel::kUnit, 1}, 1);
  const Index index = build::Run(g, {}).artifact.index;
  const KnnEngine engine(index);
  const auto knn = engine.Nearest(3, 3);
  ASSERT_EQ(knn.size(), 3u);
  EXPECT_EQ(knn[0].dist, 1u);
  EXPECT_EQ(knn[1].dist, 1u);
  EXPECT_EQ(knn[2].dist, 2u);
}

TEST(KnnEngine, ExcludesSourceItself) {
  const Graph g = graph::Complete(6, kUniform, 2);
  const Index index = build::Run(g, {}).artifact.index;
  const KnnEngine engine(index);
  const auto knn = engine.Nearest(2, 10);
  EXPECT_EQ(knn.size(), 5u);
  for (const auto& r : knn) {
    EXPECT_NE(r.vertex, 2u);
  }
}

TEST(KnnEngine, SmallComponentReturnsFewer) {
  const std::vector<graph::Edge> edges = {{0, 1, 2}, {1, 2, 3}, {3, 4, 1}};
  const Graph g = Graph::FromEdges(5, edges);
  const Index index = build::Run(g, {}).artifact.index;
  const KnnEngine engine(index);
  const auto knn = engine.Nearest(3, 10);
  ASSERT_EQ(knn.size(), 1u);  // only vertex 4 shares 3's component
  EXPECT_EQ(knn[0], (KnnResult{4, 1}));
}

class KnnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnnProperty, MatchesBruteForceEverywhere) {
  util::Rng rng(GetParam());
  const Graph g = [&]() -> Graph {
    switch (GetParam() % 3) {
      case 0:
        return graph::BarabasiAlbert(70, 3, kUniform, GetParam());
      case 1:
        return graph::RoadGrid(7, 7, 0.8, 2, kUniform, GetParam());
      default:
        return graph::ErdosRenyi(60, 140, kUniform, GetParam());
    }
  }();
  const Index index = build::Run(g, {}).artifact.index;
  const KnnEngine engine(index);
  for (int i = 0; i < 15; ++i) {
    const auto s = static_cast<VertexId>(rng.Below(g.NumVertices()));
    const std::size_t k = 1 + rng.Below(12);
    const auto got = engine.Nearest(s, k);
    const auto expected = BruteForceKnn(g, s, k);
    ASSERT_EQ(got.size(), expected.size());
    // Distances must match position by position; vertex ties may resolve
    // to any co-distant vertex set, so compare the distance multiset and
    // verify each returned vertex's distance is exact.
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].dist, expected[j].dist) << "position " << j;
      EXPECT_EQ(got[j].dist, baseline::DijkstraOne(g, s, got[j].vertex));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnnProperty,
                         ::testing::Range<std::uint64_t>(1, 10));

}  // namespace
}  // namespace parapll::pll
