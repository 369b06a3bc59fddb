#include "pll/dynamic_index.hpp"

#include <gtest/gtest.h>

#include "baseline/dijkstra.hpp"
#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace parapll::pll {
namespace {

using graph::Edge;
using graph::Graph;
using graph::VertexId;
using graph::WeightModel;
using graph::WeightOptions;

const WeightOptions kUniform{WeightModel::kUniform, 10};

// The initial index: a serial build of g.
DynamicIndex BuildDynamic(const Graph& g) {
  return DynamicIndex(g, build::Run(g, {}).artifact.index);
}

TEST(DynamicIndex, FreshBuildAnswersExactly) {
  const Graph g = graph::BarabasiAlbert(80, 3, kUniform, 1);
  const DynamicIndex index = BuildDynamic(g);
  for (VertexId s = 0; s < g.NumVertices(); s += 7) {
    const auto truth = baseline::DijkstraAll(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(index.Query(s, t), truth[t]);
    }
  }
}

TEST(DynamicIndex, InsertShortcutUpdatesDistance) {
  // Path 0-1-2-3-4, unit weights; adding 0-4 weight 1 collapses d(0,4).
  const Graph g = graph::Path(5, WeightOptions{WeightModel::kUnit, 1}, 1);
  DynamicIndex index = BuildDynamic(g);
  EXPECT_EQ(index.Query(0, 4), 4u);
  index.AddEdge(0, 4, 1);
  EXPECT_EQ(index.Query(0, 4), 1u);
  EXPECT_EQ(index.Query(1, 4), 2u);  // via the new shortcut
  EXPECT_EQ(index.Query(0, 2), 2u);  // unaffected pairs stay exact
}

TEST(DynamicIndex, InsertConnectsComponents) {
  const std::vector<Edge> edges = {{0, 1, 2}, {2, 3, 3}};
  const Graph g = Graph::FromEdges(4, edges);
  DynamicIndex index = BuildDynamic(g);
  EXPECT_EQ(index.Query(0, 3), graph::kInfiniteDistance);
  index.AddEdge(1, 2, 5);
  EXPECT_EQ(index.Query(0, 3), 10u);
  EXPECT_EQ(index.Query(0, 2), 7u);
  EXPECT_EQ(index.Query(1, 3), 8u);
}

TEST(DynamicIndex, ParallelEdgeKeepsLighter) {
  const std::vector<Edge> edges = {{0, 1, 9}};
  const Graph g = Graph::FromEdges(2, edges);
  DynamicIndex index = BuildDynamic(g);
  index.AddEdge(0, 1, 4);
  EXPECT_EQ(index.Query(0, 1), 4u);
  index.AddEdge(0, 1, 7);  // heavier duplicate: no effect
  EXPECT_EQ(index.Query(0, 1), 4u);
}

TEST(DynamicIndex, HeavierEdgeThanExistingPathIsNoop) {
  const Graph g = graph::Complete(10, WeightOptions{WeightModel::kUnit, 1}, 2);
  DynamicIndex index = BuildDynamic(g);
  const std::size_t before = index.TotalEntries();
  index.AddEdge(0, 9, 100);  // useless edge
  EXPECT_EQ(index.Query(0, 9), 1u);
  // The pruning test should have stopped propagation almost immediately.
  EXPECT_LE(index.TotalEntries(), before + 2);
}

class DynamicIndexProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DynamicIndexProperty, StaysExactUnderRandomInsertions) {
  util::Rng rng(GetParam());
  const auto n = static_cast<VertexId>(30 + rng.Below(50));
  Graph g = graph::ErdosRenyi(n, n + rng.Below(2 * n), kUniform, GetParam());
  DynamicIndex index = BuildDynamic(g);

  std::vector<Edge> edges = g.ToEdgeList();
  for (int round = 0; round < 12; ++round) {
    // Random new edge (possibly parallel to an existing one).
    const auto u = static_cast<VertexId>(rng.Below(n));
    auto v = static_cast<VertexId>(rng.Below(n));
    if (u == v) {
      v = (v + 1) % n;
    }
    const auto w = static_cast<graph::Weight>(1 + rng.Below(10));
    index.AddEdge(u, v, w);
    edges.push_back(Edge{u, v, w});
    g = Graph::FromEdges(n, edges);

    // Sampled exactness against Dijkstra on the updated graph.
    for (int i = 0; i < 40; ++i) {
      const auto s = static_cast<VertexId>(rng.Below(n));
      const auto t = static_cast<VertexId>(rng.Below(n));
      ASSERT_EQ(index.Query(s, t), baseline::DijkstraOne(g, s, t))
          << "seed " << GetParam() << " round " << round << " pair (" << s
          << "," << t << ")";
    }
  }
  EXPECT_EQ(index.Stats().edges_inserted, 12u);
  EXPECT_GT(index.Stats().resumptions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicIndexProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(DynamicIndex, ManyInsertionsMatchFullRebuild) {
  util::Rng rng(99);
  const VertexId n = 60;
  Graph g = graph::Cycle(n, kUniform, 99);
  DynamicIndex incremental = BuildDynamic(g);
  std::vector<Edge> edges = g.ToEdgeList();
  for (int i = 0; i < 30; ++i) {
    const auto u = static_cast<VertexId>(rng.Below(n));
    const auto v = static_cast<VertexId>((u + 1 + rng.Below(n - 1)) % n);
    const auto w = static_cast<graph::Weight>(1 + rng.Below(20));
    incremental.AddEdge(u, v, w);
    edges.push_back(Edge{u, v, w});
  }
  g = Graph::FromEdges(n, edges);
  const DynamicIndex rebuilt = BuildDynamic(g);
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(incremental.Query(s, t), rebuilt.Query(s, t));
    }
  }
}

}  // namespace
}  // namespace parapll::pll
