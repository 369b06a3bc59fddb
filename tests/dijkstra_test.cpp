#include "baseline/dijkstra.hpp"

#include <gtest/gtest.h>

#include "baseline/floyd_warshall.hpp"
#include "graph/generators.hpp"

namespace parapll::baseline {
namespace {

using graph::Edge;
using graph::kInfiniteDistance;
using graph::WeightModel;
using graph::WeightOptions;

TEST(Dijkstra, PathGraph) {
  const Graph g = graph::Path(5, WeightOptions{WeightModel::kUnit, 1}, 1);
  const auto dist = DijkstraAll(g, 0);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(dist[v], v);
  }
}

TEST(Dijkstra, PrefersLighterDetour) {
  const std::vector<Edge> edges = {{0, 1, 10}, {0, 2, 1}, {2, 1, 2}};
  const Graph g = Graph::FromEdges(3, edges);
  const auto dist = DijkstraAll(g, 0);
  EXPECT_EQ(dist[1], 3u);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  const std::vector<Edge> edges = {{0, 1, 1}};
  const Graph g = Graph::FromEdges(3, edges);
  const auto dist = DijkstraAll(g, 0);
  EXPECT_EQ(dist[2], kInfiniteDistance);
}

TEST(Dijkstra, AgreesWithFloydWarshall) {
  const Graph g = graph::ErdosRenyi(
      70, 180, WeightOptions{WeightModel::kUniform, 30}, 11);
  const auto truth = FloydWarshall(g);
  for (VertexId s = 0; s < g.NumVertices(); s += 7) {
    const auto dist = DijkstraAll(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(dist[t], truth.Get(s, t));
    }
  }
}

TEST(Dijkstra, OneMatchesAll) {
  const Graph g = graph::BarabasiAlbert(
      60, 3, WeightOptions{WeightModel::kUniform, 20}, 12);
  const auto dist = DijkstraAll(g, 5);
  for (VertexId t = 0; t < g.NumVertices(); t += 5) {
    EXPECT_EQ(DijkstraOne(g, 5, t), dist[t]);
  }
}

TEST(Dijkstra, SelfDistanceIsZero) {
  const Graph g = graph::Cycle(8, WeightOptions{WeightModel::kUniform, 5}, 2);
  EXPECT_EQ(DijkstraOne(g, 3, 3), 0u);
  EXPECT_EQ(DijkstraAll(g, 3)[3], 0u);
}

}  // namespace
}  // namespace parapll::baseline
