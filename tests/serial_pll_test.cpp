// Serial weighted PLL (paper §4.1), built through build::Run's kSerial
// mode.
#include <gtest/gtest.h>

#include "baseline/floyd_warshall.hpp"
#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "pll/index.hpp"
#include "pll/verify.hpp"

namespace parapll {
namespace {

using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;

WeightOptions Uniform(graph::Weight max_weight = 10) {
  return WeightOptions{WeightModel::kUniform, max_weight};
}

pll::Index BuildIndex(const Graph& g, pll::OrderingPolicy ordering =
                                          pll::OrderingPolicy::kDegree) {
  return build::Run(g, {.ordering = ordering}).artifact.index;
}

TEST(SerialPll, PathGraphDistances) {
  const Graph g = graph::Path(6, WeightOptions{WeightModel::kUnit, 1}, 1);
  const pll::Index index = BuildIndex(g);
  EXPECT_EQ(index.Query(0, 5), 5u);
  EXPECT_EQ(index.Query(2, 4), 2u);
  EXPECT_EQ(index.Query(3, 3), 0u);
}

TEST(SerialPll, WeightedTriangleTakesShortcut) {
  // 0-1 weight 10, 0-2 weight 1, 2-1 weight 2: d(0,1) = 3 via 2.
  const std::vector<graph::Edge> edges = {
      {0, 1, 10}, {0, 2, 1}, {2, 1, 2}};
  const Graph g = Graph::FromEdges(3, edges);
  const pll::Index index = BuildIndex(g);
  EXPECT_EQ(index.Query(0, 1), 3u);
  EXPECT_EQ(index.Query(0, 2), 1u);
  EXPECT_EQ(index.Query(1, 2), 2u);
}

TEST(SerialPll, DisconnectedPairsAreInfinite) {
  const std::vector<graph::Edge> edges = {{0, 1, 3}, {2, 3, 4}};
  const Graph g = Graph::FromEdges(5, edges);  // vertex 4 isolated
  const pll::Index index = BuildIndex(g);
  EXPECT_EQ(index.Query(0, 1), 3u);
  EXPECT_EQ(index.Query(0, 2), graph::kInfiniteDistance);
  EXPECT_EQ(index.Query(4, 0), graph::kInfiniteDistance);
  EXPECT_EQ(index.Query(4, 4), 0u);
}

TEST(SerialPll, MatchesFloydWarshallOnRandomGraph) {
  const Graph g = graph::ErdosRenyi(60, 150, Uniform(), 42);
  const pll::Index index = BuildIndex(g);
  const auto truth = baseline::FloydWarshall(g);
  for (graph::VertexId s = 0; s < g.NumVertices(); ++s) {
    for (graph::VertexId t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(index.Query(s, t), truth.Get(s, t))
          << "pair (" << s << "," << t << ")";
    }
  }
}

TEST(SerialPll, ExhaustiveVerifyOnSeveralFamilies) {
  const std::vector<Graph> graphs = {
      graph::Star(20, Uniform(), 7),
      graph::Cycle(25, Uniform(), 8),
      graph::Complete(15, Uniform(), 9),
      graph::WattsStrogatz(40, 2, 0.2, Uniform(), 10),
      graph::BarabasiAlbert(50, 3, Uniform(), 11),
      graph::RoadGrid(7, 7, 0.8, 3, Uniform(), 12),
  };
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const pll::Index index = BuildIndex(graphs[i]);
    const auto verdict = pll::VerifyExhaustive(graphs[i], index);
    EXPECT_TRUE(verdict.Ok()) << "graph " << i << ": " << verdict.ToString();
  }
}

TEST(SerialPll, AllOrderingPoliciesAreExact) {
  const Graph g = graph::BarabasiAlbert(60, 3, Uniform(), 13);
  for (const auto policy :
       {pll::OrderingPolicy::kDegree, pll::OrderingPolicy::kRandom,
        pll::OrderingPolicy::kPathDegree}) {
    const pll::Index index = BuildIndex(g, policy);
    const auto verdict = pll::VerifyExhaustive(g, index);
    EXPECT_TRUE(verdict.Ok())
        << ToString(policy) << ": " << verdict.ToString();
  }
}

TEST(SerialPll, DegreeOrderingPrunesBetterThanRandom) {
  const Graph g = graph::BarabasiAlbert(300, 4, Uniform(), 21);
  const auto by_degree =
      build::Run(g, {.ordering = pll::OrderingPolicy::kDegree});
  const auto by_random =
      build::Run(g, {.ordering = pll::OrderingPolicy::kRandom, .seed = 99});
  // Degree ordering is the paper's pruning-friendly sequence; it should
  // produce a meaningfully smaller index than a random sequence.
  EXPECT_LT(by_degree.artifact.index.TotalEntries(),
            by_random.artifact.index.TotalEntries());
}

TEST(SerialPll, TraceRecordsOneStatsPerRoot) {
  const Graph g = graph::ErdosRenyi(40, 80, Uniform(), 5);
  const auto result = build::Run(g, {.record_trace = true});
  ASSERT_EQ(result.trace.size(), g.NumVertices());
  std::size_t labels_total = 0;
  for (const auto& [root, stats] : result.trace) {
    labels_total += stats.labels_added;
  }
  EXPECT_EQ(labels_total, result.artifact.index.TotalEntries());
  EXPECT_EQ(labels_total, result.totals.labels_added);
}

TEST(SerialPll, EveryVertexHasSelfLabel) {
  const Graph g = graph::BarabasiAlbert(50, 2, Uniform(), 3);
  const auto result = build::Run(g, {});
  for (graph::VertexId rank = 0; rank < g.NumVertices(); ++rank) {
    const auto row = result.artifact.index.Store().Row(rank);
    bool has_self = false;
    for (const auto& entry : row) {
      if (entry.hub == rank) {
        EXPECT_EQ(entry.dist, 0u);
        has_self = true;
      }
    }
    EXPECT_TRUE(has_self) << "rank " << rank;
  }
}

TEST(SerialPll, HubRanksNeverExceedVertexRank) {
  // Serial PLL in rank space: L(v) only contains hubs of rank <= rank(v).
  const Graph g = graph::ErdosRenyi(50, 120, Uniform(), 17);
  const auto result = build::Run(g, {});
  for (graph::VertexId rank = 0; rank < g.NumVertices(); ++rank) {
    for (const auto& entry : result.artifact.index.Store().Row(rank)) {
      EXPECT_LE(entry.hub, rank);
    }
  }
}

}  // namespace
}  // namespace parapll
