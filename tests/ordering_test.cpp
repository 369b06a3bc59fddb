#include "pll/ordering.hpp"

#include <gtest/gtest.h>

#include "build/pipeline.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"

namespace parapll::pll {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::WeightModel;
using graph::WeightOptions;

const WeightOptions kUniform{WeightModel::kUniform, 10};

TEST(Ordering, DegreeOrderPutsHubFirst) {
  const Graph g = graph::Star(8, kUniform, 1);
  const auto order = ComputeOrder(g, OrderingPolicy::kDegree, 0);
  EXPECT_EQ(order[0], 0u);
}

TEST(Ordering, AllPoliciesReturnPermutations) {
  const Graph g = graph::BarabasiAlbert(80, 3, kUniform, 5);
  for (const auto policy :
       {OrderingPolicy::kDegree, OrderingPolicy::kRandom,
        OrderingPolicy::kPathDegree}) {
    const auto order = ComputeOrder(g, policy, 7);
    std::vector<bool> seen(g.NumVertices(), false);
    ASSERT_EQ(order.size(), g.NumVertices()) << ToString(policy);
    for (const VertexId v : order) {
      ASSERT_LT(v, g.NumVertices());
      EXPECT_FALSE(seen[v]) << ToString(policy);
      seen[v] = true;
    }
  }
}

TEST(Ordering, RandomPolicyDependsOnSeed) {
  const Graph g = graph::ErdosRenyi(50, 100, kUniform, 1);
  const auto a = ComputeOrder(g, OrderingPolicy::kRandom, 1);
  const auto b = ComputeOrder(g, OrderingPolicy::kRandom, 1);
  const auto c = ComputeOrder(g, OrderingPolicy::kRandom, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Ordering, PathDegreeFavorsBridgeVertices) {
  // Two stars joined by a bridge through vertices 0 and 1: the bridge
  // endpoints carry all cross traffic and should rank near the top.
  std::vector<graph::Edge> edges;
  for (VertexId v = 2; v < 12; ++v) {
    edges.push_back({0, v, 1});
  }
  for (VertexId v = 12; v < 22; ++v) {
    edges.push_back({1, v, 1});
  }
  edges.push_back({0, 1, 1});
  const Graph g = Graph::FromEdges(22, edges);
  const auto order = ComputeOrder(g, OrderingPolicy::kPathDegree, 3);
  // The two centers must occupy the first two positions.
  EXPECT_TRUE((order[0] == 0 && order[1] == 1) ||
              (order[0] == 1 && order[1] == 0));
}

// The sampled sources are drawn before any thread starts and ψ is summed
// in exact integers, so the order is a function of (graph, seed) alone.
TEST(Ordering, PathDegreeOrderIsTheSameForAnyThreadCount) {
  const Graph g = graph::MakeDatasetByName("Epinions", 0.02, 1);
  const auto serial = ComputeOrder(g, OrderingPolicy::kPathDegree, 5);
  EXPECT_EQ(ComputeOrder(g, OrderingPolicy::kPathDegree, 5), serial);
  for (const std::size_t threads : {2, 4}) {
    EXPECT_EQ(ComputeOrder(g, OrderingPolicy::kPathDegree, 5, threads),
              serial)
        << threads << " threads";
  }
  EXPECT_NE(ComputeOrder(g, OrderingPolicy::kPathDegree, 6), serial);
}

double SerialLabelSize(const Graph& g, OrderingPolicy ordering) {
  return build::Run(g, {.ordering = ordering}).artifact.index.AvgLabelSize();
}

// On a road network degree carries no signal; ψ × degree must cut the
// paper's degree-order label size at least threefold.
TEST(Ordering, PathDegreeShrinksRoadLabelsThreefold) {
  const Graph g = graph::MakeDatasetByName("HI-USA", 0.02, 1);
  const double degree = SerialLabelSize(g, OrderingPolicy::kDegree);
  const double path_degree = SerialLabelSize(g, OrderingPolicy::kPathDegree);
  EXPECT_LE(path_degree * 3.0, degree)
      << "degree LN " << degree << ", path-degree LN " << path_degree;
}

// On a social graph degree is already a good order; ψ × degree must not
// lose to it.
TEST(Ordering, PathDegreeLabelsNoLargerOnSocialGraph) {
  const Graph g = graph::MakeDatasetByName("Epinions", 0.02, 1);
  const double degree = SerialLabelSize(g, OrderingPolicy::kDegree);
  const double path_degree = SerialLabelSize(g, OrderingPolicy::kPathDegree);
  EXPECT_LE(path_degree, degree)
      << "degree LN " << degree << ", path-degree LN " << path_degree;
}

TEST(Ordering, InvertOrderIsInverse) {
  const Graph g = graph::ErdosRenyi(40, 80, kUniform, 9);
  const auto order = ComputeOrder(g, OrderingPolicy::kRandom, 9);
  const auto rank_of = InvertOrder(order);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    EXPECT_EQ(rank_of[order[rank]], rank);
  }
}

TEST(Ordering, ToRankSpacePreservesStructure) {
  const Graph g = graph::BarabasiAlbert(40, 2, kUniform, 10);
  const auto order = ComputeOrder(g, OrderingPolicy::kDegree, 0);
  const Graph ranked = ToRankSpace(g, order);
  EXPECT_EQ(ranked.NumVertices(), g.NumVertices());
  EXPECT_EQ(ranked.NumEdges(), g.NumEdges());
  EXPECT_EQ(ranked.TotalWeight(), g.TotalWeight());
  // Rank 0 must be the max-degree vertex.
  EXPECT_EQ(ranked.Degree(0), g.Degree(order[0]));
}

TEST(Ordering, ToStringNames) {
  EXPECT_EQ(ToString(OrderingPolicy::kDegree), "degree");
  EXPECT_EQ(ToString(OrderingPolicy::kRandom), "random");
  EXPECT_EQ(ToString(OrderingPolicy::kPathDegree), "path-degree");
}

TEST(Ordering, ParseInvertsToString) {
  for (const auto policy :
       {OrderingPolicy::kDegree, OrderingPolicy::kRandom,
        OrderingPolicy::kPathDegree}) {
    EXPECT_EQ(ParseOrderingPolicy(ToString(policy)), policy);
  }
  EXPECT_EQ(ParseOrderingPolicy("approx-betweenness"), std::nullopt);
  EXPECT_EQ(ParseOrderingPolicy(""), std::nullopt);
}

}  // namespace
}  // namespace parapll::pll
