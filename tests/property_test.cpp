// Cross-cutting property tests: for many random graphs, seeds, modes and
// schedules, PLL answers must equal Dijkstra's, and structural invariants
// of the 2-hop cover must hold.
#include <gtest/gtest.h>

#include "baseline/dijkstra.hpp"
#include "build/pipeline.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "pll/verify.hpp"
#include "util/rng.hpp"

namespace parapll {
namespace {

using build::BuildMode;
using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;

// A varied random graph for a given seed: cycles through generator
// families and weight models.
Graph RandomGraph(std::uint64_t seed) {
  util::Rng rng(seed);
  const WeightModel model =
      std::array{WeightModel::kUnit, WeightModel::kUniform,
                 WeightModel::kRoadLike}[rng.Below(3)];
  const WeightOptions weights{model, static_cast<graph::Weight>(
                                         1 + rng.Below(64))};
  const auto n = static_cast<graph::VertexId>(20 + rng.Below(80));
  switch (rng.Below(5)) {
    case 0:
      return graph::ErdosRenyi(n, n + rng.Below(3 * n), weights, seed);
    case 1:
      return graph::BarabasiAlbert(n, 1 + rng.Below(4), weights, seed);
    case 2:
      return graph::WattsStrogatz(n, 2, 0.3, weights, seed);
    case 3:
      return graph::RoadGrid(5 + static_cast<graph::VertexId>(rng.Below(5)),
                             5 + static_cast<graph::VertexId>(rng.Below(5)),
                             0.7 + rng.Real() * 0.3, rng.Below(4), weights,
                             seed);
    default:
      return graph::Rmat(7, n * 2, {}, weights, seed);
  }
}

class RandomGraphProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphProperty, SerialPllIsExactEverywhere) {
  const Graph g = RandomGraph(GetParam());
  const pll::Index index = build::Run(g, {}).artifact.index;
  const auto verdict = pll::VerifyExhaustive(g, index);
  EXPECT_TRUE(verdict.Ok()) << verdict.ToString();
}

TEST_P(RandomGraphProperty, ParallelPllIsExactSampled) {
  const Graph g = RandomGraph(GetParam() + 1000);
  util::Rng rng(GetParam());
  const std::size_t threads = 1 + rng.Below(8);
  const auto policy = rng.Chance(0.5) ? parallel::AssignmentPolicy::kStatic
                                      : parallel::AssignmentPolicy::kDynamic;
  const pll::Index index =
      build::Run(g, {.mode = BuildMode::kParallel,
                     .threads = threads,
                     .policy = policy})
          .artifact.index;
  const auto verdict = pll::VerifySampled(g, index, 400, GetParam());
  EXPECT_TRUE(verdict.Ok())
      << "threads=" << threads << " " << verdict.ToString();
}

TEST_P(RandomGraphProperty, SimulatedScheduleIsExactSampled) {
  const Graph g = RandomGraph(GetParam() + 2000);
  util::Rng rng(GetParam());
  const pll::Index index =
      build::Run(g,
                 {.mode = BuildMode::kSimulated,
                  .threads = 1 + rng.Below(12),
                  .policy = rng.Chance(0.5)
                                ? parallel::AssignmentPolicy::kStatic
                                : parallel::AssignmentPolicy::kDynamic})
          .artifact.index;
  const auto verdict = pll::VerifySampled(g, index, 400, GetParam());
  EXPECT_TRUE(verdict.Ok()) << verdict.ToString();
}

TEST_P(RandomGraphProperty, ClusterScheduleIsExactSampled) {
  const Graph g = RandomGraph(GetParam() + 3000);
  util::Rng rng(GetParam());
  // Drawn in this order so each seed keeps its cluster shape.
  const std::size_t nodes = 1 + rng.Below(6);
  const std::size_t threads = 1 + rng.Below(3);
  const std::size_t sync_count = 1 + rng.Below(8);
  const pll::Index index = build::Run(g, {.mode = BuildMode::kCluster,
                                          .threads = threads,
                                          .nodes = nodes,
                                          .sync_count = sync_count})
                               .artifact.index;
  const auto verdict = pll::VerifySampled(g, index, 400, GetParam());
  EXPECT_TRUE(verdict.Ok()) << verdict.ToString();
}

TEST_P(RandomGraphProperty, QueryIsSymmetric) {
  // Undirected graph: d(s, t) == d(t, s) through the index.
  const Graph g = RandomGraph(GetParam() + 4000);
  const pll::Index index = build::Run(g, {}).artifact.index;
  util::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const auto s = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
    const auto t = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
    EXPECT_EQ(index.Query(s, t), index.Query(t, s));
  }
}

TEST_P(RandomGraphProperty, TriangleInequalityThroughIndex) {
  const Graph g = RandomGraph(GetParam() + 5000);
  const pll::Index index = build::Run(g, {}).artifact.index;
  util::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const auto a = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
    const auto b = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
    const auto c = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
    const auto ab = index.Query(a, b);
    const auto bc = index.Query(b, c);
    const auto ac = index.Query(a, c);
    if (ab != graph::kInfiniteDistance && bc != graph::kInfiniteDistance) {
      EXPECT_LE(ac, ab + bc);
    }
  }
}

TEST_P(RandomGraphProperty, InfiniteIffDifferentComponents) {
  const Graph g = RandomGraph(GetParam() + 6000);
  const pll::Index index = build::Run(g, {}).artifact.index;
  const auto labels = graph::ComponentLabels(g);
  util::Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const auto s = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
    const auto t = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
    const bool connected = labels[s] == labels[t];
    EXPECT_EQ(index.Query(s, t) != graph::kInfiniteDistance, connected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace parapll
