// build::Run as the public entry point: every mode through one call, and
// the plan's knobs reach the build.
#include <gtest/gtest.h>

#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "pll/verify.hpp"

namespace parapll::build {
namespace {

using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;

Graph TestGraph(std::uint64_t seed) {
  return graph::BarabasiAlbert(
      100, 3, WeightOptions{WeightModel::kUniform, 10}, seed);
}

TEST(BuildRun, EveryModeProducesExactIndex) {
  const Graph g = TestGraph(91);
  for (const BuildMode mode :
       {BuildMode::kSerial, BuildMode::kParallel, BuildMode::kSimulated,
        BuildMode::kCluster}) {
    const BuildOutcome outcome = build::Run(
        g, {.mode = mode, .threads = 3, .nodes = 2, .sync_count = 2});
    const pll::Index& index = outcome.artifact.index;
    const auto verdict = pll::VerifyExhaustive(g, index);
    EXPECT_TRUE(verdict.Ok()) << ToString(mode) << ": " << verdict.ToString();
    EXPECT_EQ(index.Manifest().mode, ToString(mode));
    EXPECT_GT(index.AvgLabelSize(), 0.0);
    EXPECT_GT(index.TotalEntries(), 0u);
    EXPECT_GT(index.MemoryBytes(), 0u);
    EXPECT_GT(outcome.totals.labels_added, 0u);
  }
}

TEST(BuildRun, DefaultPlanIsASerialBuild) {
  const Graph g = TestGraph(92);
  const pll::Index index = build::Run(g, {}).artifact.index;
  EXPECT_EQ(index.NumVertices(), g.NumVertices());
  EXPECT_EQ(index.Manifest().mode, "serial");
}

TEST(BuildRun, SimulatedReportsMakespanBelowTotal) {
  const Graph g = TestGraph(93);
  const BuildOutcome outcome =
      build::Run(g, {.mode = BuildMode::kSimulated, .threads = 4});
  EXPECT_GT(outcome.makespan_units, 0.0);
  EXPECT_GT(outcome.total_units, outcome.makespan_units);
}

TEST(BuildRun, ModeNamesAreStable) {
  EXPECT_EQ(ToString(BuildMode::kSerial), "serial");
  EXPECT_EQ(ToString(BuildMode::kParallel), "parallel");
  EXPECT_EQ(ToString(BuildMode::kSimulated), "simulated");
  EXPECT_EQ(ToString(BuildMode::kCluster), "cluster");
}

TEST(BuildRun, OrderingAndPolicyKnobsAreHonored) {
  const Graph g = TestGraph(95);
  const BuildOutcome by_degree =
      build::Run(g, {.ordering = pll::OrderingPolicy::kDegree});
  const BuildOutcome by_random =
      build::Run(g, {.ordering = pll::OrderingPolicy::kRandom, .seed = 123});
  EXPECT_NE(by_degree.artifact.index.TotalEntries(),
            by_random.artifact.index.TotalEntries());
}

}  // namespace
}  // namespace parapll::build
