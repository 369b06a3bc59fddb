// Virtual-time replay of a p-worker schedule, built through build::Run's
// kSimulated mode.
#include <gtest/gtest.h>

#include <algorithm>

#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "pll/verify.hpp"

namespace parapll {
namespace {

using build::BuildMode;
using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;
using parallel::AssignmentPolicy;

build::BuildOutcome Simulate(const Graph& g, std::size_t workers,
                             AssignmentPolicy policy =
                                 AssignmentPolicy::kDynamic,
                             bool record_trace = false) {
  return build::Run(g, {.mode = BuildMode::kSimulated,
                        .threads = workers,
                        .policy = policy,
                        .record_trace = record_trace});
}

WeightOptions Uniform() { return WeightOptions{WeightModel::kUniform, 10}; }

struct Config {
  std::size_t workers;
  AssignmentPolicy policy;
};

class SimIndexerExactness : public ::testing::TestWithParam<Config> {};

TEST_P(SimIndexerExactness, MatchesDijkstra) {
  const Config config = GetParam();
  const std::vector<Graph> graphs = {
      graph::BarabasiAlbert(120, 3, Uniform(), 51),
      graph::RoadGrid(8, 8, 0.8, 3, Uniform(), 52),
      graph::ErdosRenyi(90, 200, Uniform(), 53),
  };
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto result = Simulate(graphs[i], config.workers, config.policy);
    const auto verdict =
        pll::VerifyExhaustive(graphs[i], result.artifact.index);
    EXPECT_TRUE(verdict.Ok()) << "graph " << i << ": " << verdict.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkerPolicySweep, SimIndexerExactness,
    ::testing::Values(Config{1, AssignmentPolicy::kStatic},
                      Config{1, AssignmentPolicy::kDynamic},
                      Config{2, AssignmentPolicy::kStatic},
                      Config{4, AssignmentPolicy::kStatic},
                      Config{4, AssignmentPolicy::kDynamic},
                      Config{12, AssignmentPolicy::kStatic},
                      Config{12, AssignmentPolicy::kDynamic}));

TEST(SimIndexer, DeterministicAcrossRuns) {
  const Graph g = graph::BarabasiAlbert(150, 3, Uniform(), 61);
  const auto a = Simulate(g, 6);
  const auto b = Simulate(g, 6);
  EXPECT_EQ(a.artifact.index.Store(), b.artifact.index.Store());
  EXPECT_DOUBLE_EQ(a.makespan_units, b.makespan_units);
  EXPECT_EQ(a.worker_units, b.worker_units);
}

TEST(SimIndexer, OneWorkerReproducesSerialLabels) {
  const Graph g = graph::ErdosRenyi(100, 250, Uniform(), 62);
  const auto sim = Simulate(g, 1);
  const auto serial = build::Run(g, {});
  EXPECT_EQ(sim.artifact.index.Store(), serial.artifact.index.Store());
  EXPECT_DOUBLE_EQ(sim.makespan_units, sim.total_units);
}

TEST(SimIndexer, MakespanShrinksWithMoreWorkers) {
  const Graph g = graph::BarabasiAlbert(300, 4, Uniform(), 63);
  double previous = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const auto result = Simulate(g, workers);
    if (workers > 1) {
      EXPECT_LT(result.makespan_units, previous)
          << "no speedup from " << workers / 2 << " to " << workers;
    }
    previous = result.makespan_units;
  }
}

TEST(SimIndexer, SpeedupIsAtMostWorkerCount) {
  const Graph g = graph::BarabasiAlbert(200, 3, Uniform(), 64);
  const double serial_units = Simulate(g, 1).makespan_units;
  for (const std::size_t workers : {2u, 4u, 8u}) {
    const auto result = Simulate(g, workers);
    const double speedup = serial_units / result.makespan_units;
    EXPECT_GT(speedup, 1.0);
    // Relaxed visibility adds work, so speedup must stay below p with a
    // small tolerance for the task_overhead term.
    EXPECT_LT(speedup, static_cast<double>(workers) * 1.05);
  }
}

TEST(SimIndexer, LabelInflationGrowsWithWorkers) {
  // Tables 3–4: LN grows (mildly) with thread count.
  const Graph g = graph::BarabasiAlbert(300, 4, Uniform(), 65);
  const std::size_t base = Simulate(g, 1).artifact.index.TotalEntries();
  const std::size_t inflated =
      Simulate(g, 12, AssignmentPolicy::kStatic).artifact.index.TotalEntries();
  EXPECT_GE(inflated, base);
}

TEST(SimIndexer, DynamicBalancesWorkerClocks) {
  const Graph g = graph::BarabasiAlbert(300, 4, Uniform(), 66);
  const auto result = Simulate(g, 4);
  const double max_clock = *std::max_element(result.worker_units.begin(),
                                             result.worker_units.end());
  const double min_clock = *std::min_element(result.worker_units.begin(),
                                             result.worker_units.end());
  // Dynamic assignment keeps the slowest and fastest worker within the
  // cost of roughly one task of each other on a 300-root workload.
  EXPECT_LT((max_clock - min_clock) / max_clock, 0.25);
}

TEST(SimIndexer, TraceCoversEveryRootOnce) {
  const Graph g = graph::ErdosRenyi(70, 150, Uniform(), 67);
  const auto result =
      Simulate(g, 3, AssignmentPolicy::kDynamic, /*record_trace=*/true);
  ASSERT_EQ(result.trace.size(), g.NumVertices());
  std::vector<bool> seen(g.NumVertices(), false);
  for (const auto& [root, stats] : result.trace) {
    EXPECT_FALSE(seen[root]);
    seen[root] = true;
  }
}

}  // namespace
}  // namespace parapll
