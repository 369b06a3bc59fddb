#include "parapll/parallel_indexer.hpp"

#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "pll/serial_pll.hpp"
#include "pll/verify.hpp"

namespace parapll {
namespace {

using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;
using parallel::AssignmentPolicy;
using parallel::LockMode;
using parallel::ParallelBuildOptions;

WeightOptions Uniform() { return WeightOptions{WeightModel::kUniform, 10}; }

struct Config {
  std::size_t threads;
  AssignmentPolicy policy;
  LockMode lock;
};

class ParallelIndexerExactness
    : public ::testing::TestWithParam<Config> {};

TEST_P(ParallelIndexerExactness, MatchesDijkstraOnMixedGraphs) {
  const Config config = GetParam();
  const std::vector<Graph> graphs = {
      graph::BarabasiAlbert(120, 3, Uniform(), 31),
      graph::ErdosRenyi(100, 250, Uniform(), 32),
      graph::RoadGrid(9, 9, 0.8, 4, Uniform(), 33),
  };
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ParallelBuildOptions options;
    options.threads = config.threads;
    options.policy = config.policy;
    options.lock_mode = config.lock;
    const auto result = BuildParallel(graphs[i], options);
    const auto index = result.MakeIndex();
    const auto verdict = pll::VerifyExhaustive(graphs[i], index);
    EXPECT_TRUE(verdict.Ok()) << "graph " << i << " threads "
                              << config.threads << ": " << verdict.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyLockThreadSweep, ParallelIndexerExactness,
    ::testing::Values(
        Config{1, AssignmentPolicy::kStatic, LockMode::kStriped},
        Config{2, AssignmentPolicy::kStatic, LockMode::kGlobal},
        Config{4, AssignmentPolicy::kStatic, LockMode::kStriped},
        Config{4, AssignmentPolicy::kStatic, LockMode::kPerRow},
        Config{2, AssignmentPolicy::kDynamic, LockMode::kStriped},
        Config{4, AssignmentPolicy::kDynamic, LockMode::kGlobal},
        Config{4, AssignmentPolicy::kDynamic, LockMode::kPerRow},
        Config{8, AssignmentPolicy::kDynamic, LockMode::kStriped}));

TEST(ParallelIndexer, SingleThreadMatchesSerialIndexSize) {
  // With one thread there is no visibility relaxation: the label set must
  // equal the serial build's exactly (paper: "indexing time of ParaPLL
  // with a single thread almost equals that of PLL").
  const Graph g = graph::BarabasiAlbert(150, 3, Uniform(), 41);
  ParallelBuildOptions options;
  options.threads = 1;
  options.policy = AssignmentPolicy::kDynamic;
  const auto parallel_result = BuildParallel(g, options);
  const auto serial_result = pll::BuildSerial(g, {});
  EXPECT_EQ(parallel_result.store.TotalEntries(),
            serial_result.store.TotalEntries());
  EXPECT_EQ(parallel_result.store, serial_result.store);
}

TEST(ParallelIndexer, ThreadReportsCoverAllRoots) {
  const Graph g = graph::ErdosRenyi(80, 160, Uniform(), 42);
  ParallelBuildOptions options;
  options.threads = 4;
  options.policy = AssignmentPolicy::kDynamic;
  const auto result = BuildParallel(g, options);
  std::size_t roots = 0;
  for (const auto& report : result.threads) {
    roots += report.roots_processed;
  }
  EXPECT_EQ(roots, g.NumVertices());
}

TEST(ParallelIndexer, StaticPolicySplitsRootsRoundRobin) {
  const Graph g = graph::ErdosRenyi(81, 160, Uniform(), 43);
  ParallelBuildOptions options;
  options.threads = 3;
  options.policy = AssignmentPolicy::kStatic;
  const auto result = BuildParallel(g, options);
  ASSERT_EQ(result.threads.size(), 3u);
  for (const auto& report : result.threads) {
    EXPECT_EQ(report.roots_processed, 27u);
  }
}

TEST(ParallelIndexer, TraceHasOneEntryPerRoot) {
  const Graph g = graph::BarabasiAlbert(90, 2, Uniform(), 44);
  ParallelBuildOptions options;
  options.threads = 4;
  options.record_trace = true;
  const auto result = BuildParallel(g, options);
  ASSERT_EQ(result.trace.size(), g.NumVertices());
  std::vector<bool> seen(g.NumVertices(), false);
  std::size_t labels_total = 0;
  for (const auto& [root, labels_added] : result.trace) {
    EXPECT_FALSE(seen[root]);
    seen[root] = true;
    labels_total += labels_added;
  }
  EXPECT_EQ(labels_total, result.totals.labels_added);
}

TEST(ParallelIndexer, MoreThreadsNeverLoseCorrectnessOnDisconnected) {
  const std::vector<graph::Edge> edges = {
      {0, 1, 2}, {1, 2, 2}, {3, 4, 5}, {4, 5, 1}};
  const Graph g = Graph::FromEdges(7, edges);  // vertex 6 isolated
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ParallelBuildOptions options;
    options.threads = threads;
    const auto result = BuildParallel(g, options);
    const auto index = result.MakeIndex();
    EXPECT_EQ(index.Query(0, 2), 4u);
    EXPECT_EQ(index.Query(3, 5), 6u);
    EXPECT_EQ(index.Query(0, 3), graph::kInfiniteDistance);
    EXPECT_EQ(index.Query(6, 0), graph::kInfiniteDistance);
  }
}

TEST(ParallelIndexer, ThreadReportsSplitBusyFromIdle) {
  const Graph g = graph::BarabasiAlbert(150, 3, Uniform(), 46);
  ParallelBuildOptions options;
  options.threads = 4;
  options.policy = AssignmentPolicy::kDynamic;
  const auto result = BuildParallel(g, options);
  ASSERT_EQ(result.threads.size(), 4u);
  for (const auto& report : result.threads) {
    EXPECT_GE(report.busy_seconds, 0.0);
    EXPECT_GE(report.idle_seconds, 0.0);
    EXPECT_GE(report.WallSeconds(), report.busy_seconds);
    EXPECT_GE(report.Utilization(), 0.0);
    EXPECT_LE(report.Utilization(), 1.0);
  }
  EXPECT_GE(result.AvgUtilization(), 0.0);
  EXPECT_LE(result.AvgUtilization(), 1.0);
  // Workers spend the bulk of the build inside Pruned Dijkstra.
  double busy_total = 0.0;
  for (const auto& report : result.threads) {
    busy_total += report.busy_seconds;
  }
  EXPECT_GT(busy_total, 0.0);
}

TEST(ParallelIndexer, InstrumentedCountersMatchPruneStatsTotals) {
  // The obs counters are fed once per root from the same PruneStats the
  // build returns, so after a build with metrics on the registry must
  // agree exactly with result.totals.
  obs::Registry& registry = obs::Registry::Global();
  registry.Reset();
  obs::SetMetricsEnabled(true);
  const Graph g = graph::BarabasiAlbert(160, 3, Uniform(), 47);
  ParallelBuildOptions options;
  options.threads = 4;
  options.policy = AssignmentPolicy::kDynamic;
  const auto result = BuildParallel(g, options);
  obs::SetMetricsEnabled(false);

  EXPECT_EQ(registry.GetCounter("pll.roots_expanded").Value(),
            g.NumVertices());
  EXPECT_EQ(registry.GetCounter("pll.settled").Value(),
            result.totals.settled);
  EXPECT_EQ(registry.GetCounter("pll.prune_hits").Value(),
            result.totals.pruned);
  EXPECT_EQ(registry.GetCounter("pll.labels_added").Value(),
            result.totals.labels_added);
  EXPECT_EQ(registry.GetCounter("pll.relaxations").Value(),
            result.totals.relaxations);
  EXPECT_EQ(registry.GetCounter("pll.heap_pushes").Value(),
            result.totals.heap_pushes);
  EXPECT_EQ(registry.GetCounter("pll.probe_entries").Value(),
            result.totals.probe_entries);
  // Every pruned probe read at least its witness, and only part of all
  // the entries the probes read.
  const std::uint64_t to_witness =
      registry.GetCounter("pll.probe_entries_to_witness").Value();
  EXPECT_GE(to_witness, result.totals.pruned);
  EXPECT_LE(to_witness, result.totals.probe_entries);
  // Labels-added histogram saw every root once.
  EXPECT_EQ(registry.GetHistogram("pll.labels_per_root").Snapshot().count,
            g.NumVertices());
  // Every Append took (and counted) a row lock at least once; reads lock
  // too, so acquired >= appended labels.
  EXPECT_GE(registry.GetCounter("store.lock_acquired").Value(),
            result.totals.labels_added);
  // The per-thread load-balance gauges were published.
  double busy_sum = 0.0;
  for (std::size_t t = 0; t < result.threads.size(); ++t) {
    const std::string prefix = "indexer.thread." + std::to_string(t);
    busy_sum += registry.GetGauge(prefix + ".busy_seconds").Value();
    EXPECT_DOUBLE_EQ(
        registry.GetGauge(prefix + ".roots_processed").Value(),
        static_cast<double>(result.threads[t].roots_processed));
  }
  double busy_expected = 0.0;
  for (const auto& report : result.threads) {
    busy_expected += report.busy_seconds;
  }
  EXPECT_DOUBLE_EQ(busy_sum, busy_expected);
}

TEST(ParallelIndexer, LabelCountAtLeastSerial) {
  // Relaxed visibility can only add labels, never remove them.
  const Graph g = graph::BarabasiAlbert(200, 3, Uniform(), 45);
  const auto serial_result = pll::BuildSerial(g, {});
  for (const std::size_t threads : {2u, 4u, 8u}) {
    ParallelBuildOptions options;
    options.threads = threads;
    const auto result = BuildParallel(g, options);
    EXPECT_GE(result.store.TotalEntries(),
              serial_result.store.TotalEntries());
  }
}

}  // namespace
}  // namespace parapll
