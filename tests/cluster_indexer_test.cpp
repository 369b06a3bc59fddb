// Inter-node ParaPLL (paper §4.5): the cluster helpers, and builds
// through build::Run's kCluster mode.
#include "cluster/cluster_indexer.hpp"

#include <gtest/gtest.h>

#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "pll/verify.hpp"

namespace parapll {
namespace {

using build::BuildMode;
using build::BuildOutcome;
using build::BuildPlan;
using cluster::SyncBoundaries;
using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;
using parallel::AssignmentPolicy;

WeightOptions Uniform() { return WeightOptions{WeightModel::kUniform, 10}; }

// A cluster plan of q nodes and c syncs, one simulated worker per node
// unless the caller sets plan.threads.
BuildPlan ClusterPlan(std::size_t nodes, std::size_t sync_count) {
  return {.mode = BuildMode::kCluster,
          .nodes = nodes,
          .sync_count = sync_count};
}

TEST(SyncBoundariesTest, OneSyncIsOneEpoch) {
  const auto b = SyncBoundaries(100, 1);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], 0u);
  EXPECT_EQ(b[1], 100u);
}

TEST(SyncBoundariesTest, BlocksAreFloorNOverC) {
  const auto b = SyncBoundaries(103, 4);  // ⌊103/4⌋ = 25
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b[1] - b[0], 25u);
  EXPECT_EQ(b[2] - b[1], 25u);
  EXPECT_EQ(b[3] - b[2], 25u);
  EXPECT_EQ(b[4] - b[3], 28u);  // remainder absorbed by the last epoch
}

TEST(SyncBoundariesTest, MoreSyncsThanVerticesClamps) {
  const auto b = SyncBoundaries(3, 128);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.back(), 3u);
}

struct Config {
  std::size_t nodes;
  std::size_t workers;
  std::size_t syncs;
  AssignmentPolicy policy;
};

class ClusterExactness : public ::testing::TestWithParam<Config> {};

TEST_P(ClusterExactness, MatchesDijkstra) {
  const Config config = GetParam();
  const std::vector<Graph> graphs = {
      graph::BarabasiAlbert(100, 3, Uniform(), 71),
      graph::RoadGrid(8, 8, 0.85, 3, Uniform(), 72),
  };
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    BuildPlan plan = ClusterPlan(config.nodes, config.syncs);
    plan.threads = config.workers;
    plan.policy = config.policy;
    const BuildOutcome result = build::Run(graphs[i], plan);
    const auto verdict =
        pll::VerifyExhaustive(graphs[i], result.artifact.index);
    EXPECT_TRUE(verdict.Ok()) << "graph " << i << " nodes " << config.nodes
                              << " syncs " << config.syncs << ": "
                              << verdict.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    NodeSyncSweep, ClusterExactness,
    ::testing::Values(Config{1, 1, 1, AssignmentPolicy::kDynamic},
                      Config{2, 1, 1, AssignmentPolicy::kDynamic},
                      Config{3, 2, 1, AssignmentPolicy::kStatic},
                      Config{4, 2, 2, AssignmentPolicy::kDynamic},
                      Config{6, 2, 4, AssignmentPolicy::kDynamic},
                      Config{6, 1, 16, AssignmentPolicy::kStatic},
                      Config{5, 3, 128, AssignmentPolicy::kDynamic}));

TEST(ComputeOwnersTest, RoundRobinStripes) {
  const auto owners =
      cluster::ComputeOwners(7, 3, cluster::OwnershipPolicy::kRoundRobin, 0);
  EXPECT_EQ(owners, (std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2, 0}));
}

TEST(ComputeOwnersTest, BlockIsContiguous) {
  const auto owners =
      cluster::ComputeOwners(7, 3, cluster::OwnershipPolicy::kBlock, 0);
  EXPECT_EQ(owners, (std::vector<std::uint32_t>{0, 0, 0, 1, 1, 1, 2}));
}

TEST(ComputeOwnersTest, RandomIsDeterministicAndInRange) {
  const auto a =
      cluster::ComputeOwners(100, 4, cluster::OwnershipPolicy::kRandom, 9);
  const auto b =
      cluster::ComputeOwners(100, 4, cluster::OwnershipPolicy::kRandom, 9);
  EXPECT_EQ(a, b);
  for (const auto owner : a) {
    EXPECT_LT(owner, 4u);
  }
}

TEST(ClusterIndexer, AllOwnershipPoliciesStayExact) {
  const Graph g = graph::BarabasiAlbert(90, 3, Uniform(), 80);
  for (const auto ownership :
       {cluster::OwnershipPolicy::kRoundRobin,
        cluster::OwnershipPolicy::kBlock,
        cluster::OwnershipPolicy::kRandom}) {
    BuildPlan plan = ClusterPlan(4, 4);
    plan.ownership = ownership;
    const BuildOutcome result = build::Run(g, plan);
    const auto verdict = pll::VerifyExhaustive(g, result.artifact.index);
    EXPECT_TRUE(verdict.Ok())
        << cluster::ToString(ownership) << ": " << verdict.ToString();
  }
}

TEST(ClusterIndexer, DeterministicAcrossRuns) {
  const Graph g = graph::BarabasiAlbert(120, 3, Uniform(), 73);
  BuildPlan plan = ClusterPlan(4, 3);
  plan.threads = 2;
  const BuildOutcome a = build::Run(g, plan);
  const BuildOutcome b = build::Run(g, plan);
  EXPECT_EQ(a.artifact.index.Store(), b.artifact.index.Store());
  EXPECT_DOUBLE_EQ(a.makespan_units, b.makespan_units);
  EXPECT_EQ(a.entries_exchanged, b.entries_exchanged);
}

TEST(ClusterIndexer, SingleNodeMatchesSimulated) {
  // q = 1 with one final sync degenerates to the intra-node simulation.
  const Graph g = graph::ErdosRenyi(90, 200, Uniform(), 74);
  BuildPlan plan = ClusterPlan(1, 1);
  plan.threads = 3;
  const BuildOutcome cluster_result = build::Run(g, plan);

  const BuildOutcome sim_result =
      build::Run(g, {.mode = BuildMode::kSimulated, .threads = 3});
  EXPECT_EQ(cluster_result.artifact.index.Store(),
            sim_result.artifact.index.Store());
  EXPECT_DOUBLE_EQ(cluster_result.comm_units, 0.0);
}

TEST(ClusterIndexer, LabelRedundancyGrowsWithNodes) {
  // Table 5: LN grows roughly 2–3x from 1 to 6 nodes with one sync.
  const Graph g = graph::BarabasiAlbert(300, 4, Uniform(), 75);
  std::size_t previous = 0;
  for (const std::size_t nodes : {1u, 3u, 6u}) {
    const std::size_t entries =
        build::Run(g, ClusterPlan(nodes, 1)).artifact.index.TotalEntries();
    if (nodes > 1) {
      EXPECT_GT(entries, previous);
    }
    previous = entries;
  }
}

TEST(ClusterIndexer, MoreSyncsShrinkLabels) {
  // Figure 7(b): synchronizing more often reduces redundant labels.
  const Graph g = graph::BarabasiAlbert(300, 4, Uniform(), 76);
  const BuildOutcome few_result = build::Run(g, ClusterPlan(4, 1));
  const BuildOutcome many_result = build::Run(g, ClusterPlan(4, 32));
  EXPECT_LE(many_result.artifact.index.TotalEntries(),
            few_result.artifact.index.TotalEntries());
}

TEST(ClusterIndexer, MoreSyncsCostMoreCommunication) {
  const Graph g = graph::BarabasiAlbert(200, 3, Uniform(), 77);
  const BuildOutcome few_result = build::Run(g, ClusterPlan(4, 1));
  const BuildOutcome many_result = build::Run(g, ClusterPlan(4, 16));
  EXPECT_GT(many_result.comm_units, few_result.comm_units);
  EXPECT_EQ(few_result.sync_rounds, 1u);
  EXPECT_EQ(many_result.sync_rounds, 16u);
}

TEST(ClusterIndexer, BytesFlowThroughFabric) {
  const Graph g = graph::BarabasiAlbert(100, 3, Uniform(), 78);
  const BuildOutcome result = build::Run(g, ClusterPlan(4, 2));
  EXPECT_GT(result.bytes_exchanged, 0u);
  EXPECT_GT(result.entries_exchanged, 0u);
}

TEST(ClusterIndexer, MakespanShrinksWithNodes) {
  // With enough synchronizations that pruning-efficiency loss stays
  // moderate at this small scale (see DESIGN.md / EXPERIMENTS.md: at the
  // paper's 100x larger graphs even c = 1 keeps the loss near 2-3x; at
  // n = 400 the c = 1 redundancy outweighs 6-way parallelism).
  const Graph g = graph::BarabasiAlbert(400, 4, Uniform(), 79);
  const double single = build::Run(g, ClusterPlan(1, 16)).makespan_units;
  const double clustered = build::Run(g, ClusterPlan(6, 16)).makespan_units;
  EXPECT_LT(clustered, single);
}

}  // namespace
}  // namespace parapll
