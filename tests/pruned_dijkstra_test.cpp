#include "pll/pruned_dijkstra.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "pll/label_store.hpp"
#include "pll/ordering.hpp"
#include "vtime/timestamped_labels.hpp"

namespace parapll::pll {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::WeightModel;
using graph::WeightOptions;

const WeightOptions kUniform{WeightModel::kUniform, 10};

TEST(PrunedDijkstra, FirstRootIsFullDijkstra) {
  // With no existing labels, nothing can be pruned: every reachable vertex
  // gets a label with its exact Dijkstra distance.
  const Graph g = graph::BarabasiAlbert(60, 2, kUniform, 1);
  MutableLabels labels(g.NumVertices());
  PruneScratch scratch(g.NumVertices());
  const PruneStats stats = PrunedDijkstra(g, 0, labels, scratch);
  EXPECT_EQ(stats.pruned, 0u);
  EXPECT_EQ(stats.labels_added, g.NumVertices());

  const auto truth = baseline::DijkstraAll(g, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(labels.Row(v).size(), 1u);
    EXPECT_EQ(labels.Row(v)[0].hub, 0u);
    EXPECT_EQ(labels.Row(v)[0].dist, truth[v]);
  }
}

TEST(PrunedDijkstra, SecondRootPrunesCoveredVertices) {
  // Path 0-1-2 (unit weights), ranks equal ids. After root 0, root 1's
  // search is covered at vertex 0 and 2? No: d(1,0)=1, QUERY via hub 0 =
  // d(0,1)+d(0,0) = 1 <= 1 -> pruned; d(1,2)=1 vs hub 0: 1+2=3 > 1 -> kept.
  const Graph g = graph::Path(3, WeightOptions{WeightModel::kUnit, 1}, 1);
  MutableLabels labels(3);
  PruneScratch scratch(3);
  (void)PrunedDijkstra(g, 0, labels, scratch);
  const PruneStats stats = PrunedDijkstra(g, 1, labels, scratch);
  EXPECT_EQ(stats.pruned, 1u);         // vertex 0
  EXPECT_EQ(stats.labels_added, 2u);   // vertices 1 and 2
  EXPECT_EQ(labels.Row(0).size(), 1u);
  EXPECT_EQ(labels.Row(1).size(), 2u);
}

TEST(PrunedDijkstra, LaterRootsPruneMore) {
  const Graph g = graph::BarabasiAlbert(200, 3, kUniform, 2);
  MutableLabels labels(g.NumVertices());
  PruneScratch scratch(g.NumVertices());
  std::size_t early_added = 0;
  std::size_t late_added = 0;
  for (VertexId root = 0; root < g.NumVertices(); ++root) {
    const PruneStats stats = PrunedDijkstra(g, root, labels, scratch);
    if (root < 10) {
      early_added += stats.labels_added;
    }
    if (root >= g.NumVertices() - 10) {
      late_added += stats.labels_added;
    }
  }
  EXPECT_GT(early_added, late_added * 3);
}

TEST(PrunedDijkstra, ScratchIsReusableAcrossRoots) {
  // Running with one shared scratch must equal running with fresh ones.
  const Graph g = graph::ErdosRenyi(50, 120, kUniform, 3);
  MutableLabels shared_labels(g.NumVertices());
  PruneScratch shared_scratch(g.NumVertices());
  MutableLabels fresh_labels(g.NumVertices());
  for (VertexId root = 0; root < g.NumVertices(); ++root) {
    (void)PrunedDijkstra(g, root, shared_labels, shared_scratch);
    PruneScratch fresh_scratch(g.NumVertices());
    (void)PrunedDijkstra(g, root, fresh_labels, fresh_scratch);
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(shared_labels.Row(v), fresh_labels.Row(v));
  }
}

TEST(PrunedDijkstra, StatsAreInternallyConsistent) {
  const Graph g = graph::BarabasiAlbert(100, 3, kUniform, 4);
  MutableLabels labels(g.NumVertices());
  PruneScratch scratch(g.NumVertices());
  for (VertexId root = 0; root < g.NumVertices(); ++root) {
    const PruneStats stats = PrunedDijkstra(g, root, labels, scratch);
    EXPECT_EQ(stats.settled, stats.pruned + stats.labels_added);
    EXPECT_GE(stats.heap_pushes, 1u);
    EXPECT_LE(stats.labels_added, stats.settled);
  }
}

TEST(PrunedDijkstra, TotalLabelsFarBelowNSquared) {
  // The whole point of pruning: the 2-hop cover stays near-linear, far
  // below the n^2 entries of an all-pairs table.
  const Graph g = graph::BarabasiAlbert(400, 3, kUniform, 5);
  MutableLabels labels(g.NumVertices());
  PruneScratch scratch(g.NumVertices());
  for (VertexId root = 0; root < g.NumVertices(); ++root) {
    (void)PrunedDijkstra(g, root, labels, scratch);
  }
  const std::size_t total = labels.TotalEntries();
  const std::size_t all_pairs =
      static_cast<std::size_t>(g.NumVertices()) * g.NumVertices();
  EXPECT_LT(total * 8, all_pairs);
}

TEST(PrunedDijkstra, IsolatedRootLabelsOnlyItself) {
  const Graph g = Graph::FromEdges(3, std::vector<graph::Edge>{{0, 1, 2}});
  MutableLabels labels(3);
  PruneScratch scratch(3);
  const PruneStats stats = PrunedDijkstra(g, 2, labels, scratch);
  EXPECT_EQ(stats.labels_added, 1u);
  EXPECT_EQ(labels.Row(2).size(), 1u);
  EXPECT_EQ(labels.Row(2)[0], (LabelEntry{2, 0}));
}

// Test-only Labels adapter: MutableLabels rows read in full, ignoring the
// callback's stop signal. It is the full-scan reference the early-exit
// probe must agree with.
class FullScanLabels {
 public:
  explicit FullScanLabels(VertexId n) : labels_(n) {}

  template <typename F>
  void ForEach(VertexId v, F&& fn) const {
    for (const LabelEntry& e : labels_.Row(v)) {
      (void)fn(e.hub, e.dist);
    }
  }

  void Append(VertexId v, VertexId hub, graph::Distance dist) {
    labels_.Append(v, hub, dist);
  }

  [[nodiscard]] const MutableLabels& Rows() const { return labels_; }

 private:
  MutableLabels labels_;
};

Graph DegreeRanked(const Graph& g) {
  return ToRankSpace(g, ComputeOrder(g, OrderingPolicy::kDegree, 0));
}

TEST(PrunedDijkstra, EarlyExitMatchesTheFullScanAndReadsLess) {
  const std::vector<std::pair<const char*, Graph>> families = {
      {"ba", DegreeRanked(graph::BarabasiAlbert(
                 1000, 5, WeightOptions{WeightModel::kUniform, 100}, 21))},
      {"er", DegreeRanked(graph::ErdosRenyi(300, 900, kUniform, 22))},
      {"road-grid",
       DegreeRanked(graph::RoadGrid(16, 15, 0.85, 4, kUniform, 23))},
      {"path", DegreeRanked(graph::Path(60, kUniform, 24))},
  };
  for (const auto& [name, g] : families) {
    SCOPED_TRACE(name);
    const VertexId n = g.NumVertices();
    MutableLabels early(n);
    FullScanLabels full(n);
    PruneScratch early_scratch(n);
    PruneScratch full_scratch(n);
    PruneStats early_totals;
    PruneStats full_totals;
    for (VertexId root = 0; root < n; ++root) {
      early_totals += PrunedDijkstra(g, root, early, early_scratch);
      full_totals += PrunedDijkstra(g, root, full, full_scratch);
    }
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(early.Row(v), full.Rows().Row(v)) << "row " << v;
    }
    // Same search, same verdicts; only the probe reads less.
    PruneStats same_search = early_totals;
    same_search.probe_entries = full_totals.probe_entries;
    EXPECT_EQ(same_search, full_totals);
    EXPECT_LE(early_totals.probe_entries, full_totals.probe_entries);
    if (std::string(name) == "ba") {
      // Most pops prune here, and a witness sits early in L(u).
      EXPECT_GT(early_totals.pruned * 2, early_totals.settled);
      EXPECT_LT(early_totals.probe_entries * 2, full_totals.probe_entries);
    }
  }
}

TEST(PrunedDijkstra, HubsAtOrAboveTheRootNeverWitness) {
  // Triangle 0–1 (10), 0–2 (1), 2–1 (1), indexed from root 0. Root 2,
  // running concurrently, has already published d(2, 0) = 1 into L(0)
  // and d(2, 1) = 1 into L(1). Through hub 2 vertex 1 would look covered
  // (1 + 1 <= 2), but only hubs of rank < root may witness.
  const Graph g = Graph::FromEdges(
      3, std::vector<graph::Edge>{{0, 1, 10}, {0, 2, 1}, {2, 1, 1}});
  MutableLabels labels(3);
  labels.Append(0, 2, 1);
  labels.Append(1, 2, 1);
  PruneScratch scratch(3);
  const PruneStats stats = PrunedDijkstra(g, 0, labels, scratch);
  EXPECT_EQ(stats.pruned, 0u);
  EXPECT_EQ(stats.labels_added, 3u);
  EXPECT_EQ(labels.Row(1).back(), (LabelEntry{0, 2}));
}

TEST(PrunedDijkstra, WitnessDepthCounterCountsTheEntriesOfPrunedProbes) {
  // Path 0–1–2, unit weights, ranks equal ids. Root 0 probes empty rows.
  // Root 1 reads one entry at each of vertices 1, 0 (pruned: via hub 0,
  // 1 + 0 <= 1) and 2. Root 2 reads both entries of L(2), then both of
  // L(1), the second of which (hub 1: 1 + 0 <= 1) prunes vertex 1.
  const Graph g = graph::Path(3, WeightOptions{WeightModel::kUnit, 1}, 1);
  obs::Registry& registry = obs::Registry::Global();
  registry.Reset();
  obs::SetMetricsEnabled(true);
  MutableLabels labels(3);
  PruneScratch scratch(3);
  PruneStats totals;
  for (VertexId root = 0; root < 3; ++root) {
    totals += PrunedDijkstra(g, root, labels, scratch);
  }
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(totals.pruned, 2u);
  EXPECT_EQ(totals.probe_entries, 7u);
  EXPECT_EQ(registry.GetCounter("pll.prune_hits").Value(), 2u);
  EXPECT_EQ(registry.GetCounter("pll.probe_entries").Value(), 7u);
  EXPECT_EQ(registry.GetCounter("pll.probe_entries_to_witness").Value(), 3u);
}

TEST(PrunedDijkstra, SimLabelViewChargesOnlyTheEntriesReadBeforeTheStop) {
  vtime::TimestampedLabels labels(1);
  labels.Append(0, 9, 1, 100.0);  // published later: never visible here
  for (VertexId hub = 0; hub < 5; ++hub) {
    labels.Append(0, hub, hub, 0.0);
  }
  const Graph g = Graph::FromEdges(1, std::vector<graph::Edge>{});
  const vtime::CostModel cost;
  vtime::SimLabelView view(labels, g, cost, 0.0);
  std::vector<VertexId> seen;
  view.ForEach(0, [&seen](VertexId hub, graph::Distance) {
    seen.push_back(hub);
    return hub == 1;
  });
  EXPECT_EQ(seen, (std::vector<VertexId>{0, 1}));
  // The first call is the root snapshot, charged as probes only.
  EXPECT_DOUBLE_EQ(view.Now(), 2 * cost.probe);
  view.ForEach(0, [](VertexId, graph::Distance) { return false; });
  EXPECT_DOUBLE_EQ(view.Now(), 2 * cost.probe + cost.settle + 5 * cost.probe);
}

}  // namespace
}  // namespace parapll::pll
