// Route-distance service on a road network (paper §1: "optimal path
// selection between two nodes in a network").
//
// Road networks are the hard case for PLL-family indexes: flat degree
// distributions give the pruning less leverage, so labels are larger
// (paper Tables 3-5: DE/RI/HI-USA carry the biggest LN). The example
// builds an index over a synthetic state-sized road network, serves a
// batch of origin-destination queries, and contrasts the amortized query
// cost against bidirectional Dijkstra.
#include <cstdio>
#include <vector>

#include "core/parapll.hpp"

int main() {
  using namespace parapll;

  // Synthetic stand-in for the paper's RI-USA TIGER road network.
  const graph::Graph g = graph::MakeDatasetByName("RI-USA", 0.04, 23);
  std::printf("road network (RI-USA-like): n=%u m=%zu (max degree stays "
              "grid-like)\n",
              g.NumVertices(), g.NumEdges());

  // Road networks reward the cluster mode: indexing cost is the pain
  // point, so spread it over 4 nodes with frequent synchronization.
  const build::BuildOutcome outcome =
      build::Run(g, {.mode = build::BuildMode::kCluster,
                     .threads = 2,
                     .nodes = 4,
                     .sync_count = 32});
  const pll::Index& index = outcome.artifact.index;
  std::printf("indexed on a simulated 4-node cluster in %s "
              "(avg label size %.1f)\n",
              util::FormatDuration(outcome.wall_seconds).c_str(),
              index.AvgLabelSize());

  // A dispatch batch: 200 origin-destination distance lookups.
  util::Rng rng(5);
  std::vector<std::pair<graph::VertexId, graph::VertexId>> trips;
  for (int i = 0; i < 200; ++i) {
    trips.emplace_back(
        static_cast<graph::VertexId>(rng.Below(g.NumVertices())),
        static_cast<graph::VertexId>(rng.Below(g.NumVertices())));
  }

  util::WallTimer index_timer;
  graph::Distance checksum_index = 0;
  for (const auto& [s, t] : trips) {
    const graph::Distance d = index.Query(s, t);
    if (d != graph::kInfiniteDistance) {
      checksum_index += d;
    }
  }
  const double index_ms = index_timer.Millis();

  util::WallTimer bidi_timer;
  graph::Distance checksum_bidi = 0;
  for (const auto& [s, t] : trips) {
    const graph::Distance d = baseline::BidirectionalDijkstra(g, s, t);
    if (d != graph::kInfiniteDistance) {
      checksum_bidi += d;
    }
  }
  const double bidi_ms = bidi_timer.Millis();

  std::printf("\n200 O-D queries: %.2fms via index (%.1fus each), "
              "%.2fms via bidirectional Dijkstra (%.1fus each)\n",
              index_ms, index_ms * 1000 / 200, bidi_ms,
              bidi_ms * 1000 / 200);
  std::printf("answers %s (checksums %llu vs %llu)\n",
              checksum_index == checksum_bidi ? "agree" : "DISAGREE",
              static_cast<unsigned long long>(checksum_index),
              static_cast<unsigned long long>(checksum_bidi));
  if (bidi_ms > 0 && index_ms > 0) {
    std::printf("speedup at query time: %.0fx\n", bidi_ms / index_ms);
  }
  return checksum_index == checksum_bidi ? 0 : 1;
}
