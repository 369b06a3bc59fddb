// Dijkstra's algorithm — the paper's querying-stage baseline and the
// ground truth every PLL index is verified against.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace parapll::baseline {

using graph::Distance;
using graph::Graph;
using graph::VertexId;

// Single-source shortest-path distances from `source` to every vertex;
// unreachable vertices get kInfiniteDistance.
std::vector<Distance> DijkstraAll(const Graph& g, VertexId source);

// Point-to-point distance with early termination once `target` settles.
Distance DijkstraOne(const Graph& g, VertexId source, VertexId target);

}  // namespace parapll::baseline
