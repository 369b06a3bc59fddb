#include "baseline/dijkstra.hpp"

#include <queue>
#include <utility>

#include "util/check.hpp"

namespace parapll::baseline {

namespace {

using HeapEntry = std::pair<Distance, VertexId>;
using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

}  // namespace

std::vector<Distance> DijkstraAll(const Graph& g, VertexId source) {
  PARAPLL_CHECK(source < g.NumVertices());
  std::vector<Distance> dist(g.NumVertices(), graph::kInfiniteDistance);
  dist[source] = 0;
  MinHeap heap;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) {
      continue;  // stale entry
    }
    for (const graph::Arc& arc : g.Neighbors(u)) {
      const Distance nd = d + arc.weight;
      if (nd < dist[arc.target]) {
        dist[arc.target] = nd;
        heap.emplace(nd, arc.target);
      }
    }
  }
  return dist;
}

Distance DijkstraOne(const Graph& g, VertexId source, VertexId target) {
  PARAPLL_CHECK(source < g.NumVertices() && target < g.NumVertices());
  if (source == target) {
    return 0;
  }
  std::vector<Distance> dist(g.NumVertices(), graph::kInfiniteDistance);
  dist[source] = 0;
  MinHeap heap;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) {
      continue;
    }
    if (u == target) {
      return d;
    }
    for (const graph::Arc& arc : g.Neighbors(u)) {
      const Distance nd = d + arc.weight;
      if (nd < dist[arc.target]) {
        dist[arc.target] = nd;
        heap.emplace(nd, arc.target);
      }
    }
  }
  return graph::kInfiniteDistance;
}

}  // namespace parapll::baseline
