#include "pll/dynamic_index.hpp"

#include <algorithm>
#include <queue>

#include "pll/ordering.hpp"
#include "util/check.hpp"

namespace parapll::pll {

DynamicIndex::DynamicIndex(const graph::Graph& g, const Index& index)
    : rows_(index.Store().ToRows()),
      order_(index.Order()),
      rank_of_(InvertOrder(order_)) {
  PARAPLL_CHECK(g.NumVertices() == index.NumVertices());
  const graph::VertexId n = g.NumVertices();
  const graph::Graph rank_graph = ToRankSpace(g, order_);
  adjacency_.resize(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    const auto nbrs = rank_graph.Neighbors(v);
    adjacency_[v].assign(nbrs.begin(), nbrs.end());
  }
  scratch_dist_.assign(n, graph::kInfiniteDistance);
  scratch_root_.assign(n, graph::kInfiniteDistance);
}

graph::Distance DynamicIndex::QueryRanks(graph::VertexId a,
                                         graph::VertexId b) const {
  return QueryRows(rows_[a], rows_[b]);
}

graph::Distance DynamicIndex::Query(graph::VertexId s,
                                    graph::VertexId t) const {
  PARAPLL_CHECK(s < NumVertices() && t < NumVertices());
  if (s == t) {
    return 0;
  }
  return QueryRanks(rank_of_[s], rank_of_[t]);
}

bool DynamicIndex::Upsert(graph::VertexId v, graph::VertexId hub,
                          graph::Distance dist) {
  auto& row = rows_[v];
  const auto it = std::lower_bound(
      row.begin(), row.end(), hub,
      [](const LabelEntry& e, graph::VertexId h) { return e.hub < h; });
  if (it != row.end() && it->hub == hub) {
    if (dist >= it->dist) {
      return false;
    }
    it->dist = dist;
    return true;
  }
  row.insert(it, LabelEntry{hub, dist});
  return true;
}

void DynamicIndex::Resume(graph::VertexId hub, graph::VertexId seed,
                          graph::Distance seed_dist) {
  ++stats_.resumptions;
  auto& dist = scratch_dist_;
  auto& root_dist = scratch_root_;
  touched_dist_.clear();
  touched_root_.clear();

  // Snapshot L(hub) for the pruning test, including (hub, 0) itself so an
  // existing equal-or-better entry (hub, d') in L(u) prunes immediately.
  for (const LabelEntry& e : rows_[hub]) {
    if (e.dist < root_dist[e.hub]) {
      if (root_dist[e.hub] == graph::kInfiniteDistance) {
        touched_root_.push_back(e.hub);
      }
      root_dist[e.hub] = e.dist;
    }
  }

  using HeapEntry = std::pair<graph::Distance, graph::VertexId>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      heap;
  dist[seed] = seed_dist;
  touched_dist_.push_back(seed);
  heap.emplace(seed_dist, seed);

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) {
      continue;
    }
    // Pruning test over current labels (hubs of rank <= hub).
    graph::Distance covered = graph::kInfiniteDistance;
    for (const LabelEntry& e : rows_[u]) {
      if (e.hub <= hub && root_dist[e.hub] != graph::kInfiniteDistance) {
        covered = std::min(covered, root_dist[e.hub] + e.dist);
      }
    }
    if (covered <= d) {
      continue;
    }
    if (Upsert(u, hub, d)) {
      ++stats_.labels_touched;
    }
    for (const graph::Arc& arc : adjacency_[u]) {
      const graph::Distance nd = d + arc.weight;
      if (nd < dist[arc.target]) {
        if (dist[arc.target] == graph::kInfiniteDistance) {
          touched_dist_.push_back(arc.target);
        }
        dist[arc.target] = nd;
        heap.emplace(nd, arc.target);
      }
    }
  }

  for (const graph::VertexId v : touched_dist_) {
    dist[v] = graph::kInfiniteDistance;
  }
  for (const graph::VertexId h : touched_root_) {
    root_dist[h] = graph::kInfiniteDistance;
  }
}

void DynamicIndex::Propagate(graph::VertexId from, graph::VertexId into,
                             graph::Weight w) {
  // Copy the hub list first: Resume may grow L(from) itself.
  const std::vector<LabelEntry> hubs = rows_[from];
  for (const LabelEntry& e : hubs) {
    Resume(e.hub, into, e.dist + w);
  }
}

void DynamicIndex::AddEdge(graph::VertexId u, graph::VertexId v,
                           graph::Weight w) {
  PARAPLL_CHECK(u < NumVertices() && v < NumVertices());
  PARAPLL_CHECK_MSG(u != v, "self-loops do not affect distances");
  PARAPLL_CHECK(w > 0);
  const graph::VertexId a = rank_of_[u];
  const graph::VertexId b = rank_of_[v];

  // Insert / lighten the adjacency both ways.
  auto upsert_arc = [](std::vector<graph::Arc>& arcs, graph::VertexId target,
                       graph::Weight weight) {
    for (graph::Arc& arc : arcs) {
      if (arc.target == target) {
        arc.weight = std::min(arc.weight, weight);
        return;
      }
    }
    arcs.push_back(graph::Arc{target, weight});
  };
  upsert_arc(adjacency_[a], b, w);
  upsert_arc(adjacency_[b], a, w);
  ++stats_.edges_inserted;

  Propagate(a, b, w);
  Propagate(b, a, w);
}

std::size_t DynamicIndex::TotalEntries() const {
  std::size_t total = 0;
  for (const auto& row : rows_) {
    total += row.size();
  }
  return total;
}

}  // namespace parapll::pll
