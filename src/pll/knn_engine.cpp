#include "pll/knn_engine.hpp"

#include <algorithm>
#include <queue>

#include "util/check.hpp"

namespace parapll::pll {

KnnEngine::KnnEngine(const Index& index) : index_(index) {
  const LabelStore& store = index.Store();
  const graph::VertexId n = store.NumVertices();
  inverted_.resize(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    for (const LabelEntry& e : store.Row(v)) {
      inverted_[e.hub].push_back(InvertedEntry{e.dist, v});
    }
  }
  for (auto& list : inverted_) {
    std::sort(list.begin(), list.end(),
              [](const InvertedEntry& a, const InvertedEntry& b) {
                if (a.dist != b.dist) return a.dist < b.dist;
                return a.vertex < b.vertex;
              });
  }
}

std::vector<KnnResult> KnnEngine::Nearest(graph::VertexId s,
                                          std::size_t k) const {
  PARAPLL_CHECK(s < index_.NumVertices());
  const LabelStore& store = index_.Store();
  const graph::VertexId rs = index_.RankOf(s);

  // One cursor per hub of L(s); key = d(s, hub) + d(hub, vertex). Each
  // per-hub sequence is nondecreasing in key, so the heap merge pops all
  // (hub, vertex) combinations in globally nondecreasing key order —
  // hence the first pop of a vertex carries min over common hubs, which
  // is exactly QUERY(s, vertex).
  struct Cursor {
    graph::Distance key = 0;
    graph::Distance hub_dist = 0;  // d(s, hub)
    graph::VertexId hub = 0;
    std::size_t pos = 0;
  };
  const auto cmp = [](const Cursor& a, const Cursor& b) {
    return a.key > b.key;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(cmp)> frontier(
      cmp);
  for (const LabelEntry& e : store.Row(rs)) {
    if (!inverted_[e.hub].empty()) {
      frontier.push(
          Cursor{e.dist + inverted_[e.hub][0].dist, e.dist, e.hub, 0});
    }
  }

  std::vector<KnnResult> results;
  std::vector<bool> emitted(store.NumVertices(), false);
  emitted[rs] = true;  // exclude s itself
  while (!frontier.empty() && results.size() < k) {
    const Cursor cursor = frontier.top();
    frontier.pop();
    const auto& list = inverted_[cursor.hub];
    const InvertedEntry entry = list[cursor.pos];
    if (cursor.pos + 1 < list.size()) {
      Cursor next = cursor;
      ++next.pos;
      next.key = cursor.hub_dist + list[next.pos].dist;
      frontier.push(next);
    }
    if (!emitted[entry.vertex]) {
      emitted[entry.vertex] = true;
      PARAPLL_DCHECK(store.Query(rs, entry.vertex) == cursor.key);
      results.push_back(KnnResult{index_.Order()[entry.vertex], cursor.key});
    }
  }

  // Keys arrive nondecreasing; normalize equal-distance ties to vertex-id
  // order for a deterministic API.
  std::stable_sort(results.begin(), results.end(),
                   [](const KnnResult& a, const KnnResult& b) {
                     if (a.dist != b.dist) return a.dist < b.dist;
                     return a.vertex < b.vertex;
                   });
  return results;
}

}  // namespace parapll::pll
