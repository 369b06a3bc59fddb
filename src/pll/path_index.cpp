#include "pll/path_index.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace parapll::pll {

namespace {

// Labels adapter feeding AppendWithParent into per-vertex rows.
class ParentRows {
 public:
  explicit ParentRows(graph::VertexId n) : rows_(n) {}

  template <typename F>
  void ForEach(graph::VertexId v, F&& fn) const {
    for (const PathLabelEntry& e : rows_[v]) {
      if (fn(e.hub, e.dist)) {
        return;
      }
    }
  }

  void AppendWithParent(graph::VertexId v, graph::VertexId hub,
                        graph::Distance dist, graph::VertexId parent) {
    rows_[v].push_back(PathLabelEntry{hub, dist, parent});
  }

  std::vector<std::vector<PathLabelEntry>> Take() { return std::move(rows_); }

 private:
  std::vector<std::vector<PathLabelEntry>> rows_;
};

}  // namespace

PathIndex PathIndex::Build(const graph::Graph& g,
                           const PathBuildOptions& options) {
  PathIndex index;
  index.order_ = ComputeOrder(g, options.ordering, options.seed);
  index.rank_of_ = InvertOrder(index.order_);
  const graph::Graph rank_graph = ToRankSpace(g, index.order_);
  const graph::VertexId n = rank_graph.NumVertices();

  ParentRows labels(n);
  PruneScratch scratch(n);
  for (graph::VertexId root = 0; root < n; ++root) {
    (void)PrunedDijkstra(rank_graph, root, labels, scratch);
  }
  index.rows_ = labels.Take();
  // Serial PLL appends hubs in increasing rank, so rows are sorted; keep
  // the invariant explicit for FindEntry's binary search.
  PARAPLL_DCHECK(std::all_of(
      index.rows_.begin(), index.rows_.end(), [](const auto& row) {
        return std::is_sorted(
            row.begin(), row.end(),
            [](const PathLabelEntry& a, const PathLabelEntry& b) {
              return a.hub < b.hub;
            });
      }));
  return index;
}

const PathLabelEntry* PathIndex::FindEntry(graph::VertexId v,
                                           graph::VertexId hub) const {
  const auto& row = rows_[v];
  const auto it = std::lower_bound(
      row.begin(), row.end(), hub,
      [](const PathLabelEntry& e, graph::VertexId h) { return e.hub < h; });
  if (it == row.end() || it->hub != hub) {
    return nullptr;
  }
  return &*it;
}

graph::Distance PathIndex::Query(graph::VertexId s, graph::VertexId t) const {
  PARAPLL_CHECK(s < NumVertices() && t < NumVertices());
  if (s == t) {
    return 0;
  }
  const auto& a = rows_[rank_of_[s]];
  const auto& b = rows_[rank_of_[t]];
  graph::Distance best = graph::kInfiniteDistance;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hub == b[j].hub) {
      best = std::min(best, a[i].dist + b[j].dist);
      ++i;
      ++j;
    } else if (a[i].hub < b[j].hub) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

void PathIndex::WalkToHub(graph::VertexId v, graph::VertexId hub,
                          std::vector<graph::VertexId>& out) const {
  graph::VertexId current = v;
  while (current != hub) {
    const PathLabelEntry* entry = FindEntry(current, hub);
    PARAPLL_CHECK_MSG(entry != nullptr,
                      "parent chain left the hub's label set");
    PARAPLL_CHECK_MSG(entry->parent != current || current == hub,
                      "parent chain cycle");
    current = entry->parent;
    out.push_back(current);
  }
}

std::vector<graph::VertexId> PathIndex::ReconstructPath(
    graph::VertexId s, graph::VertexId t) const {
  PARAPLL_CHECK(s < NumVertices() && t < NumVertices());
  if (s == t) {
    return {s};
  }
  const graph::VertexId rs = rank_of_[s];
  const graph::VertexId rt = rank_of_[t];

  // Best common hub.
  const auto& a = rows_[rs];
  const auto& b = rows_[rt];
  graph::Distance best = graph::kInfiniteDistance;
  graph::VertexId best_hub = graph::kInvalidVertex;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hub == b[j].hub) {
      if (a[i].dist + b[j].dist < best) {
        best = a[i].dist + b[j].dist;
        best_hub = a[i].hub;
      }
      ++i;
      ++j;
    } else if (a[i].hub < b[j].hub) {
      ++i;
    } else {
      ++j;
    }
  }
  if (best_hub == graph::kInvalidVertex) {
    return {};  // disconnected
  }

  // s → hub, then hub → t (reverse of t → hub).
  std::vector<graph::VertexId> forward{rs};
  WalkToHub(rs, best_hub, forward);
  std::vector<graph::VertexId> backward{rt};
  WalkToHub(rt, best_hub, backward);

  std::vector<graph::VertexId> path;
  path.reserve(forward.size() + backward.size());
  for (const graph::VertexId v : forward) {
    path.push_back(order_[v]);
  }
  for (auto it = backward.rbegin() + 1; it != backward.rend(); ++it) {
    path.push_back(order_[*it]);  // skip the duplicated hub
  }
  return path;
}

double PathIndex::AvgLabelSize() const {
  if (rows_.empty()) {
    return 0.0;
  }
  std::size_t total = 0;
  for (const auto& row : rows_) {
    total += row.size();
  }
  return static_cast<double>(total) / static_cast<double>(rows_.size());
}

}  // namespace parapll::pll
