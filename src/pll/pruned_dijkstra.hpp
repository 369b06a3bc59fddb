// Pruned Dijkstra (paper Algorithm 1), generic over the label container.
//
// One invocation indexes root r (a *rank* in [0, n)): it runs Dijkstra
// from r over the rank-space graph and, before labeling/expanding a
// settled vertex u, evaluates the 2-hop pruning test
//
//     QUERY(r, u)  ≤  D[u]   →  prune u (skip label, skip expansion)
//
// where QUERY runs over the labels currently visible in `labels`.
// Only hubs of rank < r participate in the test — in a serial run no other
// hubs exist yet, and in a parallel run this keeps the pruning witness on
// the provably-safe side of the ordering induction (see DESIGN.md).
//
// The `Labels` parameter must provide:
//   void ForEach(VertexId v, F fn)   // bool fn(hub, dist) per visible entry;
//                                    // the scan stops once fn returns true
//   void Append(VertexId v, VertexId hub, Distance dist)
// ForEach may surface entries concurrently appended by other roots, in any
// hub order; every hub must be a rank < n. Append must be safe against
// concurrent Appends to the same row (the serial MutableLabels trivially
// satisfies both).
//
// The probe stops at its first witness: the running minimum only falls,
// so once it is <= D[u] the rest of L(u) cannot change the verdict. It is
// also branch-free per entry. RootDist() holds d(hub, r) for the hubs
// h < r of L(r) and infinity everywhere else (the snapshot admits only
// h < r; the reset restores infinity), so min(covered, root_dist[h] + d)
// with a saturating sum already ignores every other hub.
//
// A Labels type may instead provide
//   void AppendWithParent(VertexId v, VertexId hub, Distance dist,
//                         VertexId parent)
// to additionally receive v's predecessor in the root's search tree —
// the hook path reconstruction builds on (see pll/path_index.hpp). Because
// pruned vertices are never expanded, a labeled vertex's search-tree path
// runs exclusively through vertices labeled with the same root, so parent
// chains can always be walked through the label store.
#pragma once

#include <algorithm>
#include <queue>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace parapll::pll {

// Operation counts for one root; these feed the paper's Fig. 6 CDF and the
// virtual-time cost model.
struct PruneStats {
  std::size_t settled = 0;        // vertices dequeued and processed
  std::size_t pruned = 0;         // vertices cut by the 2-hop test
  std::size_t labels_added = 0;   // entries appended (this root's column)
  std::size_t relaxations = 0;    // edges examined
  std::size_t heap_pushes = 0;
  std::size_t probe_entries = 0;  // label entries the pruning tests read

  PruneStats& operator+=(const PruneStats& other) {
    settled += other.settled;
    pruned += other.pruned;
    labels_added += other.labels_added;
    relaxations += other.relaxations;
    heap_pushes += other.heap_pushes;
    probe_entries += other.probe_entries;
    return *this;
  }

  friend bool operator==(const PruneStats&, const PruneStats&) = default;
};

// Reusable per-worker scratch: the "several arrays of length |V| within
// each thread" of paper §5.2. Reset cost is proportional to what the
// previous root touched, not to n.
class PruneScratch {
 public:
  explicit PruneScratch(graph::VertexId n)
      : dist_(n, graph::kInfiniteDistance),
        root_dist_(n, graph::kInfiniteDistance),
        parent_(n, graph::kInvalidVertex) {}

  [[nodiscard]] graph::VertexId Size() const {
    return static_cast<graph::VertexId>(dist_.size());
  }

  std::vector<graph::Distance>& Dist() { return dist_; }
  std::vector<graph::Distance>& RootDist() { return root_dist_; }
  std::vector<graph::VertexId>& Parent() { return parent_; }
  std::vector<graph::VertexId>& TouchedDist() { return touched_dist_; }
  std::vector<graph::VertexId>& TouchedRoot() { return touched_root_; }

 private:
  std::vector<graph::Distance> dist_;
  std::vector<graph::Distance> root_dist_;
  std::vector<graph::VertexId> parent_;
  std::vector<graph::VertexId> touched_dist_;
  std::vector<graph::VertexId> touched_root_;
};

// Folds one root's PruneStats into the global metrics registry. Called
// once per Pruned Dijkstra (not per event), so the cost is a handful of
// sharded counter adds regardless of graph size.
// `witness_entries` is the part of stats.probe_entries read by the probes
// that pruned (found a witness); ÷ pll.prune_hits it is the mean witness
// depth. It stays out of PruneStats, whose six totals the manifest stores.
inline void RecordPruneMetrics(const PruneStats& stats,
                               std::size_t witness_entries) {
  auto& registry = obs::Registry::Global();
  static obs::Counter& roots = registry.GetCounter("pll.roots_expanded");
  static obs::Counter& settled = registry.GetCounter("pll.settled");
  static obs::Counter& pruned = registry.GetCounter("pll.prune_hits");
  static obs::Counter& labels = registry.GetCounter("pll.labels_added");
  static obs::Counter& relaxations = registry.GetCounter("pll.relaxations");
  static obs::Counter& heap_pops = registry.GetCounter("pll.heap_pops");
  static obs::Counter& heap_pushes = registry.GetCounter("pll.heap_pushes");
  static obs::Counter& probes = registry.GetCounter("pll.probe_entries");
  static obs::Counter& to_witness =
      registry.GetCounter("pll.probe_entries_to_witness");
  static obs::Histogram& labels_per_root =
      registry.GetHistogram("pll.labels_per_root");
  roots.Add(1);
  settled.Add(stats.settled);
  pruned.Add(stats.pruned);
  labels.Add(stats.labels_added);
  relaxations.Add(stats.relaxations);
  // The loop drains the heap, so every pushed entry is popped exactly
  // once (stale ones included).
  heap_pops.Add(stats.heap_pushes);
  heap_pushes.Add(stats.heap_pushes);
  probes.Add(stats.probe_entries);
  to_witness.Add(witness_entries);
  labels_per_root.Record(stats.labels_added);
}

template <typename Labels>
PruneStats PrunedDijkstra(const graph::Graph& rank_graph,
                          graph::VertexId root, Labels& labels,
                          PruneScratch& scratch) {
  PARAPLL_DCHECK(root < rank_graph.NumVertices());
  PARAPLL_DCHECK(scratch.Size() == rank_graph.NumVertices());
  PARAPLL_SPAN("pruned_dijkstra", "root", root);
  PruneStats stats;
  std::size_t witness_entries = 0;  // see RecordPruneMetrics

  // Detect at compile time whether the label store wants search-tree
  // parents along with each entry (see header comment).
  constexpr bool kWantParents =
      requires(Labels& l) {
        l.AppendWithParent(graph::VertexId{}, graph::VertexId{},
                           graph::Distance{}, graph::VertexId{});
      };

  auto& dist = scratch.Dist();
  auto& root_dist = scratch.RootDist();
  auto& parent = scratch.Parent();
  auto& touched_dist = scratch.TouchedDist();
  auto& touched_root = scratch.TouchedRoot();
  touched_dist.clear();
  touched_root.clear();

  // Snapshot L(root) into a dense hub→distance array so each pruning test
  // is O(|L(u)|). Hubs of rank >= root are ignored (see header comment).
  labels.ForEach(root, [&](graph::VertexId hub, graph::Distance d) {
    if (hub < root && d < root_dist[hub]) {
      if (root_dist[hub] == graph::kInfiniteDistance) {
        touched_root.push_back(hub);
      }
      root_dist[hub] = d;
    }
    return false;  // read all of L(root)
  });

  using HeapEntry = std::pair<graph::Distance, graph::VertexId>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  dist[root] = 0;
  if constexpr (kWantParents) {
    parent[root] = root;
  }
  touched_dist.push_back(root);
  heap.emplace(0, root);
  ++stats.heap_pushes;

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) {
      continue;  // stale heap entry
    }
    ++stats.settled;

    // Pruning test: QUERY(root, u) over currently-visible labels, up to
    // the first witness (see header comment).
    graph::Distance covered = graph::kInfiniteDistance;
    std::size_t read = 0;
    labels.ForEach(u, [&](graph::VertexId hub, graph::Distance hd) {
      ++read;
      // Saturating: a wrapped sum would look like a short witness path
      // and wrongly prune u (paper Proposition 1 only tolerates
      // *redundant* labels, never missing ones).
      covered = std::min(covered, graph::SaturatingAdd(root_dist[hub], hd));
      return covered <= d;
    });
    stats.probe_entries += read;
    if (covered <= d) {
      ++stats.pruned;
      witness_entries += read;
      continue;
    }

    if constexpr (kWantParents) {
      labels.AppendWithParent(u, root, d, parent[u]);
    } else {
      labels.Append(u, root, d);
    }
    ++stats.labels_added;

    for (const graph::Arc& arc : rank_graph.Neighbors(u)) {
      ++stats.relaxations;
      const graph::Distance nd = graph::SaturatingAdd(d, arc.weight);
      if (nd < dist[arc.target]) {
        if (dist[arc.target] == graph::kInfiniteDistance) {
          touched_dist.push_back(arc.target);
        }
        dist[arc.target] = nd;
        if constexpr (kWantParents) {
          parent[arc.target] = u;
        }
        heap.emplace(nd, arc.target);
        ++stats.heap_pushes;
      }
    }
  }

  // Cheap reset: clear only what this root touched.
  for (graph::VertexId v : touched_dist) {
    dist[v] = graph::kInfiniteDistance;
  }
  for (graph::VertexId hub : touched_root) {
    root_dist[hub] = graph::kInfiniteDistance;
  }
  if (obs::MetricsEnabled()) {
    RecordPruneMetrics(stats, witness_entries);
  }
  return stats;
}

}  // namespace parapll::pll
