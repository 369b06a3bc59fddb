// Incrementally updatable 2-hop index: edge insertions without rebuild.
//
// The paper indexes a static graph; deployed graphs grow. This module
// generalizes the incremental pruned-landmark-labeling update of Akiba,
// Iwata & Yoshida (WWW 2014) from unweighted to weighted graphs: when an
// edge {a, b} is inserted, for every hub h in L(a) a pruned Dijkstra is
// *resumed* from b seeded with distance d(h, a) + w (and symmetrically
// from a for hubs of L(b)). Stale entries are left in place — they are
// upper bounds that can no longer be the minimum — so queries stay exact
// while labels only grow; the pruning test keeps the propagation narrow.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "pll/index.hpp"
#include "pll/label_store.hpp"

namespace parapll::pll {

struct DynamicIndexStats {
  std::size_t edges_inserted = 0;
  std::size_t resumptions = 0;     // partial searches launched
  std::size_t labels_touched = 0;  // entries inserted or improved
};

class DynamicIndex {
 public:
  DynamicIndex() = default;

  // Starts from `index`, a built index of `g` (typically a serial
  // build::Run): copies its rows and order, and keeps `g`'s adjacency in
  // rank space for later insertions.
  DynamicIndex(const graph::Graph& g, const Index& index);

  // Exact distance between original vertex ids on the *current* graph.
  [[nodiscard]] graph::Distance Query(graph::VertexId s,
                                      graph::VertexId t) const;

  // Inserts undirected edge {u, v} with weight w (original ids; both
  // vertices must already exist) and repairs the labels incrementally.
  // Inserting a parallel edge is allowed and keeps the lighter weight.
  void AddEdge(graph::VertexId u, graph::VertexId v, graph::Weight w);

  [[nodiscard]] graph::VertexId NumVertices() const {
    return static_cast<graph::VertexId>(rows_.size());
  }
  [[nodiscard]] std::size_t TotalEntries() const;
  [[nodiscard]] const DynamicIndexStats& Stats() const { return stats_; }

 private:
  // Merge-based QUERY over two sorted rows, in rank space.
  [[nodiscard]] graph::Distance QueryRanks(graph::VertexId a,
                                           graph::VertexId b) const;

  // Inserts (hub, dist) into L(v) keeping the row hub-sorted; returns
  // true if the entry was new or improved an existing one.
  bool Upsert(graph::VertexId v, graph::VertexId hub, graph::Distance dist);

  // Resumes hub's pruned Dijkstra from `seed` at distance `seed_dist`.
  void Resume(graph::VertexId hub, graph::VertexId seed,
              graph::Distance seed_dist);

  // One direction of the update: propagate every hub of L(from) through
  // the new edge into `into` at +w.
  void Propagate(graph::VertexId from, graph::VertexId into, graph::Weight w);

  std::vector<std::vector<LabelEntry>> rows_;        // rank space, sorted
  std::vector<std::vector<graph::Arc>> adjacency_;   // rank space, dynamic
  std::vector<graph::VertexId> order_;               // rank -> original
  std::vector<graph::VertexId> rank_of_;             // original -> rank
  DynamicIndexStats stats_;

  // Reusable scratch for Resume.
  std::vector<graph::Distance> scratch_dist_;
  std::vector<graph::Distance> scratch_root_;
  std::vector<graph::VertexId> touched_dist_;
  std::vector<graph::VertexId> touched_root_;
};

}  // namespace parapll::pll
