// Label rows whose entries carry a virtual publication timestamp.
//
// This is what makes the one-core simulation of a p-worker schedule
// faithful: a Pruned Dijkstra that (virtually) starts at time τ sees
// exactly the entries published at or before its current virtual moment,
// replaying the relaxed visibility of a real parallel run — and hence the
// label-size inflation the paper measures in Tables 3–5.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "pll/label_store.hpp"
#include "vtime/cost_model.hpp"

namespace parapll::vtime {

class TimestampedLabels {
 public:
  struct Entry {
    graph::VertexId hub = 0;
    graph::Distance dist = 0;
    double stamp = 0.0;
  };

  explicit TimestampedLabels(graph::VertexId n) : rows_(n) {}

  [[nodiscard]] graph::VertexId NumVertices() const {
    return static_cast<graph::VertexId>(rows_.size());
  }

  void Append(graph::VertexId v, graph::VertexId hub, graph::Distance dist,
              double stamp) {
    rows_[v].push_back(Entry{hub, dist, stamp});
  }

  // fn(hub, dist) for the entries published at or before `now`, until fn
  // returns true.
  template <typename F>
  void ForEachVisible(graph::VertexId v, double now, F&& fn) const {
    for (const Entry& e : rows_[v]) {
      if (e.stamp <= now && fn(e.hub, e.dist)) {
        return;
      }
    }
  }

  [[nodiscard]] std::size_t TotalEntries() const;

  // Approximate resident bytes of the rows (headers + entry capacity).
  // Only safe from the owning node's thread — rows are not synchronized.
  [[nodiscard]] std::size_t MemoryBytes() const {
    std::size_t total = rows_.capacity() * sizeof(std::vector<Entry>);
    for (const auto& row : rows_) {
      total += row.capacity() * sizeof(Entry);
    }
    return total;
  }

  // Drops stamps and produces the sorted immutable query store.
  [[nodiscard]] pll::LabelStore Finalize() const;

 private:
  std::vector<std::vector<Entry>> rows_;
};

// Adapter satisfying PrunedDijkstra's `Labels` concept for one simulated
// task. It advances the task's virtual clock as the search does work, so
// entries published mid-run by (virtually) concurrent tasks become visible
// at the right moments, and stamps its own appends with the current time.
//
// The in-flight clock is an estimate reconstructed from the operations the
// view can observe (probes, appends, expansions); the scheduler overwrites
// the worker's final clock with the authoritative CostModel::Units of the
// task's PruneStats when the task completes.
class SimLabelView {
 public:
  SimLabelView(TimestampedLabels& labels, const graph::Graph& rank_graph,
               const CostModel& cost, double start_time)
      : labels_(labels),
        rank_graph_(rank_graph),
        cost_(cost),
        now_(start_time) {}

  template <typename F>
  void ForEach(graph::VertexId v, F&& fn) {
    if (first_call_) {
      // Root-snapshot read: charged as probes only.
      first_call_ = false;
    } else {
      now_ += cost_.settle;
    }
    // Charged per entry read: a scan that fn stops is charged only for the
    // entries before the stop.
    std::size_t entries = 0;
    labels_.ForEachVisible(v, now_, [&](graph::VertexId hub,
                                        graph::Distance dist) {
      ++entries;
      return fn(hub, dist);
    });
    now_ += cost_.probe * static_cast<double>(entries);
  }

  void Append(graph::VertexId v, graph::VertexId hub, graph::Distance dist) {
    now_ += cost_.append;
    labels_.Append(v, hub, dist, now_);
    // The root will expand v next: charge its relaxations up front (push
    // count is unknowable here; the completion-time correction fixes it).
    now_ += cost_.relax * static_cast<double>(rank_graph_.Degree(v));
  }

  [[nodiscard]] double Now() const { return now_; }

 private:
  TimestampedLabels& labels_;
  const graph::Graph& rank_graph_;
  const CostModel& cost_;
  double now_;
  bool first_call_ = true;
};

}  // namespace parapll::vtime
