// 2-hop labels: L(v) = { (hub rank, σ(P(hub, v))) } (paper §2.1 / §3.1).
//
// Two representations:
//  * MutableLabels — append-friendly rows used while indexing (serial);
//  * LabelStore    — immutable, flat, rank-sorted rows used for queries,
//                    in the sentinel-terminated query layout described in
//                    label_source.hpp, read through its LabelSource view.
// Both live in *rank space* (see pll/ordering.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "pll/label_source.hpp"

namespace parapll::pll {

// Growable per-vertex rows for serial indexing.
class MutableLabels {
 public:
  explicit MutableLabels(graph::VertexId n) : rows_(n) {}

  // Seeded construction: resume a build from previously finalized rows
  // (see build/checkpoint.hpp). Rows must already be hub-sorted; appends
  // continue with higher-ranked hubs, so rows stay sorted.
  explicit MutableLabels(std::vector<std::vector<LabelEntry>> rows)
      : rows_(std::move(rows)) {}

  [[nodiscard]] graph::VertexId NumVertices() const {
    return static_cast<graph::VertexId>(rows_.size());
  }

  // Appends (hub, dist) to L(v). Serial PLL appends hubs in increasing
  // rank, so rows stay sorted without extra work.
  void Append(graph::VertexId v, graph::VertexId hub, graph::Distance dist) {
    rows_[v].push_back(LabelEntry{hub, dist});
  }

  // Calls fn(hub, dist) for the entries of L(v) in order, until fn
  // returns true.
  template <typename F>
  void ForEach(graph::VertexId v, F&& fn) const {
    for (const LabelEntry& e : rows_[v]) {
      if (fn(e.hub, e.dist)) {
        return;
      }
    }
  }

  [[nodiscard]] const std::vector<LabelEntry>& Row(graph::VertexId v) const {
    return rows_[v];
  }

  [[nodiscard]] std::size_t TotalEntries() const;

  // Copy of every row keeping only entries with hub < limit — the
  // "finalized prefix" a checkpoint persists (hubs >= limit may belong
  // to roots still in flight in a parallel build).
  [[nodiscard]] std::vector<std::vector<LabelEntry>> SnapshotRows(
      graph::VertexId limit) const;

 private:
  std::vector<std::vector<LabelEntry>> rows_;
};

// Immutable query-stage store: the heap owner of the query layout
// (label_source.hpp). Row reads go through its LabelSource view.
class LabelStore {
 public:
  LabelStore() = default;

  // Builds from per-vertex rows; each row is sorted by hub rank and
  // deduplicated (keeping the minimum distance per hub). Throws
  // std::runtime_error if any entry uses the reserved sentinel hub.
  static LabelStore FromRows(std::vector<std::vector<LabelEntry>> rows);
  static LabelStore FromMutable(const MutableLabels& labels);

  // Adopts an already-flattened query layout: `offsets` in entry units
  // with rows *including* their sentinels (the format-v2 convention).
  // Validates shape, sentinel placement, and strict hub sortedness;
  // throws std::runtime_error on violation.
  static LabelStore FromFlat(std::vector<std::uint64_t> offsets,
                             std::vector<LabelEntry> entries);

  // The rows as a LabelSource, valid while this store lives.
  [[nodiscard]] LabelSource View() const {
    return {offsets_.data(), entries_.data(), NumVertices(), MemoryBytes()};
  }

  [[nodiscard]] graph::VertexId NumVertices() const {
    return static_cast<graph::VertexId>(
        offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  // L(v) without the trailing sentinel.
  [[nodiscard]] std::span<const LabelEntry> Row(graph::VertexId v) const {
    return View().Row(v);
  }

  // Raw pointer to the sentinel-terminated row of v — QuerySentinel input.
  [[nodiscard]] const LabelEntry* RowBegin(graph::VertexId v) const {
    return View().RowBegin(v);
  }

  // QUERY(s, t) in rank space (see LabelSource::Query).
  [[nodiscard]] graph::Distance Query(graph::VertexId s,
                                      graph::VertexId t) const {
    return View().Query(s, t);
  }

  // Label entries excluding the per-row sentinels.
  [[nodiscard]] std::size_t TotalEntries() const {
    return entries_.size() - NumVertices();
  }

  // Per-vertex rows without sentinels (hub-sorted) — the inverse of
  // FromRows, used to seed a resumed build from a checkpoint.
  [[nodiscard]] std::vector<std::vector<LabelEntry>> ToRows() const;

  // "LN" in the paper's tables: average label entries per vertex.
  [[nodiscard]] double AvgLabelSize() const;

  // Resident size of the store in bytes (sentinels included): the
  // *capacity* of both vectors, matching how ConcurrentLabelStore counts.
  [[nodiscard]] std::size_t MemoryBytes() const {
    return offsets_.capacity() * sizeof(std::uint64_t) +
           entries_.capacity() * sizeof(LabelEntry);
  }

  // Equal iff the flattened layouts are identical.
  friend bool operator==(const LabelStore&, const LabelStore&) = default;

 private:
  std::vector<std::uint64_t> offsets_;  // n + 1, rows include their sentinel
  std::vector<LabelEntry> entries_;     // n sentinels interleaved
};

}  // namespace parapll::pll
