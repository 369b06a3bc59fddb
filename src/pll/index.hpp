// The queryable distance index — PLL's querying stage (paper §3.1).
//
// Wraps a rank-space LabelStore together with the vertex ordering so
// callers query with their original vertex ids.
#pragma once

#include <string>
#include <vector>

#include "pll/label_store.hpp"
#include "pll/manifest.hpp"

namespace parapll::pll {

class Index {
 public:
  Index() = default;
  Index(LabelStore store, std::vector<graph::VertexId> order);

  // Exact shortest-path distance σ(P(s, t)) between *original* vertex ids;
  // kInfiniteDistance when s and t are disconnected.
  [[nodiscard]] graph::Distance Query(graph::VertexId s,
                                      graph::VertexId t) const;

  [[nodiscard]] graph::VertexId NumVertices() const {
    return store_.NumVertices();
  }
  [[nodiscard]] double AvgLabelSize() const { return store_.AvgLabelSize(); }
  [[nodiscard]] std::size_t TotalEntries() const {
    return store_.TotalEntries();
  }
  [[nodiscard]] std::size_t MemoryBytes() const;

  [[nodiscard]] const LabelStore& Store() const { return store_; }
  [[nodiscard]] const std::vector<graph::VertexId>& Order() const {
    return order_;
  }
  // Rank of original vertex id `v` (the row of v in Store()).
  [[nodiscard]] graph::VertexId RankOf(graph::VertexId v) const {
    return rank_of_[v];
  }

  // Build provenance (see pll/manifest.hpp). Indexes built through the
  // unified pipeline carry a populated manifest; a default-constructed
  // one means "unknown provenance" (a hand-assembled index).
  [[nodiscard]] const BuildManifest& Manifest() const { return manifest_; }
  void SetManifest(BuildManifest manifest) { manifest_ = std::move(manifest); }

  // Reads an index file onto the heap (pll::ReadIndexV2 over the file,
  // with its full validation). Files are written by pll::WriteIndexFile
  // (format_v2.hpp). Throws std::runtime_error on I/O failure or corrupt
  // bytes.
  static Index LoadFile(const std::string& path);

  friend bool operator==(const Index&, const Index&) = default;

 private:
  LabelStore store_;                        // rank space
  std::vector<graph::VertexId> order_;      // rank -> original id
  std::vector<graph::VertexId> rank_of_;    // original id -> rank
  BuildManifest manifest_;
};

// Cold-start instrumentation shared by every index loader: sets the
// index.load_seconds gauge (when metrics are enabled) and emits one
// structured "index load:" log line (path, format version, bytes, mode).
void RecordIndexLoad(const std::string& path, std::uint32_t format_version,
                     std::size_t bytes, const char* mode, double seconds);

}  // namespace parapll::pll
