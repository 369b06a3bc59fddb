// The query layout of a 2-hop label index (paper §3.1) and its one read
// path: the label entry, the sentinel merge over two rows, and
// LabelSource, the view every query reads rows through.
//
// Layout. Every row L(v) — (hub rank, σ(P(hub, v))) entries, strictly
// sorted by hub — is stored contiguously in one flat array of 16-byte
// LabelEntry records and closed by a sentinel entry whose hub is
// kInvalidVertex (and whose distance is infinite). n + 1 u64 offsets in
// entry units, sentinels included, locate the rows. Real hubs are ranks
// in [0, n) and therefore always compare smaller than the sentinel, so
// the hot merge (QuerySentinel) needs no per-iteration bounds checks:
// the two cursors meet at the sentinels and the common-hub test ends the
// loop. This is byte for byte the format-v2 file image (format_v2.hpp).
//
// LabelSource owns nothing. Two owners hand it out over that layout:
//
//   * LabelStore — heap vectors, after a build or a heap load (View());
//   * MappedFile — a read-only mapping of a validated format-v2 file,
//                  after an mmap load (ServableIndex::Load).
//
// Lifetime: pointers from RowBegin()/Row() stay valid while the owner
// lives. ServableIndex::source and QueryEngine hold a shared_ptr whose
// control block owns the bytes (the aliasing constructor), so rows read
// through such a pointer stay valid as long as that shared_ptr lives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "graph/types.hpp"

namespace parapll::pll {

struct alignas(16) LabelEntry {
  graph::VertexId hub = 0;       // rank of the landmark vertex
  graph::Distance dist = 0;      // exact-or-upper-bound σ from hub

  friend bool operator==(const LabelEntry&, const LabelEntry&) = default;
};
static_assert(sizeof(LabelEntry) == 16,
              "query layout assumes 16-byte label entries");

// Hint the first cache line of a label row into cache ahead of the merge.
inline void PrefetchRow(const LabelEntry* row) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(row, /*rw=*/0, /*locality=*/3);
#else
  (void)row;
#endif
}

// The sentinel merge: QUERY(s, t, L) over two sentinel-terminated rows,
// min over common hubs of dist(hub, s) + dist(hub, t), infinity when no
// hub is shared. One branch on hub order per iteration, no length
// tracking; sums saturate at kInfiniteDistance. With kCount, *scanned
// grows by the label entries the merge consumed: the loop ends only when
// both cursors sit on their sentinels, so that is exactly how far they
// moved, and counting costs nothing per iteration.
template <bool kCount>
inline graph::Distance MergeSentinelRows(const LabelEntry* a,
                                         const LabelEntry* b,
                                         std::uint64_t* scanned) {
  const LabelEntry* const a_begin = a;
  const LabelEntry* const b_begin = b;
  graph::Distance best = graph::kInfiniteDistance;
  for (;;) {
    const graph::VertexId ha = a->hub;
    const graph::VertexId hb = b->hub;
    if (ha == hb) {
      if (ha == graph::kInvalidVertex) {
        if constexpr (kCount) {
          *scanned += static_cast<std::uint64_t>((a - a_begin) +
                                                 (b - b_begin));
        }
        return best;  // both cursors reached their sentinel
      }
      const graph::Distance sum = graph::SaturatingAdd(a->dist, b->dist);
      if (sum < best) {
        best = sum;
      }
      ++a;
      ++b;
    } else if (ha < hb) {
      ++a;  // ha is a real hub (the sentinel is the maximum VertexId)
    } else {
      ++b;
    }
  }
}

inline graph::Distance QuerySentinel(const LabelEntry* a,
                                     const LabelEntry* b) {
  return MergeSentinelRows<false>(a, b, nullptr);
}

// QuerySentinel that also adds the entries it scanned to `scanned`.
// perfbench is its only caller: it measures query.entries_per_pair with
// it, outside the serving loop.
inline graph::Distance QuerySentinelCounted(const LabelEntry* a,
                                            const LabelEntry* b,
                                            std::uint64_t& scanned) {
  return MergeSentinelRows<true>(a, b, &scanned);
}

// Where a loaded index's rows live.
enum class StoreBackend {
  kHeap,  // LabelStore: rows deserialized onto the heap
  kMmap,  // MappedFile: zero-copy over a mapped format-v2 file
};

[[nodiscard]] const char* ToString(StoreBackend backend);
// Throws std::runtime_error on an unknown name ("heap"|"mmap").
[[nodiscard]] StoreBackend StoreBackendFromString(const std::string& name);

// Read-only view of n rows in the layout above. Cheap to copy.
class LabelSource {
 public:
  LabelSource() = default;
  // `offsets` holds num_vertices + 1 values; row v is entries
  // [offsets[v], offsets[v + 1]), the last of them its sentinel.
  // `memory_bytes` is what the owner keeps resident on the heap for them.
  LabelSource(const std::uint64_t* offsets, const LabelEntry* entries,
              graph::VertexId num_vertices, std::size_t memory_bytes)
      : offsets_(offsets),
        entries_(entries),
        num_vertices_(num_vertices),
        memory_bytes_(memory_bytes) {}

  // Raw pointer to the sentinel-terminated row of rank-space vertex v —
  // a valid QuerySentinel input.
  [[nodiscard]] const LabelEntry* RowBegin(graph::VertexId v) const {
    return entries_ + offsets_[v];
  }

  // L(v) without the trailing sentinel.
  [[nodiscard]] std::span<const LabelEntry> Row(graph::VertexId v) const {
    return {entries_ + offsets_[v], entries_ + (offsets_[v + 1] - 1)};
  }

  [[nodiscard]] graph::VertexId NumVertices() const { return num_vertices_; }

  // Label entries excluding the per-row sentinels.
  [[nodiscard]] std::size_t TotalEntries() const {
    return num_vertices_ == 0
               ? 0
               : static_cast<std::size_t>(offsets_[num_vertices_]) -
                     num_vertices_;
  }

  // Resident heap bytes behind the rows: the store's vectors, or 0 for a
  // mapping, whose pages are file-backed and show up in RSS only when
  // touched.
  [[nodiscard]] std::size_t MemoryBytes() const { return memory_bytes_; }

  // QUERY(s, t) in rank space (sentinel merge, rows prefetched on entry).
  [[nodiscard]] graph::Distance Query(graph::VertexId s,
                                      graph::VertexId t) const {
    const LabelEntry* a = RowBegin(s);
    const LabelEntry* b = RowBegin(t);
    PrefetchRow(a);
    PrefetchRow(b);
    return QuerySentinel(a, b);
  }

 private:
  const std::uint64_t* offsets_ = nullptr;
  const LabelEntry* entries_ = nullptr;
  graph::VertexId num_vertices_ = 0;
  std::size_t memory_bytes_ = 0;
};

}  // namespace parapll::pll
