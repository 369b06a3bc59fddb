// Index format v2 — the one on-disk index container. Builds, checkpoints
// and every loader use it.
//
// It persists the query-stage layout verbatim: a 16-byte-aligned
// flattened region of sentinel-terminated rows plus an offset table in
// physical (sentinel-inclusive) entry units. `mmap` + pointer arithmetic
// over that region is a valid QuerySentinel input with zero per-entry
// work — the LabelSource view of label_source.hpp, over a MappedFile
// (mapped_file.hpp).
//
// On-disk layout (all integers little-endian host PODs; positions are
// absolute byte offsets from file start):
//
//   header (80 bytes):
//     u64 magic          "PLLIdxV2"
//     u32 version        2
//     u32 header_bytes   80
//     u64 num_vertices   n
//     u64 total_entries  label entries excluding sentinels
//     u64 manifest_pos   BuildManifest::Serialize bytes
//     u64 manifest_len
//     u64 order_pos      n * u32   (rank -> original vertex id)
//     u64 offsets_pos    (n+1) * u64, in LabelEntry units incl. sentinels
//     u64 entries_pos    (total_entries + n) * 16 bytes; 16-byte aligned
//                        (u32 hub, 4 padding bytes, u64 dist); the writer
//                        zeroes the padding, readers ignore it
//     u64 file_bytes     declared total file size
//   regions, in file order: manifest | order | offsets | pad | entries
//
// The embedded manifest carries format_version == 2; its parser also
// accepts 1 (see BuildManifest).
//
// Validation contract: ReadIndexV2 (the heap loader) applies the full
// rigor — strictly sorted hubs, sentinel at every row end, order
// permutation, every region bounded by the bytes present. ValidateV2Mapping
// (the mmap loader) validates everything that memory safety and
// merge termination depend on in O(n): geometry, alignment, region
// bounds against the *actual* file size, one sentinel per row end, and
// the order permutation — but deliberately not per-entry hub sortedness,
// which would defeat the zero-deserialization point.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "pll/index.hpp"
#include "pll/label_store.hpp"

namespace parapll::pll {

inline constexpr std::uint64_t kIndexV2Magic =
    0x3256'7864'494c'4c50ULL;  // "PLLIdxV2" read as a little-endian u64
inline constexpr std::uint32_t kIndexFormatV2 = 2;
inline constexpr std::uint32_t kIndexV2HeaderBytes = 80;

// Fixed-size header; see the layout comment above.
struct V2Header {
  std::uint64_t magic = kIndexV2Magic;
  std::uint32_t version = kIndexFormatV2;
  std::uint32_t header_bytes = kIndexV2HeaderBytes;
  std::uint64_t num_vertices = 0;
  std::uint64_t total_entries = 0;
  std::uint64_t manifest_pos = 0;
  std::uint64_t manifest_len = 0;
  std::uint64_t order_pos = 0;
  std::uint64_t offsets_pos = 0;
  std::uint64_t entries_pos = 0;
  std::uint64_t file_bytes = 0;
};
static_assert(sizeof(V2Header) == kIndexV2HeaderBytes);

// Serializes `index` in format v2. The index's manifest is embedded with
// format_version forced to 2. Throws std::runtime_error on I/O failure
// or when any label row uses the reserved sentinel hub.
void WriteIndexV2(const Index& index, std::ostream& out);

// The one writer of index files. Writes `index` to `path` in the layout
// above. The bytes go to `path + ".tmp"`, which is then renamed over
// `path`: a process that has the old file open or mapped keeps reading
// the old bytes, and a crash mid-write leaves the old file intact. Throws
// std::runtime_error on I/O failure, and leaves no temp file behind.
void WriteIndexFile(const Index& index, const std::string& path);

// Heap loader: reads a v2 stream into an ordinary Index (LabelStore on
// the heap), with full untrusted-input validation. Requires a seekable
// stream; Index::LoadFile runs it over a file.
Index ReadIndexV2(std::istream& in);

// Validated zero-copy view over a complete v2 file image (the mmap
// loader's). `data` must stay alive (and mapped) for as long as the
// view's pointers are used. Throws std::runtime_error on any
// geometry / alignment / bounds / sentinel / permutation violation.
struct V2View {
  V2Header header;
  BuildManifest manifest;
  const graph::VertexId* order = nullptr;   // n entries
  const std::uint64_t* offsets = nullptr;   // n + 1 entries
  const LabelEntry* entries = nullptr;      // total_entries + n entries
};
V2View ValidateV2Mapping(const char* data, std::size_t size);

}  // namespace parapll::pll
