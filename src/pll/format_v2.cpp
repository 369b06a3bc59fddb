#include "pll/format_v2.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "pll/ordering.hpp"

namespace parapll::pll {

namespace {

// The manifest's strings are capped at 64 bytes each; a declared length
// beyond this is corruption, not a bigger manifest.
constexpr std::uint64_t kMaxManifestLen = 64 * 1024;
// Generous structural caps that keep every size/position product well
// inside 64 bits before any multiplication happens.
constexpr std::uint64_t kMaxEntries = 1ULL << 40;
constexpr std::uint64_t kMaxPos = 1ULL << 48;

constexpr std::uint64_t AlignUp(std::uint64_t pos, std::uint64_t align) {
  return (pos + align - 1) / align * align;
}

[[noreturn]] void Fail(const char* what) {
  throw std::runtime_error(std::string("index format v2: ") + what);
}

// parapll-lint: begin-untrusted-decode
// Structural header validation shared by the stream and mapped loaders.
// After this returns, every region is in file order, aligned, and all
// derived sizes fit in 64 bits; `file_bytes` is exactly the end of the
// entries region.
void ValidateGeometry(const V2Header& h) {
  if (h.magic != kIndexV2Magic) {
    Fail("bad magic");
  }
  if (h.version != kIndexFormatV2) {
    Fail("unsupported version");
  }
  if (h.header_bytes != kIndexV2HeaderBytes) {
    Fail("unexpected header size");
  }
  if (h.num_vertices >= graph::kInvalidVertex) {
    Fail("vertex count exceeds the id space");
  }
  if (h.total_entries > kMaxEntries) {
    Fail("entry count implausibly large");
  }
  if (h.manifest_pos != kIndexV2HeaderBytes || h.manifest_len > kMaxManifestLen) {
    Fail("manifest region out of place");
  }
  const std::uint64_t n = h.num_vertices;
  if (h.order_pos < h.manifest_pos + h.manifest_len ||
      h.order_pos % alignof(graph::VertexId) != 0 || h.order_pos > kMaxPos) {
    Fail("order region out of place");
  }
  const std::uint64_t order_end = h.order_pos + n * sizeof(graph::VertexId);
  if (h.offsets_pos < order_end || h.offsets_pos % sizeof(std::uint64_t) != 0 ||
      h.offsets_pos > kMaxPos) {
    Fail("offset table out of place");
  }
  const std::uint64_t offsets_end =
      h.offsets_pos + (n + 1) * sizeof(std::uint64_t);
  if (h.entries_pos < offsets_end || h.entries_pos % alignof(LabelEntry) != 0 ||
      h.entries_pos > kMaxPos) {
    Fail("entries region misaligned");
  }
  const std::uint64_t entries_end =
      h.entries_pos + (h.total_entries + n) * sizeof(LabelEntry);
  if (h.file_bytes != entries_end) {
    Fail("declared file size does not match the layout");
  }
}

BuildManifest ParseEmbeddedManifest(const char* bytes, std::size_t len,
                                    std::uint64_t num_vertices) {
  std::istringstream in(std::string(bytes, len));
  BuildManifest manifest = BuildManifest::Deserialize(in);
  // A pipeline-built manifest knows its vertex count; hold it to the
  // header. Default-provenance manifests (num_vertices == 0) pass.
  if (manifest.num_vertices != 0 && manifest.num_vertices != num_vertices) {
    Fail("embedded manifest disagrees with the header vertex count");
  }
  return manifest;
}
// parapll-lint: end-untrusted-decode

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WritePad(std::ostream& out, std::uint64_t from, std::uint64_t to) {
  static const char zeros[16] = {};
  out.write(zeros, static_cast<std::streamsize>(to - from));
}

// Writes `count` entries in the in-memory layout, but with each entry's
// four padding bytes (offsets 4–7) zero rather than whatever the heap
// held, so one label set always yields the same file bytes.
void WriteEntries(std::ostream& out, const LabelEntry* entries,
                  std::uint64_t count) {
  static_assert(offsetof(LabelEntry, hub) == 0 &&
                offsetof(LabelEntry, dist) == 8);
  constexpr std::uint64_t kChunk = 4096;
  std::vector<char> buffer(kChunk * sizeof(LabelEntry), 0);
  for (std::uint64_t done = 0; done < count;) {
    const std::uint64_t size = std::min(kChunk, count - done);
    char* slot = buffer.data();
    for (std::uint64_t i = 0; i < size; ++i, slot += sizeof(LabelEntry)) {
      const LabelEntry& e = entries[done + i];
      std::memcpy(slot, &e.hub, sizeof(e.hub));
      std::memcpy(slot + offsetof(LabelEntry, dist), &e.dist, sizeof(e.dist));
    }
    out.write(buffer.data(),
              static_cast<std::streamsize>(size * sizeof(LabelEntry)));
    done += size;
  }
}

}  // namespace

bool PeekV2Magic(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) {
    return false;  // unseekable stream: cannot be the mmap container
  }
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  const bool matched = in.good() && magic == kIndexV2Magic;
  in.clear();
  in.seekg(pos);
  return matched;
}

void WriteIndexV2(const Index& index, std::ostream& out) {
  const LabelStore& store = index.Store();
  const graph::VertexId n = store.NumVertices();

  BuildManifest manifest = index.Manifest();
  manifest.format_version = kIndexFormatV2;
  std::ostringstream manifest_stream;
  manifest.Serialize(manifest_stream);
  const std::string manifest_bytes = manifest_stream.str();

  V2Header h;
  h.num_vertices = n;
  h.total_entries = store.TotalEntries();
  h.manifest_pos = kIndexV2HeaderBytes;
  h.manifest_len = manifest_bytes.size();
  h.order_pos =
      AlignUp(h.manifest_pos + h.manifest_len, alignof(graph::VertexId));
  h.offsets_pos = AlignUp(h.order_pos + n * sizeof(graph::VertexId),
                          sizeof(std::uint64_t));
  h.entries_pos = AlignUp(h.offsets_pos + (n + 1) * sizeof(std::uint64_t),
                          alignof(LabelEntry));
  h.file_bytes =
      h.entries_pos + (h.total_entries + n) * sizeof(LabelEntry);

  WritePod(out, h);
  out.write(manifest_bytes.data(),
            static_cast<std::streamsize>(manifest_bytes.size()));
  WritePad(out, h.manifest_pos + h.manifest_len, h.order_pos);
  for (graph::VertexId v : index.Order()) {
    WritePod(out, v);
  }
  WritePad(out, h.order_pos + n * sizeof(graph::VertexId), h.offsets_pos);
  // Physical offsets (sentinel-inclusive entry units), recomputed from the
  // public row API so this writer needs no private store access.
  std::uint64_t offset = 0;
  WritePod(out, offset);
  for (graph::VertexId v = 0; v < n; ++v) {
    offset += store.Row(v).size() + 1;  // +1: the row's sentinel
    WritePod(out, offset);
  }
  WritePad(out, h.offsets_pos + (n + 1) * sizeof(std::uint64_t),
           h.entries_pos);
  if (n > 0) {
    // Rows are contiguous in one flat array, sentinels interleaved.
    WriteEntries(out, store.RowBegin(0), offset);
  }
  if (!out) {
    Fail("write failed");
  }
}

void WriteIndexV2File(const Index& index, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  WriteIndexV2(index, out);
}

// parapll-lint: begin-untrusted-decode
Index ReadIndexV2(std::istream& in) {
  const std::istream::pos_type base = in.tellg();
  if (base == std::istream::pos_type(-1)) {
    Fail("stream is not seekable");
  }
  // Bound every allocation by the bytes actually present: a header
  // advertising an absurd layout beyond EOF is rejected before any
  // region-sized allocation happens.
  in.seekg(0, std::ios::end);
  const std::uint64_t available =
      static_cast<std::uint64_t>(in.tellg() - base);
  in.seekg(base);

  V2Header h;
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!in) {
    Fail("truncated header");
  }
  ValidateGeometry(h);
  // Exact-size check, mirroring ValidateV2Mapping: the two loaders must
  // agree on accept/reject (modulo hub sortedness, which only the heap
  // path verifies), so trailing bytes are corruption here too.
  if (h.file_bytes != available) {
    Fail("file truncated");
  }

  const auto region = [&](std::uint64_t pos, char* dst, std::uint64_t len) {
    in.seekg(base + static_cast<std::streamoff>(pos));
    in.read(dst, static_cast<std::streamsize>(len));
    if (!in) {
      Fail("truncated region");
    }
  };

  std::string manifest_bytes(h.manifest_len, '\0');
  region(h.manifest_pos, manifest_bytes.data(), h.manifest_len);
  BuildManifest manifest = ParseEmbeddedManifest(
      manifest_bytes.data(), manifest_bytes.size(), h.num_vertices);

  const std::size_t n = static_cast<std::size_t>(h.num_vertices);
  std::vector<graph::VertexId> order(n);
  region(h.order_pos, reinterpret_cast<char*>(order.data()),
         n * sizeof(graph::VertexId));

  std::vector<std::uint64_t> offsets(n + 1);
  region(h.offsets_pos, reinterpret_cast<char*>(offsets.data()),
         (n + 1) * sizeof(std::uint64_t));

  const std::size_t entry_count =
      static_cast<std::size_t>(h.total_entries) + n;
  std::vector<LabelEntry> entries(entry_count);
  region(h.entries_pos, reinterpret_cast<char*>(entries.data()),
         entry_count * sizeof(LabelEntry));

  // FromFlat applies the full heap-path rigor: monotonic offsets, a
  // sentinel closing every row, strictly sorted hubs.
  LabelStore store = LabelStore::FromFlat(std::move(offsets),
                                          std::move(entries));
  ValidateOrderPermutation(order);
  Index index(std::move(store), std::move(order));
  index.SetManifest(std::move(manifest));
  return index;
}
// parapll-lint: end-untrusted-decode

// parapll-lint: begin-untrusted-decode
V2View ValidateV2Mapping(const char* data, std::size_t size) {
  if (size < kIndexV2HeaderBytes) {
    Fail("truncated header");
  }
  V2View view;
  std::memcpy(&view.header, data, sizeof(view.header));
  const V2Header& h = view.header;
  ValidateGeometry(h);
  if (h.file_bytes != size) {
    Fail("file truncated");
  }

  view.manifest =
      ParseEmbeddedManifest(data + h.manifest_pos,
                            static_cast<std::size_t>(h.manifest_len),
                            h.num_vertices);

  // The positions are aligned by ValidateGeometry; re-check the actual
  // addresses so a caller handing in an unaligned buffer (not mmap) still
  // gets a clean error instead of UB.
  const auto aligned = [&](std::uint64_t pos, std::size_t align) {
    return reinterpret_cast<std::uintptr_t>(data + pos) % align == 0;
  };
  if (!aligned(h.order_pos, alignof(graph::VertexId)) ||
      !aligned(h.offsets_pos, alignof(std::uint64_t)) ||
      !aligned(h.entries_pos, alignof(LabelEntry))) {
    Fail("mapping base address breaks region alignment");
  }
  view.order = reinterpret_cast<const graph::VertexId*>(data + h.order_pos);
  view.offsets =
      reinterpret_cast<const std::uint64_t*>(data + h.offsets_pos);
  view.entries =
      reinterpret_cast<const LabelEntry*>(data + h.entries_pos);

  // O(n) memory-safety pass: monotonic offsets covering the region
  // exactly, and a sentinel closing every row (QuerySentinel's merge
  // cursors terminate inside the mapping). Hub sortedness inside rows is
  // deliberately not verified here — that is the heap loader's job.
  const std::uint64_t n = h.num_vertices;
  const std::uint64_t end = h.total_entries + n;
  if (view.offsets[0] != 0 || view.offsets[n] != end) {
    Fail("offset table does not cover the entries region");
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t lo = view.offsets[v];
    const std::uint64_t hi = view.offsets[v + 1];
    if (hi <= lo || hi > end) {
      Fail("offset table is not monotonic");
    }
    if (view.entries[hi - 1].hub != graph::kInvalidVertex) {
      Fail("label row is missing its sentinel");
    }
  }

  // Order must be a permutation or RankOf lookups go out of bounds.
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (std::uint64_t v = 0; v < n; ++v) {
    const graph::VertexId id = view.order[v];
    if (id >= n || seen[id]) {
      Fail("vertex order is not a permutation");
    }
    seen[id] = true;
  }
  return view;
}
// parapll-lint: end-untrusted-decode

}  // namespace parapll::pll
