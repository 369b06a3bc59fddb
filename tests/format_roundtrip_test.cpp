// Index-file round-trip properties and degenerate-shape coverage.
//
// The v2 container (WriteIndexV2) persists the index losslessly:
//   * v2 -> load -> v2 is byte-idempotent with no adjustment at all;
//   * v2 entries carry zero padding bytes, so two serial builds of one
//     graph write identical v2 files.
//
// The degenerate shapes — a zero-vertex index and an all-empty-rows
// index — must survive both backends (heap and mmap), because they are
// exactly the shapes ad-hoc loader arithmetic tends to get wrong (n == 0
// offset tables, rows that are only a sentinel).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "build/pipeline.hpp"
#include "corrupt_cases.hpp"
#include "graph/generators.hpp"
#include "graph/types.hpp"
#include "pll/format_v2.hpp"
#include "pll/index.hpp"
#include "pll/label_store.hpp"
#include "pll/mapped_file.hpp"
#include "pll/servable.hpp"

namespace parapll {
namespace {

using corpus::MakeManifestedIndex;
using corpus::V2Bytes;

std::string BackendTempPath(const char* name) {
  return ::testing::TempDir() + "parapll_roundtrip_" + name + "." +
         std::to_string(::getpid()) + ".v2";
}

pll::Index LoadV2(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return pll::ReadIndexV2(in);
}

TEST(FormatRoundTrip, V2ToV2IsByteIdempotent) {
  const std::string v2 = V2Bytes(MakeManifestedIndex());
  EXPECT_EQ(V2Bytes(LoadV2(v2)), v2);
}

// Each 16-byte entry has 4 padding bytes (offsets 4–7). Files written by
// older binaries may hold heap garbage there: readers must ignore it, and
// the writer must put zeros there whatever the loaded entries carry.
TEST(FormatRoundTrip, V2WriterZeroesEntryPaddingReadersIgnoreIt) {
  const std::string clean = V2Bytes(MakeManifestedIndex());
  pll::V2Header h;
  std::memcpy(&h, clean.data(), sizeof(h));
  ASSERT_EQ(h.file_bytes, clean.size());
  std::string dirty = clean;
  std::size_t padding_bytes = 0;
  for (std::uint64_t pos = h.entries_pos; pos < h.file_bytes;
       pos += sizeof(pll::LabelEntry)) {
    for (std::uint64_t k = 4; k < 8; ++k) {
      EXPECT_EQ(clean[pos + k], '\0') << "entry byte " << pos + k;
      dirty[pos + k] = static_cast<char>(0xA5);
      ++padding_bytes;
    }
  }
  ASSERT_GT(padding_bytes, 0u);
  const pll::Index loaded = LoadV2(dirty);
  EXPECT_EQ(loaded.Store(), LoadV2(clean).Store());
  EXPECT_TRUE(V2Bytes(loaded) == clean);  // == avoids dumping the bytes
}

// The serial label set does not depend on anything but the graph, so two
// serial builds must write byte-identical v2 files once the manifest's
// two run stamps (wall time and creation time) are equalized.
TEST(FormatRoundTrip, SerialBuildsWriteByteIdenticalV2Files) {
  const graph::Graph g = graph::BarabasiAlbert(
      400, 3, {graph::WeightModel::kUniform, 50}, 12);
  std::vector<std::string> files;
  for (const char* tag : {"serial_a", "serial_b"}) {
    pll::Index index = build::Run(g, {}).artifact.index;
    pll::BuildManifest manifest = index.Manifest();
    manifest.wall_seconds = 0.0;
    manifest.created_unix = 0;
    index.SetManifest(manifest);
    const std::string path = BackendTempPath(tag);
    pll::WriteIndexFile(index, path);
    std::ifstream in(path, std::ios::binary);
    files.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    std::remove(path.c_str());
  }
  ASSERT_GT(files[0].size(), sizeof(pll::V2Header));
  EXPECT_TRUE(files[0] == files[1]);  // == avoids dumping the bytes
}

// --- degenerate shapes through every backend ---------------------------

// Runs `index` through the v2 heap loader and (where available) the
// zero-copy mmap backend, checking the given probe distance.
void ExerciseAllBackends(const pll::Index& index, const char* tag,
                         graph::VertexId probe_s, graph::VertexId probe_t,
                         graph::Distance expected) {
  SCOPED_TRACE(tag);
  const auto n = index.NumVertices();

  const std::string v2 = V2Bytes(index);
  const pll::Index heap = LoadV2(v2);
  EXPECT_EQ(heap.NumVertices(), n);

  if (n > 0) {
    EXPECT_EQ(heap.Query(probe_s, probe_t), expected);
  }

#ifdef PARAPLL_HAVE_MMAP
  const std::string path = BackendTempPath(tag);
  pll::WriteIndexFile(index, path);
  const pll::ServableIndex mapped =
      pll::ServableIndex::Load(path, pll::StoreBackend::kMmap);
  EXPECT_EQ(mapped.backend, pll::StoreBackend::kMmap);
  const pll::LabelSource& rows = *mapped.source;
  EXPECT_EQ(rows.NumVertices(), n);
  if (n > 0) {
    // Zero-copy rows are sentinel-terminated; the merge must terminate.
    EXPECT_EQ(pll::QuerySentinel(rows.RowBegin(index.RankOf(probe_s)),
                                 rows.RowBegin(index.RankOf(probe_t))),
              expected);
  }
  std::remove(path.c_str());
#endif
}

TEST(DegenerateShapes, ZeroVertexIndexSurvivesEveryBackend) {
  const pll::Index empty(pll::LabelStore::FromRows({}), {});
  EXPECT_EQ(empty.NumVertices(), 0u);
  ExerciseAllBackends(empty, "zero_vertex", 0, 0, 0);
}

TEST(DegenerateShapes, ZeroLabelRowsSurviveEveryBackend) {
  // Three vertices, no labels at all: every row is just its sentinel,
  // every query is "disconnected".
  const graph::VertexId n = 3;
  pll::LabelStore store =
      pll::LabelStore::FromRows(std::vector<std::vector<pll::LabelEntry>>(n));
  ASSERT_EQ(store.TotalEntries(), 0u);
  const pll::Index index(std::move(store), {0, 1, 2});
  ExerciseAllBackends(index, "zero_labels", 0, 2,
                      graph::kInfiniteDistance);
}

}  // namespace
}  // namespace parapll
