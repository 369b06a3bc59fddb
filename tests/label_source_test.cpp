// The one label-row read path: LabelSource is a view of the query
// layout that a heap LabelStore and a mapped format-v2 file both hand
// out. The two views of one file must hold identical offsets and entry
// bytes and answer bit-identical distances through QueryEngine, and the
// mmap load must be genuinely zero-copy (open time far below the heap
// deserializer on a large index).
#include "pll/label_source.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "pll/format_v2.hpp"
#include "pll/index.hpp"
#include "pll/mapped_file.hpp"
#include "pll/servable.hpp"
#include "query/query_engine.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace parapll {
namespace {

using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;

const WeightOptions kUniform{WeightModel::kUniform, 20};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "parapll_source_" + name + "." +
         std::to_string(::getpid()) + ".idx";
}

pll::Index BuildIndex(const Graph& g) {
  return build::Run(g, {}).artifact.index;
}

std::vector<query::QueryPair> RandomPairs(graph::VertexId n,
                                          std::size_t count,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<query::QueryPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<graph::VertexId>(rng.Below(n)),
                       static_cast<graph::VertexId>(rng.Below(n)));
  }
  return pairs;
}

std::size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<std::size_t>(in.tellg());
}

TEST(StoreBackendTest, NamesRoundTrip) {
  for (const pll::StoreBackend backend :
       {pll::StoreBackend::kHeap, pll::StoreBackend::kMmap}) {
    EXPECT_EQ(pll::StoreBackendFromString(pll::ToString(backend)), backend);
  }
  EXPECT_THROW((void)pll::StoreBackendFromString("disk"),
               std::runtime_error);
  EXPECT_THROW((void)pll::StoreBackendFromString("paged"),
               std::runtime_error);
}

TEST(FormatV2Test, FileRoundTripPreservesStoreOrderAndManifest) {
  const Graph g = graph::ErdosRenyi(90, 270, kUniform, 13);
  const build::BuildOutcome built = build::Run(g, {});
  const pll::Index& index = built.artifact.index;
  const std::string path = TempPath("roundtrip");
  pll::WriteIndexFile(index, path);

  const pll::Index loaded = pll::Index::LoadFile(path);
  EXPECT_EQ(loaded.Store(), index.Store());
  EXPECT_TRUE(std::equal(loaded.Order().begin(), loaded.Order().end(),
                         index.Order().begin(), index.Order().end()));
  // The embedded manifest is stamped with the container's version; all
  // other provenance survives.
  pll::BuildManifest want = index.Manifest();
  want.format_version = pll::kIndexFormatV2;
  EXPECT_EQ(loaded.Manifest(), want);
  std::remove(path.c_str());
}

TEST(FormatV2Test, EmptyIndexRoundTrips) {
  const pll::Index empty(pll::LabelStore::FromRows({}), {});
  const std::string path = TempPath("empty");
  pll::WriteIndexFile(empty, path);
  EXPECT_EQ(pll::Index::LoadFile(path).NumVertices(), 0u);
#if PARAPLL_HAVE_MMAP
  EXPECT_EQ(
      pll::ServableIndex::Load(path, pll::StoreBackend::kMmap).NumVertices(),
      0u);
#endif
  std::remove(path.c_str());
}

#if PARAPLL_HAVE_MMAP

// The core acceptance matrix: on several graph families, the heap and
// mmap views of one file hold the same offsets and entry bytes, and both
// answer QueryBatch bit-identically to the heap per-call baseline.
TEST(LabelSourceTest, AllBackendsAnswerIdenticallyAcrossGraphFamilies) {
  struct Family {
    const char* name;
    Graph g;
  };
  const Family families[] = {
      {"erdos-renyi", graph::ErdosRenyi(140, 420, kUniform, 21)},
      {"barabasi-albert", graph::BarabasiAlbert(130, 3, kUniform, 22)},
      {"road-grid", graph::RoadGrid(12, 11, 0.9, 4, kUniform, 23)},
  };
  for (const Family& family : families) {
    SCOPED_TRACE(family.name);
    const pll::Index index = BuildIndex(family.g);
    const std::string path = TempPath(family.name);
    pll::WriteIndexFile(index, path);

    const auto pairs = RandomPairs(family.g.NumVertices(), 600, 31);
    std::vector<graph::Distance> expected(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      expected[i] = index.Query(pairs[i].first, pairs[i].second);
    }

    const pll::ServableIndex heap =
        pll::ServableIndex::Load(path, pll::StoreBackend::kHeap);
    const pll::ServableIndex mapped =
        pll::ServableIndex::Load(path, pll::StoreBackend::kMmap);
    ASSERT_EQ(mapped.backend, pll::StoreBackend::kMmap);
    const pll::LabelSource& h = *heap.source;
    const pll::LabelSource& m = *mapped.source;
    ASSERT_EQ(h.NumVertices(), index.NumVertices());
    ASSERT_EQ(m.NumVertices(), index.NumVertices());
    EXPECT_EQ(h.TotalEntries(), index.TotalEntries());
    EXPECT_EQ(m.TotalEntries(), index.TotalEntries());
    for (graph::VertexId v = 0; v < h.NumVertices(); ++v) {
      ASSERT_EQ(m.RowBegin(v) - m.RowBegin(0), h.RowBegin(v) - h.RowBegin(0))
          << "offset of row " << v;
      ASSERT_EQ(m.Row(v).size(), h.Row(v).size()) << "row " << v;
      // Entry bytes, the row's sentinel included.
      ASSERT_EQ(std::memcmp(m.RowBegin(v), h.RowBegin(v),
                            (h.Row(v).size() + 1) * sizeof(pll::LabelEntry)),
                0)
          << "entries of row " << v;
    }
    for (const pll::ServableIndex* servable : {&heap, &mapped}) {
      SCOPED_TRACE(pll::ToString(servable->backend));
      query::QueryEngine engine(servable->source, servable->order,
                                {.threads = 2});
      EXPECT_EQ(engine.QueryBatch(pairs), expected);
    }
    std::remove(path.c_str());
  }
}

TEST(MmapLoadTest, ExposesManifestAndOrderFromTheMapping) {
  const Graph g = graph::ErdosRenyi(70, 210, kUniform, 41);
  const build::BuildOutcome built = build::Run(g, {});
  const std::string path = TempPath("view");
  pll::WriteIndexFile(built.artifact.index, path);

  const pll::ServableIndex mapped =
      pll::ServableIndex::Load(path, pll::StoreBackend::kMmap);
  EXPECT_EQ(mapped.backend, pll::StoreBackend::kMmap);
  EXPECT_EQ(mapped.manifest.graph_fingerprint,
            built.artifact.Manifest().graph_fingerprint);
  EXPECT_EQ(mapped.format_version, pll::kIndexFormatV2);
  EXPECT_EQ(mapped.order, built.artifact.index.Order());
  EXPECT_EQ(mapped.file_bytes, FileBytes(path));
  // The mapping's pages are file-backed, not owned heap bytes.
  EXPECT_EQ(mapped.source->MemoryBytes(), 0u);
  std::remove(path.c_str());
}

// The heap view reports what its store owns.
TEST(LabelSourceTest, HeapViewReportsTheStoresMemory) {
  const pll::Index index =
      BuildIndex(graph::ErdosRenyi(40, 120, kUniform, 43));
  const pll::LabelSource view = index.Store().View();
  EXPECT_EQ(view.MemoryBytes(), index.Store().MemoryBytes());
  EXPECT_EQ(view.NumVertices(), index.NumVertices());
  EXPECT_EQ(view.TotalEntries(), index.TotalEntries());
  EXPECT_EQ(view.Query(0, 1), index.Store().Query(0, 1));
}

// Zero-copy is not a vibe: opening the mapped store must be dramatically
// cheaper than heap-deserializing the same container, because it reads
// only the O(n) metadata instead of copying every entry. Built on a
// synthetic store large enough (hundreds of thousands of entries) that
// the gap is structural, compared min-of-3 against min-of-3.
TEST(LabelSourceTest, MmapOpenIsFarCheaperThanHeapDeserialize) {
  constexpr graph::VertexId kVertices = 4096;
  constexpr std::size_t kEntriesPerRow = 160;  // ~650k entries, ~10 MB
  std::vector<std::vector<pll::LabelEntry>> rows(kVertices);
  for (graph::VertexId v = 0; v < kVertices; ++v) {
    rows[v].reserve(kEntriesPerRow);
    for (std::size_t i = 0; i < kEntriesPerRow; ++i) {
      rows[v].push_back(pll::LabelEntry{
          static_cast<graph::VertexId>(i * 7 + (v % 5)),
          static_cast<graph::Distance>(v + i + 1)});
    }
  }
  std::vector<graph::VertexId> order(kVertices);
  for (graph::VertexId v = 0; v < kVertices; ++v) {
    order[v] = v;
  }
  const pll::Index index(pll::LabelStore::FromRows(std::move(rows)),
                         std::move(order));
  const std::string path = TempPath("timing");
  pll::WriteIndexFile(index, path);

  auto min_of_3 = [](auto&& body) {
    double best = 1e9;
    for (int i = 0; i < 3; ++i) {
      util::WallTimer timer;
      body();
      best = std::min(best, timer.Seconds());
    }
    return best;
  };
  // Touch the file once so both contenders read a warm page cache.
  const double heap_seconds =
      min_of_3([&] { (void)pll::Index::LoadFile(path); });
  const double mmap_seconds = min_of_3([&] {
    (void)pll::ServableIndex::Load(path, pll::StoreBackend::kMmap)
        .source->TotalEntries();
  });
  EXPECT_LT(mmap_seconds * 2.0, heap_seconds)
      << "mmap open " << mmap_seconds << "s vs heap load " << heap_seconds
      << "s — zero-copy regressed into a copy";
  std::remove(path.c_str());
}

#endif  // PARAPLL_HAVE_MMAP

}  // namespace
}  // namespace parapll
