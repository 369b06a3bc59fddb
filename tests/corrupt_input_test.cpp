// Untrusted-input hardening: index bytes and wire payloads may come from
// disk or the fabric, so every corruption must surface as a recoverable
// std::runtime_error — never an abort, a wild allocation, or a silently
// wrong distance.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "build/pipeline.hpp"
#include "cluster/wire.hpp"
#include "corrupt_cases.hpp"
#include "serve/frame.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "pll/format_v2.hpp"
#include "pll/index.hpp"
#include "pll/label_store.hpp"
#include "pll/mapped_file.hpp"
#include "pll/pruned_dijkstra.hpp"
#include "pll/servable.hpp"

namespace parapll {
namespace {

using pll::LabelEntry;
using pll::LabelStore;

// Builders, byte-surgery helpers, and the serialized-layout offsets all
// live in corrupt_cases.{hpp,cpp} — one source of truth shared with the
// fuzz seed corpora (fuzz/export_corpus).
using corpus::MakeManifestedIndex;
using corpus::Patch;
using corpus::Peek;
using corpus::V2Bytes;

pll::Index LoadIndexBytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return pll::ReadIndexV2(in);
}

// ValidateV2Mapping demands a 16-byte-aligned base (mmap gives pages);
// vector<LabelEntry> reproduces that alignment for in-memory corpora.
void ExpectMappingThrows(const std::string& bytes) {
  std::vector<pll::LabelEntry> aligned((bytes.size() + 15) / 16 + 1);
  std::memcpy(aligned.data(), bytes.data(), bytes.size());
  EXPECT_THROW((void)pll::ValidateV2Mapping(
                   reinterpret_cast<const char*>(aligned.data()),
                   bytes.size()),
               std::runtime_error);
}

void ExpectBothLoadersThrow(const std::string& bytes) {
  EXPECT_THROW(LoadIndexBytes(bytes), std::runtime_error);
  ExpectMappingThrows(bytes);
}

TEST(CorruptLabelStore, FromRowsRejectsSentinelHub) {
  std::vector<std::vector<LabelEntry>> rows(1);
  rows[0].push_back(LabelEntry{graph::kInvalidVertex, 3});
  EXPECT_THROW(LabelStore::FromRows(std::move(rows)), std::runtime_error);
}

cluster::Payload SamplePayload() {
  const std::string bytes = corpus::WirePayloadBytes();
  return cluster::Payload(bytes.begin(), bytes.end());
}

TEST(CorruptWire, RoundTripStillDecodes) {
  const cluster::DecodedUpdates decoded = cluster::DecodeUpdates(SamplePayload());
  EXPECT_EQ(decoded.node_clock, 0.5);
  ASSERT_EQ(decoded.updates.size(), 3u);
  EXPECT_EQ(decoded.updates[2], (cluster::LabelUpdate{3, 1, 4}));
}

// A declared count far beyond the payload must throw before reserve(),
// not allocate gigabytes and then fault on the missing records.
TEST(CorruptWire, OversizedCountThrows) {
  cluster::Payload payload = SamplePayload();
  const std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(payload.data() + 8, &huge, sizeof(huge));
  EXPECT_THROW(cluster::DecodeUpdates(payload), std::runtime_error);
}

TEST(CorruptWire, PayloadShorterThanCountThrows) {
  cluster::Payload payload = SamplePayload();
  payload.resize(payload.size() - 4);  // count still says 3 records
  EXPECT_THROW(cluster::DecodeUpdates(payload), std::runtime_error);
}

TEST(Saturation, SaturatingAddClampsAtInfinity) {
  using graph::kInfiniteDistance;
  using graph::SaturatingAdd;
  EXPECT_EQ(SaturatingAdd(2, 3), 5u);
  EXPECT_EQ(SaturatingAdd(0, kInfiniteDistance), kInfiniteDistance);
  EXPECT_EQ(SaturatingAdd(kInfiniteDistance, 0), kInfiniteDistance);
  EXPECT_EQ(SaturatingAdd(kInfiniteDistance, kInfiniteDistance),
            kInfiniteDistance);
  EXPECT_EQ(SaturatingAdd(kInfiniteDistance - 1, 1), kInfiniteDistance);
  EXPECT_EQ(SaturatingAdd(std::uint64_t{1} << 63, std::uint64_t{1} << 63),
            kInfiniteDistance);
}

// Regression: two huge label distances used to wrap to a tiny sum and
// report a bogus short path; they must saturate to "not connected".
TEST(Saturation, QuerySentinelDoesNotWrap) {
  const std::vector<LabelEntry> a = {
      {0, std::uint64_t{1} << 63},
      {graph::kInvalidVertex, graph::kInfiniteDistance}};
  const std::vector<LabelEntry> b = {
      {0, (std::uint64_t{1} << 63) + 5},
      {graph::kInvalidVertex, graph::kInfiniteDistance}};
  EXPECT_EQ(pll::QuerySentinel(a.data(), b.data()), graph::kInfiniteDistance);
}

// Regression: a wrapped sum in the pruning probe looked like a 0-length
// witness path and pruned every vertex, silently dropping labels (the
// paper's Proposition 1 tolerates redundant labels, never missing ones).
TEST(Saturation, PrunedDijkstraDoesNotPruneOnWrappedSum) {
  const std::vector<graph::Edge> edges = {{0, 1, 5}};
  const graph::Graph g = graph::Graph::FromEdges(2, edges);
  pll::MutableLabels labels(2);
  labels.Append(0, 0, std::uint64_t{1} << 63);
  labels.Append(1, 0, std::uint64_t{1} << 63);
  pll::PruneScratch scratch(2);
  const pll::PruneStats stats = pll::PrunedDijkstra(g, 1, labels, scratch);
  EXPECT_EQ(stats.pruned, 0u);
  EXPECT_EQ(stats.labels_added, 2u);
  ASSERT_EQ(labels.Row(0).size(), 2u);
  EXPECT_EQ(labels.Row(0).back(), (LabelEntry{1, 5}));
}

// Build-manifest hardening. Every index file embeds its manifest (magic,
// version, identity, knobs, cursor) right after the v2 header; every
// corruption of it must be a recoverable std::runtime_error from both
// loaders.
//
// Manifest layout offsets come from corrupt_cases.hpp; kManifestAt turns
// them into file offsets.
using corpus::ManifestBytes;
using corpus::RootsCursorOffset;
using corpus::kManifestModeLen;
using corpus::kManifestNumVertices;
using corpus::kManifestVersion;
constexpr std::size_t kManifestAt = pll::kIndexV2HeaderBytes;

TEST(CorruptManifest, RoundTripPreservesProvenance) {
  const pll::Index index = MakeManifestedIndex();
  const pll::Index loaded = LoadIndexBytes(V2Bytes(index));
  EXPECT_EQ(loaded.Manifest(), index.Manifest());
  EXPECT_EQ(loaded.Manifest().mode, "serial");
  EXPECT_TRUE(loaded.Manifest().IsComplete());
}

TEST(CorruptManifest, BadMagicThrows) {
  std::string bytes = V2Bytes(MakeManifestedIndex());
  bytes[kManifestAt] ^= 0x5a;
  ExpectBothLoadersThrow(bytes);
}

TEST(CorruptManifest, VersionMismatchThrows) {
  std::string bytes = V2Bytes(MakeManifestedIndex());
  Patch<std::uint32_t>(bytes, kManifestAt + kManifestVersion,
                       pll::BuildManifest::kMaxFormatVersion + 1);
  ExpectBothLoadersThrow(bytes);
}

// The manifest payload has one layout for versions [1, max], so the
// loaders accept the whole range, not only the 2 the writer stamps.
TEST(CorruptManifest, EveryPayloadVersionIsAccepted) {
  std::string bytes = V2Bytes(MakeManifestedIndex());
  Patch<std::uint32_t>(bytes, kManifestAt + kManifestVersion,
                       pll::BuildManifest::kFormatVersion);
  EXPECT_EQ(LoadIndexBytes(bytes).Manifest().format_version,
            pll::BuildManifest::kFormatVersion);
}

TEST(CorruptManifest, OversizedNameLengthThrows) {
  std::string bytes = V2Bytes(MakeManifestedIndex());
  Patch<std::uint32_t>(bytes, kManifestAt + kManifestModeLen,
                       1000);  // cap is 64
  ExpectBothLoadersThrow(bytes);
}

TEST(CorruptManifest, CursorBeyondVertexCountThrows) {
  const pll::Index index = MakeManifestedIndex();
  std::string bytes = V2Bytes(index);
  const std::string manifest = ManifestBytes(index.Manifest());
  ASSERT_EQ(bytes.substr(kManifestAt, manifest.size()), manifest);
  Patch<std::uint64_t>(bytes, kManifestAt + RootsCursorOffset(manifest),
                       index.NumVertices() + 100);
  ExpectBothLoadersThrow(bytes);
}

// Deserialize reads field by field, so cutting the manifest anywhere past
// its magic must throw, never misparse.
TEST(CorruptManifest, EveryManifestTruncationThrows) {
  const std::string bytes = ManifestBytes(MakeManifestedIndex().Manifest());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW((void)pll::BuildManifest::Deserialize(in),
                 std::runtime_error)
        << "manifest prefix of " << len << " bytes parsed";
  }
}

// Format-v2 container hardening. The same corrupt bytes go through BOTH
// loaders: the heap reader (ReadIndexV2, full per-entry rigor) and the
// zero-copy mapping validator (ValidateV2Mapping, the O(n) pass the mmap
// load runs before serving pointers into the file). Every corruption must
// throw from both — except in-row hub order, which is deliberately only
// the heap loader's job.
//
// V2Header layout offsets come from corrupt_cases.hpp.
using corpus::kV2EntriesPos;
using corpus::kV2FileBytes;
using corpus::kV2NumVertices;
using corpus::kV2OffsetsPos;
using corpus::kV2OrderPos;
using corpus::kV2Version;

TEST(CorruptIndexV2, RoundTripLoadsThroughBothPaths) {
  const pll::Index index = MakeManifestedIndex();
  const std::string bytes = V2Bytes(index);
  const pll::Index loaded = LoadIndexBytes(bytes);
  EXPECT_EQ(loaded.Store(), index.Store());

  std::vector<pll::LabelEntry> aligned((bytes.size() + 15) / 16 + 1);
  std::memcpy(aligned.data(), bytes.data(), bytes.size());
  const pll::V2View view = pll::ValidateV2Mapping(
      reinterpret_cast<const char*>(aligned.data()), bytes.size());
  EXPECT_EQ(view.header.num_vertices, index.NumVertices());
  EXPECT_EQ(view.manifest.graph_fingerprint,
            index.Manifest().graph_fingerprint);
}

TEST(CorruptIndexV2, BadMagicThrows) {
  std::string bytes = V2Bytes(MakeManifestedIndex());
  bytes[0] ^= 0x5a;
  ExpectBothLoadersThrow(bytes);
}

TEST(CorruptIndexV2, UnsupportedVersionThrows) {
  std::string bytes = V2Bytes(MakeManifestedIndex());
  Patch<std::uint32_t>(bytes, kV2Version, 3);
  ExpectBothLoadersThrow(bytes);
}

TEST(CorruptIndexV2, MisalignedRegionThrows) {
  // Knocking the entries region off its 16-byte alignment must fail the
  // geometry check, never produce misaligned LabelEntry pointers.
  std::string bytes = V2Bytes(MakeManifestedIndex());
  Patch<std::uint64_t>(bytes, kV2EntriesPos,
                       Peek<std::uint64_t>(bytes, kV2EntriesPos) + 8);
  ExpectBothLoadersThrow(bytes);

  std::string odd_order = V2Bytes(MakeManifestedIndex());
  Patch<std::uint64_t>(odd_order, kV2OrderPos,
                       Peek<std::uint64_t>(odd_order, kV2OrderPos) + 1);
  ExpectBothLoadersThrow(odd_order);
}

TEST(CorruptIndexV2, OffsetTablePastEofThrows) {
  // A self-consistent header whose regions extend past the actual bytes:
  // the declared size must be checked against reality before any region
  // is read (heap) or dereferenced (mapping).
  std::string bytes = V2Bytes(MakeManifestedIndex());
  constexpr std::uint64_t kShift = 1 << 20;
  for (const std::size_t field :
       {kV2OffsetsPos, kV2EntriesPos, kV2FileBytes}) {
    Patch<std::uint64_t>(bytes, field,
                         Peek<std::uint64_t>(bytes, field) + kShift);
  }
  ExpectBothLoadersThrow(bytes);
}

TEST(CorruptIndexV2, EveryTruncationThrows) {
  const pll::Index index = MakeManifestedIndex();
  const std::string bytes = V2Bytes(index);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(LoadIndexBytes(bytes.substr(0, len)), std::runtime_error)
        << "v2 prefix of " << len << " bytes parsed";
  }
  // The mapped path sees the same truncations (sampled: the O(size^2)
  // full sweep above already covers the stream reader's byte positions).
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{79}, std::size_t{80},
        bytes.size() / 2, bytes.size() - 1}) {
    ExpectMappingThrows(bytes.substr(0, cut));
  }
}

TEST(CorruptIndexV2, MissingSentinelAtRowEndThrows) {
  const pll::Index index = MakeManifestedIndex();
  std::string bytes = V2Bytes(index);
  const auto entries_pos = Peek<std::uint64_t>(bytes, kV2EntriesPos);
  const auto offsets_pos = Peek<std::uint64_t>(bytes, kV2OffsetsPos);
  // offsets[1] is the sentinel-inclusive end of row 0; overwrite that
  // sentinel's hub with a plausible vertex id.
  const auto row_end = Peek<std::uint64_t>(
      bytes, static_cast<std::size_t>(offsets_pos) + sizeof(std::uint64_t));
  const std::size_t sentinel_hub =
      static_cast<std::size_t>(entries_pos) +
      static_cast<std::size_t>(row_end - 1) * sizeof(pll::LabelEntry);
  Patch<graph::VertexId>(bytes, sentinel_hub, 0);
  ExpectBothLoadersThrow(bytes);
}

TEST(CorruptIndexV2, NonMonotonicOffsetTableThrows) {
  std::string bytes = V2Bytes(MakeManifestedIndex());
  const auto offsets_pos =
      static_cast<std::size_t>(Peek<std::uint64_t>(bytes, kV2OffsetsPos));
  Patch<std::uint64_t>(bytes, offsets_pos + 2 * sizeof(std::uint64_t), 0);
  ExpectBothLoadersThrow(bytes);
}

TEST(CorruptIndexV2, NonPermutationOrderThrows) {
  const pll::Index index = MakeManifestedIndex();
  std::string bytes = V2Bytes(index);
  const auto order_pos =
      static_cast<std::size_t>(Peek<std::uint64_t>(bytes, kV2OrderPos));
  Patch<graph::VertexId>(
      bytes, order_pos,
      Peek<graph::VertexId>(bytes, order_pos + sizeof(graph::VertexId)));
  ExpectBothLoadersThrow(bytes);
}

TEST(CorruptIndex, OutOfRangeOrderEntryThrows) {
  const pll::Index index = MakeManifestedIndex();
  std::string bytes = V2Bytes(index);
  const auto order_pos =
      static_cast<std::size_t>(Peek<std::uint64_t>(bytes, kV2OrderPos));
  Patch<graph::VertexId>(bytes, order_pos, index.NumVertices() + 7);
  ExpectBothLoadersThrow(bytes);
}

TEST(CorruptIndexV2, HugeDeclaredVertexCountThrows) {
  std::string bytes = V2Bytes(MakeManifestedIndex());
  Patch<std::uint64_t>(bytes, kV2NumVertices, std::uint64_t{1} << 56);
  ExpectBothLoadersThrow(bytes);
}

TEST(CorruptIndexV2, EmbeddedManifestVertexMismatchThrows) {
  const pll::Index index = MakeManifestedIndex();
  std::string bytes = V2Bytes(index);
  Patch<std::uint64_t>(bytes, kManifestAt + kManifestNumVertices,
                       index.NumVertices() + 5);
  ExpectBothLoadersThrow(bytes);
}

// The two loaders agree on trailing garbage too: a v2 file is exactly
// its declared bytes, in the stream reader and the mapping validator.
TEST(CorruptIndexV2, TrailingBytesThrowFromBothLoaders) {
  const std::string bytes = V2Bytes(MakeManifestedIndex());
  ExpectBothLoadersThrow(bytes + '\0');
}

// The documented split: in-row hub order is the heap loader's check. The
// mapping validator's O(n) pass accepts the row (memory-safe: sentinel
// still terminates the merge) while ReadIndexV2 rejects it.
TEST(CorruptIndexV2, UnsortedHubsRejectedByHeapLoaderOnly) {
  const pll::Index index = MakeManifestedIndex();
  std::string bytes = V2Bytes(index);
  const auto entries_pos =
      static_cast<std::size_t>(Peek<std::uint64_t>(bytes, kV2EntriesPos));
  const auto offsets_pos =
      static_cast<std::size_t>(Peek<std::uint64_t>(bytes, kV2OffsetsPos));
  // Find a row with >= 2 real entries (sentinel-inclusive length >= 3).
  for (graph::VertexId v = 0; v < index.NumVertices(); ++v) {
    const auto lo = Peek<std::uint64_t>(
        bytes, offsets_pos + static_cast<std::size_t>(v) * 8);
    const auto hi = Peek<std::uint64_t>(
        bytes, offsets_pos + static_cast<std::size_t>(v + 1) * 8);
    if (hi - lo < 3) {
      continue;
    }
    const std::size_t first =
        entries_pos + static_cast<std::size_t>(lo) * sizeof(pll::LabelEntry);
    Patch<graph::VertexId>(bytes, first + sizeof(pll::LabelEntry),
                           Peek<graph::VertexId>(bytes, first));
    EXPECT_THROW(LoadIndexBytes(bytes), std::runtime_error);
    std::vector<pll::LabelEntry> aligned((bytes.size() + 15) / 16 + 1);
    std::memcpy(aligned.data(), bytes.data(), bytes.size());
    EXPECT_NO_THROW((void)pll::ValidateV2Mapping(
        reinterpret_cast<const char*>(aligned.data()), bytes.size()));
    return;
  }
  FAIL() << "test graph produced no row with two entries";
}

#if PARAPLL_HAVE_MMAP
// The full file path: the mmap load must reject every corrupt file of the
// v2 seed corpus with a recoverable error, and never serve pointers into
// it. In-row hub order is the one corruption it accepts (see above).
TEST(CorruptIndexV2, MmapOpenRejectsCorruptFile) {
  const std::string path = ::testing::TempDir() + "parapll_corrupt_v2." +
                           std::to_string(::getpid()) + ".idx";
  for (const corpus::SeedCase& seed : corpus::IndexV2Seeds()) {
    SCOPED_TRACE(seed.name);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(seed.bytes.data(),
                static_cast<std::streamsize>(seed.bytes.size()));
    }
    if (seed.name == "valid" || seed.name == "unsorted-hubs") {
      EXPECT_NO_THROW(
          (void)pll::ServableIndex::Load(path, pll::StoreBackend::kMmap));
    } else {
      EXPECT_THROW(
          (void)pll::ServableIndex::Load(path, pll::StoreBackend::kMmap),
          std::runtime_error);
    }
  }
  EXPECT_THROW((void)pll::ServableIndex::Load(path + ".missing",
                                              pll::StoreBackend::kMmap),
               std::runtime_error);
  std::remove(path.c_str());
}
#endif  // PARAPLL_HAVE_MMAP

// Serve-frame hardening: request and response payloads arrive from a TCP
// socket, so they get the same treatment as index bytes — every
// truncation, oversized count, trailing byte, and bad discriminator must
// be a recoverable std::runtime_error, and a hostile length prefix must
// be rejected before any buffering toward it.
//
// Payload layout (little-endian; serve/frame.hpp):
//   request  = u32 magic | u8 type   | body
//   response = u32 magic | u8 status | body
// A frame prepends a u32 payload length; tests strip it with substr(4).

using corpus::DistanceRequestPayload;
using corpus::OkResponsePayload;

TEST(CorruptServeFrame, RequestRoundTripDecodes) {
  const serve::Request request =
      serve::DecodeRequestPayload(DistanceRequestPayload());
  EXPECT_EQ(request.type, serve::RequestType::kDistanceQuery);
  ASSERT_EQ(request.pairs.size(), 3u);
  EXPECT_EQ(request.pairs[2], (query::QueryPair{4, 4}));
}

TEST(CorruptServeFrame, EveryRequestTruncationThrows) {
  const std::string payload = DistanceRequestPayload();
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW((void)serve::DecodeRequestPayload(payload.substr(0, len)),
                 std::runtime_error)
        << "request prefix of " << len << " bytes parsed";
  }
}

TEST(CorruptServeFrame, EveryResponseTruncationThrows) {
  const std::string payload = OkResponsePayload();
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW((void)serve::DecodeResponsePayload(payload.substr(0, len)),
                 std::runtime_error)
        << "response prefix of " << len << " bytes parsed";
  }
}

// One trailing byte is the 0.8 trace block's length prefix: a lone NUL is
// a valid *empty* trace block (equivalent to no block at all). Anything
// after the body that is not a well-formed trace block still throws.
TEST(CorruptServeFrame, EmptyTraceBlockDecodesAsAbsent) {
  const serve::Request request =
      serve::DecodeRequestPayload(DistanceRequestPayload() + '\0');
  EXPECT_EQ(request.pairs.size(), 3u);
  EXPECT_TRUE(request.trace_id.empty());
  const serve::Response response =
      serve::DecodeResponsePayload(OkResponsePayload() + '\0');
  EXPECT_EQ(response.distances.size(), 3u);
  EXPECT_TRUE(response.trace_id.empty());
}

TEST(CorruptServeFrame, TraceBlockRoundTrips) {
  const std::vector<query::QueryPair> pairs = {{0, 1}, {2, 3}};
  const serve::Request request = serve::DecodeRequestPayload(
      serve::EncodeDistanceRequest(pairs, "req-42/a.b:c").substr(4));
  EXPECT_EQ(request.trace_id, "req-42/a.b:c");
  ASSERT_EQ(request.pairs.size(), 2u);

  const std::vector<graph::Distance> distances = {7};
  const serve::Response ok = serve::DecodeResponsePayload(
      serve::EncodeOkResponse(distances, "req-42").substr(4));
  EXPECT_EQ(ok.trace_id, "req-42");
  ASSERT_EQ(ok.distances.size(), 1u);

  const serve::Response shed = serve::DecodeResponsePayload(
      serve::EncodeStatusResponse(serve::ResponseStatus::kShed, "req-42")
          .substr(4));
  EXPECT_EQ(shed.status, serve::ResponseStatus::kShed);
  EXPECT_EQ(shed.trace_id, "req-42");
}

TEST(CorruptServeFrame, TraceLengthMismatchThrows) {
  // Declared longer than delivered, and shorter than delivered: both are
  // framing corruption, never a silent re-interpretation.
  const std::string request = DistanceRequestPayload();
  EXPECT_THROW((void)serve::DecodeRequestPayload(request + '\x05' + "ab"),
               std::runtime_error);
  EXPECT_THROW((void)serve::DecodeRequestPayload(request + '\x01' + "ab"),
               std::runtime_error);
  const std::string response = OkResponsePayload();
  EXPECT_THROW((void)serve::DecodeResponsePayload(response + '\x05' + "ab"),
               std::runtime_error);
  EXPECT_THROW((void)serve::DecodeResponsePayload(response + '\x01' + "ab"),
               std::runtime_error);
}

// A hostile trace length is rejected at the cap — even when that many
// bytes really follow, so the check fires before any use of them.
TEST(CorruptServeFrame, OversizedTraceLengthThrows) {
  const std::string oversized(serve::kMaxTraceIdBytes + 1, 'a');
  std::string payload = DistanceRequestPayload();
  payload.push_back(static_cast<char>(oversized.size()));
  payload += oversized;
  EXPECT_THROW((void)serve::DecodeRequestPayload(payload),
               std::runtime_error);
}

// Trace bytes are untrusted wire input destined for log files: anything
// outside [A-Za-z0-9._:/-] must come out as '_' (no quotes, control
// bytes, or newlines can reach a JSONL record or terminal).
TEST(CorruptServeFrame, HostileTraceBytesAreSanitized) {
  const std::string hostile = "a\"b\nc\x01" "d e\\f";
  std::string payload = DistanceRequestPayload();
  payload.push_back(static_cast<char>(hostile.size()));
  payload += hostile;
  const serve::Request request = serve::DecodeRequestPayload(payload);
  EXPECT_EQ(request.trace_id, "a_b_c_d_e_f");
}

// Truncating a traced request must never parse as a *different* valid
// request — except at exactly the pre-trace boundary, where the bytes
// are indistinguishable from a legitimate 0.7 frame without a trace.
TEST(CorruptServeFrame, TracedRequestTruncationThrows) {
  const std::vector<query::QueryPair> pairs = {{0, 1}, {2, 3}, {4, 4}};
  const std::string payload =
      serve::EncodeDistanceRequest(pairs, "trace-xyz").substr(4);
  const std::size_t base = payload.size() - 1 - std::string("trace-xyz").size();
  for (std::size_t len = 0; len < payload.size(); ++len) {
    if (len == base) {
      const serve::Request request =
          serve::DecodeRequestPayload(payload.substr(0, len));
      EXPECT_TRUE(request.trace_id.empty());
      continue;
    }
    EXPECT_THROW((void)serve::DecodeRequestPayload(payload.substr(0, len)),
                 std::runtime_error)
        << "traced request prefix of " << len << " bytes parsed";
  }
}

TEST(CorruptServeFrame, BadMagicThrows) {
  std::string request = DistanceRequestPayload();
  request[0] ^= 0x5a;
  EXPECT_THROW((void)serve::DecodeRequestPayload(request),
               std::runtime_error);
  std::string response = OkResponsePayload();
  response[0] ^= 0x5a;
  EXPECT_THROW((void)serve::DecodeResponsePayload(response),
               std::runtime_error);
}

TEST(CorruptServeFrame, UnknownDiscriminatorThrows) {
  std::string request = DistanceRequestPayload();
  request[4] = '\x7f';  // not a RequestType
  EXPECT_THROW((void)serve::DecodeRequestPayload(request),
               std::runtime_error);
  std::string response = OkResponsePayload();
  response[4] = '\x7f';  // not a ResponseStatus
  EXPECT_THROW((void)serve::DecodeResponsePayload(response),
               std::runtime_error);
}

// A count claiming billions of pairs must be rejected at the cap check —
// before reserve() — not fault on the missing body bytes.
TEST(CorruptServeFrame, OversizedPairCountThrows) {
  std::string payload = DistanceRequestPayload();
  Patch<std::uint32_t>(payload, 5, std::uint32_t{1} << 30);
  EXPECT_THROW((void)serve::DecodeRequestPayload(payload),
               std::runtime_error);
}

TEST(CorruptServeFrame, CountBodyMismatchThrows) {
  // Count says 4 pairs but only 3 pairs of bytes follow (and the exact-size
  // rule also catches count = 2 with 3 pairs present).
  std::string payload = DistanceRequestPayload();
  Patch<std::uint32_t>(payload, 5, 4);
  EXPECT_THROW((void)serve::DecodeRequestPayload(payload),
               std::runtime_error);
  Patch<std::uint32_t>(payload, 5, 2);
  EXPECT_THROW((void)serve::DecodeRequestPayload(payload),
               std::runtime_error);
}

// FrameReader must reject a hostile length prefix as soon as the 4-byte
// prefix is visible — a 2 GiB declaration never grows the buffer.
TEST(CorruptServeFrame, DeclaredLengthBombThrows) {
  serve::FrameReader reader(serve::kMaxRequestPayload);
  const std::uint32_t bomb = std::uint32_t{1} << 31;
  std::string prefix(4, '\0');
  std::memcpy(prefix.data(), &bomb, sizeof(bomb));
  reader.Append(prefix.data(), prefix.size());
  std::string payload;
  EXPECT_THROW((void)reader.Next(payload), std::runtime_error);
}

// Text-graph hardening: edge lists are downloaded or user-supplied, so
// hostile vertex counts, non-numeric / negative / NaN weights, and
// truncated lines must all be recoverable std::runtime_error — never a
// silently truncated id, a wrapped weight, or an n-proportional
// allocation driven by a comment line.

graph::Graph ParseGraphText(const std::string& text,
                            bool compact_ids = false,
                            graph::VertexId max_vertices = 1 << 20) {
  std::istringstream in(text);
  return graph::ReadEdgeListText(in, compact_ids, max_vertices);
}

TEST(CorruptGraphText, ValidSampleRoundTrips) {
  const graph::Graph g = ParseGraphText(corpus::SampleGraphText());
  EXPECT_EQ(g.NumVertices(), 6u);
  EXPECT_EQ(g.NumEdges(), 4u);

  std::ostringstream out;
  graph::WriteEdgeListText(g, out);
  const graph::Graph again = ParseGraphText(out.str());
  EXPECT_EQ(again.NumVertices(), g.NumVertices());
  EXPECT_EQ(again.NumEdges(), g.NumEdges());
}

TEST(CorruptGraphText, MalformedFieldsThrow) {
  for (const char* text :
       {"0\n",          // missing endpoint
        "0 x 3\n",      // non-numeric id
        "0 1 NaN\n",    // NaN weight
        "0 1 -5\n",     // negative weight (must not wrap to huge)
        "0 1 2.5\n",    // float weight (must not truncate to 2)
        "0 1 1e9\n",    // exponent form
        "0 1x 3\n"}) {  // digits glued to garbage
    EXPECT_THROW((void)ParseGraphText(text), std::runtime_error) << text;
  }
}

TEST(CorruptGraphText, ZeroAndOverflowWeightsThrow) {
  EXPECT_THROW((void)ParseGraphText("0 1 0\n"), std::runtime_error);
  // Weight > 32-bit: rejected, not truncated.
  EXPECT_THROW((void)ParseGraphText("0 1 99999999999\n"), std::runtime_error);
}

// A hostile vertex id (or header count) must be rejected at the budget,
// not silently truncated to 32 bits or turned into an O(n) allocation.
TEST(CorruptGraphText, HostileVertexCountsThrow) {
  EXPECT_THROW((void)ParseGraphText("0 18446744073709551615\n"),
               std::runtime_error);
  EXPECT_THROW((void)ParseGraphText("0 4294967296 1\n"), std::runtime_error);
  EXPECT_THROW((void)ParseGraphText("# n=18446744073709551615\n0 1 2\n"),
               std::runtime_error);
  EXPECT_THROW((void)ParseGraphText("0 2000000 1\n"),  // over the budget
               std::runtime_error);
  // compact_ids renumbers, so a sparse huge literal id is fine...
  const graph::Graph g = ParseGraphText("7 4000000000 2\n", true);
  EXPECT_EQ(g.NumVertices(), 2u);
  // ...but the number of *distinct* ids is still budgeted.
  EXPECT_THROW((void)ParseGraphText("0 1\n1 2\n2 3\n", true, 2),
               std::runtime_error);
}

TEST(CorruptGraphText, HeaderCountWithinBudgetStillRoundTrips) {
  const graph::Graph g = ParseGraphText("# n=10\n0 1 2\n");
  EXPECT_EQ(g.NumVertices(), 10u);
  // Non-numeric "n=" text in a comment is ignored, not an error.
  EXPECT_EQ(ParseGraphText("# n=many vertices\n0 1 2\n").NumVertices(), 2u);
}

// Worker scratch construction is O(|V|) and happens before the first root
// is pulled; it must be booked as setup, never as idle time.
TEST(ThreadAccounting, SetupTimeIsBookedSeparatelyFromIdle) {
  const graph::Graph g =
      graph::BarabasiAlbert(400, 3, {graph::WeightModel::kUniform, 10}, 8);
  const auto result =
      build::Run(g, {.mode = build::BuildMode::kParallel, .threads = 2});
  ASSERT_EQ(result.reports.size(), 2u);
  for (const build::ThreadReport& report : result.reports) {
    EXPECT_GE(report.setup_seconds, 0.0);
    EXPECT_GE(report.busy_seconds, 0.0);
    EXPECT_GE(report.idle_seconds, 0.0);
    EXPECT_DOUBLE_EQ(report.WallSeconds(),
                     report.busy_seconds + report.idle_seconds);
  }
}

}  // namespace
}  // namespace parapll
