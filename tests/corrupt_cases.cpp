#include "corrupt_cases.hpp"

#include <sstream>

#include "build/pipeline.hpp"
#include "cluster/wire.hpp"
#include "graph/generators.hpp"
#include "pll/format_v2.hpp"
#include "serve/frame.hpp"

namespace parapll::corpus {

pll::Index MakeManifestedIndex() {
  const graph::Graph g =
      graph::ErdosRenyi(24, 60, {graph::WeightModel::kUniform, 10}, 6);
  return build::Run(g, {}).artifact.index;
}

std::string V2Bytes(const pll::Index& index) {
  std::ostringstream out(std::ios::binary);
  pll::WriteIndexV2(index, out);
  return out.str();
}

std::string ManifestBytes(const pll::BuildManifest& manifest) {
  std::ostringstream out(std::ios::binary);
  manifest.Serialize(out);
  return out.str();
}

std::string WirePayloadBytes() {
  const std::vector<cluster::LabelUpdate> updates = {
      {1, 0, 7}, {2, 0, 9}, {3, 1, 4}};
  const cluster::Payload payload = cluster::EncodeUpdates(0.5, updates);
  return std::string(payload.begin(), payload.end());
}

std::string DistanceRequestFrame() {
  const std::vector<query::QueryPair> pairs = {{0, 1}, {2, 3}, {4, 4}};
  return serve::EncodeDistanceRequest(pairs);
}

std::string OkResponseFrame() {
  const std::vector<graph::Distance> distances = {7, 0,
                                                  graph::kInfiniteDistance};
  return serve::EncodeOkResponse(distances);
}

std::string DistanceRequestPayload() { return DistanceRequestFrame().substr(4); }

std::string OkResponsePayload() { return OkResponseFrame().substr(4); }

std::string SampleGraphText() {
  return "# parapll edge list: n=6 m=4\n"
         "0 1 3\n"
         "1 2 1\n"
         "2 3 4\n"
         "4 5 1\n";
}

std::size_t RootsCursorOffset(const std::string& manifest_bytes) {
  std::size_t pos = kManifestModeLen;
  for (int name = 0; name < 3; ++name) {
    pos += sizeof(std::uint32_t) + Peek<std::uint32_t>(manifest_bytes, pos);
  }
  return pos + 3 * sizeof(std::uint32_t) + sizeof(std::uint64_t);
}

namespace {

// A copy with one byte XOR-flipped.
std::string Flip(std::string bytes, std::size_t pos) {
  bytes.at(pos) ^= 0x5a;
  return bytes;
}

template <typename T>
std::string With(std::string bytes, std::size_t pos, T value) {
  Patch(bytes, pos, value);
  return bytes;
}

}  // namespace

std::vector<SeedCase> IndexV2Seeds() {
  const pll::Index index = MakeManifestedIndex();
  const std::string v2 = V2Bytes(index);
  std::vector<SeedCase> seeds = {
      {"valid", v2},
      {"empty", ""},
      {"bad-magic", Flip(v2, 0)},
      {"bad-version", With<std::uint32_t>(v2, kV2Version, 3)},
      {"truncated-header", v2.substr(0, 79)},
      {"truncated-half", v2.substr(0, v2.size() / 2)},
      {"trailing-byte", v2 + '\0'},
      {"misaligned-entries",
       With<std::uint64_t>(v2, kV2EntriesPos,
                           Peek<std::uint64_t>(v2, kV2EntriesPos) + 8)},
      {"huge-declared-n",
       With<std::uint64_t>(v2, kV2NumVertices, std::uint64_t{1} << 56)},
      {"manifest-vertex-mismatch",
       With<std::uint64_t>(v2, pll::kIndexV2HeaderBytes + kManifestNumVertices,
                           index.NumVertices() + 5)},
  };
  {
    // Regions shifted past EOF while staying self-consistent.
    std::string bytes = v2;
    constexpr std::uint64_t kShift = 1 << 20;
    for (const std::size_t field :
         {kV2OffsetsPos, kV2EntriesPos, kV2FileBytes}) {
      Patch<std::uint64_t>(bytes, field,
                           Peek<std::uint64_t>(bytes, field) + kShift);
    }
    seeds.push_back({"regions-past-eof", std::move(bytes)});
  }
  {
    // The sentinel closing row 0 replaced by a plausible hub id.
    std::string bytes = v2;
    const auto entries_pos = Peek<std::uint64_t>(bytes, kV2EntriesPos);
    const auto offsets_pos = Peek<std::uint64_t>(bytes, kV2OffsetsPos);
    const auto row_end = Peek<std::uint64_t>(
        bytes, static_cast<std::size_t>(offsets_pos) + sizeof(std::uint64_t));
    Patch<graph::VertexId>(bytes,
                           static_cast<std::size_t>(entries_pos) +
                               static_cast<std::size_t>(row_end - 1) *
                                   sizeof(pll::LabelEntry),
                           0);
    seeds.push_back({"missing-sentinel", std::move(bytes)});
  }
  {
    std::string bytes = v2;
    const auto offsets_pos =
        static_cast<std::size_t>(Peek<std::uint64_t>(bytes, kV2OffsetsPos));
    Patch<std::uint64_t>(bytes, offsets_pos + 2 * sizeof(std::uint64_t), 0);
    seeds.push_back({"non-monotonic-offsets", std::move(bytes)});
  }
  {
    std::string bytes = v2;
    const auto order_pos =
        static_cast<std::size_t>(Peek<std::uint64_t>(bytes, kV2OrderPos));
    Patch<graph::VertexId>(
        bytes, order_pos,
        Peek<graph::VertexId>(bytes, order_pos + sizeof(graph::VertexId)));
    seeds.push_back({"non-permutation-order", std::move(bytes)});
  }
  {
    // The documented split case: mapping-accepts, heap-rejects.
    std::string bytes = v2;
    const auto entries_pos =
        static_cast<std::size_t>(Peek<std::uint64_t>(bytes, kV2EntriesPos));
    const auto offsets_pos =
        static_cast<std::size_t>(Peek<std::uint64_t>(bytes, kV2OffsetsPos));
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
      break;
    }
    seeds.push_back({"unsorted-hubs", std::move(bytes)});
  }
  return seeds;
}

std::vector<SeedCase> ManifestSeeds() {
  const std::string m = ManifestBytes(MakeManifestedIndex().Manifest());
  return {
      {"valid", m},
      {"empty", ""},
      {"bad-magic", Flip(m, 0)},
      {"bad-version",
       With<std::uint32_t>(m, kManifestVersion,
                           pll::BuildManifest::kMaxFormatVersion + 1)},
      {"max-version",
       With<std::uint32_t>(m, kManifestVersion,
                           pll::BuildManifest::kMaxFormatVersion)},
      {"oversized-name", With<std::uint32_t>(m, kManifestModeLen, 1000)},
      {"cursor-beyond-n",
       With<std::uint64_t>(m, RootsCursorOffset(m),
                           Peek<std::uint64_t>(m, kManifestNumVertices) +
                               100)},
      {"truncated-names", m.substr(0, kManifestModeLen + 2)},
      {"truncated-tail", m.substr(0, m.size() - 3)},
  };
}

std::vector<SeedCase> ClusterWireSeeds() {
  const std::string wire = WirePayloadBytes();
  return {
      {"valid", wire},
      {"empty", ""},
      {"truncated-clock", wire.substr(0, 6)},
      {"truncated-record", wire.substr(0, wire.size() - 4)},
      {"trailing-byte", wire + '\0'},
      {"oversized-count",
       With<std::uint64_t>(wire, 8, std::uint64_t{1} << 60)},
  };
}

std::vector<SeedCase> ServeFrameSeeds() {
  const std::string request = DistanceRequestFrame();
  const std::string response = OkResponseFrame();
  const std::vector<query::QueryPair> pairs = {{0, 1}, {2, 3}};
  const std::string traced =
      serve::EncodeDistanceRequest(pairs, "req-42/a.b:c");
  const std::string info_request = serve::EncodeInfoRequest();
  std::vector<SeedCase> seeds = {
      {"valid-request", request},
      {"valid-response", response},
      {"valid-traced-request", traced},
      {"valid-info-request", info_request},
      {"empty", ""},
      {"bad-request-magic", Flip(request, 4)},
      {"unknown-type", With<char>(request, 8, '\x7f')},
      {"count-mismatch", With<std::uint32_t>(request, 9, 4)},
      {"oversized-count",
       With<std::uint32_t>(request, 9, std::uint32_t{1} << 30)},
      {"truncated-frame", request.substr(0, request.size() - 3)},
      {"two-frames", request + info_request},
  };
  {
    // A 2 GiB length prefix with no body: FrameReader must reject it
    // from the prefix alone.
    std::string bomb(4, '\0');
    const std::uint32_t declared = std::uint32_t{1} << 31;
    Patch(bomb, 0, declared);
    seeds.push_back({"declared-length-bomb", std::move(bomb)});
  }
  {
    std::string payload = DistanceRequestPayload();
    payload.push_back('\x05');
    payload += "ab";
    std::string frame(4, '\0');
    Patch(frame, 0, static_cast<std::uint32_t>(payload.size()));
    seeds.push_back({"trace-length-mismatch", frame + payload});
  }
  return seeds;
}

std::vector<SeedCase> GraphTextSeeds() {
  return {
      {"valid", SampleGraphText()},
      {"valid-no-weights", "0 1\n1 2\n"},
      {"valid-comment-only", "# nothing here\n"},
      {"empty", ""},
      {"missing-field", "0\n"},
      {"non-numeric-id", "0 x 3\n"},
      {"zero-weight", "0 1 0\n"},
      {"negative-weight", "0 1 -5\n"},
      {"nan-weight", "0 1 NaN\n"},
      {"float-weight", "0 1 2.5\n"},
      {"overflow-weight", "0 1 99999999999\n"},
      {"huge-id", "0 18446744073709551615\n"},
      {"huge-header-n", "# n=18446744073709551615\n0 1 2\n"},
      {"tabs-and-extra-columns", "0\t1\t3\t1699999999 label\n"},
  };
}

std::vector<SeedTarget> AllSeedTargets() {
  return {
      {"index_v2", IndexV2Seeds()},
      {"manifest", ManifestSeeds()},
      {"cluster_wire", ClusterWireSeeds()},
      {"serve_frame", ServeFrameSeeds()},
      {"graph_text", GraphTextSeeds()},
  };
}

}  // namespace parapll::corpus
