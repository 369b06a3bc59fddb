// One source of truth for adversarial decoder inputs.
//
// The corruption gtests (corrupt_input_test.cpp) and the fuzz seed
// corpora (fuzz/corpus/<target>/, written by fuzz/export_corpus) are
// generated from the builders and SeedCase lists here, so the two can
// never drift: every hand-understood corruption is both a unit test and
// a coverage-guided starting point.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "pll/index.hpp"
#include "pll/label_store.hpp"
#include "pll/manifest.hpp"

namespace parapll::corpus {

// --- deterministic index builders --------------------------------------

// Pipeline-built index (ErdosRenyi 24/60, seed 6) whose manifest carries
// real provenance — the base for manifest and v2-container corpora.
pll::Index MakeManifestedIndex();

// --- serializers -------------------------------------------------------

std::string V2Bytes(const pll::Index& index);  // the index file container
std::string ManifestBytes(const pll::BuildManifest& manifest);

// Canonical wire / frame / text samples used by the corruption suites.
std::string WirePayloadBytes();           // cluster updates payload
std::string DistanceRequestFrame();       // serve request, length-prefixed
std::string OkResponseFrame();            // serve response, length-prefixed
std::string DistanceRequestPayload();     // prefix stripped
std::string OkResponsePayload();          // prefix stripped
std::string SampleGraphText();            // valid "u v w" edge list

// --- byte-layout constants ---------------------------------------------

// Serialized manifest layout (see pll/manifest.cpp):
//   [0, 8) magic "PPManft1" | [8, 12) format_version | [12, 20)
//   fingerprint | [20, 28) num_vertices | [28, 36) num_edges | [36, ...)
//   mode/ordering/policy (u32 length + bytes each) | threads/nodes/sync
//   (u32 each) | seed (u64) | roots_completed (u64) | totals...
inline constexpr std::size_t kManifestVersion = 8;
inline constexpr std::size_t kManifestNumVertices = 20;
inline constexpr std::size_t kManifestModeLen = 36;

// V2Header layout (pll/format_v2.hpp):
//   [0, 8) magic | [8, 12) version | [12, 16) header_bytes | [16, 24) n
//   [24, 32) total_entries | [32, 40) manifest_pos | [40, 48)
//   manifest_len | [48, 56) order_pos | [56, 64) offsets_pos | [64, 72)
//   entries_pos | [72, 80) file_bytes
inline constexpr std::size_t kV2Version = 8;
inline constexpr std::size_t kV2NumVertices = 16;
inline constexpr std::size_t kV2OrderPos = 48;
inline constexpr std::size_t kV2OffsetsPos = 56;
inline constexpr std::size_t kV2EntriesPos = 64;
inline constexpr std::size_t kV2FileBytes = 72;

// --- byte surgery ------------------------------------------------------

template <typename T>
void Patch(std::string& bytes, std::size_t pos, T value) {
  if (pos + sizeof(T) > bytes.size()) {
    throw std::out_of_range("Patch past end of corpus bytes");
  }
  std::memcpy(bytes.data() + pos, &value, sizeof(T));
}

template <typename T>
T Peek(const std::string& bytes, std::size_t pos) {
  if (pos + sizeof(T) > bytes.size()) {
    throw std::out_of_range("Peek past end of corpus bytes");
  }
  T value{};
  std::memcpy(&value, bytes.data() + pos, sizeof(T));
  return value;
}

// Byte offset of the manifest's roots_completed cursor, walking the
// three length-prefixed name fields.
std::size_t RootsCursorOffset(const std::string& manifest_bytes);

// --- fuzz seed corpora -------------------------------------------------

struct SeedCase {
  std::string name;   // corpus file name (stable, self-describing)
  std::string bytes;  // the input fed to the decoder under test
};

// One list per fuzz target; names match fuzz/corpus/<target>/ and the
// harness in fuzz/fuzz_<target>.cpp. Each list mixes valid encodings
// (so the fuzzer starts from deep coverage) with every corruption class
// the gtests pin down.
std::vector<SeedCase> IndexV2Seeds();      // ReadIndexV2 / ValidateV2Mapping
std::vector<SeedCase> ManifestSeeds();     // BuildManifest::Deserialize
std::vector<SeedCase> ClusterWireSeeds();  // cluster::DecodeUpdates
std::vector<SeedCase> ServeFrameSeeds();   // serve::FrameReader + decoders
std::vector<SeedCase> GraphTextSeeds();    // graph::ReadEdgeListText

// All targets, keyed by corpus directory name.
struct SeedTarget {
  std::string target;  // fuzz/corpus/<target>/
  std::vector<SeedCase> cases;
};
std::vector<SeedTarget> AllSeedTargets();

}  // namespace parapll::corpus
