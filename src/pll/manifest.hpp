// Build provenance manifest — the versioned header of an IndexArtifact.
//
// Every index (and every build checkpoint) carries one: which graph it
// was built from (structural fingerprint), how (mode, ordering,
// parallelism, seed), what it cost (PruneStats totals, wall time), and
// how far the build got (roots_completed < num_vertices marks a partial
// checkpoint; == marks a complete index). Embedded in the index file with
// the same untrusted-input rigor as the label rows:
// bounded reads, capped string lengths, and a hard format-version check,
// so a corrupted or version-skewed artifact is a recoverable
// std::runtime_error instead of nonsense labels.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "pll/pruned_dijkstra.hpp"

namespace parapll::pll {

struct BuildManifest {
  // Bump on any incompatible change to the artifact layout. Loaders
  // reject anything outside [kFormatVersion, kMaxFormatVersion]: a
  // manifest is a correctness contract, not a hint. The version names the
  // container: 2 is index format v2 (pll/format_v2.hpp), the only one
  // written. 1 named the retired streamed container; its manifest payload
  // is identical, so a version-1 manifest still parses.
  static constexpr std::uint32_t kFormatVersion = 1;
  static constexpr std::uint32_t kMaxFormatVersion = 2;

  std::uint32_t format_version = kMaxFormatVersion;
  std::uint64_t graph_fingerprint = 0;  // graph::Fingerprint of the input
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::string mode;      // "serial" | "parallel" | "simulated" | "cluster"
  std::string ordering;  // pll::ToString(OrderingPolicy)
  std::string policy;    // parallel::ToString(AssignmentPolicy)
  std::uint32_t threads = 1;
  std::uint32_t nodes = 1;
  std::uint32_t sync_count = 1;
  std::uint64_t seed = 0;
  // Build cursor: every root with rank < roots_completed has fully
  // finished and its labels are present. A complete index has
  // roots_completed == num_vertices.
  std::uint64_t roots_completed = 0;
  PruneStats totals;          // aggregate operation counts so far
  double wall_seconds = 0.0;  // build wall time so far
  std::uint64_t created_unix = 0;

  [[nodiscard]] bool IsComplete() const {
    return roots_completed == num_vertices;
  }

  // Internal consistency (cursor in range, sane string lengths). Throws
  // std::runtime_error with a description on violation.
  void Validate() const;

  // Binary round-trip. Deserialize validates magic, version, and every
  // length before trusting it, and never allocates more than the capped
  // string sizes up front.
  void Serialize(std::ostream& out) const;
  static BuildManifest Deserialize(std::istream& in);

  // Single-line JSON object (provenance sidecars, `parapll_cli stats`).
  [[nodiscard]] std::string ToJson() const;

  friend bool operator==(const BuildManifest&, const BuildManifest&) =
      default;
};

}  // namespace parapll::pll
