// IndexArtifact — the durable unit the build pipeline produces.
//
// An artifact is a pll::Index whose BuildManifest provenance is required
// to be present and internally consistent: format version, graph
// fingerprint, build knobs, cost totals, and the roots_completed cursor.
// A complete build and a mid-build checkpoint are the *same* format — the
// cursor distinguishes them — so `--resume` and `query --index` read one
// kind of file.
//
// Writes go through pll::WriteIndexFile, which is atomic (tmp + rename in
// the target directory), so a crash or signal mid-write leaves the
// previous artifact intact. Loads validate with the full rigor of
// pll::ReadIndexV2 and can additionally be pinned to a graph: fingerprint
// and vertex/edge counts must match.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "pll/format_v2.hpp"
#include "pll/index.hpp"

namespace parapll::build {

struct IndexArtifact {
  pll::Index index;

  [[nodiscard]] const pll::BuildManifest& Manifest() const {
    return index.Manifest();
  }
  // True for a mid-build snapshot (roots_completed < num_vertices).
  [[nodiscard]] bool IsCheckpoint() const {
    return !index.Manifest().IsComplete();
  }

  // Atomic write (pll::WriteIndexFile) in index format v2, the only
  // container; `format_version` must name it. Throws std::runtime_error
  // on a missing manifest, I/O failure or any other version.
  void Save(const std::string& path,
            std::uint32_t format_version = pll::kIndexFormatV2) const;

  // Loads and validates. Throws std::runtime_error on corrupt bytes, a
  // version mismatch, or (unlike raw Index::LoadFile) a missing manifest:
  // artifacts must carry provenance.
  static IndexArtifact Load(const std::string& path);

  // Load, then verify the artifact was built from `g` (fingerprint and
  // vertex/edge counts). Throws std::runtime_error when it was not.
  static IndexArtifact LoadFor(const std::string& path,
                               const graph::Graph& g);
};

// The fingerprint/count check LoadFor performs, reusable for manifests
// obtained elsewhere. Throws std::runtime_error on mismatch.
void ValidateManifestAgainstGraph(const pll::BuildManifest& manifest,
                                  const graph::Graph& g);

}  // namespace parapll::build
