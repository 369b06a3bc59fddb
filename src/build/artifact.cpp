#include "build/artifact.hpp"

#include <stdexcept>
#include <string>

namespace parapll::build {

void IndexArtifact::Save(const std::string& path,
                         std::uint32_t format_version) const {
  if (format_version != pll::kIndexFormatV2) {
    throw std::runtime_error("unknown index format version " +
                             std::to_string(format_version));
  }
  // The manifest travels inside the container; an artifact with a wholly
  // default manifest would round-trip as "unknown provenance", which
  // defeats the point — catch it at write time.
  if (index.Manifest() == pll::BuildManifest{} &&
      index.NumVertices() != 0) {
    throw std::runtime_error("index artifact is missing its manifest");
  }
  index.Manifest().Validate();
  pll::WriteIndexFile(index, path);
}

IndexArtifact IndexArtifact::Load(const std::string& path) {
  IndexArtifact artifact{pll::Index::LoadFile(path)};
  const pll::BuildManifest& manifest = artifact.index.Manifest();
  if (manifest == pll::BuildManifest{} && artifact.index.NumVertices() != 0) {
    throw std::runtime_error(path + " has no build manifest");
  }
  manifest.Validate();
  if (manifest.num_vertices != artifact.index.NumVertices()) {
    throw std::runtime_error(
        "manifest vertex count does not match the label store");
  }
  if (manifest.roots_completed > manifest.num_vertices) {
    throw std::runtime_error("manifest cursor exceeds vertex count");
  }
  return artifact;
}

IndexArtifact IndexArtifact::LoadFor(const std::string& path,
                                     const graph::Graph& g) {
  IndexArtifact artifact = Load(path);
  ValidateManifestAgainstGraph(artifact.Manifest(), g);
  return artifact;
}

void ValidateManifestAgainstGraph(const pll::BuildManifest& manifest,
                                  const graph::Graph& g) {
  if (manifest.num_vertices != g.NumVertices() ||
      manifest.num_edges != g.NumEdges()) {
    throw std::runtime_error(
        "artifact was built from a graph of different size");
  }
  if (manifest.graph_fingerprint != graph::Fingerprint(g)) {
    throw std::runtime_error(
        "artifact fingerprint does not match this graph");
  }
}

}  // namespace parapll::build
