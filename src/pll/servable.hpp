// ServableIndex — a loaded index behind its LabelSource view.
//
// The serving stack (query engine, daemon, CLI) doesn't care where label
// rows live; it needs a view to merge, the vertex order to translate
// ids, and the manifest for identity/provenance checks. ServableIndex
// bundles exactly that, with one Load() funnel that picks the owner of
// the rows:
//
//   kHeap — Index::LoadFile (ReadIndexV2, full validation), the view
//           over its LabelStore;
//   kMmap — a MappedFile of the index file that ValidateV2Mapping
//           accepted (zero-copy), the view over the mapping.
//
// `source` aliases a shared owner holding the rows and the view, so the
// view's rows stay valid, and a mapping stays mapped, while any copy of
// `source` lives (a QueryEngine keeps one). Every load records the
// cold-start cost (index.load_seconds + one log line, see
// pll::RecordIndexLoad).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pll/index.hpp"
#include "pll/label_source.hpp"

namespace parapll::pll {

struct ServableIndex {
  BuildManifest manifest;
  std::shared_ptr<const LabelSource> source;
  std::vector<graph::VertexId> order;  // rank -> original vertex id
  StoreBackend backend = StoreBackend::kHeap;  // what actually loaded
  std::uint32_t format_version = BuildManifest::kMaxFormatVersion;
  std::size_t file_bytes = 0;     // 0 when wrapped from memory
  double load_seconds = 0.0;      // 0 when wrapped from memory

  // Wraps an in-memory index (no file involved): the source views the
  // index's heap store, kept alive by a shared owner.
  [[nodiscard]] static ServableIndex FromIndex(Index index);

  // Loads `path` with the requested backend. Throws std::runtime_error
  // on I/O or validation failure.
  [[nodiscard]] static ServableIndex Load(const std::string& path,
                                          StoreBackend backend);

  [[nodiscard]] graph::VertexId NumVertices() const {
    return source == nullptr ? 0 : source->NumVertices();
  }
  [[nodiscard]] bool IsComplete() const { return manifest.IsComplete(); }
};

}  // namespace parapll::pll
