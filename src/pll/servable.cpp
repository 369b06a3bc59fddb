#include "pll/servable.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "pll/format_v2.hpp"
#include "pll/mapped_file.hpp"

namespace parapll::pll {

namespace {

// The bytes a LabelSource views plus the view itself, in one shared
// owner: ServableIndex::source aliases its control block.
template <typename Bytes>
struct ViewOwner {
  Bytes bytes;
  LabelSource view;
};

ServableIndex WrapHeap(Index index) {
  auto owner = std::make_shared<ViewOwner<Index>>();
  owner->bytes = std::move(index);
  owner->view = owner->bytes.Store().View();
  ServableIndex servable;
  servable.manifest = owner->bytes.Manifest();
  servable.order = owner->bytes.Order();
  servable.backend = StoreBackend::kHeap;
  servable.format_version = servable.manifest.format_version;
  servable.source = std::shared_ptr<const LabelSource>(owner, &owner->view);
  return servable;
}

}  // namespace

ServableIndex ServableIndex::FromIndex(Index index) {
  return WrapHeap(std::move(index));
}

ServableIndex ServableIndex::Load(const std::string& path,
                                  StoreBackend backend) {
  if (backend == StoreBackend::kHeap) {
    // Index::LoadFile records the cold-start metrics itself.
    const std::uint64_t heap_start_ns = obs::TraceNowNs();
    ServableIndex servable = WrapHeap(Index::LoadFile(path));
    servable.load_seconds =
        static_cast<double>(obs::TraceNowNs() - heap_start_ns) / 1e9;
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (in) {
      servable.file_bytes = static_cast<std::size_t>(in.tellg());
    }
    return servable;
  }

  const std::uint64_t start_ns = obs::TraceNowNs();
  auto owner = std::make_shared<ViewOwner<MappedFile>>();
  owner->bytes = MappedFile::Open(path);
  // The view points into the mapping, which the owner keeps alive.
  const V2View v2 =
      ValidateV2Mapping(owner->bytes.data(), owner->bytes.size());
  const auto n = static_cast<graph::VertexId>(v2.header.num_vertices);
  // Mapped pages are file-backed and reclaimable: no heap bytes owned.
  owner->view = LabelSource(v2.offsets, v2.entries, n, /*memory_bytes=*/0);
  ServableIndex servable;
  servable.manifest = v2.manifest;
  servable.order.assign(v2.order, v2.order + n);
  servable.file_bytes = owner->bytes.size();
  servable.source = std::shared_ptr<const LabelSource>(owner, &owner->view);
  servable.backend = backend;
  servable.format_version = servable.manifest.format_version;
  servable.load_seconds =
      static_cast<double>(obs::TraceNowNs() - start_ns) / 1e9;
  RecordIndexLoad(path, servable.format_version, servable.file_bytes,
                  ToString(backend), servable.load_seconds);
  return servable;
}

}  // namespace parapll::pll
