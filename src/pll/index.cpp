#include "pll/index.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pll/format_v2.hpp"
#include "pll/ordering.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace parapll::pll {

Index::Index(LabelStore store, std::vector<graph::VertexId> order)
    : store_(std::move(store)), order_(std::move(order)) {
  PARAPLL_CHECK(order_.size() == store_.NumVertices());
  rank_of_ = InvertOrder(order_);
}

graph::Distance Index::Query(graph::VertexId s, graph::VertexId t) const {
  PARAPLL_CHECK(s < NumVertices() && t < NumVertices());
  if (s == t) {
    return 0;
  }
  return store_.Query(rank_of_[s], rank_of_[t]);
}

std::size_t Index::MemoryBytes() const {
  return store_.MemoryBytes() +
         (order_.size() + rank_of_.size()) * sizeof(graph::VertexId);
}

Index Index::LoadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  in.seekg(0, std::ios::end);
  const auto bytes = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  const std::uint64_t start_ns = obs::TraceNowNs();
  Index index = ReadIndexV2(in);
  RecordIndexLoad(path, index.Manifest().format_version, bytes, "heap",
                  static_cast<double>(obs::TraceNowNs() - start_ns) / 1e9);
  return index;
}

void RecordIndexLoad(const std::string& path, std::uint32_t format_version,
                     std::size_t bytes, const char* mode, double seconds) {
  if (obs::MetricsEnabled()) {
    obs::Registry::Global().GetGauge("index.load_seconds").Set(seconds);
  }
  LOG_INFO("index load: path=%s format=v%u bytes=%zu mode=%s seconds=%.6f",
           path.c_str(), format_version, bytes, mode, seconds);
}

}  // namespace parapll::pll
