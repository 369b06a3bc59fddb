#include "pll/label_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace parapll::pll {

std::size_t MutableLabels::TotalEntries() const {
  std::size_t total = 0;
  for (const auto& row : rows_) {
    total += row.size();
  }
  return total;
}

std::vector<std::vector<LabelEntry>> MutableLabels::SnapshotRows(
    graph::VertexId limit) const {
  std::vector<std::vector<LabelEntry>> out(rows_.size());
  for (std::size_t v = 0; v < rows_.size(); ++v) {
    for (const LabelEntry& e : rows_[v]) {
      if (e.hub < limit) {
        out[v].push_back(e);
      }
    }
  }
  return out;
}

namespace {
constexpr LabelEntry kRowSentinel{graph::kInvalidVertex,
                                  graph::kInfiniteDistance};
}  // namespace

LabelStore LabelStore::FromRows(std::vector<std::vector<LabelEntry>> rows) {
  LabelStore store;
  store.offsets_.reserve(rows.size() + 1);
  store.offsets_.push_back(0);
  for (auto& row : rows) {
    std::sort(row.begin(), row.end(),
              [](const LabelEntry& x, const LabelEntry& y) {
                if (x.hub != y.hub) return x.hub < y.hub;
                return x.dist < y.dist;
              });
    // Dedup by hub, keeping the smallest distance (first after sort).
    std::size_t kept = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].hub == graph::kInvalidVertex) {
        throw std::runtime_error(
            "label row uses the reserved sentinel hub id");
      }
      if (kept > 0 && row[kept - 1].hub == row[i].hub) {
        continue;
      }
      row[kept++] = row[i];
    }
    store.entries_.insert(store.entries_.end(), row.begin(),
                          row.begin() + static_cast<std::ptrdiff_t>(kept));
    store.entries_.push_back(kRowSentinel);
    store.offsets_.push_back(store.entries_.size());
  }
  return store;
}

LabelStore LabelStore::FromMutable(const MutableLabels& labels) {
  std::vector<std::vector<LabelEntry>> rows;
  rows.reserve(labels.NumVertices());
  for (graph::VertexId v = 0; v < labels.NumVertices(); ++v) {
    rows.push_back(labels.Row(v));
  }
  return FromRows(std::move(rows));
}

std::vector<std::vector<LabelEntry>> LabelStore::ToRows() const {
  std::vector<std::vector<LabelEntry>> rows;
  rows.reserve(NumVertices());
  for (graph::VertexId v = 0; v < NumVertices(); ++v) {
    const auto row = Row(v);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

double LabelStore::AvgLabelSize() const {
  const graph::VertexId n = NumVertices();
  if (n == 0) {
    return 0.0;
  }
  return static_cast<double>(TotalEntries()) / static_cast<double>(n);
}

LabelStore LabelStore::FromFlat(std::vector<std::uint64_t> offsets,
                                std::vector<LabelEntry> entries) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != entries.size()) {
    throw std::runtime_error("flat label offsets do not cover the entries");
  }
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
    const std::uint64_t begin = offsets[v];
    const std::uint64_t end = offsets[v + 1];
    if (end <= begin || end > entries.size()) {
      throw std::runtime_error("flat label offsets are not monotonic");
    }
    if (entries[end - 1].hub != graph::kInvalidVertex) {
      throw std::runtime_error("flat label row is missing its sentinel");
    }
    for (std::uint64_t i = begin; i + 1 < end; ++i) {
      if (entries[i].hub == graph::kInvalidVertex ||
          (i > begin && entries[i].hub <= entries[i - 1].hub)) {
        throw std::runtime_error("label row hubs are not strictly sorted");
      }
    }
  }
  LabelStore store;
  store.offsets_ = std::move(offsets);
  store.entries_ = std::move(entries);
  return store;
}

const char* ToString(StoreBackend backend) {
  switch (backend) {
    case StoreBackend::kHeap:
      return "heap";
    case StoreBackend::kMmap:
      return "mmap";
  }
  return "unknown";
}

StoreBackend StoreBackendFromString(const std::string& name) {
  if (name == "heap") return StoreBackend::kHeap;
  if (name == "mmap") return StoreBackend::kMmap;
  throw std::runtime_error("unknown store backend: " + name +
                           " (expected heap|mmap)");
}

}  // namespace parapll::pll
