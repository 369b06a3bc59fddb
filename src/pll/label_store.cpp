#include "pll/label_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace parapll::pll {

graph::Distance QueryRows(std::span<const LabelEntry> a,
                          std::span<const LabelEntry> b) {
  graph::Distance best = graph::kInfiniteDistance;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hub == b[j].hub) {
      const graph::Distance sum = graph::SaturatingAdd(a[i].dist, b[j].dist);
      best = std::min(best, sum);
      ++i;
      ++j;
    } else if (a[i].hub < b[j].hub) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

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

namespace {
constexpr std::uint64_t kLabelMagic = 0x4c61626c53746f31ULL;  // "LablSto1"

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

// parapll-lint: begin-untrusted-decode
template <typename T>
T ReadPod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) {
    throw std::runtime_error("truncated label store stream");
  }
  return value;
}
// parapll-lint: end-untrusted-decode
}  // namespace

void LabelStore::Serialize(std::ostream& out) const {
  const graph::VertexId n = NumVertices();
  WritePod(out, kLabelMagic);
  WritePod(out, static_cast<std::uint64_t>(n));
  WritePod(out, static_cast<std::uint64_t>(TotalEntries()));
  // Logical offsets (sentinels excluded): row v started at offsets_[v] - v
  // because each earlier row contributed exactly one sentinel.
  for (std::size_t v = 0; v < offsets_.size(); ++v) {
    WritePod(out, static_cast<std::uint64_t>(offsets_[v] - v));
  }
  for (graph::VertexId v = 0; v < n; ++v) {
    for (const LabelEntry& e : Row(v)) {
      WritePod(out, e.hub);
      WritePod(out, e.dist);
    }
  }
}

// parapll-lint: begin-untrusted-decode
LabelStore LabelStore::Deserialize(std::istream& in) {
  if (ReadPod<std::uint64_t>(in) != kLabelMagic) {
    throw std::runtime_error("bad label store magic");
  }
  const auto n = ReadPod<std::uint64_t>(in);
  const auto total = ReadPod<std::uint64_t>(in);
  // Bounds: the declared count must fit the 32-bit id space; it drives
  // only byte-for-byte incremental reads below, never a bulk allocation.
  if (n >= graph::kInvalidVertex) {
    throw std::runtime_error("label store vertex count out of range");
  }

  // Offsets are read one by one and validated incrementally, so a header
  // advertising an absurd n cannot trigger a huge up-front allocation:
  // memory growth stays proportional to bytes actually present.
  std::vector<std::size_t> row_size;  // logical (sentinel-free) row sizes
  std::size_t previous = ReadPod<std::uint64_t>(in);
  if (previous != 0) {
    throw std::runtime_error("label store offsets must start at 0");
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    const auto offset = static_cast<std::size_t>(ReadPod<std::uint64_t>(in));
    if (offset < previous || offset > total) {
      throw std::runtime_error("label store offsets are not monotonic");
    }
    row_size.push_back(offset - previous);
    previous = offset;
  }
  if (previous != total) {
    throw std::runtime_error(
        "label store offset table does not cover every entry");
  }

  LabelStore store;
  // Bounds: row_size.size() is the number of offsets actually read from
  // the stream above (8 bytes each), not the declared n.
  store.offsets_.reserve(row_size.size() + 1);
  store.offsets_.push_back(0);
  for (std::size_t size : row_size) {
    graph::VertexId previous_hub = 0;
    for (std::size_t i = 0; i < size; ++i) {
      LabelEntry e;
      e.hub = ReadPod<graph::VertexId>(in);
      e.dist = ReadPod<graph::Distance>(in);
      if (e.hub == graph::kInvalidVertex ||
          (i > 0 && e.hub <= previous_hub)) {
        throw std::runtime_error("label row hubs are not strictly sorted");
      }
      previous_hub = e.hub;
      store.entries_.push_back(e);
    }
    store.entries_.push_back(kRowSentinel);
    store.offsets_.push_back(store.entries_.size());
  }
  return store;
}
// parapll-lint: end-untrusted-decode

}  // namespace parapll::pll
