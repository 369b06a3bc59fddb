#include "pll/manifest.hpp"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace parapll::pll {

namespace {

constexpr std::uint64_t kManifestMagic = 0x5050'4d61'6e66'7431ULL;  // PPManft1
constexpr std::uint32_t kMaxNameLength = 64;  // mode/ordering/policy strings

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
    throw std::runtime_error("truncated build manifest");
  }
  return value;
}
// parapll-lint: end-untrusted-decode

void WriteName(std::ostream& out, const std::string& s) {
  if (s.size() > kMaxNameLength) {
    throw std::runtime_error("manifest name field too long");
  }
  WritePod(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// parapll-lint: begin-untrusted-decode
std::string ReadName(std::istream& in) {
  const auto size = ReadPod<std::uint32_t>(in);
  // Bounds: the declared length is capped before it sizes the string.
  if (size > kMaxNameLength) {
    throw std::runtime_error("manifest name field too long");
  }
  std::string s(size, '\0');
  in.read(s.data(), size);
  if (!in) {
    throw std::runtime_error("truncated build manifest");
  }
  return s;
}
// parapll-lint: end-untrusted-decode

}  // namespace

void BuildManifest::Validate() const {
  if (format_version < kFormatVersion || format_version > kMaxFormatVersion) {
    throw std::runtime_error("unsupported manifest format version " +
                             std::to_string(format_version));
  }
  if (roots_completed > num_vertices) {
    throw std::runtime_error("manifest cursor exceeds vertex count");
  }
  if (mode.size() > kMaxNameLength || ordering.size() > kMaxNameLength ||
      policy.size() > kMaxNameLength) {
    throw std::runtime_error("manifest name field too long");
  }
  if (threads == 0 || nodes == 0 || sync_count == 0) {
    throw std::runtime_error("manifest parallelism fields must be >= 1");
  }
}

void BuildManifest::Serialize(std::ostream& out) const {
  WritePod(out, kManifestMagic);
  WritePod(out, format_version);
  WritePod(out, graph_fingerprint);
  WritePod(out, num_vertices);
  WritePod(out, num_edges);
  WriteName(out, mode);
  WriteName(out, ordering);
  WriteName(out, policy);
  WritePod(out, threads);
  WritePod(out, nodes);
  WritePod(out, sync_count);
  WritePod(out, seed);
  WritePod(out, roots_completed);
  WritePod(out, static_cast<std::uint64_t>(totals.settled));
  WritePod(out, static_cast<std::uint64_t>(totals.pruned));
  WritePod(out, static_cast<std::uint64_t>(totals.labels_added));
  WritePod(out, static_cast<std::uint64_t>(totals.relaxations));
  WritePod(out, static_cast<std::uint64_t>(totals.heap_pushes));
  WritePod(out, static_cast<std::uint64_t>(totals.probe_entries));
  std::uint64_t wall_bits = 0;
  static_assert(sizeof(wall_bits) == sizeof(wall_seconds));
  std::memcpy(&wall_bits, &wall_seconds, sizeof(wall_bits));
  WritePod(out, wall_bits);
  WritePod(out, created_unix);
}

// parapll-lint: begin-untrusted-decode
BuildManifest BuildManifest::Deserialize(std::istream& in) {
  if (ReadPod<std::uint64_t>(in) != kManifestMagic) {
    throw std::runtime_error("bad build manifest magic");
  }
  BuildManifest m;
  m.format_version = ReadPod<std::uint32_t>(in);
  // Check the version before parsing anything version-dependent: a future
  // layout must not be misread as today's. Versions 1 and 2 share the
  // manifest payload layout (2 only marks the v2 container around it).
  if (m.format_version < kFormatVersion ||
      m.format_version > kMaxFormatVersion) {
    throw std::runtime_error("unsupported manifest format version " +
                             std::to_string(m.format_version));
  }
  m.graph_fingerprint = ReadPod<std::uint64_t>(in);
  m.num_vertices = ReadPod<std::uint64_t>(in);
  m.num_edges = ReadPod<std::uint64_t>(in);
  m.mode = ReadName(in);
  m.ordering = ReadName(in);
  m.policy = ReadName(in);
  m.threads = ReadPod<std::uint32_t>(in);
  m.nodes = ReadPod<std::uint32_t>(in);
  m.sync_count = ReadPod<std::uint32_t>(in);
  m.seed = ReadPod<std::uint64_t>(in);
  m.roots_completed = ReadPod<std::uint64_t>(in);
  m.totals.settled = ReadPod<std::uint64_t>(in);
  m.totals.pruned = ReadPod<std::uint64_t>(in);
  m.totals.labels_added = ReadPod<std::uint64_t>(in);
  m.totals.relaxations = ReadPod<std::uint64_t>(in);
  m.totals.heap_pushes = ReadPod<std::uint64_t>(in);
  m.totals.probe_entries = ReadPod<std::uint64_t>(in);
  const auto wall_bits = ReadPod<std::uint64_t>(in);
  std::memcpy(&m.wall_seconds, &wall_bits, sizeof(m.wall_seconds));
  m.created_unix = ReadPod<std::uint64_t>(in);
  m.Validate();
  return m;
}
// parapll-lint: end-untrusted-decode

std::string BuildManifest::ToJson() const {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.BeginObject();
  w.Key("format_version").Value(format_version);
  w.Key("graph_fingerprint").Value(graph_fingerprint);
  w.Key("num_vertices").Value(num_vertices);
  w.Key("num_edges").Value(num_edges);
  w.Key("mode").Value(mode);
  w.Key("ordering").Value(ordering);
  w.Key("policy").Value(policy);
  w.Key("threads").Value(threads);
  w.Key("nodes").Value(nodes);
  w.Key("sync_count").Value(sync_count);
  w.Key("seed").Value(seed);
  w.Key("roots_completed").Value(roots_completed);
  w.Key("complete").Value(IsComplete());
  w.Key("totals")
      .BeginObject()
      .Key("settled")
      .Value(static_cast<std::uint64_t>(totals.settled))
      .Key("pruned")
      .Value(static_cast<std::uint64_t>(totals.pruned))
      .Key("labels_added")
      .Value(static_cast<std::uint64_t>(totals.labels_added))
      .Key("relaxations")
      .Value(static_cast<std::uint64_t>(totals.relaxations))
      .Key("heap_pushes")
      .Value(static_cast<std::uint64_t>(totals.heap_pushes))
      .Key("probe_entries")
      .Value(static_cast<std::uint64_t>(totals.probe_entries))
      .EndObject();
  w.Key("wall_seconds").Value(wall_seconds);
  w.Key("created_unix").Value(created_unix);
  w.EndObject();
  return out.str();
}

}  // namespace parapll::pll
