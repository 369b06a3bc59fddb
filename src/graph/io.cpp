#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace parapll::graph {

// parapll-lint: begin-untrusted-decode

namespace {

[[noreturn]] void ThrowAtLine(const char* what, std::size_t line_no) {
  throw std::runtime_error(std::string(what) + " on line " +
                           std::to_string(line_no));
}

enum class Field { kEnd, kOk, kBad };

// Parses one strictly-decimal unsigned field starting at `pos`. kEnd when
// the line has no more fields; kBad on anything that is not an exact
// decimal integer followed by a separator (signs, "NaN", "2.5", "1e9",
// u64 overflow). Graph files cross a trust boundary, so a field either
// parses exactly or the line is an error — never a silent default, a
// truncated float, or a negative value wrapped through unsigned parsing.
Field TakeField(const std::string& line, std::size_t& pos,
                std::uint64_t& out) {
  while (pos < line.size() &&
         (line[pos] == ' ' || line[pos] == '\t' || line[pos] == '\r')) {
    ++pos;
  }
  if (pos == line.size()) {
    return Field::kEnd;
  }
  const char* begin = line.data() + pos;
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc() || ptr == begin) {
    return Field::kBad;
  }
  // The digits must end at a separator or end-of-line; "123abc" and
  // "2.5" are malformed fields, not the integer prefix of one.
  if (ptr != end && *ptr != ' ' && *ptr != '\t' && *ptr != '\r') {
    return Field::kBad;
  }
  pos = static_cast<std::size_t>(ptr - line.data());
  return Field::kOk;
}

}  // namespace

Graph ReadEdgeListText(std::istream& in, bool compact_ids,
                       VertexId max_vertices) {
  std::vector<Edge> edges;
  std::unordered_map<std::uint64_t, VertexId> remap;
  VertexId next_id = 0;
  std::uint64_t max_raw_id = 0;
  std::uint64_t header_n = 0;
  // Every raw id is bounded by the id space and the caller's budget
  // *before* it can influence the vertex-count allocation in FromEdges.
  auto intern = [&](std::uint64_t raw, std::size_t line_no) -> VertexId {
    if (!compact_ids) {
      if (raw >= max_vertices) {
        ThrowAtLine("vertex id out of range", line_no);
      }
      max_raw_id = std::max(max_raw_id, raw);
      return static_cast<VertexId>(raw);
    }
    const auto it = remap.find(raw);
    if (it != remap.end()) {
      return it->second;
    }
    if (next_id >= max_vertices) {
      ThrowAtLine("vertex id out of range", line_no);
    }
    remap.emplace(raw, next_id);
    return next_id++;
  };

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      // Honor an "n=<count>" token so isolated vertices round-trip. The
      // declared count sizes the adjacency allocation, so it gets the
      // same bound as a literal id; non-numeric "n=" text is ignored.
      if (const auto pos = line.find("n="); pos != std::string::npos) {
        std::size_t value_pos = pos + 2;
        std::uint64_t value = 0;
        if (TakeField(line, value_pos, value) == Field::kOk) {
          if (value > max_vertices) {
            ThrowAtLine("declared vertex count out of range", line_no);
          }
          header_n = std::max(header_n, value);
        }
      }
      continue;
    }
    std::size_t pos = first;
    std::uint64_t raw_u = 0;
    std::uint64_t raw_v = 0;
    std::uint64_t raw_w = 1;
    if (TakeField(line, pos, raw_u) != Field::kOk ||
        TakeField(line, pos, raw_v) != Field::kOk) {
      ThrowAtLine("malformed edge", line_no);
    }
    // Optional weight column; extra columns beyond it are ignored for
    // SNAP-style dumps that carry timestamps or labels.
    switch (TakeField(line, pos, raw_w)) {
      case Field::kEnd:
      case Field::kOk:
        break;
      case Field::kBad:
        ThrowAtLine("malformed weight", line_no);
    }
    if (raw_w == 0) {
      ThrowAtLine("zero weight", line_no);
    }
    if (raw_w > static_cast<std::uint64_t>(
                    std::numeric_limits<Weight>::max())) {
      ThrowAtLine("weight out of range", line_no);
    }
    edges.push_back(Edge{intern(raw_u, line_no), intern(raw_v, line_no),
                         static_cast<Weight>(raw_w)});
  }
  VertexId n = compact_ids
                   ? next_id
                   : static_cast<VertexId>(edges.empty() ? 0 : max_raw_id + 1);
  n = std::max(n, static_cast<VertexId>(header_n));
  return Graph::FromEdges(n, edges);
}

Graph ReadEdgeListTextFile(const std::string& path, bool compact_ids,
                           VertexId max_vertices) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  return ReadEdgeListText(in, compact_ids, max_vertices);
}

// parapll-lint: end-untrusted-decode

void WriteEdgeListText(const Graph& g, std::ostream& out) {
  out << "# parapll edge list: n=" << g.NumVertices() << " m=" << g.NumEdges()
      << "\n";
  for (const Edge& e : g.ToEdgeList()) {
    out << e.u << ' ' << e.v << ' ' << e.weight << '\n';
  }
}

void WriteEdgeListTextFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  WriteEdgeListText(g, out);
}

}  // namespace parapll::graph
