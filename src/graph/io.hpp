// Graph (de)serialization as a text edge list: "u v w" per line, '#'
// comments, SNAP-compatible when the weight column is omitted (weight
// defaults to 1).
//
// The reader treats its bytes as untrusted (files are downloaded,
// copied, or attacker-supplied): malformed fields, out-of-range vertex
// ids, zero/negative/non-numeric weights, and truncation all surface as
// recoverable std::runtime_error — never an abort, a silently truncated
// id, or an allocation sized by a hostile header. `max_vertices` bounds
// the vertex count a stream may declare (and therefore the O(n)
// allocations a parse can trigger); the default admits the full id
// space, callers parsing adversarial input should pass a budget.
#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "graph/graph.hpp"

namespace parapll::graph {

// --- text edge list ---------------------------------------------------

// Reads "u v [w]" lines. By default vertex ids are taken literally
// (n = max id + 1, honoring an "n=<count>" token in a leading '#' comment,
// as written by WriteEdgeListText — this makes the text format round-trip
// even with trailing isolated vertices). With compact_ids, sparse ids
// (e.g. raw SNAP dumps) are renumbered densely in first-appearance order.
// Fields must be exact decimal integers; weights must be in
// [1, max(Weight)]. Throws std::runtime_error on malformed input.
Graph ReadEdgeListText(std::istream& in, bool compact_ids = false,
                       VertexId max_vertices = kInvalidVertex);
Graph ReadEdgeListTextFile(const std::string& path, bool compact_ids = false,
                           VertexId max_vertices = kInvalidVertex);

// Writes "u v w" lines (u < v), one undirected edge per line.
void WriteEdgeListText(const Graph& g, std::ostream& out);
void WriteEdgeListTextFile(const Graph& g, const std::string& path);

}  // namespace parapll::graph
