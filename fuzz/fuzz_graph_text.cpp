// Fuzz target: the text edge-list parser (both id modes), under a small
// vertex budget so hostile counts are rejected instead of allocated.
//
// Accepted graphs must survive a write/re-read cycle with vertex and
// edge counts intact (WriteEdgeListText records n in its header line).
#include <stdexcept>

#include "graph/io.hpp"
#include "harness_util.hpp"

namespace {

using parapll::fuzz::AsStream;
using parapll::fuzz::Violate;

constexpr parapll::graph::VertexId kBudget = 1 << 12;

void DriveText(const std::uint8_t* data, std::size_t size, bool compact) {
  parapll::graph::Graph g;
  try {
    auto in = AsStream(data, size);
    g = parapll::graph::ReadEdgeListText(in, compact, kBudget);
  } catch (const std::runtime_error&) {
    return;
  }
  std::ostringstream out;
  parapll::graph::WriteEdgeListText(g, out);
  std::istringstream in2(out.str());
  try {
    const parapll::graph::Graph again =
        parapll::graph::ReadEdgeListText(in2, false, kBudget);
    if (again.NumVertices() != g.NumVertices() ||
        again.NumEdges() != g.NumEdges()) {
      Violate("graph text round-trip changed the graph shape");
    }
  } catch (const std::runtime_error&) {
    Violate("parser rejected a graph it just emitted");
  }
}

}  // namespace

extern "C" int PARAPLL_FUZZ_ENTRY(const std::uint8_t* data,
                                  std::size_t size) {
  DriveText(data, size, /*compact=*/false);
  DriveText(data, size, /*compact=*/true);
  return 0;
}
