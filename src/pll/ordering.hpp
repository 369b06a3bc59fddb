// Vertex ordering (the "computing sequence", paper §2.2 / §4.2).
//
// PLL's pruning power depends on indexing "important" vertices first. The
// paper orders by descending degree (§4.2) and names shortest-path
// centrality ψ as the ideal criterion (§4.3); builds default to a sampled
// ψ weighted by degree, which prunes far more on road graphs, where degree
// carries no signal. The indexers work in *rank space*: vertex with rank 0
// is indexed first, and label entries store hub ranks, so label rows are
// naturally small-integer-sorted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace parapll::pll {

enum class OrderingPolicy {
  kDegree,      // descending degree — the paper's choice
  kRandom,      // uniform random permutation (ablation baseline)
  kPathDegree,  // descending ψ(v) · deg(v), ψ the sampled shortest-path-
                // tree centrality of paper §4.3
};

std::string ToString(OrderingPolicy policy);
// Inverse of ToString; nullopt for a name no policy has.
std::optional<OrderingPolicy> ParseOrderingPolicy(std::string_view name);

// order[rank] = original vertex id. `seed` feeds kRandom and the sampling
// in kPathDegree; kDegree ignores it. kPathDegree runs its sampled
// Dijkstras on `threads` threads; the order is the same for any count.
std::vector<graph::VertexId> ComputeOrder(const graph::Graph& g,
                                          OrderingPolicy policy,
                                          std::uint64_t seed,
                                          std::size_t threads = 1);

// Inverse permutation: rank_of[original id] = rank.
std::vector<graph::VertexId> InvertOrder(
    const std::vector<graph::VertexId>& order);

// Throws std::runtime_error unless `order` is a permutation of [0, n) —
// the check every loader of untrusted index bytes must run before
// handing the order to InvertOrder (which aborts on API misuse).
void ValidateOrderPermutation(const std::vector<graph::VertexId>& order);

// Relabels g into rank space: new id of v = rank_of[v].
graph::Graph ToRankSpace(const graph::Graph& g,
                         const std::vector<graph::VertexId>& order);

}  // namespace parapll::pll
