#include "pll/ordering.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>

#include "graph/degree.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace parapll::pll {

std::string ToString(OrderingPolicy policy) {
  switch (policy) {
    case OrderingPolicy::kDegree:
      return "degree";
    case OrderingPolicy::kRandom:
      return "random";
    case OrderingPolicy::kPathDegree:
      return "path-degree";
  }
  return "?";
}

// parapll-lint: begin-untrusted-decode
// `name` comes from the command line; it is only compared, never used to
// size anything.
std::optional<OrderingPolicy> ParseOrderingPolicy(std::string_view name) {
  for (const OrderingPolicy policy :
       {OrderingPolicy::kDegree, OrderingPolicy::kRandom,
        OrderingPolicy::kPathDegree}) {
    if (ToString(policy) == name) {
      return policy;
    }
  }
  return std::nullopt;
}
// parapll-lint: end-untrusted-decode

namespace {

using HeapEntry = std::pair<graph::Distance, graph::VertexId>;

// One thread's buffers for the sampled shortest-path trees, reused across
// its samples: dist and subtree are reset only where a tree reached.
struct TreeScratch {
  explicit TreeScratch(graph::VertexId n)
      : dist(n, graph::kInfiniteDistance),
        subtree(n, 0),
        parent(n),
        psi(n, 0) {}

  std::vector<graph::Distance> dist;
  std::vector<std::uint64_t> subtree;
  std::vector<graph::VertexId> parent;
  std::vector<graph::VertexId> settled;  // in nondecreasing distance
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  std::vector<std::uint64_t> psi;  // this thread's share of ψ
};

// Adds one shortest-path tree from `source` to scratch.psi: every vertex
// it reaches is credited with the size of its subtree (the number of
// shortest paths from the source that pass through it). A vertex's parent
// is its smallest-id neighbour on a shortest path to it.
void AddSubtreeSizes(const graph::Graph& g, graph::VertexId source,
                     TreeScratch& s) {
  s.settled.clear();
  s.dist[source] = 0;
  s.heap.emplace(0, source);
  while (!s.heap.empty()) {
    const auto [d, u] = s.heap.top();
    s.heap.pop();
    if (d > s.dist[u]) {
      continue;  // stale heap entry
    }
    s.settled.push_back(u);
    for (const graph::Arc& arc : g.Neighbors(u)) {
      const graph::VertexId v = arc.target;
      const graph::Distance nd = d + arc.weight;
      if (nd < s.dist[v]) {
        s.dist[v] = nd;
        s.parent[v] = u;
        s.heap.emplace(nd, v);
      } else if (nd == s.dist[v] && u < s.parent[v]) {
        s.parent[v] = u;
      }
    }
  }
  // Weights are positive, so a child settles after its parent: walking the
  // settle order backwards completes each subtree before its parent reads
  // it.
  for (auto it = s.settled.rbegin(); it != s.settled.rend(); ++it) {
    const graph::VertexId v = *it;
    const std::uint64_t size = s.subtree[v] + 1;
    s.psi[v] += size;
    if (v != source) {
      s.subtree[s.parent[v]] += size;
    }
  }
  for (const graph::VertexId v : s.settled) {
    s.dist[v] = graph::kInfiniteDistance;
    s.subtree[v] = 0;
  }
}

// ψ(v) estimate (the Potamias et al. centrality the paper cites for the
// optimal sequence): the sum of v's subtree sizes over the shortest-path
// trees of `samples` random sources. The sources are drawn up front and
// the per-thread sums are exact integers, so ψ is a function of
// (g, samples, seed) alone, whatever the thread count.
std::vector<std::uint64_t> SampledPathCentrality(const graph::Graph& g,
                                                 std::size_t samples,
                                                 std::uint64_t seed,
                                                 std::size_t threads) {
  const graph::VertexId n = g.NumVertices();
  util::Rng rng(seed);
  std::vector<graph::VertexId> sources(samples);
  for (graph::VertexId& source : sources) {
    source = static_cast<graph::VertexId>(rng.Below(n));
  }
  const std::size_t workers = std::clamp<std::size_t>(threads, 1, samples);
  std::vector<TreeScratch> scratch;
  scratch.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    scratch.emplace_back(n);
  }
  util::ParallelFor(workers, samples,
                    [&](std::size_t worker, std::size_t sample) {
                      AddSubtreeSizes(g, sources[sample], scratch[worker]);
                    });
  std::vector<std::uint64_t> psi = std::move(scratch[0].psi);
  for (std::size_t w = 1; w < workers; ++w) {
    for (graph::VertexId v = 0; v < n; ++v) {
      psi[v] += scratch[w].psi[v];
    }
  }
  return psi;
}

}  // namespace

std::vector<graph::VertexId> ComputeOrder(const graph::Graph& g,
                                          OrderingPolicy policy,
                                          std::uint64_t seed,
                                          std::size_t threads) {
  const graph::VertexId n = g.NumVertices();
  switch (policy) {
    case OrderingPolicy::kDegree:
      return graph::DescendingDegreeOrder(g);
    case OrderingPolicy::kRandom: {
      std::vector<graph::VertexId> order(n);
      std::iota(order.begin(), order.end(), graph::VertexId{0});
      util::Rng rng(seed);
      rng.Shuffle(order);
      return order;
    }
    case OrderingPolicy::kPathDegree: {
      if (n == 0) {
        return {};
      }
      const std::size_t samples = std::clamp<std::size_t>(n / 64, 4, 32);
      const std::vector<std::uint64_t> psi =
          SampledPathCentrality(g, samples, seed, threads);
      // ψ ≤ samples · n and deg < n, so the product is exact in 128 bits.
      std::vector<unsigned __int128> score(n);
      for (graph::VertexId v = 0; v < n; ++v) {
        score[v] = static_cast<unsigned __int128>(psi[v]) * g.Degree(v);
      }
      std::vector<graph::VertexId> order(n);
      std::iota(order.begin(), order.end(), graph::VertexId{0});
      std::stable_sort(order.begin(), order.end(),
                       [&score, &g](graph::VertexId a, graph::VertexId b) {
                         if (score[a] != score[b]) return score[a] > score[b];
                         return g.Degree(a) > g.Degree(b);
                       });
      return order;
    }
  }
  PARAPLL_CHECK_MSG(false, "unreachable ordering policy");
  return {};
}

void ValidateOrderPermutation(const std::vector<graph::VertexId>& order) {
  std::vector<bool> seen(order.size(), false);
  for (const graph::VertexId v : order) {
    if (v >= order.size() || seen[v]) {
      throw std::runtime_error("vertex order is not a permutation of [0, n)");
    }
    seen[v] = true;
  }
}

std::vector<graph::VertexId> InvertOrder(
    const std::vector<graph::VertexId>& order) {
  std::vector<graph::VertexId> rank_of(order.size(), graph::kInvalidVertex);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    PARAPLL_CHECK(order[rank] < order.size());
    PARAPLL_CHECK_MSG(rank_of[order[rank]] == graph::kInvalidVertex,
                      "order is not a permutation");
    rank_of[order[rank]] = static_cast<graph::VertexId>(rank);
  }
  return rank_of;
}

graph::Graph ToRankSpace(const graph::Graph& g,
                         const std::vector<graph::VertexId>& order) {
  return g.Relabel(InvertOrder(order));
}

}  // namespace parapll::pll
