// Cluster-mode helpers: cost model, root ownership, and epoch boundaries.
// The build loop itself lives in the unified pipeline (build/pipeline.cpp).
#include "cluster/cluster_indexer.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace parapll::cluster {

double CommModel::ExchangeUnits(std::size_t entries, std::size_t q) const {
  if (q <= 1) {
    return 0.0;
  }
  const double levels = std::ceil(std::log2(static_cast<double>(q)));
  return latency + per_entry * static_cast<double>(entries) * levels;
}

std::string ToString(OwnershipPolicy policy) {
  switch (policy) {
    case OwnershipPolicy::kRoundRobin:
      return "round-robin";
    case OwnershipPolicy::kBlock:
      return "block";
    case OwnershipPolicy::kRandom:
      return "random";
  }
  return "?";
}

std::vector<std::uint32_t> ComputeOwners(graph::VertexId n, std::size_t q,
                                         OwnershipPolicy policy,
                                         std::uint64_t seed) {
  PARAPLL_CHECK(q >= 1);
  std::vector<std::uint32_t> owners(n);
  switch (policy) {
    case OwnershipPolicy::kRoundRobin:
      for (graph::VertexId k = 0; k < n; ++k) {
        owners[k] = static_cast<std::uint32_t>(k % q);
      }
      break;
    case OwnershipPolicy::kBlock: {
      const graph::VertexId block =
          (n + static_cast<graph::VertexId>(q) - 1) /
          static_cast<graph::VertexId>(q);
      for (graph::VertexId k = 0; k < n; ++k) {
        owners[k] = static_cast<std::uint32_t>(
            std::min<std::size_t>(k / std::max<graph::VertexId>(block, 1),
                                  q - 1));
      }
      break;
    }
    case OwnershipPolicy::kRandom: {
      util::Rng rng(seed ^ 0xc105e7ULL);
      for (graph::VertexId k = 0; k < n; ++k) {
        owners[k] = static_cast<std::uint32_t>(rng.Below(q));
      }
      break;
    }
  }
  return owners;
}

std::vector<graph::VertexId> SyncBoundaries(graph::VertexId n,
                                            std::size_t sync_count) {
  PARAPLL_CHECK(sync_count >= 1);
  const auto c = static_cast<graph::VertexId>(
      std::min<std::size_t>(sync_count, std::max<graph::VertexId>(n, 1)));
  std::vector<graph::VertexId> boundaries;
  boundaries.reserve(c + 1);
  const graph::VertexId block = n / c;  // ⌊n/c⌋ roots per epoch
  for (graph::VertexId i = 0; i < c; ++i) {
    boundaries.push_back(i * block);
  }
  boundaries.push_back(n);  // last epoch absorbs the remainder
  return boundaries;
}

}  // namespace parapll::cluster
