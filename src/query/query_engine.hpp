// Batched, multi-threaded query serving (the paper's §1 use case: index
// once, then answer "heavy traffic" distance queries in microseconds).
//
// A QueryEngine answers from a pll::LabelSource view — heap rows or a
// zero-copy mapping of a format-v2 file (see pll/label_source.hpp) — and
// owns a persistent worker pool. QueryBatch shards a batch of (s, t)
// pairs into contiguous chunks, answers each chunk with the sentinel-row
// merge (pll::QuerySentinel) while prefetching the next pair's label
// rows, and blocks until the whole batch is answered in place. Results
// are bit-identical to calling Index::Query per pair — batching and
// backend change scheduling and ownership, never answers.
//
// Threading contract: the engine may be shared by concurrent callers;
// each QueryBatch call only reads the source and writes its own output
// span, and the shared pool's Wait() returns no earlier than the caller's
// own shards finishing. Metrics (when enabled) land in the global
// registry under "query.batch.*", and the engine keeps the serving-side
// "store.memory_bytes" pull-gauge registered for its lifetime — see
// EXPERIMENTS.md for the schema.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "pll/index.hpp"
#include "pll/label_source.hpp"
#include "util/thread_pool.hpp"

namespace parapll::query {

// One (source, target) pair in original vertex ids.
using QueryPair = std::pair<graph::VertexId, graph::VertexId>;

struct QueryEngineOptions {
  // Worker threads answering shards; 1 answers on the calling thread.
  std::size_t threads = 1;
};

// A shard smaller than this is not worth a pool hand-off; small batches
// therefore run inline even on a multi-threaded engine.
inline constexpr std::size_t kMinPairsPerShard = 256;

class QueryEngine {
 public:
  // Borrows a heap index; the index must outlive the engine.
  explicit QueryEngine(const pll::Index& index,
                       QueryEngineOptions options = {});

  // Shares ownership of a label source (its rows stay valid while the
  // engine lives). `order` is the rank -> original vertex id permutation
  // matching the source's rank space.
  QueryEngine(std::shared_ptr<const pll::LabelSource> source,
              std::span<const graph::VertexId> order,
              QueryEngineOptions options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  [[nodiscard]] std::size_t Threads() const { return options_.threads; }
  [[nodiscard]] const pll::LabelSource& Source() const { return *source_; }
  [[nodiscard]] graph::VertexId NumVertices() const {
    return source_->NumVertices();
  }

  // Answers pairs[i] into out[i] for every i. Throws std::invalid_argument
  // when the spans disagree in size and std::out_of_range when any vertex
  // id is >= NumVertices() (checked up front; out is untouched on throw).
  // Returns the batch's obs request-context id, so a caller can join its
  // own records (the serving daemon's request log) to the profiler
  // samples and histogram exemplars that carry the same id.
  std::uint64_t QueryBatch(std::span<const QueryPair> pairs,
                           std::span<graph::Distance> out);

  // Convenience allocating overload.
  std::vector<graph::Distance> QueryBatch(std::span<const QueryPair> pairs);

 private:
  void RegisterProbes();

  // Rank of original vertex id v in the source's row space.
  [[nodiscard]] graph::VertexId RankOf(graph::VertexId v) const {
    return rank_of_[v];
  }
  // Answers one contiguous shard (already validated), prefetching the
  // next pair's rows while the current pair merges.
  void RunShard(std::span<const QueryPair> pairs,
                std::span<graph::Distance> out) const;

  std::shared_ptr<const pll::LabelSource> source_;
  std::vector<graph::VertexId> rank_of_;  // original id -> rank
  QueryEngineOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;  // null when threads == 1
  // Serving-side pull-gauge (store.memory_bytes); registered while this
  // engine lives, metrics-gated.
  std::vector<std::unique_ptr<obs::ScopedProbe>> probes_;
};

}  // namespace parapll::query
