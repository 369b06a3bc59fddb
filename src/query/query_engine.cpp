#include "query/query_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "pll/label_store.hpp"
#include "pll/ordering.hpp"
#include "util/check.hpp"

namespace parapll::query {

namespace {

// A view of a borrowed store: the rows' lifetime is the caller's (the
// ctor contract says the index outlives the engine).
std::shared_ptr<const pll::LabelSource> BorrowStore(
    const pll::LabelStore& store) {
  return std::make_shared<const pll::LabelSource>(store.View());
}

}  // namespace

QueryEngine::QueryEngine(const pll::Index& index, QueryEngineOptions options)
    : QueryEngine(BorrowStore(index.Store()), index.Order(), options) {}

QueryEngine::QueryEngine(std::shared_ptr<const pll::LabelSource> source,
                         std::span<const graph::VertexId> order,
                         QueryEngineOptions options)
    : source_(std::move(source)), options_(options) {
  PARAPLL_CHECK(source_ != nullptr);
  PARAPLL_CHECK(order.size() == source_->NumVertices());
  rank_of_ =
      pll::InvertOrder(std::vector<graph::VertexId>(order.begin(), order.end()));
  PARAPLL_CHECK(options_.threads >= 1);
  if (options_.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  }
  RegisterProbes();
}

void QueryEngine::RegisterProbes() {
  if (!obs::MetricsEnabled()) {
    return;
  }
  // Serving-side memory accounting: the resident label bytes this
  // engine answers from, next to the live process RSS in telemetry.
  // (Kept for compatibility with the build-time gauge name.)
  obs::Registry::Global()
      .GetGauge("query.engine.index_memory_bytes")
      .Set(static_cast<double>(source_->MemoryBytes() +
                               rank_of_.size() * sizeof(graph::VertexId)));
  // Pull-gauges live as long as the engine: the probe registry collects
  // them before every telemetry sample and /metrics scrape, so the
  // serving store's footprint stays observable after the build's own
  // probe unregisters (TakeFinalized).
  const pll::LabelSource* source = source_.get();
  probes_.push_back(std::make_unique<obs::ScopedProbe>(
      "store.memory_bytes",
      [source] { return static_cast<double>(source->MemoryBytes()); }));
}

void QueryEngine::RunShard(std::span<const QueryPair> pairs,
                           std::span<graph::Distance> out) const {
  if (pairs.empty()) {
    return;
  }
  const pll::LabelSource rows = *source_;
  // Software pipeline: resolve + prefetch the *next* pair's label rows
  // while the current pair merges, hiding the first-cache-line miss of
  // each row behind useful work.
  auto rows_of = [&](const QueryPair& pair) {
    const pll::LabelEntry* a = rows.RowBegin(RankOf(pair.first));
    const pll::LabelEntry* b = rows.RowBegin(RankOf(pair.second));
    pll::PrefetchRow(a);
    pll::PrefetchRow(b);
    return std::pair{a, b};
  };
  auto next = rows_of(pairs[0]);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [a, b] = next;
    if (i + 1 < pairs.size()) {
      next = rows_of(pairs[i + 1]);
    }
    const auto [s, t] = pairs[i];
    out[i] = s == t ? graph::Distance{0} : pll::QuerySentinel(a, b);
  }
}

std::uint64_t QueryEngine::QueryBatch(std::span<const QueryPair> pairs,
                                      std::span<graph::Distance> out) {
  if (pairs.size() != out.size()) {
    throw std::invalid_argument("QueryBatch spans differ in size");
  }
  const graph::VertexId n = source_->NumVertices();
  for (const auto& [s, t] : pairs) {
    if (s >= n || t >= n) {
      throw std::out_of_range("QueryBatch pair references vertex >= n");
    }
  }
  PARAPLL_SPAN("query.batch", "pairs", pairs.size());

  // One request context per batch: profiler samples taken inside any
  // shard, the request-log record of every request the batch answers,
  // and the latency exemplar below all carry this id, so "which batch
  // was hot?" joins across all three.
  const std::uint64_t context = obs::NextQueryBatchContext();
  obs::ScopedRequestContext scoped_context(context);

  const bool metrics = obs::MetricsEnabled();
  const std::uint64_t start_ns = metrics ? obs::TraceNowNs() : 0;

  // Shard count: enough to keep every worker busy, but never shards so
  // small that hand-off overhead dominates the merges themselves.
  std::size_t shards =
      std::min(options_.threads,
               (pairs.size() + kMinPairsPerShard - 1) / kMinPairsPerShard);
  shards = std::max<std::size_t>(shards, 1);

  if (shards == 1 || pool_ == nullptr) {
    RunShard(pairs, out);
  } else {
    const std::size_t chunk = (pairs.size() + shards - 1) / shards;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = s * chunk;
      const std::size_t end = std::min(begin + chunk, pairs.size());
      if (begin >= end) {
        break;
      }
      pool_->Submit([this, metrics, context,
                     shard_pairs = pairs.subspan(begin, end - begin),
                     shard_out = out.subspan(begin, end - begin)](std::size_t) {
        // Worker threads inherit the batch's context so their profiler
        // samples attribute to it.
        obs::ScopedRequestContext shard_context(context);
        const std::uint64_t shard_start = metrics ? obs::TraceNowNs() : 0;
        RunShard(shard_pairs, shard_out);
        if (metrics) {
          static obs::Histogram& shard_ns =
              obs::Registry::Global().GetHistogram("query.batch.shard_ns");
          shard_ns.RecordWithExemplar(obs::TraceNowNs() - shard_start,
                                      context);
        }
      });
    }
    pool_->Wait();
  }

  if (metrics) {
    auto& registry = obs::Registry::Global();
    static obs::Counter& batches = registry.GetCounter("query.batch.batches");
    static obs::Counter& answered = registry.GetCounter("query.batch.pairs");
    static obs::Histogram& latency =
        registry.GetHistogram("query.batch.latency_ns");
    static obs::Histogram& sizes =
        registry.GetHistogram("query.batch.pairs_per_batch");
    batches.Add(1);
    answered.Add(pairs.size());
    latency.RecordWithExemplar(obs::TraceNowNs() - start_ns, context);
    sizes.Record(pairs.size());
  }
  return context;
}

std::vector<graph::Distance> QueryEngine::QueryBatch(
    std::span<const QueryPair> pairs) {
  std::vector<graph::Distance> out(pairs.size());
  QueryBatch(pairs, out);
  return out;
}

}  // namespace parapll::query
