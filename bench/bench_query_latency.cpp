// Query-stage microbenchmarks (paper §1 / §2 motivation): a PLL distance
// query is an O(|L(s)| + |L(t)|) label merge, orders of magnitude faster
// than running Dijkstra per query. Built on google-benchmark.
#include <benchmark/benchmark.h>

#include <sstream>

#include "common.hpp"
#include "baseline/bidirectional_dijkstra.hpp"
#include "baseline/dijkstra.hpp"
#include "build/pipeline.hpp"
#include "pll/format_v2.hpp"
#include "pll/knn_engine.hpp"
#include "graph/datasets.hpp"
#include "util/rng.hpp"

namespace parapll::bench {
namespace {

struct Workload {
  graph::Graph graph;
  pll::Index index;
  std::vector<std::pair<graph::VertexId, graph::VertexId>> pairs;
};

const Workload& SharedWorkload() {
  static const Workload workload = [] {
    Workload w;
    w.graph = graph::MakeDatasetByName("Epinions", 0.02, 1);
    w.index =
        build::Run(w.graph, {.ordering = kPaperOrdering}).artifact.index;
    util::Rng rng(7);
    for (int i = 0; i < 1024; ++i) {
      w.pairs.emplace_back(
          static_cast<graph::VertexId>(rng.Below(w.graph.NumVertices())),
          static_cast<graph::VertexId>(rng.Below(w.graph.NumVertices())));
    }
    return w;
  }();
  return workload;
}

void BM_PllQuery(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = w.pairs[i++ & 1023];
    benchmark::DoNotOptimize(w.index.Query(s, t));
  }
}
BENCHMARK(BM_PllQuery);

void BM_DijkstraQuery(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = w.pairs[i++ & 1023];
    benchmark::DoNotOptimize(baseline::DijkstraOne(w.graph, s, t));
  }
}
BENCHMARK(BM_DijkstraQuery);

void BM_BidirectionalDijkstraQuery(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = w.pairs[i++ & 1023];
    benchmark::DoNotOptimize(baseline::BidirectionalDijkstra(w.graph, s, t));
  }
}
BENCHMARK(BM_BidirectionalDijkstraQuery);

void BM_KnnQuery(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  static const pll::KnnEngine engine(w.index);
  const auto k = static_cast<std::size_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Nearest(w.pairs[i++ & 1023].first, k));
  }
}
BENCHMARK(BM_KnnQuery)->Arg(10)->Arg(100);

void BM_IndexConstructionSerial(benchmark::State& state) {
  const auto g = graph::MakeDatasetByName("Wiki-Vote", 0.02, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build::Run(g, {.ordering = kPaperOrdering}));
  }
}
BENCHMARK(BM_IndexConstructionSerial)->Unit(benchmark::kMillisecond);

void BM_IndexSerializationRoundTrip(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  for (auto _ : state) {
    std::stringstream buffer;
    pll::WriteIndexV2(w.index, buffer);
    benchmark::DoNotOptimize(pll::ReadIndexV2(buffer));
  }
}
BENCHMARK(BM_IndexSerializationRoundTrip)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parapll::bench

BENCHMARK_MAIN();
