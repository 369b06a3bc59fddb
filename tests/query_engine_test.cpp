#include "query/query_engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "graph/generators.hpp"
#include "build/pipeline.hpp"
#include "pll/servable.hpp"
#include "util/rng.hpp"

namespace parapll::query {
namespace {

using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;

const WeightOptions kUniform{WeightModel::kUniform, 20};

pll::Index BuildTestIndex(const Graph& g) {
  return build::Run(g, {}).artifact.index;
}

std::vector<QueryPair> RandomPairs(graph::VertexId n, std::size_t count,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<QueryPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<graph::VertexId>(rng.Below(n)),
                       static_cast<graph::VertexId>(rng.Below(n)));
  }
  return pairs;
}

// The core guarantee: on a random graph, every batched distance equals
// both the per-call Index::Query answer and the Dijkstra ground truth.
TEST(QueryEngineTest, BatchMatchesSerialQueryAndDijkstra) {
  const Graph g = graph::ErdosRenyi(120, 360, kUniform, 11);
  const pll::Index index = BuildTestIndex(g);
  const auto pairs = RandomPairs(g.NumVertices(), 400, 3);

  QueryEngine engine(index, {.threads = 4});
  const std::vector<graph::Distance> got = engine.QueryBatch(pairs);

  ASSERT_EQ(got.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    EXPECT_EQ(got[i], index.Query(s, t)) << "pair " << i;
    EXPECT_EQ(got[i], baseline::DijkstraOne(g, s, t)) << "pair " << i;
  }
}

TEST(QueryEngineTest, SingleThreadMatchesMultiThread) {
  const Graph g = graph::BarabasiAlbert(200, 3, kUniform, 5);
  const pll::Index index = BuildTestIndex(g);
  const auto pairs = RandomPairs(g.NumVertices(), 1000, 9);

  QueryEngine serial(index, {.threads = 1});
  QueryEngine threaded(index, {.threads = 3});
  EXPECT_EQ(serial.QueryBatch(pairs), threaded.QueryBatch(pairs));
}

TEST(QueryEngineTest, WorksOnParallelBuiltIndex) {
  const Graph g = graph::WattsStrogatz(150, 4, 0.1, kUniform, 2);
  const pll::Index index =
      build::Run(g, {.mode = build::BuildMode::kParallel, .threads = 2})
          .artifact.index;
  const auto pairs = RandomPairs(g.NumVertices(), 300, 1);

  QueryEngine engine(index, {.threads = 2});
  const auto got = engine.QueryBatch(pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(got[i], index.Query(pairs[i].first, pairs[i].second));
  }
}

TEST(QueryEngineTest, SelfPairsAreZero) {
  const Graph g = graph::Cycle(16, kUniform, 7);
  const pll::Index index = BuildTestIndex(g);
  std::vector<QueryPair> pairs;
  for (graph::VertexId v = 0; v < g.NumVertices(); ++v) {
    pairs.emplace_back(v, v);
  }
  for (const graph::Distance d : QueryEngine(index).QueryBatch(pairs)) {
    EXPECT_EQ(d, 0u);
  }
}

TEST(QueryEngineTest, DisconnectedPairsAreInfinite) {
  // Two disjoint paths: 0-1-2 and 3-4-5.
  std::vector<graph::Edge> edges = {{0, 1, 2}, {1, 2, 2}, {3, 4, 2}, {4, 5, 2}};
  const Graph g = Graph::FromEdges(6, edges);
  const pll::Index index = BuildTestIndex(g);
  const std::vector<QueryPair> pairs = {{0, 5}, {2, 3}, {0, 2}};
  const auto got = QueryEngine(index).QueryBatch(pairs);
  EXPECT_EQ(got[0], graph::kInfiniteDistance);
  EXPECT_EQ(got[1], graph::kInfiniteDistance);
  EXPECT_EQ(got[2], 4u);
}

TEST(QueryEngineTest, EmptyBatchIsANoop) {
  const Graph g = graph::Path(4, kUniform, 1);
  const pll::Index index = BuildTestIndex(g);
  QueryEngine engine(index, {.threads = 2});
  EXPECT_TRUE(engine.QueryBatch(std::vector<QueryPair>{}).empty());
}

TEST(QueryEngineTest, MismatchedSpansThrow) {
  const Graph g = graph::Path(4, kUniform, 1);
  const pll::Index index = BuildTestIndex(g);
  QueryEngine engine(index);
  const std::vector<QueryPair> pairs = {{0, 1}};
  std::vector<graph::Distance> out(2);
  EXPECT_THROW(engine.QueryBatch(pairs, out), std::invalid_argument);
}

TEST(QueryEngineTest, OutOfRangeVertexThrowsAndLeavesOutputUntouched) {
  const Graph g = graph::Path(4, kUniform, 1);
  const pll::Index index = BuildTestIndex(g);
  QueryEngine engine(index);
  const std::vector<QueryPair> pairs = {{0, 1}, {0, 99}};
  std::vector<graph::Distance> out(2, 777);
  EXPECT_THROW(engine.QueryBatch(pairs, out), std::out_of_range);
  EXPECT_EQ(out[0], 777u);
  EXPECT_EQ(out[1], 777u);
}

// Batches large enough to shard across the pool still agree entry by
// entry with the per-call path (exercises the multi-shard code path).
TEST(QueryEngineTest, LargeShardedBatchMatchesPerCall) {
  const Graph g = graph::ErdosRenyi(300, 900, kUniform, 17);
  const pll::Index index = BuildTestIndex(g);
  const auto pairs = RandomPairs(g.NumVertices(), 20000, 23);

  QueryEngine engine(index, {.threads = 4});
  const auto got = engine.QueryBatch(pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(got[i], index.Query(pairs[i].first, pairs[i].second))
        << "pair " << i;
  }
}

// The shared-source ctor (shared ownership of a LabelSource + vertex
// order) must answer exactly like the Index ctor — it is the same engine
// the daemon builds over a ServableIndex.
TEST(QueryEngineTest, SourceCtorMatchesIndexCtor) {
  const Graph g = graph::ErdosRenyi(100, 300, kUniform, 37);
  const pll::Index index = BuildTestIndex(g);
  const pll::ServableIndex servable = pll::ServableIndex::FromIndex(index);
  QueryEngine engine(servable.source, servable.order, {.threads = 2});
  EXPECT_EQ(&engine.Source(), servable.source.get());
  EXPECT_EQ(engine.NumVertices(), index.NumVertices());
  const auto pairs = RandomPairs(g.NumVertices(), 500, 41);
  EXPECT_EQ(engine.QueryBatch(pairs), QueryEngine(index).QueryBatch(pairs));
}

// A persistent engine answers many consecutive batches (the serving
// pattern) without pool teardown between them.
TEST(QueryEngineTest, ReusedEngineAnswersManyBatches) {
  const Graph g = graph::BarabasiAlbert(100, 2, kUniform, 29);
  const pll::Index index = BuildTestIndex(g);
  QueryEngine engine(index, {.threads = 2});
  for (std::uint64_t round = 0; round < 20; ++round) {
    const auto pairs = RandomPairs(g.NumVertices(), 2 * kMinPairsPerShard,
                                   round);
    const auto got = engine.QueryBatch(pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(got[i], index.Query(pairs[i].first, pairs[i].second));
    }
  }
}

}  // namespace
}  // namespace parapll::query
