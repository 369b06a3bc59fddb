#include "query/slow_query_log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "query/query_engine.hpp"
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

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(SlowQueryLogTest, ThresholdZeroRecordsEveryQuery) {
  const Graph g = graph::ErdosRenyi(80, 240, kUniform, 7);
  const pll::Index index = BuildTestIndex(g);
  const auto pairs = RandomPairs(g.NumVertices(), 50, 1);

  std::ostringstream sink;
  SlowQueryLog log(sink, {.threshold_ns = 0, .sample_every = 0});
  QueryEngine engine(index, {.threads = 1, .slow_log = &log});
  const auto distances = engine.QueryBatch(pairs);
  log.Flush();

  EXPECT_EQ(log.Observed(), pairs.size());
  EXPECT_EQ(log.Records(), pairs.size());
  const auto lines = Lines(sink.str());
  ASSERT_EQ(lines.size(), pairs.size());
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_NE(line.find("\"s\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"t\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"distance\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"entries_scanned\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"latency_ns\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"reason\":\"slow\""), std::string::npos) << line;
  }
  // Logging must not change answers: same batch, no log attached.
  QueryEngine plain(index, {.threads = 1});
  EXPECT_EQ(distances, plain.QueryBatch(pairs));
}

TEST(SlowQueryLogTest, SamplingRecordsEveryNth) {
  const Graph g = graph::ErdosRenyi(80, 240, kUniform, 7);
  const pll::Index index = BuildTestIndex(g);
  const auto pairs = RandomPairs(g.NumVertices(), 100, 2);

  std::ostringstream sink;
  // Unreachable threshold: only the 1-in-4 sampler writes.
  SlowQueryLog log(sink,
                   {.threshold_ns = ~std::uint64_t{0}, .sample_every = 4});
  QueryEngine engine(index, {.threads = 1, .slow_log = &log});
  engine.QueryBatch(pairs);
  log.Flush();

  EXPECT_EQ(log.Observed(), pairs.size());
  EXPECT_EQ(log.Records(), pairs.size() / 4);
  for (const std::string& line : Lines(sink.str())) {
    EXPECT_NE(line.find("\"reason\":\"sampled\""), std::string::npos) << line;
  }
}

TEST(SlowQueryLogTest, MultiThreadedEngineObservesEveryPair) {
  const Graph g = graph::BarabasiAlbert(120, 3, kUniform, 5);
  const pll::Index index = BuildTestIndex(g);
  const auto pairs = RandomPairs(g.NumVertices(), 300, 9);

  std::ostringstream sink;
  SlowQueryLog log(sink, {.threshold_ns = 0});
  QueryEngine engine(index,
                     {.threads = 3, .min_pairs_per_shard = 16,
                      .slow_log = &log});
  const auto logged = engine.QueryBatch(pairs);
  log.Flush();

  EXPECT_EQ(log.Observed(), pairs.size());
  EXPECT_EQ(log.Records(), pairs.size());
  EXPECT_EQ(Lines(sink.str()).size(), pairs.size());
  // Same distances with and without instrumentation, any thread count.
  QueryEngine plain(index, {.threads = 1});
  EXPECT_EQ(logged, plain.QueryBatch(pairs));
}

TEST(SlowQueryLogTest, UnreachablePairsSerializeDistanceNull) {
  // Two disconnected triangles: cross-component pairs are unreachable.
  const std::vector<graph::Edge> edges = {
      {0, 1, 1}, {1, 2, 1}, {0, 2, 1},
      {3, 4, 1}, {4, 5, 1}, {3, 5, 1},
  };
  const Graph g = Graph::FromEdges(6, edges);
  const pll::Index index = BuildTestIndex(g);

  std::ostringstream sink;
  SlowQueryLog log(sink, {.threshold_ns = 0});
  QueryEngine engine(index, {.threads = 1, .slow_log = &log});
  const std::vector<QueryPair> cross_component = {{0, 4}};
  engine.QueryBatch(cross_component);
  log.Flush();

  const auto lines = Lines(sink.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"distance\":null"), std::string::npos)
      << lines[0];
}

TEST(SlowQueryLogTest, PathConstructorThrowsOnBadPath) {
  EXPECT_THROW(
      SlowQueryLog("/nonexistent-dir-parapll/slow.jsonl", {}),
      std::runtime_error);
}

}  // namespace
}  // namespace parapll::query
