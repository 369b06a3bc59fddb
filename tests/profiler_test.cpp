// Sampling profiler + request-context attribution tests.
//
// The capture tests drive the two real workloads the profiler exists
// for — a parallel index build and QueryEngine::QueryBatch — and assert
// the exported collapsed stacks are non-empty and context-attributed.
// The overhead test bounds the measured slowdown of profiling a fixed
// query workload at the default 97 Hz; the documented budget is <5%, the
// assertion allows 25% so a noisy shared CI core cannot flake it.
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/parapll.hpp"

namespace parapll::obs {
namespace {

TEST(RequestContextTest, PacksKindAndPayload) {
  const std::uint64_t id = MakeContextId(ContextKind::kBuildRoot, 1337);
  EXPECT_EQ(ContextKindOf(id), ContextKind::kBuildRoot);
  EXPECT_EQ(ContextPayloadOf(id), 1337u);
  EXPECT_EQ(ContextIdToString(id), "build_root/1337");
  EXPECT_EQ(ContextIdToString(0), "none");
  EXPECT_EQ(
      ContextIdToString(MakeContextId(ContextKind::kQueryBatch, 42)),
      "query_batch/42");
}

TEST(RequestContextTest, ScopedContextNestsAndRestores) {
  SetCurrentRequestContext(0);
  EXPECT_EQ(CurrentRequestContext(), 0u);
  {
    ScopedRequestContext outer(MakeContextId(ContextKind::kQueryBatch, 1));
    EXPECT_EQ(ContextPayloadOf(CurrentRequestContext()), 1u);
    {
      ScopedRequestContext inner(MakeContextId(ContextKind::kBuildRoot, 2));
      EXPECT_EQ(ContextKindOf(CurrentRequestContext()),
                ContextKind::kBuildRoot);
    }
    EXPECT_EQ(ContextKindOf(CurrentRequestContext()),
              ContextKind::kQueryBatch);
  }
  EXPECT_EQ(CurrentRequestContext(), 0u);
}

TEST(RequestContextTest, BatchContextsAreFreshAndTagged) {
  const std::uint64_t a = NextQueryBatchContext();
  const std::uint64_t b = NextQueryBatchContext();
  EXPECT_NE(a, b);
  EXPECT_EQ(ContextKindOf(a), ContextKind::kQueryBatch);
  EXPECT_EQ(ContextKindOf(b), ContextKind::kQueryBatch);
}

TEST(ProfilerTest, StartWhileRunningThrowsAndStopWhenIdleIsEmpty) {
  if (!Profiler::Supported()) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  // Stop with no capture running: empty report, no error.
  const ProfileReport idle = Profiler::Global().Stop();
  EXPECT_EQ(idle.samples, 0u);
  EXPECT_TRUE(idle.stacks.empty());

  Profiler::Global().Start();
  EXPECT_TRUE(Profiler::Global().Running());
  EXPECT_THROW(Profiler::Global().Start(), std::runtime_error);
  (void)Profiler::Global().Stop();
  EXPECT_FALSE(Profiler::Global().Running());
}

TEST(ProfilerTest, RejectsBadOptions) {
  if (!Profiler::Supported()) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  EXPECT_THROW(Profiler::Global().Start({.sample_hz = 0}),
               std::runtime_error);
  EXPECT_THROW(Profiler::Global().Start({.sample_hz = 1'000'000}),
               std::runtime_error);
  EXPECT_THROW(Profiler::Global().Start({.ring_capacity = 1}),
               std::runtime_error);
  EXPECT_FALSE(Profiler::Global().Running());
}

// Collapsed-stack lines must be "frame;frame;... count".
void ExpectCollapsedWellFormed(const std::string& collapsed) {
  std::istringstream in(collapsed);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_LT(space + 1, line.size()) << line;
    for (std::size_t i = space + 1; i < line.size(); ++i) {
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[i]))) << line;
    }
    ++lines;
  }
  EXPECT_GT(lines, 0u);
}

TEST(ProfilerTest, CapturesParallelBuildWithRootAttribution) {
  if (!Profiler::Supported()) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  const graph::Graph g = graph::MakeDatasetByName("Epinions", 0.05, 7);

  ProfilerOptions options;
  options.sample_hz = 997;  // dense sampling keeps this test fast
  Profiler::Global().Start(options);
  IndexBuilder builder;
  builder.Mode(BuildMode::kParallel).Threads(2);
  const pll::Index index = builder.Build(g);
  const ProfileReport report = Profiler::Global().Stop();

  EXPECT_GT(index.TotalEntries(), 0u);
  ASSERT_GT(report.samples, 0u);
  ASSERT_FALSE(report.stacks.empty());
  EXPECT_EQ(report.sample_hz, 997u);
  ExpectCollapsedWellFormed(report.ToCollapsed());

  // The dominant cost of a build is inside tagged per-root Dijkstra runs,
  // so at least one sample must carry a build_root context.
  EXPECT_GT(report.SamplesOfKind(ContextKind::kBuildRoot), 0u);
  // Hottest-context ranking is sorted by sample count.
  for (std::size_t i = 1; i < report.contexts.size(); ++i) {
    EXPECT_GE(report.contexts[i - 1].second, report.contexts[i].second);
  }
}

TEST(ProfilerTest, CapturesQueryBatchWithBatchAttribution) {
  if (!Profiler::Supported()) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  const graph::Graph g = graph::MakeDatasetByName("Epinions", 0.03, 7);
  IndexBuilder builder;
  builder.Mode(BuildMode::kSerial);
  const pll::Index index = builder.Build(g);

  std::vector<query::QueryPair> pairs;
  util::Rng rng(7);
  for (int i = 0; i < 20'000; ++i) {
    pairs.emplace_back(
        static_cast<graph::VertexId>(rng.Below(index.NumVertices())),
        static_cast<graph::VertexId>(rng.Below(index.NumVertices())));
  }
  // A never-matching slow-query log selects the timed merge path, whose
  // per-query clock reads give sanitizers (which defer async signals to
  // library-call boundaries) delivery points *inside* the batch context;
  // the plain merge loop has none, so under TSan every deferred SIGPROF
  // would otherwise land after the shard context is already gone.
  std::ostringstream slow_sink;
  query::SlowQueryLog slow_log(
      slow_sink, {.threshold_ns = ~0ULL, .sample_every = 0});
  query::QueryEngine engine(index, {.threads = 2, .slow_log = &slow_log});
  // Preallocated output: keeps the loop free of alloc/free outside the
  // batch context (same deferred-delivery skew, at malloc/free).
  std::vector<graph::Distance> out(pairs.size());

  ProfilerOptions options;
  options.sample_hz = 997;
  Profiler::Global().Start(options);
  // Loop batches until a few samples landed (CPU-time sampling needs
  // actual CPU burned, which varies with the machine), bounded hard so a
  // broken profiler fails instead of hanging.
  const std::uint64_t deadline_ns = TraceNowNs() + 20'000'000'000ULL;
  while (Profiler::Global().LiveSampleCount() < 20 &&
         TraceNowNs() < deadline_ns) {
    engine.QueryBatch(pairs, out);
  }
  const ProfileReport report = Profiler::Global().Stop();

  ASSERT_GT(report.samples, 0u);
  ASSERT_FALSE(report.stacks.empty());
  ExpectCollapsedWellFormed(report.ToCollapsed());
  EXPECT_GT(report.SamplesOfKind(ContextKind::kQueryBatch), 0u);

  // Merged Chrome export: one JSON document holding both the span
  // timeline and the capture's samples as instant events.
  std::ostringstream chrome;
  report.WriteChromeJsonWithTrace(chrome);
  const std::string json = chrome.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"profile\""), std::string::npos);
  EXPECT_NE(json.find("query_batch/"), std::string::npos);
}

TEST(ProfilerTest, OverheadOnQueryThroughputIsBounded) {
  if (!Profiler::Supported()) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  const graph::Graph g = graph::MakeDatasetByName("Epinions", 0.03, 7);
  IndexBuilder builder;
  builder.Mode(BuildMode::kSerial);
  const pll::Index index = builder.Build(g);

  std::vector<query::QueryPair> pairs;
  util::Rng rng(11);
  for (int i = 0; i < 50'000; ++i) {
    pairs.emplace_back(
        static_cast<graph::VertexId>(rng.Below(index.NumVertices())),
        static_cast<graph::VertexId>(rng.Below(index.NumVertices())));
  }
  query::QueryEngine engine(index, {.threads = 1});
  std::vector<graph::Distance> out(pairs.size());

  // Fixed-work wall time, with and without the profiler at its default
  // 97 Hz. The two kinds of pass alternate, so a load burst (a parallel
  // ctest run) hits both sides rather than only the later one, and each
  // side keeps its minimum, which filters scheduler noise. The generous
  // bound still catches a profiler that makes sampling anywhere near
  // expensive (the real measured overhead is <5%; see EXPERIMENTS.md).
  // The sample pool is kept small: at the default pool size each Start()
  // zero-fills ~147 MB, which evicts the index from the caches and costs
  // CPU time a loaded scheduler then takes back during the next pass,
  // and neither is sampling overhead.
  ProfilerOptions options;
  options.ring_capacity = 1024;
  options.max_threads = 4;
  auto run_once = [&] {
    const std::uint64_t begin_ns = TraceNowNs();
    engine.QueryBatch(pairs, out);
    return TraceNowNs() - begin_ns;
  };

  (void)run_once();  // warm caches before either measurement
  std::uint64_t base_ns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t profiled_ns = std::numeric_limits<std::uint64_t>::max();
  std::size_t samples = 0;
  for (int round = 0; round < 5; ++round) {
    base_ns = std::min(base_ns, run_once());
    Profiler::Global().Start(options);
    profiled_ns = std::min(profiled_ns, run_once());
    samples += Profiler::Global().Stop().samples;
  }

  ASSERT_GT(base_ns, 0u);
  const double overhead =
      static_cast<double>(profiled_ns) / static_cast<double>(base_ns) - 1.0;
  EXPECT_LT(overhead, 0.25) << "profiled " << profiled_ns << "ns vs "
                            << base_ns << "ns (" << samples << " samples)";
}

}  // namespace
}  // namespace parapll::obs
