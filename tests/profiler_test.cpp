// Sampling profiler + request-context attribution tests.
//
// The capture tests drive the two real workloads the profiler exists
// for — a parallel index build and QueryEngine::QueryBatch — and assert
// the exported collapsed stacks are non-empty and context-attributed.
// The overhead test bounds the measured slowdown of profiling a fixed
// query workload at the default 97 Hz; the documented budget is <5%, the
// assertion allows 25%. It times the workload's thread CPU time, so load
// from other processes on a shared CI host does not count as overhead.
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <time.h>

#include <cctype>
#include <fstream>
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
  const pll::Index index =
      build::Run(g, {.mode = build::BuildMode::kParallel, .threads = 2})
          .artifact.index;
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
  const pll::Index index = build::Run(g, {}).artifact.index;

  std::vector<query::QueryPair> pairs;
  util::Rng rng(7);
  for (int i = 0; i < 20'000; ++i) {
    pairs.emplace_back(
        static_cast<graph::VertexId>(rng.Below(index.NumVertices())),
        static_cast<graph::VertexId>(rng.Below(index.NumVertices())));
  }
  // With metrics on, every shard reads the clock before and after its
  // merge loop, still inside the batch context. Sanitizers defer async
  // signals to library-call boundaries, and the merge loop itself has
  // none, so under TSan those clock reads are where a deferred SIGPROF
  // is delivered while the shard context is live.
  SetMetricsEnabled(true);
  query::QueryEngine engine(index, {.threads = 2});
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
  SetMetricsEnabled(false);

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
  const pll::Index index = build::Run(g, {}).artifact.index;

  std::vector<query::QueryPair> pairs;
  util::Rng rng(11);
  for (int i = 0; i < 250'000; ++i) {
    pairs.emplace_back(
        static_cast<graph::VertexId>(rng.Below(index.NumVertices())),
        static_cast<graph::VertexId>(rng.Below(index.NumVertices())));
  }
  query::QueryEngine engine(index, {.threads = 1});
  std::vector<graph::Distance> out(pairs.size());

  // Fixed-work CPU time of this thread, with and without the profiler
  // at its default 97 Hz. With one engine thread, QueryBatch runs here,
  // and so does the SIGPROF handler that interrupts it: the profiled
  // passes pay for every sample, while time the host gives to other
  // processes counts on neither side. A pass (~50 ms) spans several
  // 10.3 ms sampling periods, so every profiled pass pays for samples;
  // a pass shorter than a period may take none, and the minimum below
  // would pick it. The two kinds of pass alternate and each side keeps
  // its minimum, which filters what noise is left (cache contention,
  // frequency changes). The generous bound still catches a profiler
  // whose samples cost more than ~2.5 ms each (the real measured
  // overhead is <5%; see EXPERIMENTS.md).
  const ProfilerOptions options;
  const auto thread_cpu_ns = [] {
    timespec now{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<std::uint64_t>(now.tv_sec) * 1'000'000'000 +
           static_cast<std::uint64_t>(now.tv_nsec);
  };
  auto run_once = [&] {
    const std::uint64_t begin_ns = thread_cpu_ns();
    engine.QueryBatch(pairs, out);
    return thread_cpu_ns() - begin_ns;
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

// This process's resident bytes (VmRSS in /proc/self/status); 0 when the
// platform does not report it.
std::size_t ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;  // reported in kB
    }
  }
  return 0;
}

// Start() reserves the sample pool without writing it: at the defaults
// the pool spans 64 threads x 8192 samples (~140 MB), of which a 97 Hz
// sampler fills a few hundred slots a second. Only written slots may
// become resident.
TEST(ProfilerTest, StartLeavesTheSamplePoolUntouched) {
  if (!Profiler::Supported()) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  const std::size_t before = ResidentBytes();
  if (before == 0) {
    GTEST_SKIP() << "no VmRSS in /proc/self/status";
  }
  Profiler::Global().Start(ProfilerOptions{});
  const std::size_t after = ResidentBytes();
  (void)Profiler::Global().Stop();
  EXPECT_LT(after, before + (std::size_t{16} << 20))
      << "VmRSS grew from " << before << " to " << after
      << " bytes across Start()";
}

}  // namespace
}  // namespace parapll::obs
