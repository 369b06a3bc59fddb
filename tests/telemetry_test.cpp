#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <atomic>

#include "obs/expose.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/rolling.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define PARAPLL_TEST_HAVE_SOCKETS 1
#endif

namespace parapll::obs {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

// The unsigned integer after the first "key": in a JSON line; fails the
// test (and returns 0) when the key is missing.
std::uint64_t JsonUint(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  if (at == std::string::npos) {
    return 0;
  }
  return std::stoull(line.substr(at + needle.size()));
}

// --- rolling-window views -------------------------------------------------

TEST(RollingWindowTest, WindowedViewsDecayAsIntervalsExpire) {
  Histogram& h = Registry::Global().GetHistogram("test.window.hist");
  h.Reset();
  Counter& c = Registry::Global().GetCounter("test.window.count");
  c.Reset();
  RollingWindow window({.interval_ns = 1000, .intervals = 2});
  window.TrackHistogram("test.window.hist");
  window.TrackCounter("test.window.count");
  window.Advance(1000);  // anchor; baselines were captured at Track*()

  h.Record(100);
  c.Add(5);
  // The still-open interval contributes live.
  EXPECT_EQ(window.WindowedCounter("test.window.count"), 5u);
  EXPECT_EQ(window.WindowedHistogram("test.window.hist").count, 1u);

  window.Advance(2000);  // closes slot 1
  h.Record(200);
  c.Add(3);
  window.Advance(3000);  // closes slot 2
  EXPECT_EQ(window.WindowedCounter("test.window.count"), 8u);
  EXPECT_EQ(window.WindowedHistogram("test.window.hist").count, 2u);

  // Far in the future, both slots have fallen out of the ring: the
  // windowed views go to zero while the cumulative registry metrics keep
  // their totals.
  window.Advance(10'000);
  EXPECT_EQ(window.WindowedCounter("test.window.count"), 0u);
  EXPECT_EQ(window.WindowedHistogram("test.window.hist").count, 0u);
  EXPECT_EQ(h.Snapshot().count, 2u);
  EXPECT_EQ(c.Value(), 8u);
}

TEST(RollingWindowTest, RatePerSecondUsesCoveredWindowSpan) {
  Counter& c = Registry::Global().GetCounter("test.window.rate");
  c.Reset();
  RollingWindow window({.interval_ns = 1'000'000'000, .intervals = 60});
  window.TrackCounter("test.window.rate");
  const std::uint64_t t0 = 1'000'000'000;
  window.Advance(t0);
  c.Add(100);
  window.Advance(t0 + 2'000'000'000);  // two 1 s slots closed
  EXPECT_EQ(window.WindowedCounter("test.window.rate"), 100u);
  EXPECT_DOUBLE_EQ(window.WindowedSeconds(t0 + 2'000'000'000), 2.0);
  EXPECT_DOUBLE_EQ(
      window.RatePerSecond("test.window.rate", t0 + 2'000'000'000), 50.0);
}

TEST(HistogramSnapshotTest, FractionAboveInterpolatesInsideBucket) {
  Histogram& h = Registry::Global().GetHistogram("test.window.frac");
  h.Reset();
  EXPECT_DOUBLE_EQ(h.Snapshot().FractionAbove(0), 0.0);  // empty
  for (int i = 0; i < 4; ++i) {
    h.Record(8);  // bucket [8, 15]
  }
  const HistogramSnapshot snapshot = h.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.FractionAbove(7), 1.0);   // below the bucket
  EXPECT_DOUBLE_EQ(snapshot.FractionAbove(15), 0.0);  // at the bucket max
  // Threshold inside the bucket: linear interpolation over [8, 15].
  EXPECT_DOUBLE_EQ(snapshot.FractionAbove(11), 0.5);
}

TEST(ServeSloGaugesTest, CollectComputesWindowedStatsAndBurnRate) {
  Histogram& lat =
      Registry::Global().GetHistogram("server.request_latency_ns");
  lat.Reset();
  Counter& req = Registry::Global().GetCounter("server.requests");
  req.Reset();
  Counter& shed = Registry::Global().GetCounter("server.shed");
  shed.Reset();

  ServeSloOptions slo;
  slo.slo_ms = 1.0;
  slo.slo_target = 0.99;
  ServeSloGauges gauges(slo);
  const std::uint64_t t0 = TraceNowNs();
  gauges.Collect(t0);  // anchor the window

  for (int i = 0; i < 3; ++i) {
    lat.Record(100'000);  // 0.1 ms: meets the objective
  }
  lat.Record(8'000'000);  // 8 ms: violates it
  req.Add(4);
  shed.Add(1);
  const WindowedServeStats stats = gauges.Collect(t0 + 500'000'000);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_DOUBLE_EQ(stats.shed_rate, 0.25);
  EXPECT_DOUBLE_EQ(stats.slo_violation_rate, 0.25);
  // 25% violations against a 1% error budget burn at 25x.
  EXPECT_NEAR(stats.slo_burn_rate, 25.0, 1e-9);
  EXPECT_GT(stats.p99_ms, stats.p50_ms);
  // Collect() published the gauges.
  EXPECT_DOUBLE_EQ(
      Registry::Global().GetGauge("server.window.shed_rate").Value(), 0.25);
  EXPECT_NEAR(
      Registry::Global().GetGauge("server.window.slo_burn_rate").Value(),
      25.0, 1e-9);
}

TEST(ProcessStatsTest, ReadsLiveProcess) {
  const ProcessStats stats = ReadProcessStats();
#if defined(__linux__)
  ASSERT_TRUE(stats.valid);
  // A running gtest binary has resident memory and at least one thread.
  EXPECT_GT(stats.rss_bytes, 0u);
  EXPECT_GE(stats.peak_rss_bytes, stats.rss_bytes);
  EXPECT_GE(stats.threads, 1u);
  EXPECT_GE(stats.user_cpu_seconds, 0.0);
  EXPECT_GE(stats.sys_cpu_seconds, 0.0);
#else
  (void)stats;  // non-procfs platforms return valid=false; nothing to check
#endif
}

TEST(ProbeRegistryTest, CollectRunsProbesIntoGauges) {
  Registry::Global().GetGauge("test.probe.value").Set(0.0);
  const std::size_t before = ProbeRegistry::Global().Size();
  {
    double source = 41.0;
    ScopedProbe probe("test.probe.value", [&source] { return source; });
    EXPECT_EQ(ProbeRegistry::Global().Size(), before + 1);
    source = 42.0;
    ProbeRegistry::Global().Collect();
    EXPECT_DOUBLE_EQ(Registry::Global().GetGauge("test.probe.value").Value(),
                     42.0);
  }
  // ScopedProbe unregistered on scope exit; Collect no longer touches it.
  EXPECT_EQ(ProbeRegistry::Global().Size(), before);
  Registry::Global().GetGauge("test.probe.value").Set(-1.0);
  ProbeRegistry::Global().Collect();
  EXPECT_DOUBLE_EQ(Registry::Global().GetGauge("test.probe.value").Value(),
                   -1.0);
}

TEST(TelemetrySamplerTest, PeriodicSamplingProducesMultipleSamples) {
  const std::string path = TempPath("telemetry_test_periodic.jsonl");
  std::remove(path.c_str());
  Registry::Global().GetCounter("test.telemetry.counter").Reset();
  Registry::Global().GetCounter("test.telemetry.counter").Add(5);
  TelemetryOptions options;
  options.period = std::chrono::milliseconds(10);
  options.jsonl_path = path;
  TelemetrySampler sampler(options);
  sampler.Start();
  EXPECT_TRUE(sampler.Running());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  sampler.Stop();
  EXPECT_FALSE(sampler.Running());

  // ≥2 periodic samples even on a loaded 1-core machine (80ms / 10ms
  // period leaves lots of slack), plus the final Stop() sample: one
  // JSONL line each, numbered in order, with a clock that never runs
  // backwards.
  EXPECT_GE(sampler.TotalSamples(), 2u);
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), sampler.TotalSamples());
  std::uint64_t last_ns = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(JsonUint(lines[i], "seq"), i) << lines[i];
    const std::uint64_t mono_ns = JsonUint(lines[i], "mono_ns");
    EXPECT_GE(mono_ns, last_ns) << lines[i];
    last_ns = mono_ns;
  }
  EXPECT_NE(lines.back().find("\"test.telemetry.counter\":5"),
            std::string::npos)
      << lines.back();
#if defined(__linux__)
  EXPECT_NE(lines.back().find("\"valid\":true"), std::string::npos);
  EXPECT_GT(JsonUint(lines.back(), "rss_bytes"), 0u);
#endif
  std::remove(path.c_str());
}

TEST(TelemetrySamplerTest, SampleNowReturnsEveryNumberedSample) {
  Counter& counter = Registry::Global().GetCounter("test.telemetry.now");
  counter.Reset();
  TelemetryOptions options;
  options.period = std::chrono::hours(1);  // never fires on its own
  TelemetrySampler sampler(options);
  std::uint64_t last_ns = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    counter.Add(1);
    const TelemetrySample sample = sampler.SampleNow();
    EXPECT_EQ(sample.seq, i);
    EXPECT_GE(sample.mono_ns, last_ns);
    last_ns = sample.mono_ns;
    ASSERT_TRUE(sample.registry.counters.count("test.telemetry.now"));
    EXPECT_EQ(sample.registry.counters.at("test.telemetry.now"), i + 1);
  }
  EXPECT_EQ(sampler.TotalSamples(), 10u);
}

TEST(TelemetrySamplerTest, JsonlFileGetsOneLinePerSample) {
  const std::string path = TempPath("telemetry_test_samples.jsonl");
  std::remove(path.c_str());
  Registry::Global().GetCounter("test.telemetry.jsonl").Reset();
  Registry::Global().GetCounter("test.telemetry.jsonl").Add(3);
  {
    TelemetryOptions options;
    options.period = std::chrono::milliseconds(10);
    options.jsonl_path = path;
    TelemetrySampler sampler(options);
    sampler.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    sampler.Stop();
    const std::vector<std::string> lines = ReadLines(path);
    EXPECT_EQ(lines.size(), sampler.TotalSamples());
    ASSERT_GE(lines.size(), 2u);
    for (const std::string& line : lines) {
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
      EXPECT_NE(line.find("\"seq\":"), std::string::npos);
      EXPECT_NE(line.find("\"rss_bytes\":"), std::string::npos);
      EXPECT_NE(line.find("\"user_cpu_seconds\":"), std::string::npos);
      EXPECT_NE(line.find("\"test.telemetry.jsonl\":3"), std::string::npos);
    }
  }
  std::remove(path.c_str());
}

TEST(TelemetrySamplerTest, StartThrowsOnUnwritablePath) {
  TelemetryOptions options;
  options.jsonl_path = "/nonexistent-dir-parapll/telemetry.jsonl";
  TelemetrySampler sampler(options);
  EXPECT_THROW(sampler.Start(), std::runtime_error);
  EXPECT_FALSE(sampler.Running());
}

TEST(WriteJsonLineTest, CompactsHistograms) {
  TelemetrySample sample;
  sample.seq = 3;
  sample.mono_ns = 123;
  HistogramSnapshot snap;
  snap.count = 2;
  snap.sum = 12;
  snap.min = 4;
  snap.max = 8;
  snap.buckets[3] = 1;  // 4 -> [4, 8)
  snap.buckets[4] = 1;  // 8 -> [8, 16)
  sample.registry.histograms.emplace("test.h", snap);
  std::ostringstream out;
  TelemetrySampler::WriteJsonLine(sample, out);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"test.h\":{\"count\":2,\"sum\":12,\"mean\":6"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"p50\":"), std::string::npos);
  EXPECT_NE(line.find("\"max\":8"), std::string::npos);
}

// --- Prometheus exposition ----------------------------------------------

TEST(PrometheusTest, SanitizesNames) {
  EXPECT_EQ(PrometheusMetricName("query.batch.latency_ns"),
            "parapll_query_batch_latency_ns");
  EXPECT_EQ(PrometheusMetricName("indexer.thread.3.busy_seconds"),
            "parapll_indexer_thread_3_busy_seconds");
  EXPECT_EQ(PrometheusMetricName("weird-name!x"), "parapll_weird_name_x");
}

TEST(PrometheusTest, RendersCountersGaugesAndCumulativeBuckets) {
  RegistrySnapshot snapshot;
  snapshot.counters["test.prom.counter"] = 42;
  snapshot.gauges["test.prom.gauge"] = 1.5;
  HistogramSnapshot h;
  h.count = 4;
  h.sum = 1 + 3 + 8 + 9;
  h.min = 1;
  h.max = 9;
  h.buckets[1] = 1;  // 1   -> [1, 2)
  h.buckets[2] = 1;  // 3   -> [2, 4)
  h.buckets[4] = 2;  // 8,9 -> [8, 16)
  snapshot.histograms.emplace("test.prom.hist", h);

  const std::string text = RenderPrometheusText(snapshot);
  EXPECT_NE(text.find("# TYPE parapll_test_prom_counter counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("parapll_test_prom_counter 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE parapll_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("parapll_test_prom_gauge 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE parapll_test_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("parapll_test_prom_hist_sum 21"), std::string::npos);
  EXPECT_NE(text.find("parapll_test_prom_hist_count 4"), std::string::npos);
  EXPECT_NE(text.find("parapll_test_prom_hist_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("parapll_test_prom_hist_p50"), std::string::npos);

  // Bucket series must be cumulative and non-decreasing, ending at count.
  std::vector<std::uint64_t> cumulative;
  std::size_t pos = 0;
  const std::string needle = "parapll_test_prom_hist_bucket{le=\"";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    const std::size_t space = text.find("} ", pos);
    ASSERT_NE(space, std::string::npos);
    cumulative.push_back(std::stoull(text.substr(space + 2)));
    pos = space;
  }
  ASSERT_GE(cumulative.size(), 2u);
  for (std::size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1]) << "bucket " << i;
  }
  EXPECT_EQ(cumulative.back(), 4u);  // le="+Inf" equals _count
}

TEST(PrometheusTest, RendersHistogramExemplars) {
  Histogram& histogram =
      Registry::Global().GetHistogram("test.prom.exemplar");
  histogram.Reset();
  const std::uint64_t context = MakeContextId(ContextKind::kQueryBatch, 77);
  histogram.RecordWithExemplar(12, context);

  const std::string text =
      RenderPrometheusText(Registry::Global().Snapshot());
  // The bucket holding value 12 must carry the OpenMetrics exemplar with
  // the request-context id that recorded it.
  EXPECT_NE(text.find("# {request_id=\"query_batch/77\"} 12"),
            std::string::npos)
      << text;
  histogram.Reset();
}

// Satellite (c): per-thread cap drop accounting under concurrent span
// emission. Each fresh thread's buffer starts empty, so with a cap of C
// and K > C spans per thread, exactly C events land and K - C drop, per
// thread, deterministically.
TEST(TraceSinkTest, DropAccountingAtCapUnderMultithreadedEmission) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCap = 64;
  constexpr std::size_t kSpansPerThread = 200;

  TraceSink& sink = TraceSink::Global();
  sink.Clear();
  sink.SetMaxEventsPerThread(kCap);
  SetTracingEnabled(true);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        PARAPLL_SPAN("telemetry_test_cap_span", "i", i);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  SetTracingEnabled(false);

  EXPECT_EQ(sink.EventCount(), kThreads * kCap);
  EXPECT_EQ(sink.DroppedEvents(), kThreads * (kSpansPerThread - kCap));
  // The drop tally is mirrored into the metrics registry.
  EXPECT_GE(Registry::Global().GetCounter("trace.dropped_events").Value(),
            kThreads * (kSpansPerThread - kCap));

  sink.SetMaxEventsPerThread(TraceSink::kDefaultMaxEvents);
  sink.Clear();
}

#ifdef PARAPLL_TEST_HAVE_SOCKETS

// Raw-socket HTTP GET against 127.0.0.1:port; returns the full response.
std::string HttpGet(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n"
      "Connection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) < 0) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      break;
    }
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(StatsServerTest, ServesMetricsAndHealthz) {
  Registry::Global().GetCounter("test.http.counter").Reset();
  Registry::Global().GetCounter("test.http.counter").Add(11);
  Histogram& histogram = Registry::Global().GetHistogram("test.http.hist");
  histogram.Reset();
  histogram.Record(2);
  histogram.Record(100);

  StatsServer server(StatsServerOptions{.port = 0, .sampler = nullptr});
  server.Start();
  ASSERT_TRUE(server.Running());
  ASSERT_GT(server.Port(), 0);

  const std::string metrics = HttpGet(server.Port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("parapll_test_http_counter 11"), std::string::npos);
  EXPECT_NE(metrics.find("parapll_test_http_hist_count 2"),
            std::string::npos);
  EXPECT_NE(metrics.find("parapll_test_http_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);

  const std::string health = HttpGet(server.Port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string missing = HttpGet(server.Port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos) << missing;

  server.Stop();
  EXPECT_FALSE(server.Running());
}

TEST(StatsServerTest, MetricsScrapeCollectsProbes) {
  Registry::Global().GetGauge("test.http.probe").Set(0.0);
  ScopedProbe probe("test.http.probe", [] { return 99.0; });
  StatsServer server;
  server.Start();
  const std::string metrics = HttpGet(server.Port(), "/metrics");
  EXPECT_NE(metrics.find("parapll_test_http_probe 99"), std::string::npos)
      << metrics;
  server.Stop();
}

// First "name value" sample line for a metric in Prometheus exposition
// text; NaN when the metric is absent.
double ParseMetricValue(const std::string& exposition,
                        const std::string& name) {
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

// Acceptance criterion for the rolling-window tentpole: /metrics exposes
// windowed p99/qps/shed-rate/burn-rate gauges, and their values move
// between scrapes as traffic flows (each scrape's probe advances the
// window).
TEST(StatsServerTest, WindowedServeGaugesRenderAndMoveAcrossScrapes) {
  Histogram& lat =
      Registry::Global().GetHistogram("server.request_latency_ns");
  lat.Reset();
  Counter& req = Registry::Global().GetCounter("server.requests");
  req.Reset();
  Counter& shed = Registry::Global().GetCounter("server.shed");
  shed.Reset();

  ServeSloOptions slo;
  slo.window.interval_ns = 1'000'000;  // 1 ms slots keep the test fast
  slo.window.intervals = 2000;
  slo.slo_ms = 1.0;
  ServeSloGauges gauges(slo);

  StatsServer server;
  server.Start();

  for (int i = 0; i < 4; ++i) {
    lat.Record(100'000);
  }
  lat.Record(8'000'000);  // one SLO violation
  req.Add(5);
  shed.Add(5);  // shed_rate 1.0 on the first scrape
  const std::string first = HttpGet(server.Port(), "/metrics");
  for (const char* name :
       {"parapll_server_window_p50_ms", "parapll_server_window_p99_ms",
        "parapll_server_window_qps", "parapll_server_window_shed_rate",
        "parapll_server_window_slo_violation_rate",
        "parapll_server_window_slo_burn_rate"}) {
    EXPECT_FALSE(std::isnan(ParseMetricValue(first, name)))
        << name << " missing from exposition:\n" << first;
  }
  EXPECT_DOUBLE_EQ(ParseMetricValue(first, "parapll_server_window_shed_rate"),
                   1.0);
  EXPECT_GT(
      ParseMetricValue(first, "parapll_server_window_slo_burn_rate"), 1.0);

  // More traffic, no sheds: the windowed rates must move by the next
  // scrape (cumulative gauges would not).
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (int i = 0; i < 45; ++i) {
    lat.Record(100'000);
  }
  req.Add(45);
  const std::string second = HttpGet(server.Port(), "/metrics");
  EXPECT_LT(ParseMetricValue(second, "parapll_server_window_shed_rate"),
            ParseMetricValue(first, "parapll_server_window_shed_rate"));
  EXPECT_NE(ParseMetricValue(second, "parapll_server_window_qps"),
            ParseMetricValue(first, "parapll_server_window_qps"));
  server.Stop();
}

TEST(StatsServerTest, HealthzReportsJsonWithIndexInfo) {
  HealthInfo info;
  info.index_fingerprint = 123456789;
  info.index_format_version = 3;
  info.index_mode = "parallel";
  info.num_vertices = 1234;
  info.roots_completed = 1234;
  SetProcessHealthInfo(info);

  StatsServer server;
  server.Start();
  const std::string health = HttpGet(server.Port(), "/healthz");
  server.Stop();

  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("application/json"), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"version\":\""), std::string::npos);
  EXPECT_NE(health.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(health.find("\"fingerprint\":123456789"), std::string::npos)
      << health;
  EXPECT_NE(health.find("\"mode\":\"parallel\""), std::string::npos);
  EXPECT_NE(health.find("\"num_vertices\":1234"), std::string::npos);

  // Reset to the no-index state so other tests see "index":"none".
  SetProcessHealthInfo(HealthInfo{});
}

// Satellite (c): scrapes must stay well-formed while the registry is
// being mutated — new metrics appearing mid-scrape, counters bumping,
// exemplar slots being rewritten.
// The daemon registers provider hooks at Start(); without one,
// /debug/requests is an honest 404 and /healthz has no "serve" section.
TEST(StatsServerTest, ServeProvidersDriveDebugRequestsAndHealthz) {
  StatsServer server;
  server.Start();
  const std::string before = HttpGet(server.Port(), "/debug/requests");
  EXPECT_NE(before.find("HTTP/1.1 404"), std::string::npos) << before;
  EXPECT_EQ(HttpGet(server.Port(), "/healthz").find("\"serve\""),
            std::string::npos);

  SetDebugRequestsProvider(
      [] { return std::string("{\"observed\":3,\"records\":[]}\n"); });
  SetServeStatusProvider([] {
    ServeStatus status;
    status.valid = true;
    status.queue_depth_pairs = 12;
    status.shed = 7;
    status.snapshot_age_seconds = 1.5;
    return status;
  });
  const std::string requests = HttpGet(server.Port(), "/debug/requests");
  EXPECT_NE(requests.find("HTTP/1.1 200 OK"), std::string::npos) << requests;
  EXPECT_NE(requests.find("application/json"), std::string::npos);
  EXPECT_NE(requests.find("\"observed\":3"), std::string::npos);
  const std::string health = HttpGet(server.Port(), "/healthz");
  EXPECT_NE(health.find("\"serve\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"queue_depth_pairs\":12"), std::string::npos);
  EXPECT_NE(health.find("\"shed\":7"), std::string::npos);
  EXPECT_NE(health.find("\"snapshot_age_seconds\":1.5"), std::string::npos);

  SetDebugRequestsProvider(nullptr);
  SetServeStatusProvider(nullptr);
  EXPECT_NE(HttpGet(server.Port(), "/debug/requests").find("HTTP/1.1 404"),
            std::string::npos);
  server.Stop();
}

TEST(StatsServerTest, ConcurrentScrapesRaceRegistryMutation) {
  StatsServer server;
  server.Start();
  ASSERT_GT(server.Port(), 0);

  std::atomic<bool> stop{false};
  std::thread mutator([&stop] {
    std::uint64_t i = 0;
    // relaxed: plain shutdown flag; join() below orders everything else.
    while (!stop.load(std::memory_order_relaxed)) {
      Registry::Global()
          .GetCounter("test.race.counter." + std::to_string(i % 8))
          .Add(1);
      Registry::Global().GetHistogram("test.race.hist").RecordWithExemplar(
          i % 100, MakeContextId(ContextKind::kQueryBatch, i));
      Registry::Global().GetGauge("test.race.gauge").Set(
          static_cast<double>(i));
      ++i;
    }
  });

  constexpr int kScrapeThreads = 3;
  constexpr int kScrapesEach = 5;
  std::atomic<int> ok_scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < kScrapeThreads; ++t) {
    scrapers.emplace_back([&ok_scrapes, port = server.Port()] {
      for (int i = 0; i < kScrapesEach; ++i) {
        const std::string response = HttpGet(port, "/metrics");
        if (response.find("HTTP/1.1 200 OK") != std::string::npos &&
            response.find("parapll_") != std::string::npos) {
          // relaxed: independent tally, read only after join().
          ok_scrapes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : scrapers) {
    thread.join();
  }
  // relaxed: shutdown flag; join() provides the ordering.
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  server.Stop();

  EXPECT_EQ(ok_scrapes.load(), kScrapeThreads * kScrapesEach);
}

TEST(StatsServerTest, DebugProfileEndpointReturnsCollapsedStacks) {
  if (!Profiler::Supported()) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  StatsServer server;
  server.Start();

  // Burn CPU while the 1-second capture runs so ITIMER_PROF actually
  // fires (it counts process CPU time, and the request thread sleeps).
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    volatile std::uint64_t sink = 0;
    // relaxed: plain shutdown flag; join() below orders everything else.
    while (!stop.load(std::memory_order_relaxed)) {
      sink = sink * 31 + 7;
    }
  });
  const std::string response =
      HttpGet(server.Port(), "/debug/profile?seconds=1");
  // relaxed: shutdown flag; join() provides the ordering.
  stop.store(true, std::memory_order_relaxed);
  burner.join();
  server.Stop();

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  // Collapsed-text header line precedes the stacks.
  EXPECT_NE(response.find("# samples "), std::string::npos) << response;
  EXPECT_NE(response.find(" hz 97 "), std::string::npos) << response;
}

#endif  // PARAPLL_TEST_HAVE_SOCKETS

TEST(SignalFlushTest, CallbacksRunAndUnregister) {
  int fired = 0;
  const std::uint64_t id = AddSignalFlush([&fired] { ++fired; });
  internal::RunSignalFlushCallbacksForTest();
  EXPECT_EQ(fired, 1);
  RemoveSignalFlush(id);
  internal::RunSignalFlushCallbacksForTest();
  EXPECT_EQ(fired, 1);  // removed: does not fire again
  {
    ScopedSignalFlush scoped([&fired] { fired += 10; });
    internal::RunSignalFlushCallbacksForTest();
    EXPECT_EQ(fired, 11);
  }
  internal::RunSignalFlushCallbacksForTest();
  EXPECT_EQ(fired, 11);  // scoped hook gone after scope exit
}

}  // namespace
}  // namespace parapll::obs
