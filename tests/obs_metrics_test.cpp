#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"

namespace parapll::obs {
namespace {

TEST(MetricsEnabledTest, DefaultsOffAndToggles) {
  EXPECT_FALSE(MetricsEnabled());
  SetMetricsEnabled(true);
  EXPECT_TRUE(MetricsEnabled());
  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
}

TEST(CounterTest, SumsExactlyAcrossThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add(1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, AddWithIncrement) {
  Counter counter;
  counter.Add(5);
  counter.Add(7);
  EXPECT_EQ(counter.Value(), 12u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  gauge.Set(1.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 1.5);
  gauge.Add(0.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), 1.75);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, CountSumMinMaxExactAcrossThreads) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<std::uint64_t>(t) * kPerThread + i);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const HistogramSnapshot snap = histogram.Snapshot();
  const std::uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(snap.count, n);
  EXPECT_EQ(snap.sum, n * (n - 1) / 2);  // 0 + 1 + ... + n-1
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, n - 1);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, n);
}

// The exemplar seqlock never hands a reader a torn (value, request_id)
// pair: writers keep overwriting every bucket's slot with pairs whose
// request_id is a function of the value, and every exemplar a concurrent
// Snapshot() returns must satisfy that function.
TEST(HistogramTest, ConcurrentExemplarsAreNeverTorn) {
  Histogram histogram;
  const auto request_id_of = [](std::uint64_t value) {
    return value * 0x9e3779b97f4a7c15ULL + 1;
  };
  constexpr int kWriters = 3;
  constexpr std::uint64_t kPerWriter = 100000;
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        // Cycles through buckets 1..63; writers differ in the low bits,
        // so a pair mixed from two writers breaks the function.
        const std::uint64_t value = (std::uint64_t{1} << (i % 63)) + w;
        histogram.RecordWithExemplar(value, request_id_of(value));
      }
      // release: the reader's acquire load sees every exemplar stored.
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  std::size_t seen = 0;
  std::size_t torn = 0;
  for (bool last = false; !last;) {
    // acquire: pairs with the writers' release decrement.
    last = running.load(std::memory_order_acquire) == 0;
    const HistogramSnapshot snap = histogram.Snapshot();
    for (const HistogramExemplar& exemplar : snap.exemplars) {
      if (exemplar.valid) {
        ++seen;
        torn += exemplar.request_id != request_id_of(exemplar.value);
      }
    }
  }
  for (auto& writer : writers) {
    writer.join();
  }
  EXPECT_GT(seen, 0u);
  EXPECT_EQ(torn, 0u);
}

TEST(HistogramTest, QuantilesAreOrderedAndBounded) {
  Histogram histogram;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    histogram.Record(v);
  }
  const HistogramSnapshot snap = histogram.Snapshot();
  const double p50 = snap.Quantile(0.50);
  const double p90 = snap.Quantile(0.90);
  const double p99 = snap.Quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  // Log-bucketed estimate: right order of magnitude for the median.
  EXPECT_GT(p50, 100.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 500.5);
}

// Bucket index of a value under the log2 scheme: 0 for 0, else
// floor(log2(v)) + 1 — the same mapping Histogram::Record uses.
int Log2Bucket(std::uint64_t v) {
  if (v == 0) {
    return 0;
  }
  int b = 0;
  while (v != 0) {
    v >>= 1;
    ++b;
  }
  return b;
}

TEST(HistogramTest, QuantileMatchesExactPercentileBucket) {
  Histogram histogram;
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    histogram.Record(v);
    values.push_back(v);
  }
  const HistogramSnapshot snap = histogram.Snapshot();
  // A log2 estimator cannot recover the exact percentile, but it must
  // land in the same power-of-two bucket as the true value — that is the
  // accuracy contract the Prometheus exporter and telemetry rely on.
  for (const double q : {0.10, 0.25, 0.50, 0.90, 0.99}) {
    const auto exact_index =
        static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
    const std::uint64_t exact = values[exact_index];
    const double estimate = snap.Quantile(q);
    EXPECT_GE(estimate, 1.0) << "q=" << q;
    EXPECT_LE(estimate, 1000.0) << "q=" << q;
    EXPECT_EQ(Log2Bucket(static_cast<std::uint64_t>(estimate)),
              Log2Bucket(exact))
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(HistogramTest, QuantileSingleValueIsExact) {
  Histogram histogram;
  for (int i = 0; i < 100; ++i) {
    histogram.Record(37);
  }
  const HistogramSnapshot snap = histogram.Snapshot();
  // With one distinct value, min==max clamps interpolation to the value.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.01), 37.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.50), 37.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 37.0);
}

TEST(HistogramTest, QuantileTwoPointDistribution) {
  Histogram histogram;
  for (int i = 0; i < 50; ++i) {
    histogram.Record(1);
  }
  for (int i = 0; i < 50; ++i) {
    histogram.Record(1024);
  }
  const HistogramSnapshot snap = histogram.Snapshot();
  // p25 falls entirely inside the low spike, p75 inside the high one.
  EXPECT_EQ(Log2Bucket(static_cast<std::uint64_t>(snap.Quantile(0.25))),
            Log2Bucket(1));
  EXPECT_EQ(Log2Bucket(static_cast<std::uint64_t>(snap.Quantile(0.75))),
            Log2Bucket(1024));
}

TEST(HistogramTest, EmptySnapshot) {
  Histogram histogram;
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(RegistryTest, HandlesAreStableAndSharedByName) {
  Registry& registry = Registry::Global();
  Counter& a = registry.GetCounter("test.registry.shared");
  Counter& b = registry.GetCounter("test.registry.shared");
  EXPECT_EQ(&a, &b);
  a.Reset();
  a.Add(3);
  EXPECT_EQ(b.Value(), 3u);
  registry.Reset();
  EXPECT_EQ(a.Value(), 0u);  // Reset zeroes but keeps the handle valid
}

TEST(RegistryTest, ConcurrentRegistrationAndUpdatesSumExactly) {
  Registry& registry = Registry::Global();
  registry.GetCounter("test.registry.concurrent").Reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Deliberately re-looks-up per iteration batch to exercise the
      // registration path concurrently.
      Counter& counter = registry.GetCounter("test.registry.concurrent");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add(1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.GetCounter("test.registry.concurrent").Value(),
            kThreads * kPerThread);
}

TEST(RegistryTest, ToJsonContainsRegisteredMetrics) {
  Registry& registry = Registry::Global();
  registry.GetCounter("test.json.counter").Reset();
  registry.GetCounter("test.json.counter").Add(42);
  registry.GetGauge("test.json.gauge").Set(2.5);
  Histogram& histogram = registry.GetHistogram("test.json.histogram");
  histogram.Reset();
  histogram.Record(8);
  histogram.Record(9);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"test.json.counter\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json.gauge\":2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json.histogram\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum\":17"), std::string::npos) << json;
  // Both samples land in the [8, 16) bucket.
  EXPECT_NE(json.find("[8,2]"), std::string::npos) << json;
}

TEST(RegistryTest, SnapshotCapturesAllMetricKinds) {
  Registry& registry = Registry::Global();
  registry.GetCounter("test.snap.counter").Reset();
  registry.GetCounter("test.snap.counter").Add(7);
  registry.GetGauge("test.snap.gauge").Set(3.25);
  Histogram& histogram = registry.GetHistogram("test.snap.histogram");
  histogram.Reset();
  histogram.Record(5);
  histogram.Record(6);

  const RegistrySnapshot snap = registry.Snapshot();
  ASSERT_TRUE(snap.counters.count("test.snap.counter"));
  EXPECT_EQ(snap.counters.at("test.snap.counter"), 7u);
  ASSERT_TRUE(snap.gauges.count("test.snap.gauge"));
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.snap.gauge"), 3.25);
  ASSERT_TRUE(snap.histograms.count("test.snap.histogram"));
  EXPECT_EQ(snap.histograms.at("test.snap.histogram").count, 2u);
  EXPECT_EQ(snap.histograms.at("test.snap.histogram").sum, 11u);
}

TEST(JsonWriterTest, EscapesAndNests) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.BeginObject();
  w.Key("a\"b").Value("x\ny");
  w.Key("arr").BeginArray().Value(1).Value(2.5).Value(false).EndArray();
  w.Key("nested").BeginObject().Key("k").Value("v").EndObject();
  w.EndObject();
  EXPECT_EQ(out.str(),
            "{\"a\\\"b\":\"x\\ny\",\"arr\":[1,2.5,false],"
            "\"nested\":{\"k\":\"v\"}}");
}

}  // namespace
}  // namespace parapll::obs
