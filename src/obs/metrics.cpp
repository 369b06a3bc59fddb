#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace parapll::obs {

namespace {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace

bool MetricsEnabled() {
  // relaxed: independent on/off flag; a stale read only delays when
  // instrumentation sites notice the toggle.
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  // relaxed: see MetricsEnabled.
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

namespace internal {

std::size_t ThreadSlot() {
  static std::atomic<std::size_t> next{0};
  // relaxed: a unique ticket is all that is needed; no data is published.
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace internal

std::uint64_t Counter::Value() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    // relaxed: partial sums; exact only after writers quiesce (contract).
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    // relaxed: Reset is documented to run while writers are quiesced.
    shard.value.store(0, std::memory_order_relaxed);
  }
}

void Gauge::Add(double v) {
  // relaxed CAS loop: the gauge is an independent scalar; the CAS only
  // needs atomicity of the read-modify-write, not ordering.
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
}

namespace {

// Bucket 0 holds value 0; bucket b >= 1 holds [2^(b-1), 2^b).
std::size_t BucketOf(std::uint64_t value) {
  return value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value));
}

// Inclusive value range covered by bucket `b`.
std::pair<double, double> BucketRange(std::size_t b) {
  if (b == 0) {
    return {0.0, 0.0};
  }
  const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
  return {lo, lo * 2.0 - 1.0};
}

// relaxed CAS loops: min/max are independent watermarks; only the
// read-modify-write atomicity matters, not ordering with other data.
void AtomicMin(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  // relaxed: watermark CAS loop, see the comment above AtomicMin.
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value < cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  // relaxed: see AtomicMin above.
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

double HistogramSnapshot::Mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) {
      continue;
    }
    const std::uint64_t next = seen + buckets[b];
    if (static_cast<double>(next) >= target) {
      const auto [lo, hi] = BucketRange(b);
      const double within =
          buckets[b] == 0
              ? 0.0
              : (target - static_cast<double>(seen)) /
                    static_cast<double>(buckets[b]);
      const double estimate = lo + (hi - lo) * within;
      return std::clamp(estimate, static_cast<double>(min),
                        static_cast<double>(max));
    }
    seen = next;
  }
  return static_cast<double>(max);
}

double HistogramSnapshot::FractionAbove(std::uint64_t threshold) const {
  if (count == 0) {
    return 0.0;
  }
  const double t = static_cast<double>(threshold);
  double above = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) {
      continue;
    }
    const auto [lo, hi] = BucketRange(b);  // inclusive integer range
    if (t < lo) {
      above += static_cast<double>(buckets[b]);
    } else if (t < hi) {
      above += static_cast<double>(buckets[b]) * (hi - t) / (hi - lo + 1.0);
    }
  }
  return above / static_cast<double>(count);
}

void Histogram::Record(std::uint64_t value) {
  Shard& shard = shards_[internal::ThreadSlot() & (kShards - 1)];
  // relaxed (all stores below): each shard/bucket is an independent
  // partial tally merged by Snapshot(); exactness is only promised once
  // writers have quiesced, so no ordering between the fields is needed.
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

void Histogram::RecordWithExemplar(std::uint64_t value,
                                   std::uint64_t request_id) {
  Record(value);
  ExemplarSlot& slot = exemplars_[BucketOf(value)];
  // relaxed load: a stale version only makes the CAS below fail, which is
  // the documented lossy path.
  std::uint64_t version = slot.version.load(std::memory_order_relaxed);
  if ((version & 1) != 0) {
    return;  // another writer owns the slot: drop this exemplar
  }
  // acquire CAS: wins the slot (odd version) and orders the payload
  // stores below after the claim; losers return without retrying.
  if (!slot.version.compare_exchange_strong(version, version + 1,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
    return;
  }
  // release payload stores: a reader whose acquire load sees either one
  // also sees the odd version claimed above, so its re-check fails.
  slot.value.store(value, std::memory_order_release);
  slot.request_id.store(request_id, std::memory_order_release);
  // release: makes the payload visible to any reader that observes the
  // new even version.
  slot.version.store(version + 2, std::memory_order_release);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  // relaxed (all loads below): merged view of independent tallies; may
  // mix in-flight Record()s but is exact once writers have quiesced.
  for (const Shard& shard : shards_) {
    snap.count += shard.count.load(std::memory_order_relaxed);
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    // relaxed: independent bucket tallies, as above.
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  // relaxed (min/max): monotone extremes, exact once writers quiesce.
  const std::uint64_t min = min_.load(std::memory_order_relaxed);
  snap.min = (snap.count == 0 || min == UINT64_MAX) ? 0 : min;
  snap.max = max_.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    const ExemplarSlot& slot = exemplars_[b];
    for (int attempt = 0; attempt < 4; ++attempt) {
      // acquire: pairs with the writer's release version bump so an even,
      // unchanged version proves the payload reads were not torn.
      const std::uint64_t before = slot.version.load(std::memory_order_acquire);
      if (before == 0) {
        break;  // never written
      }
      if ((before & 1) != 0) {
        continue;  // write in progress: retry
      }
      // acquire payload loads: keep the version re-check below after
      // them, and pair with the writer's release payload stores, so a
      // payload from a newer writer makes the re-check see its version.
      const std::uint64_t value = slot.value.load(std::memory_order_acquire);
      const std::uint64_t request_id =
          slot.request_id.load(std::memory_order_acquire);
      // relaxed: ordered by the acquire loads above; equality proves
      // stability.
      if (slot.version.load(std::memory_order_relaxed) == before) {
        snap.exemplars[b] = {true, value, request_id};
        break;
      }
    }
  }
  return snap;
}

void Histogram::Reset() {
  // relaxed (all stores below): zeroing independent tallies; callers are
  // expected to quiesce writers first, same as Counter::Reset.
  for (Shard& shard : shards_) {
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
  }
  for (auto& bucket : buckets_) {
    // relaxed: zeroing independent tallies, as above.
    bucket.store(0, std::memory_order_relaxed);
  }
  // relaxed (min/max): re-arming the extremes under quiesced writers.
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (ExemplarSlot& slot : exemplars_) {
    // relaxed (all three): zeroing under quiesced writers, as above; a
    // version of 0 reads as "never written".
    slot.value.store(0, std::memory_order_relaxed);
    slot.request_id.store(0, std::memory_order_relaxed);
    slot.version.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // leaked: outlives all threads
  return *registry;
}

Counter& Registry::GetCounter(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void Registry::Reset() {
  util::MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

RegistrySnapshot Registry::Snapshot() const {
  util::MutexLock lock(mutex_);
  RegistrySnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace(name, histogram->Snapshot());
  }
  return snap;
}

std::string Registry::ToJson() const {
  util::MutexLock lock(mutex_);
  std::ostringstream out;
  util::JsonWriter w(out);
  w.BeginObject();

  w.Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    w.Key(name).Value(counter->Value());
  }
  w.EndObject();

  w.Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    w.Key(name).Value(gauge->Value());
  }
  w.EndObject();

  w.Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    const HistogramSnapshot snap = histogram->Snapshot();
    w.Key(name).BeginObject();
    w.Key("count").Value(snap.count);
    w.Key("sum").Value(snap.sum);
    w.Key("mean").Value(snap.Mean());
    w.Key("min").Value(snap.min);
    w.Key("max").Value(snap.max);
    w.Key("p50").Value(snap.Quantile(0.50));
    w.Key("p90").Value(snap.Quantile(0.90));
    w.Key("p99").Value(snap.Quantile(0.99));
    w.Key("buckets").BeginArray();
    for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      if (snap.buckets[b] == 0) {
        continue;
      }
      w.BeginArray()
          .Value(b == 0 ? std::uint64_t{0} : std::uint64_t{1} << (b - 1))
          .Value(snap.buckets[b])
          .EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();
  return out.str();
}

void WriteMetricsJsonFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  out << Registry::Global().ToJson() << '\n';
}

}  // namespace parapll::obs
