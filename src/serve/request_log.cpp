#include "serve/request_log.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/json.hpp"

namespace parapll::serve {

namespace {

void WriteRecord(util::JsonWriter& w, const RequestRecord& record) {
  w.BeginObject();
  w.Key("mono_ns").Value(record.mono_ns);
  w.Key("trace_id").Value(record.trace_id);
  w.Key("connection").Value(record.connection);
  if (record.batch_context == 0) {
    w.Key("batch").Raw("null");
  } else {
    w.Key("batch").Value(obs::ContextIdToString(record.batch_context));
  }
  w.Key("queue_wait_ns").Value(record.queue_wait_ns);
  w.Key("batch_ns").Value(record.batch_ns);
  w.Key("latency_ns").Value(record.latency_ns);
  w.Key("encode_ns").Value(record.encode_ns);
  w.Key("flush_ns").Value(record.flush_ns);
  w.Key("pairs").Value(record.pairs);
  w.Key("status").Value(record.status);
  w.Key("reason").Value(record.reason);
  w.EndObject();
}

}  // namespace

RequestLog::RequestLog(RequestLogOptions options)
    : options_(std::move(options)) {
  options_.ring_capacity = std::max<std::size_t>(options_.ring_capacity, 1);
  if (!options_.path.empty()) {
    auto file = std::make_unique<std::ofstream>(options_.path);
    if (!*file) {
      throw std::runtime_error("request log: cannot open " + options_.path);
    }
    util::MutexLock lock(mutex_);
    file_ = std::move(file);
  }
}

void RequestLog::Record(RequestRecord record) {
  // relaxed: independent statistic / sampling counter; no other data is
  // published through it.
  const std::uint64_t n = observed_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Tail-based keep decision: errors and slow requests always survive;
  // OK traffic is represented by an unbiased 1-in-N sample.
  if (std::strcmp(record.status, "ok") != 0) {
    record.reason = "error";
  } else if (record.latency_ns >= options_.slow_threshold_ns) {
    record.reason = "slow";
  } else if (options_.sample_every != 0 && n % options_.sample_every == 0) {
    record.reason = "sampled";
  } else {
    return;
  }
  // relaxed: independent statistic, see observed_ above.
  kept_.fetch_add(1, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    static obs::Counter& kept =
        obs::Registry::Global().GetCounter("server.request_log.kept");
    kept.Add(1);
  }
  util::MutexLock lock(mutex_);
  if (file_ != nullptr) {
    util::JsonWriter w(*file_);
    WriteRecord(w, record);
    *file_ << '\n';
    file_->flush();
  }
  ring_.push_back(std::move(record));
  while (ring_.size() > options_.ring_capacity) {
    ring_.pop_front();
  }
}

std::string RequestLog::RingJson() const {
  std::ostringstream out;
  util::JsonWriter w(out);
  util::MutexLock lock(mutex_);
  w.BeginObject();
  w.Key("observed").Value(Observed());
  w.Key("kept").Value(Kept());
  w.Key("records").BeginArray();
  for (const RequestRecord& record : ring_) {
    WriteRecord(w, record);
  }
  w.EndArray();
  w.EndObject();
  out << '\n';
  return out.str();
}

std::vector<RequestRecord> RequestLog::RingSnapshot() const {
  util::MutexLock lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

void RequestLog::Flush() {
  util::MutexLock lock(mutex_);
  if (file_ != nullptr) {
    file_->flush();
  }
}

}  // namespace parapll::serve
