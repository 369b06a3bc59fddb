// Wide-event request log for the serving daemon: one structured record
// per client request — trace id, connection, queue wait, the coalesced
// batch it rode in, end-to-end latency, pair count, and outcome — with
// tail-based sampling so the log stays small under load but never loses
// the requests worth debugging:
//
//   * every shed / bad-request is kept        (reason "error")
//   * every request at/over slow_threshold_ns (reason "slow")
//   * plus an unbiased 1-in-sample_every of the rest (reason "sampled")
//
// Kept records land in an in-memory ring (served as JSON via the
// StatsServer's /debug/requests endpoint) and, when a path is
// configured, as JSONL on disk. Record schema (see EXPERIMENTS.md):
//
//   {"mono_ns":..,"trace_id":"..","connection":..,
//    "batch":"query_batch/42",                  // null for shed/error
//    "queue_wait_ns":..,"batch_ns":..,"latency_ns":..,
//    "encode_ns":..,"flush_ns":..,"pairs":..,
//    "status":"ok"|"shed"|"bad_request","reason":"slow"|"sampled"|"error"}
//
// The trace_id is the wire-level id (client-supplied or server-minted),
// and "batch" is the obs request-context id of the coalesced QueryBatch —
// the same key profiler samples and histogram exemplars carry, so one
// slow request joins across the log, the profile and /metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace parapll::serve {

struct RequestLogOptions {
  // Non-empty: append kept records as JSONL here (throws on open failure).
  std::string path;
  // Kept records retained for /debug/requests (oldest evicted first).
  std::size_t ring_capacity = 256;
  // A request at or above this end-to-end latency is always kept.
  std::uint64_t slow_threshold_ns = 50'000'000;  // 50 ms
  // Keep every Nth OK request regardless of latency; 0 keeps errors and
  // slow requests only.
  std::uint64_t sample_every = 64;
};

struct RequestRecord {
  std::uint64_t mono_ns = 0;
  std::string trace_id;
  std::uint64_t connection = 0;     // daemon-local accept sequence number
  std::uint64_t batch_context = 0;  // obs context id; 0 = never batched
  std::uint64_t queue_wait_ns = 0;  // admitted -> batch start
  std::uint64_t batch_ns = 0;       // engine time of the coalesced batch
  std::uint64_t latency_ns = 0;     // admitted -> batch done
  // The loop's hold after that: content ready (batch done; admission for
  // shed/bad_request) -> answer framed, then framed -> its connection's
  // send() issued. mono_ns + queue_wait_ns + batch_ns + encode_ns +
  // flush_ns is when the answer was handed to the kernel.
  std::uint64_t encode_ns = 0;
  std::uint64_t flush_ns = 0;
  std::uint64_t pairs = 0;
  const char* status = "ok";  // "ok" | "shed" | "bad_request"
  const char* reason = "";    // why it was kept; filled by Record()
};

class RequestLog {
 public:
  explicit RequestLog(RequestLogOptions options);

  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  [[nodiscard]] const RequestLogOptions& Options() const { return options_; }

  // Applies the tail-based keep decision and stores/writes the record if
  // it survives. Thread-safe.
  void Record(RequestRecord record);

  // {"records":[...]} — the ring, oldest first. Thread-safe (this is the
  // /debug/requests body, rendered on the StatsServer's thread).
  [[nodiscard]] std::string RingJson() const;

  // Copy of the ring for tests.
  [[nodiscard]] std::vector<RequestRecord> RingSnapshot() const;

  // Requests offered / records kept so far.
  // relaxed (both): independent statistics; exact once callers quiesce.
  [[nodiscard]] std::uint64_t Observed() const {
    return observed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t Kept() const {
    // relaxed: independent statistic, see Observed() above.
    return kept_.load(std::memory_order_relaxed);
  }

  void Flush();

 private:
  RequestLogOptions options_;  // written by the ctor only
  mutable util::Mutex mutex_;
  std::deque<RequestRecord> ring_ GUARDED_BY(mutex_);
  std::unique_ptr<std::ofstream> file_ GUARDED_BY(mutex_);  // null = ring only
  std::atomic<std::uint64_t> observed_{0};
  std::atomic<std::uint64_t> kept_{0};
};

}  // namespace parapll::serve
