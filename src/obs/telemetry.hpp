// Runtime telemetry: a background sampler that turns the pull-at-exit
// metrics registry into a live time series.
//
// Pieces, bottom up:
//   * ReadProcessStats()  — RSS / peak RSS / user+sys CPU / thread count
//                           from /proc/self (zeros + valid=false when the
//                           platform has no procfs).
//   * ProbeRegistry       — named callbacks sampled on demand; each probe
//                           Set()s a gauge in the metrics Registry, so
//                           state that is too hot to update inline (label
//                           store bytes during a build) is still visible
//                           per sample. ScopedProbe is the RAII form.
//   * TelemetrySampler    — a background thread that, every `period`,
//                           collects the probes, snapshots the registry
//                           plus process stats, and optionally appends
//                           one JSON line per sample to a file
//                           (--telemetry-jsonl). It keeps no samples:
//                           the file is the time series.
//   * ScopedSignalFlush   — runs registered flush callbacks on SIGINT /
//                           SIGTERM, then _exits with 128+signo, so a
//                           long run interrupted at the terminal still
//                           writes its metrics/telemetry files.
//
// Overhead contract: nothing here touches the query or indexing hot
// paths. Instrumented code keeps its single relaxed MetricsEnabled()
// load; the sampler only *reads* shared atomics on its own thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace parapll::obs {

// Point-in-time process resource usage, read from /proc/self.
struct ProcessStats {
  std::uint64_t rss_bytes = 0;       // VmRSS
  std::uint64_t peak_rss_bytes = 0;  // VmHWM
  double user_cpu_seconds = 0.0;     // utime
  double sys_cpu_seconds = 0.0;      // stime
  std::uint64_t threads = 0;
  bool valid = false;  // false when /proc/self was unreadable
};

// Reads /proc/self/status and /proc/self/stat. Never throws; on platforms
// without procfs every field is zero and valid is false.
ProcessStats ReadProcessStats();

// Named gauge callbacks collected right before each telemetry sample and
// each /metrics scrape. Register state that is cheap to *read* but too
// hot to push into a gauge inline (e.g. ConcurrentLabelStore memory).
class ProbeRegistry {
 public:
  using Probe = std::function<double()>;

  static ProbeRegistry& Global();

  // Registers `probe`; every Collect() runs it and Set()s the gauge
  // `gauge_name` in Registry::Global(). Returns an id for Remove().
  std::uint64_t Add(std::string gauge_name, Probe probe);
  void Remove(std::uint64_t id);

  // Runs every registered probe. Probes must be thread-safe: Collect is
  // called from the sampler thread and the stats endpoint.
  void Collect();

  [[nodiscard]] std::size_t Size() const;

 private:
  ProbeRegistry() = default;

  struct Entry {
    std::uint64_t id;
    std::string gauge_name;
    Probe probe;
  };

  mutable util::Mutex mutex_;
  std::uint64_t next_id_ GUARDED_BY(mutex_) = 1;
  std::vector<Entry> entries_ GUARDED_BY(mutex_);
};

// RAII probe registration; the probe must stay callable (and thread-safe)
// for the lifetime of this object.
class ScopedProbe {
 public:
  ScopedProbe(std::string gauge_name, ProbeRegistry::Probe probe)
      : id_(ProbeRegistry::Global().Add(std::move(gauge_name),
                                        std::move(probe))) {}
  ~ScopedProbe() { ProbeRegistry::Global().Remove(id_); }

  ScopedProbe(const ScopedProbe&) = delete;
  ScopedProbe& operator=(const ScopedProbe&) = delete;

 private:
  std::uint64_t id_;
};

// One periodic observation.
struct TelemetrySample {
  std::uint64_t seq = 0;      // 0-based sample number since Start()
  std::uint64_t mono_ns = 0;  // TraceNowNs() at sampling time
  ProcessStats process;
  RegistrySnapshot registry;
};

struct TelemetryOptions {
  std::chrono::milliseconds period{100};
  // When non-empty, every sample is appended to this file as one JSON
  // line (flushed per line; the file survives a crash of the next line).
  std::string jsonl_path;
};

// Background sampling thread. Start() spawns it; Stop() (or destruction)
// takes one final sample so short runs still record their end state.
class TelemetrySampler {
 public:
  explicit TelemetrySampler(TelemetryOptions options);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  // Throws std::runtime_error when jsonl_path cannot be opened.
  void Start();
  // Idempotent; joins the thread after a final synchronous sample.
  void Stop();
  [[nodiscard]] bool Running() const;

  // Takes a sample immediately (also writes its JSONL line) and returns
  // it. Safe from any thread.
  TelemetrySample SampleNow();

  // Samples taken since construction.
  [[nodiscard]] std::uint64_t TotalSamples() const;

  // Serializes one sample as a single JSON line (no trailing newline).
  // Histograms are compacted to count/sum/mean/p50/p90/p99/max.
  static void WriteJsonLine(const TelemetrySample& sample, std::ostream& out);

 private:
  TelemetrySample CollectSample();
  void Loop();

  TelemetryOptions options_;  // written by the ctor only, then read-only
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  // The worker handle is guarded too: Stop() moves it to a local under
  // the lock, so a concurrent double-Stop can never join the same thread
  // twice (the loser sees running_ == false and returns).
  std::thread worker_ GUARDED_BY(mutex_);
  bool running_ GUARDED_BY(mutex_) = false;
  bool stop_requested_ GUARDED_BY(mutex_) = false;
  std::uint64_t seq_ GUARDED_BY(mutex_) = 0;
  std::unique_ptr<std::ofstream> out_ GUARDED_BY(mutex_);
};

// --- flush-on-signal -----------------------------------------------------

// Registers `flush` to run when the process receives SIGINT or SIGTERM;
// after every registered callback has run the process _exits with
// 128+signo. Callbacks run on a dedicated watcher thread (woken through a
// self-pipe), never inside the signal handler, so they may do normal file
// I/O. Returns an id for RemoveSignalFlush().
std::uint64_t AddSignalFlush(std::function<void()> flush);
void RemoveSignalFlush(std::uint64_t id);

// RAII form; unregisters on destruction (normal, uninterrupted exit).
class ScopedSignalFlush {
 public:
  explicit ScopedSignalFlush(std::function<void()> flush)
      : id_(AddSignalFlush(std::move(flush))) {}
  ~ScopedSignalFlush() { RemoveSignalFlush(id_); }

  ScopedSignalFlush(const ScopedSignalFlush&) = delete;
  ScopedSignalFlush& operator=(const ScopedSignalFlush&) = delete;

 private:
  std::uint64_t id_;
};

namespace internal {
// Test hook: runs the registered flush callbacks without exiting.
void RunSignalFlushCallbacksForTest();
}  // namespace internal

}  // namespace parapll::obs
