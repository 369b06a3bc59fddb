#include "obs/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <unistd.h>
#define PARAPLL_HAVE_POSIX_SIGNALS 1
#endif

#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace parapll::obs {

namespace {

// Kernel ticks per second for /proc/self/stat utime/stime.
double ClockTicksPerSecond() {
#if defined(_SC_CLK_TCK)
  static const double ticks = [] {
    const long hz = ::sysconf(_SC_CLK_TCK);
    return hz > 0 ? static_cast<double>(hz) : 100.0;
  }();
  return ticks;
#else
  return 100.0;
#endif
}

// Parses "<key>:   <value> kB" style lines of /proc/self/status.
bool StatusLineValue(const std::string& line, const char* key,
                     std::uint64_t* out) {
  const std::size_t key_len = std::strlen(key);
  if (line.compare(0, key_len, key) != 0) {
    return false;
  }
  std::istringstream rest(line.substr(key_len));
  std::uint64_t value = 0;
  if (!(rest >> value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

ProcessStats ReadProcessStats() {
  ProcessStats stats;
  std::ifstream status("/proc/self/status");
  if (!status) {
    return stats;
  }
  std::string line;
  std::uint64_t kb = 0;
  while (std::getline(status, line)) {
    if (StatusLineValue(line, "VmRSS:", &kb)) {
      stats.rss_bytes = kb * 1024;
    } else if (StatusLineValue(line, "VmHWM:", &kb)) {
      stats.peak_rss_bytes = kb * 1024;
    } else if (StatusLineValue(line, "Threads:", &kb)) {
      stats.threads = kb;
    }
  }

  std::ifstream stat("/proc/self/stat");
  if (stat) {
    std::string content;
    std::getline(stat, content);
    // Field 2 (comm) may contain spaces; everything after the closing
    // paren is space-separated. utime and stime are fields 14 and 15.
    const std::size_t paren = content.rfind(')');
    if (paren != std::string::npos) {
      std::istringstream rest(content.substr(paren + 1));
      std::string field;
      std::uint64_t utime = 0;
      std::uint64_t stime = 0;
      // After comm: field 3 is "state"; utime/stime are the 12th and 13th
      // tokens from there.
      bool ok = true;
      for (int i = 0; i < 11 && ok; ++i) {
        ok = static_cast<bool>(rest >> field);
      }
      if (ok && (rest >> utime >> stime)) {
        stats.user_cpu_seconds =
            static_cast<double>(utime) / ClockTicksPerSecond();
        stats.sys_cpu_seconds =
            static_cast<double>(stime) / ClockTicksPerSecond();
      }
    }
  }
  stats.valid = true;
  return stats;
}

ProbeRegistry& ProbeRegistry::Global() {
  static ProbeRegistry* registry = new ProbeRegistry();  // leaked
  return *registry;
}

std::uint64_t ProbeRegistry::Add(std::string gauge_name, Probe probe) {
  util::MutexLock lock(mutex_);
  const std::uint64_t id = next_id_++;
  entries_.push_back(Entry{id, std::move(gauge_name), std::move(probe)});
  return id;
}

void ProbeRegistry::Remove(std::uint64_t id) {
  util::MutexLock lock(mutex_);
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [id](const Entry& e) { return e.id == id; }),
                 entries_.end());
}

void ProbeRegistry::Collect() {
  // Copy under the lock, run outside it: probes may be slow and must not
  // deadlock against concurrent Add/Remove from the probed code.
  std::vector<Entry> entries;
  {
    util::MutexLock lock(mutex_);
    entries = entries_;
  }
  for (const Entry& entry : entries) {
    Registry::Global().GetGauge(entry.gauge_name).Set(entry.probe());
  }
}

std::size_t ProbeRegistry::Size() const {
  util::MutexLock lock(mutex_);
  return entries_.size();
}

TelemetrySampler::TelemetrySampler(TelemetryOptions options)
    : options_(options) {
  options_.period = std::max(options_.period, std::chrono::milliseconds(1));
}

TelemetrySampler::~TelemetrySampler() { Stop(); }

void TelemetrySampler::Start() {
  util::MutexLock lock(mutex_);
  if (running_) {
    return;
  }
  if (!options_.jsonl_path.empty()) {
    out_ = std::make_unique<std::ofstream>(options_.jsonl_path);
    if (!*out_) {
      out_.reset();
      throw std::runtime_error("cannot open " + options_.jsonl_path);
    }
  }
  running_ = true;
  stop_requested_ = false;
  worker_ = std::thread([this] { Loop(); });
}

void TelemetrySampler::Stop() {
  std::thread worker;
  {
    util::MutexLock lock(mutex_);
    if (!running_) {
      return;
    }
    // Flip running_ and take the handle under the lock so a concurrent
    // second Stop() returns above instead of joining the same thread
    // twice (which is undefined behavior).
    running_ = false;
    stop_requested_ = true;
    worker = std::move(worker_);
  }
  cv_.NotifyAll();
  worker.join();
  SampleNow();  // end-state sample: short runs still record their totals
  util::MutexLock lock(mutex_);
  if (out_ != nullptr) {
    out_->flush();
    out_.reset();
  }
}

bool TelemetrySampler::Running() const {
  util::MutexLock lock(mutex_);
  return running_;
}

TelemetrySample TelemetrySampler::CollectSample() {
  ProbeRegistry::Global().Collect();
  TelemetrySample sample;
  sample.mono_ns = TraceNowNs();
  sample.process = ReadProcessStats();
  sample.registry = Registry::Global().Snapshot();
  return sample;
}

TelemetrySample TelemetrySampler::SampleNow() {
  TelemetrySample sample = CollectSample();
  util::MutexLock lock(mutex_);
  sample.seq = seq_++;
  if (out_ != nullptr) {
    WriteJsonLine(sample, *out_);
    *out_ << '\n';
    out_->flush();
  }
  return sample;
}

std::uint64_t TelemetrySampler::TotalSamples() const {
  util::MutexLock lock(mutex_);
  return seq_;
}

void TelemetrySampler::Loop() {
  for (;;) {
    {
      util::MutexLock lock(mutex_);
      const auto deadline = std::chrono::steady_clock::now() + options_.period;
      while (!stop_requested_) {
        if (cv_.WaitUntil(mutex_, deadline) == std::cv_status::timeout) {
          break;
        }
      }
      if (stop_requested_) {
        return;  // Stop() takes the final sample after the join
      }
    }
    SampleNow();
  }
}

void TelemetrySampler::WriteJsonLine(const TelemetrySample& sample,
                                     std::ostream& out) {
  util::JsonWriter w(out);
  w.BeginObject();
  w.Key("seq").Value(sample.seq);
  w.Key("mono_ns").Value(sample.mono_ns);
  w.Key("process").BeginObject();
  w.Key("valid").Value(sample.process.valid);
  w.Key("rss_bytes").Value(sample.process.rss_bytes);
  w.Key("peak_rss_bytes").Value(sample.process.peak_rss_bytes);
  w.Key("user_cpu_seconds").Value(sample.process.user_cpu_seconds);
  w.Key("sys_cpu_seconds").Value(sample.process.sys_cpu_seconds);
  w.Key("threads").Value(sample.process.threads);
  w.EndObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : sample.registry.counters) {
    w.Key(name).Value(value);
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : sample.registry.gauges) {
    w.Key(name).Value(value);
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, snap] : sample.registry.histograms) {
    w.Key(name).BeginObject();
    w.Key("count").Value(snap.count);
    w.Key("sum").Value(snap.sum);
    w.Key("mean").Value(snap.Mean());
    w.Key("p50").Value(snap.Quantile(0.50));
    w.Key("p90").Value(snap.Quantile(0.90));
    w.Key("p99").Value(snap.Quantile(0.99));
    w.Key("max").Value(snap.max);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
}

// --- flush-on-signal -----------------------------------------------------

namespace {

struct SignalFlushState {
  util::Mutex mutex;
  std::uint64_t next_id GUARDED_BY(mutex) = 1;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> callbacks
      GUARDED_BY(mutex);
  bool installed GUARDED_BY(mutex) = false;
  // Written once by InstallOnce() (under mutex) before the watcher thread
  // and signal handler exist; both then only read them.
  int pipe_fds[2] = {-1, -1};
};

SignalFlushState& FlushState() {
  static SignalFlushState* state = new SignalFlushState();  // leaked
  return *state;
}

void RunFlushCallbacks() {
  // Copy so a callback that (indirectly) unregisters does not deadlock.
  std::vector<std::function<void()>> callbacks;
  {
    util::MutexLock lock(FlushState().mutex);
    for (auto& [id, fn] : FlushState().callbacks) {
      callbacks.push_back(fn);
    }
  }
  for (auto& fn : callbacks) {
    try {
      fn();
    } catch (...) {
      // Flushing is best-effort on the way out.
    }
  }
}

#ifdef PARAPLL_HAVE_POSIX_SIGNALS

// Async-signal-safe: only write()s the signal number to the self-pipe.
void SignalHandler(int signo) {
  const unsigned char byte = static_cast<unsigned char>(signo);
  [[maybe_unused]] const ssize_t n =
      ::write(FlushState().pipe_fds[1], &byte, 1);
}

void InstallOnce() REQUIRES(FlushState().mutex) {
  SignalFlushState& state = FlushState();
  if (state.installed) {
    return;
  }
  if (::pipe(state.pipe_fds) != 0) {
    return;  // no pipe, no flush-on-signal; normal exits still flush
  }
  std::thread([&state] {
    unsigned char byte = 0;
    for (;;) {
      const ssize_t n = ::read(state.pipe_fds[0], &byte, 1);
      if (n == 1) {
        break;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return;  // pipe broken; give up quietly
      }
    }
    RunFlushCallbacks();
    std::_Exit(128 + static_cast<int>(byte));
  }).detach();
  struct sigaction action {};
  action.sa_handler = SignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  state.installed = true;
}

#else

void InstallOnce() REQUIRES(FlushState().mutex) {}

#endif  // PARAPLL_HAVE_POSIX_SIGNALS

}  // namespace

std::uint64_t AddSignalFlush(std::function<void()> flush) {
  SignalFlushState& state = FlushState();
  util::MutexLock lock(state.mutex);
  InstallOnce();
  const std::uint64_t id = state.next_id++;
  state.callbacks.emplace_back(id, std::move(flush));
  return id;
}

void RemoveSignalFlush(std::uint64_t id) {
  SignalFlushState& state = FlushState();
  util::MutexLock lock(state.mutex);
  state.callbacks.erase(
      std::remove_if(state.callbacks.begin(), state.callbacks.end(),
                     [id](const auto& entry) { return entry.first == id; }),
      state.callbacks.end());
}

namespace internal {
void RunSignalFlushCallbacksForTest() { RunFlushCallbacks(); }
}  // namespace internal

}  // namespace parapll::obs
