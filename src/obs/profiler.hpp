// In-process sampling CPU profiler + request-context attribution.
//
// Pieces, bottom up:
//   * RequestContext      — a 64-bit id (kind tag in the top byte, payload
//                           below) carried in a thread-local so profiler
//                           samples, request-log records, and Prometheus
//                           exemplars are joinable on one key. QueryBatch
//                           mints one per batch; the build root loop tags
//                           each root. ScopedRequestContext is the RAII
//                           setter every instrumentation site uses.
//   * Profiler            — a SIGPROF/ITIMER_PROF wall-of-CPU sampler. The
//                           signal handler (async-signal-safe by
//                           construction: no allocation, no locks, no
//                           stdio — see the signal-context lint region in
//                           profiler.cpp) captures a backtrace(3) plus the
//                           current request context into a per-thread
//                           lock-free SPSC ring claimed from a
//                           preallocated pool. Stop() disarms the timer,
//                           quiesces in-flight handlers, drains the rings,
//                           and symbolizes lazily (backtrace_symbols +
//                           __cxa_demangle) into a ProfileReport.
//   * ProfileReport       — aggregated samples: collapsed root-first
//                           stacks ("a;b;c count", flamegraph.pl-ready),
//                           per-context sample counts (hottest roots /
//                           query batches), and a raw timeline exportable
//                           as Chrome-trace JSON merged with the existing
//                           TraceSink span timeline.
//
// Overhead contract: at the default 97 Hz the handler fires ~97 times per
// CPU-second and each capture is a few microseconds, <1% of throughput on
// the measured paths (tests/profiler_test.cpp asserts the budget; the
// rate is documented in EXPERIMENTS.md). Threads that never get a signal
// never touch the profiler at all; request-context tagging is two
// thread-local stores per batch/root, noise next to the work they label.
//
// Platform: Linux/glibc (ITIMER_PROF + <execinfo.h>). Start() throws on
// platforms without both; everything else degrades to no-ops.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace parapll::obs {

// --- request contexts ----------------------------------------------------

// What kind of work a context id labels; packed into the id's top byte.
enum class ContextKind : std::uint8_t {
  kNone = 0,
  kQueryBatch = 1,  // payload: process-wide batch sequence number
  kBuildRoot = 2,   // payload: root rank being indexed
};

constexpr std::uint64_t MakeContextId(ContextKind kind,
                                      std::uint64_t payload) {
  return (static_cast<std::uint64_t>(kind) << 56) |
         (payload & ((std::uint64_t{1} << 56) - 1));
}

constexpr ContextKind ContextKindOf(std::uint64_t id) {
  return static_cast<ContextKind>(id >> 56);
}

constexpr std::uint64_t ContextPayloadOf(std::uint64_t id) {
  return id & ((std::uint64_t{1} << 56) - 1);
}

// Human-readable form, e.g. "query_batch/42", "build_root/1337", "none".
std::string ContextIdToString(std::uint64_t id);

// The calling thread's current context id; 0 (kNone) when unset. The
// backing thread-local is a plain POD slot so the SIGPROF handler may read
// it asynchronously.
std::uint64_t CurrentRequestContext();
void SetCurrentRequestContext(std::uint64_t id);

// Mints a fresh kQueryBatch context id (process-wide atomic sequence).
std::uint64_t NextQueryBatchContext();

// RAII context setter: saves the previous id, restores it on scope exit,
// so nested instrumentation (a traced batch inside a traced request)
// composes.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(std::uint64_t id)
      : previous_(CurrentRequestContext()) {
    SetCurrentRequestContext(id);
  }
  ~ScopedRequestContext() { SetCurrentRequestContext(previous_); }

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  std::uint64_t previous_;
};

// --- profiler ------------------------------------------------------------

struct ProfilerOptions {
  // Samples per CPU-second (ITIMER_PROF counts user+sys CPU across all
  // threads). 97 is prime so sampling cannot phase-lock with periodic
  // work; see EXPERIMENTS.md for the overhead budget at this rate.
  static constexpr std::uint64_t kDefaultSampleHz = 97;

  std::uint64_t sample_hz = kDefaultSampleHz;
  // Per-thread ring capacity in samples; a full ring counts drops instead
  // of blocking or reallocating (the handler may never allocate).
  std::size_t ring_capacity = 8192;
  // Ring pool size == max distinct threads that can receive a sample.
  std::size_t max_threads = 64;
};

// One aggregated call stack: root-first symbolized frames + sample count.
struct ProfileStack {
  std::vector<std::string> frames;  // outermost caller first
  std::uint64_t count = 0;
};

// One raw sample kept for timeline export (frames dropped after
// aggregation; the leaf survives as a symbol index).
struct ProfileTimelineSample {
  std::uint64_t mono_ns = 0;  // TraceNowNs() at capture
  std::uint64_t context = 0;  // request context id (0 = none)
  std::uint32_t tid = 0;      // ring index, stable per thread
  std::uint32_t leaf = 0;     // index into ProfileReport::symbols
};

struct ProfileReport {
  std::uint64_t samples = 0;        // captured into rings
  std::uint64_t dropped = 0;        // ring-full + pool-exhausted rejects
  double duration_seconds = 0.0;    // Start() -> Stop() wall time
  std::uint64_t sample_hz = 0;

  // Aggregated stacks, most samples first.
  std::vector<ProfileStack> stacks;
  // (context id, samples) for every context seen, most samples first.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> contexts;
  // Symbol table for timeline leaves.
  std::vector<std::string> symbols;
  std::vector<ProfileTimelineSample> timeline;

  // Collapsed-stack text, one "frame;frame;frame count" line per stack —
  // pipe straight into flamegraph.pl.
  void WriteCollapsed(std::ostream& out) const;
  [[nodiscard]] std::string ToCollapsed() const;

  // Chrome-trace JSON ({"traceEvents":[...]}) carrying both the TraceSink
  // span timeline and this report's samples as instant events, so one
  // Perfetto load shows spans with the CPU samples that landed in them.
  // Profiler sample tids are offset by kProfileTidBase to keep them from
  // colliding with TraceSink thread ids.
  static constexpr std::uint32_t kProfileTidBase = 1000;
  void WriteChromeJsonWithTrace(std::ostream& out) const;

  // Samples attributed to each kind, for quick build-vs-query splits.
  [[nodiscard]] std::uint64_t SamplesOfKind(ContextKind kind) const;
};

// Process-wide sampling profiler. The SIGPROF disposition and ITIMER_PROF
// are per-process resources, so this is a singleton; Start/Stop pairs
// must not overlap (Start throws while running).
class Profiler {
 public:
  static Profiler& Global();

  // True when this build can profile (Linux/glibc signal + backtrace).
  [[nodiscard]] static bool Supported();

  // Installs the SIGPROF handler and arms ITIMER_PROF. Throws
  // std::runtime_error when unsupported, already running, or the timer
  // cannot be armed. Allocates every ring up front and primes
  // backtrace(3)/TraceNowNs() so the handler itself never allocates.
  void Start(ProfilerOptions options = {});

  // Disarms the timer, restores the previous SIGPROF disposition, waits
  // for in-flight handlers to retire, then drains + symbolizes. With
  // metrics enabled, publishes profile.samples / profile.dropped counters
  // and profile.hot.<i>.{context,samples} gauges for the top-K hottest
  // contexts. Returns an empty report when not running.
  ProfileReport Stop();

  [[nodiscard]] bool Running() const;

  // Samples captured so far (cheap; readable while running).
  [[nodiscard]] std::uint64_t LiveSampleCount() const;

  // Top-K contexts published as gauges by Stop().
  static constexpr std::size_t kHotContexts = 8;

 private:
  Profiler() = default;
};

}  // namespace parapll::obs
