#include "obs/profiler.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__linux__) || defined(__APPLE__)
#include <csignal>
#include <cxxabi.h>
#include <execinfo.h>
#include <sys/time.h>
#define PARAPLL_HAVE_PROFILER 1
#endif

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace parapll::obs {

// --- request contexts ----------------------------------------------------

namespace {
// Plain POD thread-local so the SIGPROF handler can read it: local-exec
// TLS in a statically linked object is initialized at thread creation and
// involves no lazy allocation.
thread_local std::uint64_t t_request_context = 0;
}  // namespace

std::uint64_t CurrentRequestContext() { return t_request_context; }

void SetCurrentRequestContext(std::uint64_t id) { t_request_context = id; }

std::uint64_t NextQueryBatchContext() {
  static std::atomic<std::uint64_t> next{0};
  // relaxed: a unique ticket is all that is needed; no data is published.
  return MakeContextId(ContextKind::kQueryBatch,
                       next.fetch_add(1, std::memory_order_relaxed) + 1);
}

std::string ContextIdToString(std::uint64_t id) {
  if (id == 0) {
    return "none";
  }
  const std::uint64_t payload = ContextPayloadOf(id);
  switch (ContextKindOf(id)) {
    case ContextKind::kNone:
      return "none/" + std::to_string(payload);
    case ContextKind::kQueryBatch:
      return "query_batch/" + std::to_string(payload);
    case ContextKind::kBuildRoot:
      return "build_root/" + std::to_string(payload);
  }
  return "kind" + std::to_string(static_cast<unsigned>(ContextKindOf(id))) +
         "/" + std::to_string(payload);
}

// --- sample capture ------------------------------------------------------

#ifdef PARAPLL_HAVE_PROFILER

namespace {

// One captured stack, written by exactly one thread's signal handler.
// No member initializers: the pool is allocated uninitialized, so Start()
// does not write (and make resident) every slot up front. The drain reads
// only slots in [tail, head), and only their first `depth` frames, all of
// which the handler wrote.
struct RawSample {
  static constexpr int kMaxFrames = 32;

  std::uint64_t mono_ns;
  std::uint64_t context;
  std::uint32_t depth;
  void* frames[kMaxFrames];
};

// Per-thread SPSC ring: the owning thread's handler is the only producer;
// the drain in Stop() is the only consumer, and it runs only after every
// handler has retired (inflight == 0), so head/tail never race.
struct alignas(64) SampleRing {
  std::atomic<std::uint32_t> head{0};
  std::atomic<std::uint32_t> tail{0};
  std::atomic<std::uint64_t> dropped{0};  // ring-full rejects
  RawSample* slots = nullptr;             // into ProfilerState::slab
  std::uint32_t capacity = 0;
};

// Handler-visible lock-free state. The ring pool pointer is published by
// the g_active store in Start() and never dereferenced unless the handler
// observed active == true.
std::atomic<bool> g_active{false};
std::atomic<std::uint32_t> g_inflight{0};
std::atomic<std::uint64_t> g_generation{0};
std::atomic<std::uint32_t> g_claimed{0};
std::atomic<std::uint64_t> g_lost{0};  // pool-exhausted rejects
SampleRing* g_rings = nullptr;
std::uint32_t g_ring_count = 0;

// Which ring this thread writes to, valid while its generation matches.
thread_local SampleRing* t_ring = nullptr;
thread_local std::uint64_t t_ring_generation = 0;

// Serializes Start/Stop and owns the sample storage. The handler never
// touches this; it sees only the lock-free globals above.
struct ProfilerState {
  util::Mutex mutex;
  bool running GUARDED_BY(mutex) = false;
  ProfilerOptions options GUARDED_BY(mutex);
  std::uint64_t start_ns GUARDED_BY(mutex) = 0;
  struct sigaction old_action GUARDED_BY(mutex) = {};
  std::unique_ptr<SampleRing[]> rings GUARDED_BY(mutex);
  std::unique_ptr<RawSample[]> slab GUARDED_BY(mutex);
};

ProfilerState& State() {
  static ProfilerState* state = new ProfilerState();  // leaked: outlives all threads
  return *state;
}

}  // namespace

// The SIGPROF handler. Async-signal-safe by construction: atomics, plain
// TLS reads, clock_gettime (via the primed TraceNowNs) and backtrace(3)
// (primed in Start so libgcc is already loaded) — no allocation, no
// locks, no stdio. tools/parapll_lint.py enforces the ban over the marked
// region below (rule signal-context-banned-call).
// parapll-lint: begin-signal-context
extern "C" void ParaPllProfilerSignalHandler(int /*signo*/, siginfo_t*,
                                             void*) {
  const int saved_errno = errno;
  // seq_cst (this fetch_add and the g_active load below): Dekker-style
  // handshake with Stop(), which stores g_active = false and then reads
  // g_inflight; seq_cst forbids the interleaving where Stop() reads
  // inflight == 0 while this handler still reads active == true, so the
  // drain can never run concurrently with a ring write.
  g_inflight.fetch_add(1, std::memory_order_seq_cst);
  if (g_active.load(std::memory_order_seq_cst)) {
    // relaxed: the generation only changes while the profiler is stopped
    // and every handler has retired, so any value read here is stable for
    // the whole signal delivery.
    const std::uint64_t generation =
        g_generation.load(std::memory_order_relaxed);
    if (t_ring_generation != generation) {
      // relaxed: a unique ticket into the preallocated pool; the pool
      // itself was published by the g_active handshake above.
      const std::uint32_t index =
          g_claimed.fetch_add(1, std::memory_order_relaxed);
      t_ring = index < g_ring_count ? &g_rings[index] : nullptr;
      t_ring_generation = generation;
    }
    SampleRing* ring = t_ring;
    if (ring == nullptr) {
      // relaxed: independent loss statistic, read after quiescence.
      g_lost.fetch_add(1, std::memory_order_relaxed);
    } else {
      // relaxed (head) / relaxed (tail): SPSC — this thread is the only
      // producer and the consumer runs only after quiescence, so the
      // indices cannot move under us during one delivery.
      const std::uint32_t head = ring->head.load(std::memory_order_relaxed);
      const std::uint32_t tail = ring->tail.load(std::memory_order_relaxed);
      if (head - tail >= ring->capacity) {
        // relaxed: independent loss statistic, read after quiescence.
        ring->dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        RawSample& slot = ring->slots[head % ring->capacity];
        slot.mono_ns = TraceNowNs();
        slot.context = t_request_context;
        const int depth = ::backtrace(slot.frames, RawSample::kMaxFrames);
        slot.depth = depth > 0 ? static_cast<std::uint32_t>(depth) : 0;
        // release: publishes the slot write before the head bump so the
        // drain (which loads head with acquire) sees a complete sample.
        ring->head.store(head + 1, std::memory_order_release);
      }
    }
  }
  // seq_cst: second half of the Dekker handshake with Stop(), see above.
  g_inflight.fetch_sub(1, std::memory_order_seq_cst);
  errno = saved_errno;
}
// parapll-lint: end-signal-context

namespace {

// "module(_ZN7parapll3FooEv+0x1a) [0x55d1c2]" -> demangled name, with
// graceful fallbacks for missing symbols (static functions without
// -rdynamic symbolize as "module+0x1a").
std::string ParseSymbolLine(const char* line, const void* addr) {
  const std::string text = line != nullptr ? line : "";
  const std::size_t open = text.find('(');
  std::string name;
  std::string offset;
  if (open != std::string::npos) {
    const std::size_t close = text.find(')', open);
    const std::size_t plus = text.find('+', open);
    if (plus != std::string::npos && close != std::string::npos &&
        plus < close) {
      name = text.substr(open + 1, plus - open - 1);
      offset = text.substr(plus, close - plus);
    } else if (close != std::string::npos) {
      name = text.substr(open + 1, close - open - 1);
    }
  }
  if (!name.empty()) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(name.c_str(), nullptr, nullptr, &status);
    if (demangled != nullptr) {
      if (status == 0) {
        name = demangled;
      }
      std::free(demangled);
    }
  } else {
    // No symbol: fall back to basename(module)+offset, then raw address.
    std::string module = open != std::string::npos ? text.substr(0, open)
                                                   : std::string();
    const std::size_t slash = module.rfind('/');
    if (slash != std::string::npos) {
      module = module.substr(slash + 1);
    }
    if (!module.empty()) {
      name = module + offset;
    } else {
      std::ostringstream hex;
      hex << addr;
      name = hex.str();
    }
  }
  // Collapsed-stack format splits frames on ';'.
  std::replace(name.begin(), name.end(), ';', ',');
  return name;
}

// Leading (leaf-side) frames belonging to signal dispatch itself:
// frames[0] is the handler (backtrace's caller), frames[1] the kernel
// trampoline. Name-based trimming below refines this when symbols are
// available.
constexpr std::uint32_t kHandlerFrameSkip = 2;

bool IsSignalDispatchFrame(const std::string& symbol) {
  return symbol.find("ParaPllProfilerSignalHandler") != std::string::npos ||
         symbol.find("restore_rt") != std::string::npos ||
         symbol.find("_sigtramp") != std::string::npos;
}

void PublishProfileMetrics(const ProfileReport& report) {
  if (!MetricsEnabled()) {
    return;
  }
  auto& registry = Registry::Global();
  registry.GetCounter("profile.samples").Add(report.samples);
  registry.GetCounter("profile.dropped").Add(report.dropped);
  registry.GetGauge("profile.duration_seconds")
      .Set(report.duration_seconds);
  // Top-K hottest contexts (roots / query batches) as gauge triples;
  // unused slots are zeroed so stale values from a previous capture never
  // linger in the exposition.
  std::size_t slot = 0;
  for (const auto& [context, samples] : report.contexts) {
    if (context == 0 || slot >= Profiler::kHotContexts) {
      continue;
    }
    const std::string prefix = "profile.hot." + std::to_string(slot);
    registry.GetGauge(prefix + ".kind")
        .Set(static_cast<double>(
            static_cast<unsigned>(ContextKindOf(context))));
    registry.GetGauge(prefix + ".payload")
        .Set(static_cast<double>(ContextPayloadOf(context)));
    registry.GetGauge(prefix + ".samples").Set(static_cast<double>(samples));
    ++slot;
  }
  for (; slot < Profiler::kHotContexts; ++slot) {
    const std::string prefix = "profile.hot." + std::to_string(slot);
    registry.GetGauge(prefix + ".kind").Set(0.0);
    registry.GetGauge(prefix + ".payload").Set(0.0);
    registry.GetGauge(prefix + ".samples").Set(0.0);
  }
}

}  // namespace

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler();  // leaked singleton
  return *profiler;
}

bool Profiler::Supported() { return true; }

void Profiler::Start(ProfilerOptions options) {
  if (options.sample_hz == 0 || options.sample_hz > 10'000) {
    throw std::runtime_error("profiler: sample_hz must be in [1, 10000]");
  }
  if (options.ring_capacity < 64 || options.max_threads == 0) {
    throw std::runtime_error("profiler: ring_capacity >= 64 and at least "
                             "one thread required");
  }
  ProfilerState& state = State();
  util::MutexLock lock(state.mutex);
  if (state.running) {
    throw std::runtime_error("profiler already running");
  }
  // A handler from the previous session could in principle still be
  // retiring; never replace the pool under it.
  // seq_cst: pairs with the handler's seq_cst inflight updates.
  while (g_inflight.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }

  state.options = options;
  state.rings = std::make_unique<SampleRing[]>(options.max_threads);
  state.slab = std::make_unique_for_overwrite<RawSample[]>(
      options.max_threads * options.ring_capacity);
  for (std::size_t i = 0; i < options.max_threads; ++i) {
    state.rings[i].slots = state.slab.get() + i * options.ring_capacity;
    state.rings[i].capacity =
        static_cast<std::uint32_t>(options.ring_capacity);
  }
  g_rings = state.rings.get();
  g_ring_count = static_cast<std::uint32_t>(options.max_threads);
  // relaxed (claimed/lost): session-reset of independent tallies; the
  // g_active handshake below publishes them together with the pool.
  g_claimed.store(0, std::memory_order_relaxed);
  g_lost.store(0, std::memory_order_relaxed);
  // relaxed: the generation bump is observed by handlers only after the
  // g_active handshake publishes it along with the new pool.
  g_generation.fetch_add(1, std::memory_order_relaxed);

  // Prime every lazy-init path the handler touches: backtrace(3) dlopens
  // libgcc on first use and TraceNowNs() initializes its clock anchor —
  // neither may happen inside a signal.
  void* prime[2];
  (void)::backtrace(prime, 2);
  (void)TraceNowNs();

  // seq_cst: publishes the ring pool to handlers (Dekker handshake
  // partner of the handler's g_active load).
  g_active.store(true, std::memory_order_seq_cst);

  struct sigaction action = {};
  action.sa_sigaction = &ParaPllProfilerSignalHandler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (::sigaction(SIGPROF, &action, &state.old_action) != 0) {
    // seq_cst: roll the handshake back, see above.
    g_active.store(false, std::memory_order_seq_cst);
    throw std::runtime_error("profiler: sigaction(SIGPROF) failed");
  }

  itimerval timer = {};
  const long interval_us =
      static_cast<long>(1'000'000 / options.sample_hz);
  timer.it_interval.tv_sec = interval_us / 1'000'000;
  timer.it_interval.tv_usec = interval_us % 1'000'000;
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    ::sigaction(SIGPROF, &state.old_action, nullptr);
    // seq_cst: roll the handshake back, see above.
    g_active.store(false, std::memory_order_seq_cst);
    throw std::runtime_error("profiler: setitimer(ITIMER_PROF) failed");
  }
  state.start_ns = TraceNowNs();
  state.running = true;
}

ProfileReport Profiler::Stop() {
  ProfilerState& state = State();
  util::MutexLock lock(state.mutex);
  ProfileReport report;
  if (!state.running) {
    return report;
  }
  // Disarm first (no new timer firings), restore the old disposition (no
  // new handler entries), then handshake any handler already running.
  itimerval zero = {};
  ::setitimer(ITIMER_PROF, &zero, nullptr);
  ::sigaction(SIGPROF, &state.old_action, nullptr);
  // seq_cst (store + loads): Dekker handshake with the handler — after
  // this store, any handler that passed its inflight increment sees
  // active == false, and the wait below outlasts any that saw true.
  g_active.store(false, std::memory_order_seq_cst);
  while (g_inflight.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  state.running = false;
  report.sample_hz = state.options.sample_hz;
  report.duration_seconds =
      static_cast<double>(TraceNowNs() - state.start_ns) / 1e9;

  // --- drain: handlers have quiesced, every ring index is stable -------
  struct Drained {
    const RawSample* raw;
    std::uint32_t tid;
  };
  std::vector<Drained> samples;
  // relaxed: quiesced loss statistic, see the handler.
  report.dropped = g_lost.load(std::memory_order_relaxed);
  for (std::uint32_t r = 0; r < g_ring_count; ++r) {
    SampleRing& ring = state.rings[r];
    // acquire: pairs with the handler's release head store so the slot
    // contents are visible; tail is drain-owned.
    const std::uint32_t head = ring.head.load(std::memory_order_acquire);
    const std::uint32_t tail = ring.tail.load(std::memory_order_relaxed);
    for (std::uint32_t k = tail; k != head; ++k) {
      samples.push_back({&ring.slots[k % ring.capacity], r});
    }
    // relaxed: drain-owned index; handlers are quiesced.
    ring.tail.store(head, std::memory_order_relaxed);
    // relaxed: quiesced loss statistic, see the handler.
    report.dropped += ring.dropped.load(std::memory_order_relaxed);
  }
  report.samples = samples.size();

  // --- lazy symbolization: unique addresses only, demangled once ------
  std::map<const void*, std::uint32_t> name_of_addr;
  std::map<std::string, std::uint32_t> id_of_name;
  std::vector<const void*> unique_addrs;
  for (const Drained& s : samples) {
    for (std::uint32_t f = 0; f < s.raw->depth; ++f) {
      if (name_of_addr.emplace(s.raw->frames[f], 0).second) {
        unique_addrs.push_back(s.raw->frames[f]);
      }
    }
  }
  if (!unique_addrs.empty()) {
    char** lines = ::backtrace_symbols(
        const_cast<void* const*>(
            reinterpret_cast<const void* const*>(unique_addrs.data())),
        static_cast<int>(unique_addrs.size()));
    for (std::size_t i = 0; i < unique_addrs.size(); ++i) {
      const std::string name = ParseSymbolLine(
          lines != nullptr ? lines[i] : nullptr, unique_addrs[i]);
      auto [it, fresh] = id_of_name.emplace(
          name, static_cast<std::uint32_t>(report.symbols.size()));
      if (fresh) {
        report.symbols.push_back(name);
      }
      name_of_addr[unique_addrs[i]] = it->second;
    }
    if (lines != nullptr) {
      std::free(lines);
    }
  }

  // --- aggregate: collapsed stacks, contexts, timeline ----------------
  std::map<std::vector<std::uint32_t>, std::uint64_t> stack_counts;
  std::map<std::uint64_t, std::uint64_t> context_counts;
  report.timeline.reserve(samples.size());
  for (const Drained& s : samples) {
    const RawSample& raw = *s.raw;
    // Trim signal-dispatch frames off the leaf end: the fixed skip
    // covers the handler + trampoline; the name scan catches layouts
    // where dispatch spans a different number of frames.
    std::uint32_t skip = raw.depth > kHandlerFrameSkip ? kHandlerFrameSkip : 0;
    for (std::uint32_t f = 0; f < raw.depth; ++f) {
      if (IsSignalDispatchFrame(
              report.symbols[name_of_addr[raw.frames[f]]])) {
        skip = std::max(skip, f + 1);
      }
    }
    if (skip >= raw.depth) {
      skip = raw.depth > 0 ? raw.depth - 1 : 0;
    }
    std::vector<std::uint32_t> key;
    key.reserve(raw.depth - skip);
    for (std::uint32_t f = raw.depth; f > skip; --f) {  // root first
      key.push_back(name_of_addr[raw.frames[f - 1]]);
    }
    stack_counts[key] += 1;
    context_counts[raw.context] += 1;
    report.timeline.push_back(
        {raw.mono_ns, raw.context, s.tid,
         raw.depth > 0 ? name_of_addr[raw.frames[skip]] : 0});
  }
  report.stacks.reserve(stack_counts.size());
  for (const auto& [key, count] : stack_counts) {
    ProfileStack stack;
    stack.count = count;
    stack.frames.reserve(key.size());
    for (const std::uint32_t id : key) {
      stack.frames.push_back(report.symbols[id]);
    }
    report.stacks.push_back(std::move(stack));
  }
  std::sort(report.stacks.begin(), report.stacks.end(),
            [](const ProfileStack& a, const ProfileStack& b) {
              return a.count > b.count;
            });
  report.contexts.assign(context_counts.begin(), context_counts.end());
  std::sort(report.contexts.begin(), report.contexts.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  PublishProfileMetrics(report);
  return report;
}

bool Profiler::Running() const {
  ProfilerState& state = State();
  util::MutexLock lock(state.mutex);
  return state.running;
}

std::uint64_t Profiler::LiveSampleCount() const {
  ProfilerState& state = State();
  util::MutexLock lock(state.mutex);
  if (!state.running) {
    return 0;
  }
  std::uint64_t total = 0;
  for (std::uint32_t r = 0; r < g_ring_count; ++r) {
    // acquire (head) / relaxed (tail): a live lower bound; pairs with the
    // handler's release store of head.
    total += state.rings[r].head.load(std::memory_order_acquire) -
             state.rings[r].tail.load(std::memory_order_relaxed);
  }
  return total;
}

#else  // !PARAPLL_HAVE_PROFILER

Profiler& Profiler::Global() {
  static Profiler profiler;
  return profiler;
}

bool Profiler::Supported() { return false; }

void Profiler::Start(ProfilerOptions) {
  throw std::runtime_error("profiler: unsupported on this platform");
}

ProfileReport Profiler::Stop() { return {}; }

bool Profiler::Running() const { return false; }

std::uint64_t Profiler::LiveSampleCount() const { return 0; }

#endif  // PARAPLL_HAVE_PROFILER

// --- report export (platform-independent) --------------------------------

void ProfileReport::WriteCollapsed(std::ostream& out) const {
  for (const ProfileStack& stack : stacks) {
    for (std::size_t i = 0; i < stack.frames.size(); ++i) {
      if (i != 0) {
        out << ';';
      }
      out << stack.frames[i];
    }
    out << ' ' << stack.count << '\n';
  }
}

std::string ProfileReport::ToCollapsed() const {
  std::ostringstream out;
  WriteCollapsed(out);
  return out.str();
}

void ProfileReport::WriteChromeJsonWithTrace(std::ostream& out) const {
  util::JsonWriter w(out);
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  TraceSink::Global().AppendChromeEvents(w);
  for (const ProfileTimelineSample& sample : timeline) {
    w.BeginObject();
    w.Key("name").Value(sample.leaf < symbols.size() ? symbols[sample.leaf]
                                                     : "?");
    w.Key("cat").Value("profile");
    w.Key("ph").Value("i");
    w.Key("s").Value("t");
    w.Key("ts").Value(static_cast<double>(sample.mono_ns) / 1e3);
    w.Key("pid").Value(std::uint64_t{1});
    w.Key("tid").Value(std::uint64_t{kProfileTidBase + sample.tid});
    w.Key("args")
        .BeginObject()
        .Key("context")
        .Value(ContextIdToString(sample.context))
        .EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").Value("ms");
  w.EndObject();
  out << '\n';
}

std::uint64_t ProfileReport::SamplesOfKind(ContextKind kind) const {
  std::uint64_t total = 0;
  for (const auto& [context, count] : contexts) {
    if (context != 0 && ContextKindOf(context) == kind) {
      total += count;
    }
  }
  return total;
}

}  // namespace parapll::obs
