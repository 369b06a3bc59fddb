// perfbench — one run of one benchmark workload, in one process, through
// the program's public API:
//
//   graph file -> build::Run -> IndexArtifact::Save (v2)
//     -> pll::ServableIndex::Load -> query::QueryEngine::QueryBatch
//     -> serve::QueryServer over loopback, driven open loop.
//
// Set-up (read graph, build, save, heap load, server start) is repeated
// and reported as medians; batched queries and serving are measured in
// repeated phases whose lengths are fractions of --seconds. Every answer
// is checked outside the timed phases. With --trace 1, obs metrics are on,
// spans recorded around each call are kept in memory and written at the
// end, and the per-layer metrics are computed from span self times and
// the counters the program publishes. run.py builds and drives this
// binary; see README.md for the workloads and metrics.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "build/artifact.hpp"
#include "build/pipeline.hpp"
#include "graph/datasets.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "openloop.hpp"
#include "pll/format_v2.hpp"
#include "pll/label_store.hpp"
#include "pll/ordering.hpp"
#include "pll/servable.hpp"
#include "pll/verify.hpp"
#include "query/query_engine.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace parapll;
namespace pb = perfbench;
using graph::Distance;
using query::QueryPair;

constexpr std::size_t kBuildThreads = 4;
constexpr std::size_t kBatchThreads = 4;
constexpr std::size_t kEngineThreads = 2;  // daemon's engine pool
constexpr std::size_t kPoolPairs = std::size_t{1} << 18;
constexpr std::size_t kBatchChunk = std::size_t{1} << 16;
constexpr std::size_t kVerifyPairs = 16;  // Dijkstra checks per build
constexpr std::size_t kOracleSources = 8;  // full Dijkstra rows per build
constexpr std::size_t kIndexCheckPairs = 4096;
constexpr std::size_t kSpanEvery = 16;  // served requests kept as spans
constexpr std::size_t kRequestLogRing = std::size_t{1} << 20;
constexpr std::uint64_t kGraphSeed = 7;  // the pinned graph of every workload
constexpr int kSetups = 3;
// Rate ladder: high x kLadderRatio^i for i in [-kLadderDown, kLadderUp],
// about 0.55x to 7x the high rate: its top is at least twice the highest
// knee measured on the parent commit, so a faster daemon still shows.
constexpr double kLadderRatio = 1.03;
constexpr int kLadderDown = 20;
constexpr int kLadderUp = 66;

// Shares of --seconds given to each timed phase. Every set-up is followed
// by one heap and one mmap batch pass, at least kFixedRateShare of serving
// at each fixed rate, split into interleaved phases, and a ladder search.
constexpr double kBatchPassShare = 0.045;
constexpr double kFixedRateShare = 0.081;
constexpr double kLadderShare = 0.01;  // one ladder try
constexpr double kWarmupShare = 0.01;
constexpr double kFixedDrainSeconds = 1.0;
constexpr double kLadderDrainSeconds = 0.25;
// Fixed-rate serving is split into phases of at least kMinPhaseSeconds,
// and at least kMinFixedPhases of them, per set-up and rate. A host stall
// of a few ms spoils the p99 of the phase it falls in, and in slow host
// periods it spoils most phases; the reported p99 is the lower quartile
// over the phases, which stays clean while a quarter of them are.
constexpr double kMinPhaseSeconds = 0.12;
constexpr int kMinFixedPhases = 6;
constexpr double kPhaseP99Quantile = 0.25;
// Every timed serve phase lasts long enough for this many requests, so
// its p99 has at least ten beyond it even when a Poisson schedule draws
// 5 standard deviations fewer.
constexpr double kMinPhaseRequests = 1200.0;
// A ladder try lasts at least this many SLOs per ladder ratio step, so
// that one step past the knee grows the backlog by rate x SLO.
constexpr double kLadderTrySlos = 1.0 / (kLadderRatio - 1.0);
constexpr int kLadderTries = 2;  // a step passes when any try passes
constexpr std::size_t kRowFetches = std::size_t{1} << 21;
constexpr int kCodecIters = 20000;

struct Args {
  std::string workload;
  std::string dataset;
  double scale = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint64_t seed = 7;
  double seconds = 12.0;
  bool trace = false;
  std::size_t pairs_per_request = 1;
  double nominal_rps = 0.0;
  double high_rps = 0.0;
  double slo_ms = 1.0;
  std::string work_dir;
  std::string out;
};

Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag value pairs, got " + key);
    }
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) {
    throw std::invalid_argument("flag without a value");
  }
  auto take = [&kv](const std::string& key) {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    std::string value = it->second;
    kv.erase(it);
    return value;
  };
  Args args;
  args.workload = take("workload");
  args.dataset = take("dataset");
  args.scale = std::stod(take("scale"));
  args.fingerprint = std::stoull(take("fingerprint"), nullptr, 0);
  args.seed = std::stoull(take("seed"));
  args.seconds = std::stod(take("seconds"));
  args.trace = take("trace") == "1";
  args.pairs_per_request = std::stoull(take("pairs-per-request"));
  args.nominal_rps = std::stod(take("nominal-rps"));
  args.high_rps = std::stod(take("high-rps"));
  args.slo_ms = std::stod(take("slo-ms"));
  args.work_dir = take("work-dir");
  args.out = take("out");
  if (!kv.empty()) {
    throw std::invalid_argument("unknown flag --" + kv.begin()->first);
  }
  if (args.seconds <= 0.0 || args.pairs_per_request == 0 ||
      args.pairs_per_request > serve::kMaxPairsPerRequest ||
      args.nominal_rps <= 0.0 || args.high_rps <= 0.0) {
    throw std::invalid_argument("flag value out of range");
  }
  return args;
}

double Seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// VmHWM (peak resident set) of this process, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

// --- spans ------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  std::uint64_t Begin(std::string name) {
    if (!on_) {
      return 0;
    }
    pb::Span span;
    span.id = spans_.size() + 1;
    span.parent = open_.empty() ? 0 : open_.back();
    span.name = std::move(name);
    span.start_ns = obs::TraceNowNs();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void End(std::uint64_t id) {
    if (!on_ || id == 0) {
      return;
    }
    spans_[id - 1].end_ns = obs::TraceNowNs();
    if (!open_.empty() && open_.back() == id) {
      open_.pop_back();
    }
  }

  // A finished span with known times, under `parent`.
  std::uint64_t Add(std::string name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t parent,
                    std::string request) {
    if (!on_) {
      return 0;
    }
    pb::Span span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.name = std::move(name);
    span.request = std::move(request);
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  [[nodiscard]] const std::vector<pb::Span>& Spans() const { return spans_; }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (const pb::Span& span : spans_) {
      util::JsonWriter w(out);
      w.BeginObject()
          .Key("id").Value(span.id)
          .Key("parent").Value(span.parent)
          .Key("name").Value(span.name)
          .Key("start_ns").Value(span.start_ns)
          .Key("end_ns").Value(span.end_ns)
          .Key("request").Value(span.request)
          .EndObject();
      out << '\n';
    }
    if (!out) {
      throw std::runtime_error("cannot write spans to " + path);
    }
  }

 private:
  bool on_;
  std::vector<pb::Span> spans_;
  std::vector<std::uint64_t> open_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.Begin(std::move(name))) {}
  ~SpanScope() { tracer_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

// --- metrics ----------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = Metric{value, unit};
  }
  void Write(util::JsonWriter& w) const {
    w.BeginObject();
    for (const auto& [name, metric] : values_) {
      w.Key(name).BeginObject().Key("value").Value(metric.value)
          .Key("unit").Value(metric.unit).EndObject();
    }
    w.EndObject();
  }

 private:
  std::map<std::string, Metric> values_;
};

std::uint64_t CounterValue(const obs::RegistrySnapshot& snapshot,
                           const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

// Per-build deltas of the counters the program publishes.
const std::vector<std::string>& BuildCounters() {
  static const std::vector<std::string> names = {
      "pll.heap_pops",   "pll.relaxations",   "pll.probe_entries",
      "pll.prune_hits",  "pll.labels_added",  "store.lock_acquired",
      "store.lock_contended"};
  return names;
}

struct SetupSample {
  double setup_s = 0.0;
  double build_s = 0.0;
  double labels_per_vertex = 0.0;
  double index_mb = 0.0;
  double order_s = 0.0;
  double utilization = 0.0;
  std::map<std::string, double> counters;  // deltas over build::Run
};

// Fields of one request-log record the benchmark needs.
struct LogRecord {
  bool present = false;
  std::uint64_t batch = 0;  // obs context id of the coalesced batch
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t batch_ns = 0;
  std::uint64_t latency_ns = 0;
  std::uint64_t mono_ns = 0;
  std::uint64_t pairs = 0;
};

// The daemon's OK records by phase prefix, indexed by request number
// (trace id "<prefix>-<k>").
std::map<std::string, std::vector<LogRecord>> IndexRequestLog(
    const std::vector<serve::RequestRecord>& ring) {
  std::map<std::string, std::vector<LogRecord>> phases;
  for (const serve::RequestRecord& r : ring) {
    const std::size_t dash = r.trace_id.rfind('-');
    if (std::string_view(r.status) != "ok" || dash == std::string::npos) {
      continue;
    }
    std::vector<LogRecord>& records = phases[r.trace_id.substr(0, dash)];
    const std::size_t k = std::stoull(r.trace_id.substr(dash + 1));
    if (records.size() <= k) {
      records.resize(k + 1);
    }
    records[k] = LogRecord{true,         r.batch_context, r.queue_wait_ns,
                           r.batch_ns,   r.latency_ns,    r.mono_ns,
                           r.pairs};
  }
  return phases;
}

// --- the run ------------------------------------------------------------

struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void Count(std::uint64_t tried, std::uint64_t bad, const std::string& what) {
    attempted += tried;
    failed += bad;
    if (bad > 0) {
      notes.push_back(what + ": " + std::to_string(bad) + " of " +
                      std::to_string(tried) + " failed");
    }
  }
};

// Throughput of repeated QueryBatch calls over the pool for `seconds`,
// in Mpairs/s. Positions [0, returned pairs) of `out` hold the answers.
double BatchPass(query::QueryEngine& engine, std::span<const QueryPair> pool,
                 std::vector<Distance>& out, double seconds,
                 std::size_t* answered) {
  std::fill(out.begin(), out.end(), graph::kInfiniteDistance - 1);
  std::size_t offset = 0;
  std::size_t pairs = 0;
  const double start = Seconds();
  double elapsed = 0.0;
  do {
    engine.QueryBatch(pool.subspan(offset, kBatchChunk),
                      std::span(out).subspan(offset, kBatchChunk));
    pairs += kBatchChunk;
    offset = (offset + kBatchChunk) % pool.size();
    elapsed = Seconds() - start;
  } while (elapsed < seconds);
  *answered = pairs;
  return static_cast<double>(pairs) / elapsed / 1e6;
}

std::uint64_t CountMismatches(const std::vector<Distance>& got,
                              const std::vector<Distance>& want,
                              std::size_t answered) {
  const std::size_t n = std::min(answered, want.size());
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bad += got[i] != want[i] ? 1 : 0;
  }
  return bad;
}

// Answers of `engine` for every target of kOracleSources seeded sources,
// against Dijkstra from each source; counts pairs into `failures`.
void CheckAgainstDijkstra(const graph::Graph& g, query::QueryEngine& engine,
                          std::uint64_t seed, const std::string& what,
                          Failures& failures) {
  const graph::VertexId n = g.NumVertices();
  util::Rng rng(seed);
  std::vector<QueryPair> pairs(n);
  std::vector<Distance> got(n);
  std::uint64_t bad = 0;
  for (std::size_t k = 0; k < kOracleSources; ++k) {
    const auto s = static_cast<graph::VertexId>(rng.Below(n));
    const std::vector<Distance> want = baseline::DijkstraAll(g, s);
    for (graph::VertexId t = 0; t < n; ++t) {
      pairs[t] = {s, t};
    }
    engine.QueryBatch(pairs, got);
    for (graph::VertexId t = 0; t < n; ++t) {
      bad += got[t] != want[t] ? 1 : 0;
    }
  }
  failures.Count(kOracleSources * n, bad, what);
}

int Run(const Args& args) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  if (build_type != "Release" || !optimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  obs::SetMetricsEnabled(args.trace);
  Tracer tracer(args.trace);
  std::filesystem::create_directories(args.work_dir);
  Failures failures;
  const double run_start = Seconds();
  auto progress = [run_start](const std::string& step) {
    std::printf("[%6.1f s] %s\n", Seconds() - run_start, step.c_str());
    std::fflush(stdout);
  };

  // Inputs: the pinned graph, written where a user's graph file would be.
  const graph::Graph g =
      graph::MakeDatasetByName(args.dataset, args.scale, kGraphSeed);
  const std::uint64_t fingerprint = graph::Fingerprint(g);
  std::printf("workload %s: %s scale %.3g graph seed %llu: n=%u m=%zu "
              "fingerprint 0x%016llx; seed %llu, nproc %ld, %s build\n",
              args.workload.c_str(), args.dataset.c_str(), args.scale,
              static_cast<unsigned long long>(kGraphSeed),
              g.NumVertices(), g.NumEdges(),
              static_cast<unsigned long long>(fingerprint),
              static_cast<unsigned long long>(args.seed), nproc,
              build_type.c_str());
  if (fingerprint != args.fingerprint) {
    std::fprintf(stderr,
                 "perfbench: graph fingerprint 0x%016llx differs from the "
                 "recorded 0x%016llx: the generator changed the workload\n",
                 static_cast<unsigned long long>(fingerprint),
                 static_cast<unsigned long long>(args.fingerprint));
    return 3;
  }
  const std::string graph_path = args.work_dir + "/graph.txt";
  graph::WriteEdgeListTextFile(g, graph_path);

  build::BuildPlan plan;
  plan.mode = build::BuildMode::kParallel;
  plan.threads = kBuildThreads;
  plan.policy = parallel::AssignmentPolicy::kDynamic;
  plan.seed = kGraphSeed;

  serve::ServeOptions serve_options;
  serve_options.engine_threads = kEngineThreads;
  if (args.trace) {
    // Every request is kept in the in-memory ring, sized for one server's
    // fixed-rate phases; a JSONL line per request would cost the loop
    // thread more than the requests themselves at the point rates.
    serve_options.request_log.sample_every = 1;
    serve_options.request_log.ring_capacity = kRequestLogRing;
  }

  std::vector<QueryPair> pool;
  std::vector<Distance> expected;
  std::vector<Distance> out;
  std::vector<SetupSample> setups;
  std::vector<double> heap_mqps;
  std::vector<double> mmap_mqps;
  std::vector<double> mmap_load_s;
  std::vector<pb::OpenLoopResult> nominal;
  std::vector<pb::OpenLoopResult> high;
  std::vector<serve::RequestRecord> request_log;
  std::vector<std::string> phase_log;
  double peak_rss_mb = 0.0;
  std::unique_ptr<serve::QueryServer> server;
  std::optional<pll::ServableIndex> heap;
  std::optional<pll::ServableIndex> mmap;
  std::string index_path;

  std::size_t next_pair = 0;
  std::uint64_t phases_run = 0;
  const double fixed_seconds = args.seconds * kFixedRateShare;
  const int fixed_phases = std::max(
      kMinFixedPhases,
      static_cast<int>(fixed_seconds /
                       std::max(kMinPhaseSeconds,
                                kMinPhaseRequests / args.nominal_rps)));
  auto summarize = [](const pb::OpenLoopResult& r) {
    return pb::Summarize(r.latency_ms, r.Failed());
  };
  auto phase = [&](const std::string& prefix, double rate, double seconds,
                   double drain, bool keep) {
    seconds = std::max(seconds, kMinPhaseRequests / rate);
    pb::OpenLoopOptions o;
    o.port = server->Port();
    o.rate_rps = rate;
    o.seconds = seconds;
    o.drain_seconds = drain;
    o.pairs_per_request = args.pairs_per_request;
    o.pool = pool;
    o.expected = expected;
    o.first_pair = next_pair;
    o.seed = args.seed * 7919 + phases_run++;
    o.trace_prefix = prefix;
    o.keep_requests = keep && args.trace;
    const std::uint64_t phase_span = tracer.Begin("serve.phase." + prefix);
    pb::OpenLoopResult result = pb::RunOpenLoop(o);
    tracer.End(phase_span);
    for (std::size_t k = 0; k < result.requests.size(); k += kSpanEvery) {
      const pb::RequestTiming& r = result.requests[k];
      if (r.done_ns != 0) {
        tracer.Add("serve.request", r.due_ns, r.done_ns, phase_span,
                   prefix + "-" + std::to_string(k));
      }
    }
    next_pair = (next_pair + result.scheduled * args.pairs_per_request) %
                pool.size();
    const pb::LatencySummary s = summarize(result);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s %.0f req/s: %zu requests, achieved %.0f, p50 %.3f ms, "
                  "p99 %.3f ms, late p99 %.3f ms, %llu failed, backlog %llu "
                  "-> %llu",
                  prefix.c_str(), rate, s.samples, result.achieved_rps, s.p50,
                  s.p99, pb::Percentile(result.late_ms, 0.99),
                  static_cast<unsigned long long>(result.Failed()),
                  static_cast<unsigned long long>(result.backlog.front()),
                  static_cast<unsigned long long>(result.backlog.back()));
    phase_log.emplace_back(line);
    return result;
  };
  auto passes = [&args](const pb::OpenLoopResult& r, double rate) {
    const pb::LatencySummary s = pb::Summarize(r.latency_ms, r.Failed());
    return pb::StepPasses({s.p99, s.p99_supported, r.Failed(), r.backlog},
                          args.slo_ms, rate * args.slo_ms * 1e-3);
  };

  // Rate ladder high x ratio^i, i in [-down, up]. The high rate is a step,
  // decided by this set-up's fixed high phases (it passes when any of them
  // passed); the highest passing step is found by binary search from
  // there. Returns the answered rate of that step, 0 when none passed.
  const std::vector<double> ladder =
      pb::Ladder(args.high_rps, kLadderRatio, kLadderDown, kLadderUp);
  std::vector<double> ladder_knees;
  const double try_seconds = std::max(args.seconds * kLadderShare,
                                      kLadderTrySlos * args.slo_ms * 1e-3);
  auto search_ladder = [&](std::span<const pb::OpenLoopResult> high_phases) {
    std::vector<double> high_achieved;
    for (const auto& r : high_phases) {
      if (passes(r, args.high_rps)) {
        high_achieved.push_back(r.achieved_rps);
      }
    }
    const long high_step = kLadderDown;
    std::map<std::size_t, double> step_achieved;
    const long best = pb::LadderSearch(
        ladder.size(), high_achieved.empty() ? -1 : high_step,
        [&](std::size_t step) {
          // A step passes when any of its tries passes: a host stall must
          // not fail a step, since one wrong verdict early in the binary
          // search caps its result.
          for (int attempt = 0; attempt < kLadderTries; ++attempt) {
            const std::string prefix = "l" + std::to_string(step) +
                                       std::string(attempt, 'r');
            const pb::OpenLoopResult r =
                phase(prefix, ladder[step], try_seconds, kLadderDrainSeconds,
                      false);
            const bool pass = passes(r, ladder[step]);
            phase_log.back() += pass ? ": pass" : ": fail";
            if (pass) {
              step_achieved[step] = r.achieved_rps;
              return true;
            }
            // Let the daemon drop what the overloaded try left queued.
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
          return false;
        });
    if (best == high_step && !high_achieved.empty()) {
      return pb::Median(high_achieved);
    }
    return best >= 0 ? step_achieved.at(static_cast<std::size_t>(best)) : 0.0;
  };

  // ---- set-up, repeated; each set-up is followed by its share of the
  // batched and served phases, so every metric samples the whole run ----
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    heap.reset();
    mmap.reset();
    if (!index_path.empty()) {
      std::filesystem::remove(index_path);
    }
    index_path = args.work_dir + "/index-" + std::to_string(i) + ".v2";
    SetupSample sample;
    obs::RegistrySnapshot before;
    graph::Graph read;
    std::optional<build::BuildOutcome> outcome;
    {
      // Graph file on disk -> first answerable query.
      SpanScope setup_span(tracer, "setup");
      const double start = Seconds();
      {
        SpanScope span(tracer, "graph.ReadEdgeListTextFile");
        read = graph::ReadEdgeListTextFile(graph_path);
      }
      if (args.trace) {
        before = obs::Registry::Global().Snapshot();
      }
      {
        SpanScope span(tracer, "build.Run");
        const double t = Seconds();
        outcome.emplace(build::Run(read, plan));
        sample.build_s = Seconds() - t;
      }
      {
        SpanScope span(tracer, "build.IndexArtifact.Save");
        outcome->artifact.Save(index_path, pll::kIndexFormatV2);
      }
      {
        SpanScope span(tracer, "pll.ServableIndex.Load.heap");
        heap.emplace(
            pll::ServableIndex::Load(index_path, pll::StoreBackend::kHeap));
      }
      {
        SpanScope span(tracer, "serve.QueryServer.Start");
        server = std::make_unique<serve::QueryServer>(*heap, serve_options);
        server->Start();
      }
      sample.setup_s = Seconds() - start;
    }
    if (i == 0) {
      peak_rss_mb = PeakRssMb();  // before any buffer of the benchmark's own
    }
    if (args.trace) {
      const obs::RegistrySnapshot after = obs::Registry::Global().Snapshot();
      for (const std::string& name : BuildCounters()) {
        sample.counters[name] = static_cast<double>(
            CounterValue(after, name) - CounterValue(before, name));
      }
      // order.s: the ordering work build::Run starts with, timed alone.
      const std::uint64_t order_id = tracer.Begin("order");
      const double t = Seconds();
      std::vector<graph::VertexId> order;
      {
        SpanScope span(tracer, "pll.ComputeOrder");
        order = pll::ComputeOrder(read, plan.ordering, plan.seed);
      }
      {
        SpanScope span(tracer, "pll.ToRankSpace");
        const graph::Graph rank_graph = pll::ToRankSpace(read, order);
      }
      sample.order_s = Seconds() - t;
      tracer.End(order_id);
    }
    const build::IndexArtifact& artifact = outcome->artifact;
    sample.utilization = outcome->AvgUtilization();
    sample.labels_per_vertex =
        static_cast<double>(artifact.index.TotalEntries()) /
        static_cast<double>(g.NumVertices());
    sample.index_mb =
        static_cast<double>(std::filesystem::file_size(index_path)) / 1e6;
    setups.push_back(sample);
    progress("setup " + std::to_string(i) + ": " +
             std::to_string(sample.setup_s) + " s (build " +
             std::to_string(sample.build_s) + " s), " +
             std::to_string(sample.labels_per_vertex) + " labels/vertex, " +
             std::to_string(sample.index_mb) + " MB index");

    // Answers of this build, checked outside the timed phases.
    const pll::BuildManifest& manifest = artifact.Manifest();
    if (manifest.graph_fingerprint != args.fingerprint ||
        !manifest.IsComplete()) {
      failures.Count(1, 1, "manifest of build " + std::to_string(i));
    }
    const pll::VerifyResult verify = pll::VerifySampled(
        g, artifact.index, kVerifyPairs, args.seed * 1000 + i);
    failures.Count(verify.pairs_checked, verify.mismatches,
                   "Dijkstra check of build " + std::to_string(i));
    query::QueryEngine heap_engine(heap->source, heap->order,
                                   {.threads = kBatchThreads});
    // The loaded index answers every pool check below (the pool's answers
    // come from build 0's), so it is checked against Dijkstra in full rows.
    CheckAgainstDijkstra(g, heap_engine, args.seed * 1000 + 500 + i,
                         "Dijkstra rows of loaded index " + std::to_string(i),
                         failures);
    if (i == 0) {
      util::Rng rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
      pool.resize(kPoolPairs);
      for (QueryPair& pair : pool) {
        pair.first = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
        pair.second = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
      }
      expected.resize(pool.size());
      out.resize(pool.size());
      heap_engine.QueryBatch(pool, expected);
    }
    std::uint64_t bad = 0;
    for (std::size_t j = 0; j < kIndexCheckPairs; ++j) {
      bad += artifact.index.Query(pool[j].first, pool[j].second) != expected[j]
                 ? 1
                 : 0;
    }
    failures.Count(kIndexCheckPairs, bad,
                   "build " + std::to_string(i) + " vs the pool's answers");
    outcome.reset();
    progress("checks " + std::to_string(i));

    // Batched queries from both backends, in alternating order.
    {
      SpanScope span(tracer, "pll.ServableIndex.Load.mmap");
      const double t = Seconds();
      mmap.emplace(
          pll::ServableIndex::Load(index_path, pll::StoreBackend::kMmap));
      mmap_load_s.push_back(Seconds() - t);
    }
    query::QueryEngine mmap_engine(mmap->source, mmap->order,
                                   {.threads = kBatchThreads});
    std::size_t answered = 0;
    BatchPass(heap_engine, pool, out, args.seconds * kWarmupShare, &answered);
    BatchPass(mmap_engine, pool, out, args.seconds * kWarmupShare, &answered);
    for (const bool use_mmap : {i % 2 == 1, i % 2 == 0}) {
      SpanScope span(tracer, use_mmap ? "query.QueryBatch.mmap"
                                      : "query.QueryBatch.heap");
      const double mqps =
          BatchPass(use_mmap ? mmap_engine : heap_engine, pool, out,
                    args.seconds * kBatchPassShare, &answered);
      (use_mmap ? mmap_mqps : heap_mqps).push_back(mqps);
      failures.Count(answered, CountMismatches(out, expected, answered),
                     use_mmap ? "mmap batch answers" : "heap batch answers");
    }
    progress("batch " + std::to_string(i));

    // Served requests at the two fixed rates, interleaved.
    phase("w" + std::to_string(i), args.nominal_rps,
          args.seconds * kWarmupShare, kFixedDrainSeconds, false);
    for (int k = 0; k < 2 * fixed_phases; ++k) {
      const bool is_high = k % 2 == 1;
      auto& results = is_high ? high : nominal;
      const std::string prefix =
          (is_high ? "h" : "n") + std::to_string(results.size());
      pb::OpenLoopResult r =
          phase(prefix, is_high ? args.high_rps : args.nominal_rps,
                fixed_seconds / fixed_phases, kFixedDrainSeconds, true);
      failures.Count(r.scheduled, r.Failed(),
                     "served requests in phase " + prefix);
      results.push_back(std::move(r));
    }
    if (args.trace) {
      const std::vector<serve::RequestRecord> ring =
          server->RequestLogRef().RingSnapshot();
      request_log.insert(request_log.end(), ring.begin(), ring.end());
    }
    progress("fixed rates " + std::to_string(i));
    ladder_knees.push_back(search_ladder(std::span(high).last(fixed_phases)));
    progress("ladder " + std::to_string(i));
  }

  // The p99s are lower quartiles over the short interleaved phases at a
  // rate: host stalls that spoil up to three phases in four leave them
  // clean. The p50 pools every request at the nominal rate instead:
  // stalls barely touch it, and phases alternate between two host speeds
  // that a quantile over phases would pick from while the pool weighs
  // them by time.
  bool supported = true;
  auto p99_over = [&](const std::vector<pb::OpenLoopResult>& results) {
    std::vector<double> values;
    for (const auto& r : results) {
      const pb::LatencySummary s = summarize(r);
      supported = supported && s.p99_supported;
      values.push_back(s.p99);
    }
    return pb::Percentile(values, kPhaseP99Quantile);
  };
  std::vector<double> nominal_latencies;
  std::uint64_t nominal_failed = 0;
  for (const auto& r : nominal) {
    nominal_latencies.insert(nominal_latencies.end(), r.latency_ms.begin(),
                             r.latency_ms.end());
    nominal_failed += r.Failed();
  }
  const double nominal_p50 =
      pb::Summarize(std::move(nominal_latencies), nominal_failed).p50;
  const double nominal_p99 = p99_over(nominal);
  const double high_p99 = p99_over(high);
  if (!supported) {
    failures.Count(1, 1, "too few served requests for a p99");
  }

  // A ladder miss is a measured outcome, not a failed operation.
  const double rps_at_slo = pb::Median(ladder_knees);
  if (rps_at_slo <= 0.0) {
    failures.notes.push_back("no ladder step met the SLO");
  }
  for (const std::string& line : phase_log) {
    std::printf("phase %s\n", line.c_str());
  }

  // ---- per-layer query, storage and codec numbers (traced runs only) ----
  MetricSet layer;
  if (args.trace) {
    progress("layers");
    const std::vector<graph::VertexId> rank_of =
        pll::InvertOrder(heap->order);
    const pll::LabelSource& source = *heap->source;
    std::uint64_t scanned = 0;
    {
      SpanScope span(tracer, "pll.QuerySentinelCounted");
      for (const QueryPair& pair : pool) {
        const Distance d = pll::QuerySentinelCounted(
            source.RowBegin(rank_of[pair.first]),
            source.RowBegin(rank_of[pair.second]), scanned);
        (void)d;
      }
    }
    const double entries_per_pair =
        static_cast<double>(scanned) / static_cast<double>(pool.size());
    layer.Set("query.entries_per_pair", entries_per_pair, "entries");

    query::QueryEngine single(heap->source, heap->order, {.threads = 1});
    std::size_t answered = 0;
    double single_mqps = 0.0;
    {
      SpanScope span(tracer, "query.QueryBatch.heap.1thread");
      single_mqps = BatchPass(single, pool, out,
                              args.seconds * kBatchPassShare, &answered);
    }
    failures.Count(answered, CountMismatches(out, expected, answered),
                   "1-thread batch answers");
    layer.Set("query.merge_ns_per_entry",
              1e3 / single_mqps / entries_per_pair, "ns");
    layer.Set("query.scaling",
              pb::Median(heap_mqps) / (kBatchThreads * single_mqps), "ratio");

    for (const bool is_mmap : {false, true}) {
      const pll::LabelSource& src = *(is_mmap ? mmap : heap)->source;
      util::Rng fetch_rng(args.seed);
      std::vector<graph::VertexId> ranks(kRowFetches);
      for (graph::VertexId& r : ranks) {
        r = static_cast<graph::VertexId>(fetch_rng.Below(src.NumVertices()));
      }
      // Every row holds at least its own vertex, so a sentinel first
      // entry is a broken row; counting them keeps the loads observable.
      std::uint64_t empty = 0;
      for (graph::VertexId r : ranks) {  // warm the rows
        empty += src.RowBegin(r)->hub == graph::kInvalidVertex ? 1 : 0;
      }
      SpanScope span(tracer, is_mmap ? "pll.LabelSource.RowBegin.mmap"
                                     : "pll.LabelSource.RowBegin.heap");
      const double t = Seconds();
      for (graph::VertexId r : ranks) {
        empty += src.RowBegin(r)->hub == graph::kInvalidVertex ? 1 : 0;
      }
      const double ns =
          (Seconds() - t) * 1e9 / static_cast<double>(kRowFetches);
      layer.Set(is_mmap ? "store.row_fetch_ns.mmap" : "store.row_fetch_ns.heap",
                ns, "ns");
      failures.Count(2 * kRowFetches, empty,
                     is_mmap ? "mmap row fetches" : "heap row fetches");
    }

    const std::size_t per = args.pairs_per_request;
    std::size_t codec_pairs = 0;
    {
      SpanScope span(tracer, "serve.codec.request");
      const double t = Seconds();
      for (int k = 0; k < kCodecIters; ++k) {
        const std::string frame = serve::EncodeDistanceRequest(
            std::span(pool).first(per), "n0-1234567");
        codec_pairs += serve::DecodeRequestPayload(
                           std::string_view(frame).substr(4)).pairs.size();
      }
      layer.Set("serve.codec_ns.request", (Seconds() - t) * 1e9 / kCodecIters,
                "ns");
    }
    {
      SpanScope span(tracer, "serve.codec.response");
      const double t = Seconds();
      for (int k = 0; k < kCodecIters; ++k) {
        const std::string frame = serve::EncodeOkResponse(
            std::span(expected).first(per), "n0-1234567");
        codec_pairs += serve::DecodeResponsePayload(
                           std::string_view(frame).substr(4)).distances.size();
      }
      layer.Set("serve.codec_ns.response",
                (Seconds() - t) * 1e9 / kCodecIters, "ns");
    }
    if (codec_pairs != 2 * per * kCodecIters) {
      failures.Count(1, 1, "codec round trip");
    }
  }

  const serve::ServeStats serve_stats = server->Stats();
  server->Stop();
  server.reset();
  progress("done");

  // ---- end-to-end metrics ----------------------------------------------
  auto median_of = [&setups](double SetupSample::*field) {
    std::vector<double> values;
    for (const SetupSample& s : setups) {
      values.push_back(s.*field);
    }
    return pb::Median(values);
  };
  MetricSet e2e;
  e2e.Set("setup_s", median_of(&SetupSample::setup_s), "s");
  e2e.Set("build_s", median_of(&SetupSample::build_s), "s");
  e2e.Set("labels_per_vertex", median_of(&SetupSample::labels_per_vertex),
          "entries");
  e2e.Set("index_mb", median_of(&SetupSample::index_mb), "MB");
  e2e.Set("batch_mqps", pb::Median(heap_mqps), "Mpairs/s");
  e2e.Set("batch_mqps.mmap", pb::Median(mmap_mqps), "Mpairs/s");
  e2e.Set("serve_p50_ms", nominal_p50, "ms");
  e2e.Set("serve_p99_ms", nominal_p99, "ms");
  e2e.Set("serve_rps_at_slo", rps_at_slo, "req/s");

  // ---- per-layer metrics from spans and program counters ---------------
  if (args.trace) {
    const auto self = pb::SelfSecondsByName(tracer.Spans());
    auto self_median = [&self](const std::string& name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : pb::Median(it->second);
    };
    layer.Set("graph.read_s", self_median("graph.ReadEdgeListTextFile"), "s");
    layer.Set("order.s", median_of(&SetupSample::order_s), "s");
    std::vector<double> roots;
    for (const SetupSample& s : setups) {
      roots.push_back(s.build_s - s.order_s);
    }
    layer.Set("build.roots_s", pb::Median(roots), "s");
    auto counter = [&setups](const std::string& name) {
      std::vector<double> values;
      for (const SetupSample& s : setups) {
        values.push_back(s.counters.at(name));
      }
      return pb::Median(values);
    };
    auto ratio = [&setups](const std::string& num, const std::string& den) {
      std::vector<double> values;
      for (const SetupSample& s : setups) {
        values.push_back(s.counters.at(num) /
                         std::max(1.0, s.counters.at(den)));
      }
      return pb::Median(values);
    };
    layer.Set("build.heap_pops", counter("pll.heap_pops"), "count");
    layer.Set("build.relaxations", counter("pll.relaxations"), "count");
    layer.Set("build.probe_entries", counter("pll.probe_entries"), "count");
    layer.Set("build.prune_hits", counter("pll.prune_hits"), "count");
    layer.Set("build.labels_added", counter("pll.labels_added"), "count");
    layer.Set("build.prune_ratio", ratio("pll.prune_hits", "pll.heap_pops"),
              "ratio");
    layer.Set("build.probe_entries_per_pop",
              ratio("pll.probe_entries", "pll.heap_pops"), "entries");
    layer.Set("build.utilization", median_of(&SetupSample::utilization),
              "ratio");
    layer.Set("build.peak_rss_mb", peak_rss_mb, "MB");
    layer.Set("build.lock_contended_ratio",
              ratio("store.lock_contended", "store.lock_acquired"), "ratio");
    layer.Set("store.save_s", self_median("build.IndexArtifact.Save"), "s");
    layer.Set("store.load_s.heap", self_median("pll.ServableIndex.Load.heap"),
              "s");
    layer.Set("store.load_s.mmap", pb::Median(mmap_load_s), "s");

    // Join every answered fixed-rate request to the daemon's request-log
    // record with the same wire trace id; the sampled request spans get
    // the daemon's view as child spans.
    const auto log = IndexRequestLog(request_log);
    auto record_of = [&log](const std::string& prefix,
                            std::size_t k) -> const LogRecord* {
      const auto it = log.find(prefix);
      if (it == log.end() || k >= it->second.size() ||
          !it->second[k].present) {
        return nullptr;
      }
      return &it->second[k];
    };
    std::vector<double> client_ms;
    std::vector<double> server_ms;
    std::vector<double> batch_ms;
    std::vector<double> late_ms;
    std::vector<double> queue_ms;
    std::map<std::uint64_t, std::uint64_t> pairs_by_batch;
    for (const bool is_high : {false, true}) {
      const auto& results = is_high ? high : nominal;
      for (std::size_t p = 0; p < results.size(); ++p) {
        const std::string prefix = (is_high ? "h" : "n") + std::to_string(p);
        const auto& requests = results[p].requests;
        for (std::size_t k = 0; k < requests.size(); ++k) {
          const LogRecord* rec = record_of(prefix, k);
          if (!requests[k].ok || rec == nullptr) {
            continue;
          }
          if (is_high) {
            queue_ms.push_back(static_cast<double>(rec->queue_wait_ns) * 1e-6);
            pairs_by_batch[rec->batch] += rec->pairs;
          } else {
            client_ms.push_back(
                static_cast<double>(requests[k].done_ns - requests[k].due_ns) *
                1e-6);
            server_ms.push_back(static_cast<double>(rec->latency_ns) * 1e-6);
            batch_ms.push_back(static_cast<double>(rec->batch_ns) * 1e-6);
          }
        }
        if (!is_high) {
          late_ms.insert(late_ms.end(), results[p].late_ms.begin(),
                         results[p].late_ms.end());
        }
      }
    }
    if (client_ms.empty() || queue_ms.empty()) {
      failures.Count(1, 1, "request log join");
    }
    std::vector<pb::Span> request_spans;
    for (const pb::Span& span : tracer.Spans()) {
      if (span.name == "serve.request") {
        request_spans.push_back(span);
      }
    }
    for (const pb::Span& span : request_spans) {
      const std::size_t dash = span.request.rfind('-');
      const LogRecord* rec = record_of(
          span.request.substr(0, dash), std::stoull(span.request.substr(dash + 1)));
      if (rec == nullptr) {
        continue;
      }
      const std::uint64_t server_span =
          tracer.Add("serve.server", rec->mono_ns,
                     rec->mono_ns + rec->latency_ns, span.id, span.request);
      tracer.Add("serve.batch", rec->mono_ns + rec->queue_wait_ns,
                 rec->mono_ns + rec->queue_wait_ns + rec->batch_ns,
                 server_span, span.request);
    }
    const double server_p50 = pb::Percentile(server_ms, 0.5);
    layer.Set("serve.server_p50_ms", server_p50, "ms");
    layer.Set("serve.server_p99_ms", pb::Percentile(server_ms, 0.99), "ms");
    layer.Set("serve.batch_p99_ms", pb::Percentile(batch_ms, 0.99), "ms");
    layer.Set("serve.queue_wait_p99_ms", pb::Percentile(queue_ms, 0.99), "ms");
    layer.Set("serve.p99_ms.hi", high_p99, "ms");
    double batch_pairs = 0.0;
    for (const auto& [batch, pairs] : pairs_by_batch) {
      batch_pairs += static_cast<double>(pairs);
    }
    layer.Set("serve.pairs_per_batch",
              batch_pairs / std::max<double>(1.0, pairs_by_batch.size()),
              "pairs");
    layer.Set("serve.wire_share",
              1.0 - server_p50 / pb::Percentile(client_ms, 0.5), "ratio");
    layer.Set("serve.gen_late_p99_ms", pb::Percentile(late_ms, 0.99), "ms");
    tracer.Write(args.work_dir + "/spans.jsonl");
  }

  // ---- result ------------------------------------------------------------
  std::ofstream out_file(args.out);
  util::JsonWriter w(out_file);
  char fp[32];
  std::snprintf(fp, sizeof(fp), "0x%016llx",
                static_cast<unsigned long long>(fingerprint));
  w.BeginObject()
      .Key("workload").Value(args.workload)
      .Key("seed").Value(args.seed)
      .Key("nproc").Value(static_cast<std::int64_t>(nproc))
      .Key("build_type").Value(build_type)
      .Key("n").Value(static_cast<std::uint64_t>(g.NumVertices()))
      .Key("m").Value(static_cast<std::uint64_t>(g.NumEdges()))
      .Key("fingerprint").Value(fp)
      .Key("traced").Value(args.trace)
      .Key("correct").Value(failures.failed == 0)
      .Key("attempted").Value(failures.attempted)
      .Key("failed").Value(failures.failed)
      .Key("failed_share")
      .Value(pb::FailedShare(failures.attempted, failures.failed))
      .Key("served_requests").Value(serve_stats.requests)
      .Key("metrics");
  e2e.Write(w);
  w.Key("per_layer");
  layer.Write(w);
  w.Key("phases").BeginArray();
  for (const std::string& line : phase_log) {
    w.Value(line);
  }
  w.EndArray();
  w.Key("notes").BeginArray();
  for (const std::string& note : failures.notes) {
    w.Value(note);
  }
  w.EndArray().EndObject();
  out_file << '\n';
  if (!out_file) {
    throw std::runtime_error("cannot write " + args.out);
  }
  std::filesystem::remove(index_path);
  std::filesystem::remove(graph_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
