#include "serve/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "util/net.hpp"  // defines PARAPLL_HAVE_SOCKETS where sockets exist

#ifdef PARAPLL_HAVE_SOCKETS
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace parapll::serve {

#ifdef PARAPLL_HAVE_SOCKETS

void ServeClient::Connect(std::uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("serve client: socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    throw std::runtime_error("serve client: cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Response ServeClient::Call(const std::string& frame) {
  if (fd_ < 0) {
    throw std::runtime_error("serve client: not connected");
  }
  if (!util::SendAll(fd_, frame)) {
    Close();
    throw std::runtime_error("serve client: send failed");
  }
  std::string payload;
  char buf[64 * 1024];
  while (!reader_.Next(payload)) {
    const ssize_t n = util::RecvRetry(fd_, buf, sizeof(buf));
    if (n <= 0) {
      Close();
      throw std::runtime_error("serve client: connection closed mid-response");
    }
    reader_.Append(buf, static_cast<std::size_t>(n));
  }
  return DecodeResponsePayload(payload);
}

Response ServeClient::Distance(std::span<const query::QueryPair> pairs,
                               std::string_view trace_id) {
  return Call(EncodeDistanceRequest(pairs, trace_id));
}

ServerInfo ServeClient::Info() {
  const Response response = Call(EncodeInfoRequest());
  if (response.status != ResponseStatus::kInfo) {
    throw std::runtime_error("serve client: INFO answered with status " +
                             std::to_string(static_cast<int>(response.status)));
  }
  return response.info;
}

namespace {

// Per-worker tallies, merged after join (no locking needed).
struct WorkerResult {
  std::uint64_t answered = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t pairs = 0;
  std::vector<std::uint64_t> latencies_ns;
};

std::vector<query::QueryPair> RandomPairs(util::Rng& rng, std::size_t count,
                                          std::uint32_t max_vertex) {
  std::vector<query::QueryPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<graph::VertexId>(rng.Below(max_vertex)),
                       static_cast<graph::VertexId>(rng.Below(max_vertex)));
  }
  return pairs;
}

// Sends one request and records its latency from `begin_ns`: the send
// time in the closed loop, the request's due time in the open loop.
void OneRequest(ServeClient& client,
                std::span<const query::QueryPair> pairs,
                std::string_view trace_id, std::uint64_t begin_ns,
                WorkerResult& result) {
  try {
    const Response response = client.Distance(pairs, trace_id);
    result.latencies_ns.push_back(obs::TraceNowNs() - begin_ns);
    // The daemon echoes the trace id on every response (OK and SHED);
    // a mismatch means request/response framing skewed — treat it as a
    // protocol error, not a served request.
    if (!trace_id.empty() && response.trace_id != trace_id) {
      ++result.errors;
      return;
    }
    switch (response.status) {
      case ResponseStatus::kOk:
        ++result.answered;
        result.pairs += response.distances.size();
        break;
      case ResponseStatus::kShed:
        ++result.shed;
        break;
      default:
        ++result.errors;
        break;
    }
  } catch (const std::exception&) {
    ++result.errors;
  }
}

std::string TraceIdFor(const LoadGenOptions& options, std::size_t worker,
                       std::size_t request) {
  if (options.trace_prefix.empty()) {
    return {};
  }
  return options.trace_prefix + "-w" + std::to_string(worker) + "-r" +
         std::to_string(request);
}

std::uint64_t Percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

LoadGenReport RunLoadGen(const LoadGenOptions& options) {
  if (options.max_vertex == 0) {
    throw std::invalid_argument("loadgen: max_vertex must be > 0");
  }
  if (options.connections == 0) {
    throw std::invalid_argument("loadgen: need at least one connection");
  }
  const std::size_t workers = options.connections;
  std::vector<WorkerResult> results(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  const std::uint64_t start_ns = obs::TraceNowNs();
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&options, &results, w, start_ns] {
      WorkerResult& result = results[w];
      ServeClient client;
      try {
        client.Connect(options.port);
      } catch (const std::exception&) {
        ++result.errors;
        return;
      }
      util::Rng rng(options.seed ^ (0x5e51e7ULL + w));
      if (options.open_loop_qps <= 0.0) {
        // Closed loop: back-to-back requests measure capacity.
        for (std::size_t r = 0;
             r < options.requests_per_connection && client.Connected(); ++r) {
          const auto pairs = RandomPairs(rng, options.pairs_per_request,
                                         options.max_vertex);
          OneRequest(client, pairs, TraceIdFor(options, w, r),
                     obs::TraceNowNs(), result);
        }
        return;
      }
      // Open loop: request k (of this worker) is due at the absolute
      // time start + (w + k * connections) / qps, independent of how long
      // the previous one took, and its latency counts from that due time.
      // A request held back behind a stalled one therefore reports the
      // wait too (no coordinated omission): late responses inflate the
      // percentiles instead of silently thinning the offered load.
      const double interval_ns = 1e9 / options.open_loop_qps;
      const auto duration_ns =
          static_cast<std::uint64_t>(options.duration_seconds * 1e9);
      for (std::size_t k = 0; client.Connected(); ++k) {
        const auto offset_ns = static_cast<std::uint64_t>(
            static_cast<double>(w + k * options.connections) * interval_ns);
        if (offset_ns >= duration_ns) {
          return;
        }
        const std::uint64_t target_ns = start_ns + offset_ns;
        const std::uint64_t now_ns = obs::TraceNowNs();
        if (target_ns > now_ns) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(target_ns - now_ns));
        }
        const auto pairs = RandomPairs(rng, options.pairs_per_request,
                                       options.max_vertex);
        OneRequest(client, pairs, TraceIdFor(options, w, k), target_ns,
                   result);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double seconds =
      static_cast<double>(obs::TraceNowNs() - start_ns) / 1e9;

  LoadGenReport report;
  std::vector<std::uint64_t> latencies;
  for (const WorkerResult& result : results) {
    report.answered += result.answered;
    report.shed += result.shed;
    report.errors += result.errors;
    report.pairs += result.pairs;
    latencies.insert(latencies.end(), result.latencies_ns.begin(),
                     result.latencies_ns.end());
  }
  std::sort(latencies.begin(), latencies.end());
  report.seconds = seconds;
  report.qps = seconds > 0.0
                   ? static_cast<double>(report.answered + report.shed) /
                         seconds
                   : 0.0;
  report.p50_ns = Percentile(latencies, 0.50);
  report.p99_ns = Percentile(latencies, 0.99);
  report.p999_ns = Percentile(latencies, 0.999);
  return report;
}

#else  // !PARAPLL_HAVE_SOCKETS

void ServeClient::Connect(std::uint16_t) {
  throw std::runtime_error("serve client: no socket support");
}
void ServeClient::Close() {}
Response ServeClient::Call(const std::string&) {
  throw std::runtime_error("serve client: no socket support");
}
Response ServeClient::Distance(std::span<const query::QueryPair>,
                               std::string_view) {
  throw std::runtime_error("serve client: no socket support");
}
ServerInfo ServeClient::Info() {
  throw std::runtime_error("serve client: no socket support");
}
LoadGenReport RunLoadGen(const LoadGenOptions&) {
  throw std::runtime_error("loadgen: no socket support");
}

#endif  // PARAPLL_HAVE_SOCKETS

std::string LoadGenReport::ToString() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "requests:   %llu answered, %llu shed, %llu errors "
                "(shed rate %.2f%%)\n",
                static_cast<unsigned long long>(answered),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(errors), ShedRate() * 100.0);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "throughput: %.1f req/s (%.0f pairs/s over %.2fs)\n", qps,
                seconds > 0.0 ? static_cast<double>(pairs) / seconds : 0.0,
                seconds);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "latency:    p50 %.1fus  p99 %.1fus  p999 %.1fus\n",
                static_cast<double>(p50_ns) / 1e3,
                static_cast<double>(p99_ns) / 1e3,
                static_cast<double>(p999_ns) / 1e3);
  out += buf;
  return out;
}

}  // namespace parapll::serve
