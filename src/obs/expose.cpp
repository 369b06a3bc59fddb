#include "obs/expose.hpp"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/net.hpp"  // defines PARAPLL_HAVE_SOCKETS where sockets exist

#ifdef PARAPLL_HAVE_SOCKETS
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace parapll::obs {

namespace {
// Process-wide health identity behind its own mutex (leaked, like every
// obs singleton, so shutdown-order races cannot touch a dead object).
struct HealthInfoHolder {
  util::Mutex mutex;
  HealthInfo info GUARDED_BY(mutex);
};

HealthInfoHolder& HealthHolder() {
  static HealthInfoHolder* holder = new HealthInfoHolder();
  return *holder;
}
}  // namespace

void SetProcessHealthInfo(const HealthInfo& info) {
  HealthInfoHolder& holder = HealthHolder();
  util::MutexLock lock(holder.mutex);
  holder.info = info;
}

HealthInfo GetProcessHealthInfo() {
  HealthInfoHolder& holder = HealthHolder();
  util::MutexLock lock(holder.mutex);
  return holder.info;
}

namespace {
// Provider hooks the serving daemon registers at Start() and clears at
// Stop(). Leaked holders, same shutdown-order rationale as HealthHolder.
struct ProviderHolder {
  util::Mutex mutex;
  std::function<ServeStatus()> serve_status GUARDED_BY(mutex);
  std::function<std::string()> debug_requests GUARDED_BY(mutex);
};

ProviderHolder& Providers() {
  static ProviderHolder* holder = new ProviderHolder();
  return *holder;
}

// Copies the hook out under the lock, then invokes it unlocked so a
// provider that blocks (or re-enters obs) never holds the holder mutex.
ServeStatus CurrentServeStatus() {
  std::function<ServeStatus()> provider;
  {
    ProviderHolder& holder = Providers();
    util::MutexLock lock(holder.mutex);
    provider = holder.serve_status;
  }
  return provider ? provider() : ServeStatus{};
}

bool CurrentDebugRequests(std::string& body) {
  std::function<std::string()> provider;
  {
    ProviderHolder& holder = Providers();
    util::MutexLock lock(holder.mutex);
    provider = holder.debug_requests;
  }
  if (!provider) {
    return false;
  }
  body = provider();
  return true;
}
}  // namespace

void SetServeStatusProvider(std::function<ServeStatus()> provider) {
  ProviderHolder& holder = Providers();
  util::MutexLock lock(holder.mutex);
  holder.serve_status = std::move(provider);
}

void SetDebugRequestsProvider(std::function<std::string()> provider) {
  ProviderHolder& holder = Providers();
  util::MutexLock lock(holder.mutex);
  holder.debug_requests = std::move(provider);
}

std::string PrometheusMetricName(std::string_view name) {
  std::string out = "parapll_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

namespace {

void WriteDouble(std::ostream& out, double v) {
  // Prometheus accepts plain decimal or scientific notation; default
  // ostream formatting of a double is both.
  std::ostringstream tmp;
  tmp << v;
  out << tmp.str();
}

void RenderHistogram(std::ostream& out, const std::string& pname,
                     const HistogramSnapshot& snap) {
  out << "# TYPE " << pname << " histogram\n";
  // Bucket b holds [2^(b-1), 2^b) (b=0 holds exactly 0); samples are
  // integers, so the inclusive Prometheus upper bound of bucket b is
  // 2^b - 1. Cumulate up to the highest non-empty bucket, then +Inf.
  std::size_t highest = 0;
  for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    if (snap.buckets[b] != 0) {
      highest = b;
    }
  }
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b <= highest; ++b) {
    cumulative += snap.buckets[b];
    const std::uint64_t le =
        b == 0 ? 0 : (std::uint64_t{1} << (b - 1)) * 2 - 1;
    out << pname << "_bucket{le=\"" << le << "\"} " << cumulative;
    // OpenMetrics exemplar: the last sample that landed in this bucket
    // and the request context that produced it, joinable against the
    // request log and profiler contexts on the same id.
    const HistogramExemplar& exemplar = snap.exemplars[b];
    if (exemplar.valid && exemplar.request_id != 0) {
      out << " # {request_id=\"" << ContextIdToString(exemplar.request_id)
          << "\"} " << exemplar.value;
    }
    out << "\n";
  }
  out << pname << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
  out << pname << "_sum " << snap.sum << "\n";
  out << pname << "_count " << snap.count << "\n";
  // Interpolated quantiles as companion gauges (log2-bucket estimates,
  // exact to within the landing bucket — see HistogramSnapshot::Quantile).
  const std::pair<const char*, double> quantiles[] = {
      {"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99}};
  for (const auto& [suffix, q] : quantiles) {
    out << "# TYPE " << pname << suffix << " gauge\n";
    out << pname << suffix << " ";
    WriteDouble(out, snap.Quantile(q));
    out << "\n";
  }
}

}  // namespace

void RenderPrometheusText(const RegistrySnapshot& snapshot,
                          std::ostream& out) {
  for (const auto& [name, value] : snapshot.counters) {
    const std::string pname = PrometheusMetricName(name);
    out << "# TYPE " << pname << " counter\n";
    out << pname << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string pname = PrometheusMetricName(name);
    out << "# TYPE " << pname << " gauge\n";
    out << pname << " ";
    WriteDouble(out, value);
    out << "\n";
  }
  for (const auto& [name, snap] : snapshot.histograms) {
    RenderHistogram(out, PrometheusMetricName(name), snap);
  }
}

std::string RenderPrometheusText(const RegistrySnapshot& snapshot) {
  std::ostringstream out;
  RenderPrometheusText(snapshot, out);
  return out.str();
}

StatsServer::StatsServer(StatsServerOptions options) : options_(options) {}

StatsServer::~StatsServer() { Stop(); }

#ifdef PARAPLL_HAVE_SOCKETS

void StatsServer::Start() {
  util::MutexLock lock(mutex_);
  // acquire: pairs with the release in a finished Start() (see below);
  // the lifecycle mutex already serializes concurrent Start/Stop.
  if (running_.load(std::memory_order_acquire)) {
    return;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("stats server: socket() failed");
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("stats server: cannot bind 127.0.0.1:" +
                             std::to_string(options_.port));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    // Without the resolved port an ephemeral-port server is unreachable;
    // fail Start() cleanly rather than reporting port 0 / garbage.
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("stats server: getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  start_ns_ = TraceNowNs();
  // release: publishes port_/start_ns_ to threads that observe
  // Running() == true via the acquire load.
  running_.store(true, std::memory_order_release);
  worker_ = std::thread([this, fd = listen_fd_] { Serve(fd); });
}

void StatsServer::Stop() {
  // acq_rel: exactly one concurrent Stop() wins the exchange (the rest
  // see false and return), and the winner's subsequent teardown happens
  // after every write the starting thread published.
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  // Take the worker handle and fd under the lifecycle lock, then join and
  // close outside it: the accept loop polls with a timeout and re-checks
  // running_, so it exits within one poll interval.
  std::thread worker;
  int fd = -1;
  {
    util::MutexLock lock(mutex_);
    worker = std::move(worker_);
    fd = listen_fd_;
    listen_fd_ = -1;
  }
  if (worker.joinable()) {
    worker.join();
  }
  if (fd >= 0) {
    ::close(fd);
  }
}

void StatsServer::Serve(int listen_fd) {
  // acquire: sees the stores published by Start(); a stale false only
  // delays shutdown by one 50 ms poll interval.
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) {
      continue;  // timeout or EINTR: re-check running_
    }
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      continue;
    }
    Handle(client);
    ::close(client);
  }
}

void StatsServer::Handle(int client_fd) {
  // Read the request head (we only need the request line). EINTR is
  // routine here — the SIGPROF profiler interrupts poll/recv/send at
  // sample rate — so the util::net helpers retry it; only timeouts,
  // real errors, and orderly shutdown drop the client.
  constexpr std::size_t kMaxRequestLineBytes = 16 * 1024;
  std::string request;
  char buf[2048];
  bool have_line = false;
  while (!have_line) {
    pollfd pfd{client_fd, POLLIN, 0};
    if (util::PollRetry(&pfd, 1, /*timeout_ms=*/500) <= 0) {
      return;  // genuinely slow or dead client: drop it
    }
    const ssize_t n = util::RecvRetry(client_fd, buf, sizeof(buf));
    if (n <= 0) {
      return;
    }
    request.append(buf, static_cast<std::size_t>(n));
    have_line = request.find("\r\n") != std::string::npos;
    if (!have_line && request.size() > kMaxRequestLineBytes) {
      break;  // unterminated request line: answer 400 below, never parse
    }
  }

  std::string method;
  std::string path;
  std::string query;
  if (have_line) {
    std::istringstream line(request.substr(0, request.find("\r\n")));
    line >> method >> path;
    const std::size_t question = path.find('?');
    if (question != std::string::npos) {
      query = path.substr(question + 1);
      path = path.substr(0, question);
    }
  }

  std::string body;
  std::string status = "200 OK";
  std::string content_type = "text/plain; charset=utf-8";
  if (!have_line) {
    status = "400 Bad Request";
    body = "request line exceeds 16 KiB without CRLF\n";
  } else if (method != "GET") {
    status = "405 Method Not Allowed";
    body = "only GET is supported\n";
  } else if (path == "/metrics") {
    ProbeRegistry::Global().Collect();
    body = RenderPrometheusText(Registry::Global().Snapshot());
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/healthz" || path == "/") {
    const HealthInfo health = GetProcessHealthInfo();
    std::ostringstream out;
    util::JsonWriter w(out);
    w.BeginObject();
    w.Key("status").Value("ok");
    w.Key("version").Value(kParaPllVersion);
    w.Key("uptime_seconds")
        .Value(static_cast<double>(TraceNowNs() - start_ns_) / 1e9);
    if (options_.sampler != nullptr) {
      w.Key("telemetry_samples").Value(options_.sampler->TotalSamples());
    }
    const ServeStatus serve = CurrentServeStatus();
    if (serve.valid) {
      w.Key("serve").BeginObject();
      w.Key("queue_depth_pairs").Value(serve.queue_depth_pairs);
      w.Key("shed").Value(serve.shed);
      w.Key("snapshot_age_seconds").Value(serve.snapshot_age_seconds);
      w.EndObject();
    }
    if (health.index_mode.empty()) {
      w.Key("index").Value("none");
    } else {
      w.Key("index").BeginObject();
      w.Key("fingerprint").Value(health.index_fingerprint);
      w.Key("format_version")
          .Value(static_cast<std::uint64_t>(health.index_format_version));
      w.Key("mode").Value(health.index_mode);
      w.Key("num_vertices").Value(health.num_vertices);
      w.Key("roots_completed").Value(health.roots_completed);
      w.EndObject();
    }
    w.EndObject();
    out << '\n';
    body = out.str();
    content_type = "application/json; charset=utf-8";
  } else if (path == "/debug/requests") {
    if (CurrentDebugRequests(body)) {
      content_type = "application/json; charset=utf-8";
    } else {
      status = "404 Not Found";
      body = "no serving daemon registered a request log in this process\n";
    }
  } else if (path == "/debug/profile") {
    HandleDebugProfile(query, status, content_type, body);
  } else {
    status = "404 Not Found";
    body = "try /metrics, /healthz, /debug/requests or /debug/profile\n";
  }

  std::ostringstream response;
  response << "HTTP/1.1 " << status << "\r\n"
           << "Content-Type: " << content_type << "\r\n"
           << "Content-Length: " << body.size() << "\r\n"
           << "Connection: close\r\n\r\n"
           << body;
  // SendAll retries EINTR and short writes; a dead peer just ends the
  // exchange (the connection is closed by the caller either way).
  (void)util::SendAll(client_fd, response.str());
}

void StatsServer::HandleDebugProfile(const std::string& query,
                                     std::string& status,
                                     std::string& content_type,
                                     std::string& body) {
  if (!Profiler::Supported()) {
    status = "501 Not Implemented";
    body = "profiler unsupported on this platform\n";
    return;
  }
  // Parse "?seconds=N" and "&format=json" from the raw query string.
  std::uint64_t seconds = 5;
  bool json = false;
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string::npos) {
      end = query.size();
    }
    const std::string param = query.substr(pos, end - pos);
    if (param.rfind("seconds=", 0) == 0) {
      seconds = std::strtoull(param.c_str() + 8, nullptr, 10);
    } else if (param == "format=json") {
      json = true;
    }
    pos = end + 1;
  }
  if (seconds == 0) {
    seconds = 1;
  }
  if (seconds > 60) {
    seconds = 60;
  }
  Profiler& profiler = Profiler::Global();
  try {
    profiler.Start();
  } catch (const std::exception& e) {
    // Start() throws when a capture is already running (ours or the
    // CLI's) — the caller should retry later, not stack captures.
    status = "409 Conflict";
    body = std::string("profiler busy: ") + e.what() + "\n";
    return;
  }
  // Sleep out the capture window in short slices, bailing out early if
  // the server is being stopped so Stop() joins promptly.
  const std::uint64_t deadline_ns = TraceNowNs() + seconds * 1'000'000'000ULL;
  // acquire: same pairing as Running(); a stale true only costs one more
  // 50 ms slice.
  while (running_.load(std::memory_order_acquire) &&
         TraceNowNs() < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const ProfileReport report = profiler.Stop();
  std::ostringstream out;
  if (json) {
    report.WriteChromeJsonWithTrace(out);
    content_type = "application/json; charset=utf-8";
  } else {
    out << "# samples " << report.samples << " dropped " << report.dropped
        << " hz " << report.sample_hz << " duration_seconds "
        << report.duration_seconds << "\n";
    report.WriteCollapsed(out);
  }
  body = out.str();
}

#else  // !PARAPLL_HAVE_SOCKETS

void StatsServer::Start() {
  throw std::runtime_error("stats server: no socket support on this platform");
}
void StatsServer::Stop() {}
void StatsServer::Serve(int) {}
void StatsServer::Handle(int) {}
void StatsServer::HandleDebugProfile(const std::string&, std::string&,
                                     std::string&, std::string&) {}

#endif  // PARAPLL_HAVE_SOCKETS

}  // namespace parapll::obs
