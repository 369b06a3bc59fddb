#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "util/net.hpp"  // defines PARAPLL_HAVE_SOCKETS where sockets exist

#ifdef PARAPLL_HAVE_SOCKETS
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "obs/expose.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace parapll::serve {

namespace {

// "server.*" metric handles, cached once (Registry handles live for the
// process). Schema documented in EXPERIMENTS.md.
struct ServerMetrics {
  obs::Counter& accepted =
      obs::Registry::Global().GetCounter("server.accepted");
  obs::Counter& requests =
      obs::Registry::Global().GetCounter("server.requests");
  obs::Counter& pairs = obs::Registry::Global().GetCounter("server.pairs");
  obs::Counter& shed = obs::Registry::Global().GetCounter("server.shed");
  obs::Counter& bad_requests =
      obs::Registry::Global().GetCounter("server.bad_requests");
  obs::Counter& idle_closed =
      obs::Registry::Global().GetCounter("server.idle_closed");
  obs::Counter& hot_swaps =
      obs::Registry::Global().GetCounter("server.hot_swaps");
  obs::Counter& reload_errors =
      obs::Registry::Global().GetCounter("server.reload_errors");
  obs::Counter& sends = obs::Registry::Global().GetCounter("server.sends");
  obs::Counter& read_paused =
      obs::Registry::Global().GetCounter("server.read_paused");
  obs::Gauge& max_unsent_bytes =
      obs::Registry::Global().GetGauge("server.max_unsent_bytes");
  obs::Gauge& connections =
      obs::Registry::Global().GetGauge("server.connections");
  obs::Gauge& queue_depth =
      obs::Registry::Global().GetGauge("server.queue_depth");
  obs::Histogram& request_latency =
      obs::Registry::Global().GetHistogram("server.request_latency_ns");
  obs::Histogram& queue_wait =
      obs::Registry::Global().GetHistogram("server.queue_wait_ns");
  // Per-cycle loop stages: recv+decode+admit, the engine batch, framing
  // the batch's answers, and the flush stage's sends.
  obs::Histogram& stage_read =
      obs::Registry::Global().GetHistogram("server.stage.read_ns");
  obs::Histogram& stage_batch =
      obs::Registry::Global().GetHistogram("server.stage.batch_ns");
  obs::Histogram& stage_encode =
      obs::Registry::Global().GetHistogram("server.stage.encode_ns");
  obs::Histogram& stage_flush =
      obs::Registry::Global().GetHistogram("server.stage.flush_ns");
};

ServerMetrics& Metrics() {
  static ServerMetrics metrics;
  return metrics;
}

}  // namespace

// Per-connection state, owned (and touched) by the event-loop thread only.
struct QueryServer::Connection {
  int fd = -1;
  std::uint64_t id = 0;  // accept sequence number, for the request log
  FrameReader reader{kMaxRequestPayload};
  // Write side: a cycle's answers are framed here and the cycle's flush
  // stage sends them in one Flush; what the socket does not take parks
  // until POLLOUT, so a slow reader never stalls the loop. Holds unsent
  // bytes only: Flush drops what the socket took.
  std::string outbuf;
  // Upper bound on the bytes of this connection's admitted answers that
  // the cycle's batch has not framed yet; zero outside a cycle.
  std::size_t owed_bytes = 0;
  // Answers reached kMaxUnsentBytes: no POLLIN, no decoding, until they
  // drain below it.
  bool read_paused = false;
  // Request-log records of the answers framed this cycle, committed just
  // before their send: a client never sees an answer whose record is not
  // yet in the log.
  std::vector<RequestRecord> held;
  std::uint64_t last_active_ns = 0;
  bool flush_due = false;  // new answers or POLLOUT this cycle
  bool closing = false;    // close as soon as outbuf drains
  bool dead = false;       // fd closed; reaped at end of the iteration
};

// One admitted DISTANCE_QUERY waiting for the next coalesced batch.
struct QueryServer::PendingRequest {
  Connection* conn = nullptr;
  std::uint64_t admitted_ns = 0;
  std::vector<query::QueryPair> pairs;
  std::string trace_id;  // sanitized wire id; never empty once admitted
  bool batched = false;  // passed validation and rides this cycle's batch
};

QueryServer::QueryServer(pll::Index index, ServeOptions options)
    : QueryServer(pll::ServableIndex::FromIndex(std::move(index)),
                  std::move(options)) {}

QueryServer::QueryServer(pll::ServableIndex servable, ServeOptions options)
    : options_(std::move(options)), request_log_(options_.request_log) {
  engine_options_.threads = std::max<std::size_t>(options_.engine_threads, 1);
  util::MutexLock lock(mutex_);
  served_ = std::make_shared<Served>(std::move(servable), engine_options_);
  served_->published_ns = obs::TraceNowNs();
}

QueryServer::~QueryServer() { Stop(); }

ServeStats QueryServer::Stats() const {
  ServeStats stats;
  stats.accepted = accepted_.load();
  stats.requests = requests_.load();
  stats.answered_pairs = answered_pairs_.load();
  stats.shed = shed_.load();
  stats.bad_requests = bad_requests_.load();
  stats.idle_closed = idle_closed_.load();
  stats.hot_swaps = hot_swaps_.load();
  stats.reload_errors = reload_errors_.load();
  stats.sends = sends_.load();
  stats.read_paused = read_paused_.load();
  stats.max_unsent_bytes = max_unsent_bytes_.load();
  return stats;
}

std::shared_ptr<QueryServer::Served> QueryServer::Snapshot() const {
  util::MutexLock lock(mutex_);
  return served_;
}

ServerInfo QueryServer::InfoSnapshot() const {
  const std::shared_ptr<Served> served = Snapshot();
  ServerInfo info;
  info.num_vertices = served->servable.NumVertices();
  info.fingerprint = served->servable.manifest.graph_fingerprint;
  info.hot_swaps = hot_swaps_.load();
  info.queued_pairs = queued_pairs_.load();
  info.shed = shed_.load();
  const std::uint64_t now_ns = obs::TraceNowNs();
  info.snapshot_age_ms = now_ns > served->published_ns
                             ? (now_ns - served->published_ns) / 1'000'000
                             : 0;
  return info;
}

#ifdef PARAPLL_HAVE_SOCKETS

void QueryServer::Start() {
  util::MutexLock lock(mutex_);
  // acquire: pairs with the release below; the lifecycle mutex already
  // serializes concurrent Start/Stop.
  if (running_.load(std::memory_order_acquire)) {
    return;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve: socket() failed");
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0 || !util::SetNonBlocking(listen_fd_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" +
                             std::to_string(options_.port));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  read_buf_.assign(std::size_t{64} * 1024, 0);
  if (!options_.watch_path.empty()) {
    // Baseline stamp: the constructor's index is treated as "what is on
    // disk now"; only a later republish triggers a swap.
    last_stamp_ = StampOf(options_.watch_path);
  }
  // Expose live saturation + the request-log ring through the process
  // StatsServer (if one is running): /healthz gains a "serve" section and
  // /debug/requests serves the wide-event ring. The hooks read atomics /
  // take the log's own lock, so any StatsServer thread may call them.
  obs::SetServeStatusProvider([this] {
    obs::ServeStatus status;
    status.valid = true;
    status.queue_depth_pairs = queued_pairs_.load();
    status.shed = shed_.load();
    const ServerInfo info = InfoSnapshot();
    status.snapshot_age_seconds =
        static_cast<double>(info.snapshot_age_ms) / 1'000.0;
    return status;
  });
  obs::SetDebugRequestsProvider([this] { return request_log_.RingJson(); });
  // release: publishes port_ to threads observing Running() == true.
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this, fd = listen_fd_] { EventLoop(fd); });
  if (!options_.watch_path.empty()) {
    watcher_ = std::thread([this] { Watch(); });
  }
}

void QueryServer::Stop() {
  // acq_rel: exactly one concurrent Stop() wins the exchange, and the
  // winner's teardown happens after everything Start() published.
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  // Unhook the StatsServer providers. The hooks only read atomics and
  // request_log_ (which live until ~QueryServer), so a scrape that copied
  // a hook just before this clear still runs safely; after the clear no
  // new scrape sees them.
  obs::SetServeStatusProvider(nullptr);
  obs::SetDebugRequestsProvider(nullptr);
  stop_cv_.NotifyAll();  // wake the watcher's poll sleep
  std::thread loop;
  std::thread watcher;
  int fd = -1;
  {
    util::MutexLock lock(mutex_);
    loop = std::move(loop_);
    watcher = std::move(watcher_);
    fd = listen_fd_;
    listen_fd_ = -1;
  }
  if (loop.joinable()) {
    loop.join();
  }
  if (watcher.joinable()) {
    watcher.join();
  }
  if (fd >= 0) {
    ::close(fd);
  }
}

void QueryServer::CloseConnection(Connection& conn) {
  if (!conn.dead && conn.fd >= 0) {
    ::close(conn.fd);
  }
  conn.fd = -1;
  conn.dead = true;
}

void QueryServer::Answer(Connection& conn, ResponseStatus status,
                         RequestRecord record,
                         std::span<const graph::Distance> distances) {
  if (conn.dead) {
    return;
  }
  AppendResponseFrame(conn.outbuf, status, distances, record.trace_id);
  // The stage fields up to here sum to when the answer's content was
  // ready: batch done for OK, admission for SHED and BAD_REQUEST.
  record.encode_ns = obs::TraceNowNs() - (record.mono_ns +
                                          record.queue_wait_ns +
                                          record.batch_ns);
  conn.held.push_back(std::move(record));
  conn.flush_due = true;
}

void QueryServer::Flush(Connection& conn) {
  const std::uint64_t now_ns = obs::TraceNowNs();
  for (RequestRecord& record : conn.held) {
    record.flush_ns = now_ns - (record.mono_ns + record.queue_wait_ns +
                                record.batch_ns + record.encode_ns);
    request_log_.Record(std::move(record));
  }
  conn.held.clear();
  if (conn.dead) {
    return;
  }
  if (conn.outbuf.size() > max_unsent_bytes_.load()) {
    max_unsent_bytes_.store(conn.outbuf.size());
    if (obs::MetricsEnabled()) {
      Metrics().max_unsent_bytes.Set(static_cast<double>(conn.outbuf.size()));
    }
  }
  std::size_t sent = 0;
  while (sent < conn.outbuf.size()) {
    const ssize_t n = util::SendRetry(conn.fd, conn.outbuf.data() + sent,
                                      conn.outbuf.size() - sent);
    sends_.fetch_add(1);
    if (obs::MetricsEnabled()) {
      Metrics().sends.Add(1);
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;  // socket full: the rest goes out on POLLOUT
      }
      CloseConnection(conn);
      return;
    }
    if (n == 0) {
      break;
    }
    sent += static_cast<std::size_t>(n);
    // Write progress counts as activity: a slow reader mid-download is
    // not idle.
    conn.last_active_ns = now_ns;
  }
  conn.outbuf.erase(0, sent);
  if (conn.closing && conn.outbuf.empty()) {
    CloseConnection(conn);
  }
}

void QueryServer::AcceptReady(
    int listen_fd, std::vector<std::unique_ptr<Connection>>& conns) {
  while (conns.size() < options_.max_connections) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      return;  // EAGAIN / EINTR / transient: poll again next iteration
    }
    if (!util::SetNonBlocking(client)) {
      ::close(client);
      continue;
    }
    // Answers go out as soon as the flush stage sends them, never held
    // for the client's ACK; one flush per cycle keeps them few segments.
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = client;
    conn->id = ++next_connection_id_;
    conn->last_active_ns = obs::TraceNowNs();
    conns.push_back(std::move(conn));
    accepted_.fetch_add(1);
    if (obs::MetricsEnabled()) {
      Metrics().accepted.Add(1);
    }
  }
}

void QueryServer::ReadFrom(Connection& conn,
                           std::vector<PendingRequest>& pending,
                           std::uint64_t now_ns) {
  const ssize_t n =
      util::RecvRetry(conn.fd, read_buf_.data(), read_buf_.size());
  if (n == 0) {
    CloseConnection(conn);
    return;
  }
  if (n < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      CloseConnection(conn);
    }
    return;
  }
  conn.last_active_ns = now_ns;
  conn.reader.Append(read_buf_.data(), static_cast<std::size_t>(n));
  DecodeFrames(conn, pending, now_ns);
}

void QueryServer::DecodeFrames(Connection& conn,
                               std::vector<PendingRequest>& pending,
                               std::uint64_t now_ns) {
  if (conn.closing) {
    return;  // a malformed frame lost the framing; nothing more to decode
  }
  try {
    while (true) {
      // Backpressure: at the cap the rest stays in the reader (and, with
      // POLLIN off, in the kernel) until the client takes its answers.
      if (conn.outbuf.size() + conn.owed_bytes >= kMaxUnsentBytes) {
        if (!conn.read_paused) {
          conn.read_paused = true;
          read_paused_.fetch_add(1);
          if (obs::MetricsEnabled()) {
            Metrics().read_paused.Add(1);
          }
        }
        return;
      }
      if (!conn.reader.Next(payload_)) {
        break;
      }
      Request request = DecodeRequestPayload(payload_);
      if (request.type == RequestType::kInfo) {
        conn.outbuf += EncodeInfoResponse(InfoSnapshot());
        conn.flush_due = true;
        continue;
      }
      requests_.fetch_add(1);
      if (obs::MetricsEnabled()) {
        Metrics().requests.Add(1);
        Metrics().pairs.Add(request.pairs.size());
      }
      // Every request carries a trace id from here on: the client's
      // (already sanitized by the decoder) or a server-minted "srv-N" —
      // minted before the shed check so even a SHED response is traceable.
      if (request.trace_id.empty()) {
        request.trace_id = "srv-" + std::to_string(++next_server_trace_);
      }
      // Admission control: over-budget requests get an explicit SHED —
      // the caller learns immediately instead of waiting in an unbounded
      // queue. A single request larger than the budget always sheds.
      if (loop_queued_pairs_ + request.pairs.size() >
          options_.max_queued_pairs) {
        shed_.fetch_add(1);
        if (obs::MetricsEnabled()) {
          Metrics().shed.Add(1);
        }
        RequestRecord record;
        record.mono_ns = now_ns;
        record.trace_id = std::move(request.trace_id);
        record.connection = conn.id;
        record.pairs = request.pairs.size();
        record.status = "shed";
        Answer(conn, ResponseStatus::kShed, std::move(record));
        continue;
      }
      loop_queued_pairs_ += request.pairs.size();
      queued_pairs_.store(loop_queued_pairs_);
      conn.owed_bytes +=
          OkResponseFrameBytes(request.pairs.size(), request.trace_id.size());
      pending.push_back(PendingRequest{&conn, now_ns, std::move(request.pairs),
                                       std::move(request.trace_id)});
    }
    conn.read_paused = false;
  } catch (const std::exception&) {
    // A malformed frame loses the framing for good: answer BAD_REQUEST
    // and close once the answer drains. No trace id survives a broken
    // frame, so the record carries the connection id only.
    bad_requests_.fetch_add(1);
    if (obs::MetricsEnabled()) {
      Metrics().bad_requests.Add(1);
    }
    RequestRecord record;
    record.mono_ns = now_ns;
    record.connection = conn.id;
    record.status = "bad_request";
    Answer(conn, ResponseStatus::kBadRequest, std::move(record));
    conn.closing = true;
    conn.read_paused = false;  // nothing left to resume
  }
}

void QueryServer::DrainPending(std::vector<PendingRequest>& pending) {
  loop_queued_pairs_ = 0;
  queued_pairs_.store(0);
  if (pending.empty()) {
    if (obs::MetricsEnabled()) {
      Metrics().queue_depth.Set(0.0);
    }
    return;
  }
  // One engine snapshot for the whole coalesced batch: a concurrent hot
  // swap flips served_ for *future* iterations while this batch finishes
  // on the engine it was admitted against.
  const std::shared_ptr<Served> served = Snapshot();
  const auto num_vertices =
      static_cast<graph::VertexId>(served->servable.NumVertices());

  // Validate per request so one bad vertex id cannot poison the batch
  // (QueryBatch throws on any out-of-range id, checked up front), and
  // concatenate the rest in `pending` order, which is also the order the
  // answers are sliced back out below.
  batch_pairs_.clear();
  bool any_batched = false;
  for (PendingRequest& request : pending) {
    request.conn->owed_bytes = 0;  // every pending answer is framed below
    if (request.conn->dead) {
      continue;  // client vanished while queued; drop silently
    }
    const bool in_range = std::all_of(
        request.pairs.begin(), request.pairs.end(), [&](const auto& pair) {
          return pair.first < num_vertices && pair.second < num_vertices;
        });
    if (!in_range) {
      bad_requests_.fetch_add(1);
      if (obs::MetricsEnabled()) {
        Metrics().bad_requests.Add(1);
      }
      RequestRecord record;
      record.mono_ns = request.admitted_ns;
      record.trace_id = request.trace_id;
      record.connection = request.conn->id;
      record.pairs = request.pairs.size();
      record.status = "bad_request";
      Answer(*request.conn, ResponseStatus::kBadRequest, std::move(record));
      continue;
    }
    request.batched = true;
    any_batched = true;
    batch_pairs_.insert(batch_pairs_.end(), request.pairs.begin(),
                        request.pairs.end());
  }
  if (obs::MetricsEnabled()) {
    Metrics().queue_depth.Set(static_cast<double>(batch_pairs_.size()));
  }
  if (!any_batched) {
    return;
  }

  batch_out_.resize(batch_pairs_.size());
  const std::uint64_t batch_start_ns = obs::TraceNowNs();
  std::uint64_t batch_context = 0;
  if (!batch_pairs_.empty()) {
    batch_context = served->engine.QueryBatch(batch_pairs_, batch_out_);
  }
  const std::uint64_t done_ns = obs::TraceNowNs();

  const std::span<const graph::Distance> answers(batch_out_);
  std::size_t offset = 0;
  for (const PendingRequest& request : pending) {
    if (!request.batched) {
      continue;
    }
    const std::size_t count = request.pairs.size();
    // Book-keep before the flush stage makes the answer externally
    // visible: a client may act on it (e.g. read Stats()) the instant the
    // bytes land.
    answered_pairs_.fetch_add(count);
    if (obs::MetricsEnabled()) {
      Metrics().request_latency.Record(done_ns - request.admitted_ns);
      Metrics().queue_wait.Record(batch_start_ns - request.admitted_ns);
    }
    RequestRecord record;
    record.mono_ns = request.admitted_ns;
    record.trace_id = request.trace_id;
    record.connection = request.conn->id;
    record.batch_context = batch_context;
    record.queue_wait_ns = batch_start_ns - request.admitted_ns;
    record.batch_ns = done_ns - batch_start_ns;
    record.latency_ns = done_ns - request.admitted_ns;
    record.pairs = count;
    Answer(*request.conn, ResponseStatus::kOk, std::move(record),
           answers.subspan(offset, count));
    offset += count;
  }
  if (obs::MetricsEnabled()) {
    Metrics().stage_batch.Record(done_ns - batch_start_ns);
    Metrics().stage_encode.Record(obs::TraceNowNs() - done_ns);
  }
}

void QueryServer::EventLoop(int listen_fd) {
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<pollfd> pfds;
  std::vector<PendingRequest> pending;
  // acquire: sees the stores Start() published; a stale false only
  // delays shutdown by one 50 ms poll interval.
  while (running_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back(pollfd{
        listen_fd,
        static_cast<short>(conns.size() < options_.max_connections ? POLLIN
                                                                   : 0),
        0});
    // A parked connection whose answers drained below the cap decodes its
    // buffered frames this cycle: its client may send nothing more.
    bool resume_due = false;
    for (const auto& conn : conns) {
      short events = conn->read_paused ? 0 : POLLIN;
      if (!conn->outbuf.empty()) {
        events |= POLLOUT;
      }
      resume_due |=
          conn->read_paused && conn->outbuf.size() < kMaxUnsentBytes;
      pfds.push_back(pollfd{conn->fd, events, 0});
    }
    const int ready = util::PollRetry(
        pfds.data(), static_cast<nfds_t>(pfds.size()), resume_due ? 0 : 50);
    if (ready < 0) {
      continue;  // transient poll failure: re-check running_
    }
    const std::uint64_t now = obs::TraceNowNs();
    if ((pfds[0].revents & POLLIN) != 0) {
      AcceptReady(listen_fd, conns);
    }
    // conns accepted above have no pfd entry yet; they are served next
    // iteration (the loop bound keeps indices aligned).
    for (std::size_t i = 0; i + 1 < pfds.size() && i < conns.size(); ++i) {
      Connection& conn = *conns[i];
      const short revents = pfds[i + 1].revents;
      if (conn.dead) {
        continue;
      }
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if (conn.read_paused) {
        if (conn.outbuf.size() < kMaxUnsentBytes) {
          DecodeFrames(conn, pending, now);
        }
      } else if ((revents & (POLLIN | POLLHUP)) != 0) {
        ReadFrom(conn, pending, now);
      }
      // POLLHUP on a parked connection: the send fails and closes it.
      if ((revents & (POLLOUT | POLLHUP)) != 0) {
        conn.flush_due = true;  // a parked partial write can move on
      }
    }
    const bool metrics = obs::MetricsEnabled();
    if (metrics && ready > 0) {
      Metrics().stage_read.Record(obs::TraceNowNs() - now);
    }
    DrainPending(pending);
    pending.clear();
    // Flush stage: one Flush per connection with new answers (or room
    // for a parked write), after every answer of the cycle is framed.
    const std::uint64_t flush_start_ns = metrics ? obs::TraceNowNs() : 0;
    bool flushed = false;
    for (const auto& conn : conns) {
      if (conn->flush_due) {
        conn->flush_due = false;
        Flush(*conn);
        flushed = true;
      }
    }
    if (metrics && flushed) {
      Metrics().stage_flush.Record(obs::TraceNowNs() - flush_start_ns);
    }
    const std::uint64_t idle_ns =
        static_cast<std::uint64_t>(std::max(options_.idle_timeout_ms, 0)) *
        1'000'000ULL;
    for (const auto& conn : conns) {
      if (!conn->dead && idle_ns > 0 && now > conn->last_active_ns &&
          now - conn->last_active_ns > idle_ns) {
        idle_closed_.fetch_add(1);
        if (obs::MetricsEnabled()) {
          Metrics().idle_closed.Add(1);
        }
        CloseConnection(*conn);
      }
    }
    std::erase_if(conns, [](const auto& conn) { return conn->dead; });
    if (obs::MetricsEnabled()) {
      Metrics().connections.Set(static_cast<double>(conns.size()));
    }
  }
  for (const auto& conn : conns) {
    if (!conn->dead) {
      CloseConnection(*conn);
    }
  }
  if (obs::MetricsEnabled()) {
    Metrics().connections.Set(0.0);
  }
}

QueryServer::FileStamp QueryServer::StampOf(const std::string& path) {
  FileStamp stamp;
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    return stamp;
  }
  stamp.ok = true;
#if defined(__APPLE__)
  stamp.mtime_ns =
      static_cast<std::uint64_t>(st.st_mtimespec.tv_sec) * 1'000'000'000ULL +
      static_cast<std::uint64_t>(st.st_mtimespec.tv_nsec);
#else
  stamp.mtime_ns =
      static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1'000'000'000ULL +
      static_cast<std::uint64_t>(st.st_mtim.tv_nsec);
#endif
  stamp.size = static_cast<std::uint64_t>(st.st_size);
  stamp.inode = static_cast<std::uint64_t>(st.st_ino);
  return stamp;
}

void QueryServer::Watch() {
  // acquire: same pairing as EventLoop; a stale true costs one more poll.
  while (running_.load(std::memory_order_acquire)) {
    {
      util::MutexLock lock(mutex_);
      stop_cv_.WaitFor(
          mutex_,
          std::chrono::milliseconds(std::max(options_.watch_poll_ms, 1)));
    }
    // acquire: Stop() notified us; see the loop condition comment.
    if (!running_.load(std::memory_order_acquire)) {
      return;
    }
    TryReload();
  }
}

void QueryServer::TryReload() {
  const FileStamp stamp = StampOf(options_.watch_path);
  if (!stamp.ok || stamp == last_stamp_) {
    return;
  }
  last_stamp_ = stamp;
  try {
    // The configured backend decides how the republished artifact loads:
    // heap deserializes, mmap revalidates + maps the file (see
    // pll/servable.hpp). A file in any other container fails to load.
    pll::ServableIndex servable =
        pll::ServableIndex::Load(options_.watch_path, options_.backend);
    if (!servable.IsComplete()) {
      throw std::runtime_error("serve: watched artifact is a checkpoint, "
                               "not a complete index");
    }
    if (servable.manifest == pll::BuildManifest{} &&
        servable.NumVertices() != 0) {
      throw std::runtime_error("serve: watched artifact has no manifest");
    }
    servable.manifest.Validate();
    {
      util::MutexLock lock(mutex_);
      if (served_ != nullptr &&
          served_->servable.manifest == servable.manifest) {
        return;  // byte-identical republish; nothing to swap
      }
    }
    const pll::BuildManifest manifest = servable.manifest;
    auto next = std::make_shared<Served>(std::move(servable),
                                         engine_options_);
    next->published_ns = obs::TraceNowNs();
    {
      util::MutexLock lock(mutex_);
      // RCU-style flip: in-flight batches keep their shared_ptr snapshot
      // and finish on the old engine; new iterations pick this one up.
      served_ = std::move(next);
    }
    hot_swaps_.fetch_add(1);
    if (obs::MetricsEnabled()) {
      Metrics().hot_swaps.Add(1);
    }
    obs::HealthInfo health;
    health.index_fingerprint = manifest.graph_fingerprint;
    health.index_format_version = manifest.format_version;
    health.index_mode = manifest.mode.empty() ? "unknown" : manifest.mode;
    health.num_vertices = manifest.num_vertices;
    health.roots_completed = manifest.roots_completed;
    obs::SetProcessHealthInfo(health);
  } catch (const std::exception&) {
    // A half-written or incompatible artifact never interrupts serving:
    // keep the old engine, count the failure, retry on the next change.
    reload_errors_.fetch_add(1);
    if (obs::MetricsEnabled()) {
      Metrics().reload_errors.Add(1);
    }
  }
}

#else  // !PARAPLL_HAVE_SOCKETS

void QueryServer::Start() {
  throw std::runtime_error("serve: no socket support on this platform");
}
void QueryServer::Stop() {}
void QueryServer::EventLoop(int) {}
void QueryServer::Watch() {}
void QueryServer::TryReload() {}
void QueryServer::AcceptReady(int, std::vector<std::unique_ptr<Connection>>&) {
}
void QueryServer::ReadFrom(Connection&, std::vector<PendingRequest>&,
                           std::uint64_t) {}
void QueryServer::DrainPending(std::vector<PendingRequest>&) {}
void QueryServer::Answer(Connection&, ResponseStatus, RequestRecord,
                         std::span<const graph::Distance>) {}
void QueryServer::Flush(Connection&) {}
void QueryServer::CloseConnection(Connection&) {}
QueryServer::FileStamp QueryServer::StampOf(const std::string&) {
  return {};
}

#endif  // PARAPLL_HAVE_SOCKETS

}  // namespace parapll::serve
