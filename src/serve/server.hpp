// parapll_serve — a TCP daemon serving distance queries over the binary
// frame protocol in serve/frame.hpp, layered on query::QueryEngine.
//
// Architecture (one poll(2)-driven event-loop thread, one optional
// watcher thread):
//
//   * Connections are non-blocking with per-connection read/write
//     buffers and idle timeouts; a slow reader never stalls the loop
//     (partial writes park in the outbuf until POLLOUT).
//   * Backpressure: once a connection's unsent answers reach
//     kMaxUnsentBytes, the loop stops decoding its frames and polling it
//     for POLLIN, so the kernel's socket buffers push back on a client
//     that sends without reading. Its buffered frames are decoded as
//     soon as the answers drain below the cap. A parked connection whose
//     answers do not move is closed by the idle timeout.
//   * Each loop iteration admits decoded DISTANCE_QUERY requests into a
//     bounded queue (options.max_queued_pairs total pairs). A request
//     that would overflow the budget is answered with an explicit SHED
//     response immediately — the queue never grows without bound and the
//     loop never stalls on overload.
//   * All admitted requests are then coalesced into ONE
//     QueryEngine::QueryBatch call on the current engine snapshot, and
//     the per-request slices are framed back to their connections.
//     Answers are bit-identical to calling QueryBatch directly.
//   * Write side: every answer of a cycle (OK, SHED, BAD_REQUEST, INFO)
//     is only appended to its connection's outbuf; the cycle ends with
//     one flush per connection. Accepted sockets set TCP_NODELAY, so an
//     answer is never held for the client's ACK, and the single flush
//     keeps k answers to one connection in one send instead of k
//     segments.
//   * Hot index reload: when options.watch_path is set, the watcher
//     polls the artifact's stat identity (mtime/size/inode — the build
//     pipeline publishes via tmp+rename, so the inode changes), reloads
//     on change, validates the manifest, and publishes a fresh
//     index+engine via an RCU-style std::shared_ptr flip under the
//     annotated util::Mutex. In-flight batches finish on the old engine
//     snapshot; queries never fail across a swap.
//
//   * Observability: every DISTANCE_QUERY carries a wire-level trace id
//     (client-supplied, or server-minted "srv-N") that is echoed on its
//     response — OK and SHED alike — and recorded with queue wait / batch
//     id / latency in a wide-event RequestLog exposed at /debug/requests.
//     The batch id is the engine's request context, which profiler
//     samples and histogram exemplars carry too. The INFO
//     frame and /healthz report live saturation (queue depth, cumulative
//     sheds, served-snapshot age).
//
// Metrics land under "server.*" when obs metrics are enabled (schema in
// EXPERIMENTS.md), including per-cycle loop-stage histograms
// (server.stage.{read,batch,encode,flush}_ns); Stats() exposes the same
// counts unconditionally for tests and the CLI.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pll/index.hpp"
#include "pll/servable.hpp"
#include "query/query_engine.hpp"
#include "serve/frame.hpp"
#include "serve/request_log.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace parapll::serve {

// Per-connection cap on answer bytes not yet taken by the socket (and
// the answers admitted this cycle but not yet framed). At the cap the
// daemon stops reading that connection, so its memory stays under the cap
// plus one answer. options.max_queued_pairs bounds queued *pairs*; this
// bounds *answers*. A cycle decodes one 64 KiB read plus at most one
// carried-over frame, so a client that reads promptly is owed at most one
// full-size answer (kMaxPairsPerRequest distances, ~512 KiB: also the
// whole default max_queued_pairs budget) plus the answers to one read:
// twice the largest answer covers that, so only a client that leaves its
// answers unread is parked.
inline constexpr std::size_t kMaxUnsentBytes =
    2 * OkResponseFrameBytes(kMaxPairsPerRequest, kMaxTraceIdBytes);

struct ServeOptions {
  // 0 binds an ephemeral loopback port; read the result with Port().
  std::uint16_t port = 0;
  // Worker threads inside the QueryEngine answering coalesced batches.
  std::size_t engine_threads = 1;
  // A connection silent this long is closed (server.idle_closed).
  int idle_timeout_ms = 30'000;
  std::size_t max_connections = 64;
  // Admission budget: total (s, t) pairs admitted per coalescing cycle.
  // A request that would push past this is answered SHED instead of
  // queued; a single request larger than the budget always sheds.
  std::size_t max_queued_pairs = std::size_t{1} << 16;
  // Non-empty: watch this IndexArtifact path and hot-swap the served
  // engine when a different complete build appears under it.
  std::string watch_path;
  int watch_poll_ms = 200;
  // Label storage backend used when (re)loading the served index from a
  // file (`serve --mmap`; see pll/servable.hpp). An mmap-backed
  // snapshot is unmapped only after the last in-flight batch drops its
  // Served snapshot — the RCU flip gives the unmap-after-drain guarantee
  // for free.
  pll::StoreBackend backend = pll::StoreBackend::kHeap;
  // Wide-event request log configuration. The in-memory ring (and the
  // /debug/requests endpoint backed by it) is always on; `path` adds the
  // on-disk JSONL stream.
  RequestLogOptions request_log;
};

// Monotonic counts since Start(); readable at any time from any thread.
struct ServeStats {
  std::uint64_t accepted = 0;        // connections accepted
  std::uint64_t requests = 0;        // DISTANCE_QUERY frames decoded
  std::uint64_t answered_pairs = 0;  // pairs answered with OK
  std::uint64_t shed = 0;            // requests answered SHED
  std::uint64_t bad_requests = 0;    // malformed frames / bad vertex ids
  std::uint64_t idle_closed = 0;     // connections closed by idle timeout
  std::uint64_t hot_swaps = 0;       // successful engine flips
  std::uint64_t reload_errors = 0;   // watcher load/validate failures
  std::uint64_t sends = 0;           // send() calls on client sockets
  // Times a connection stopped being read because its unsent answers
  // reached kMaxUnsentBytes.
  std::uint64_t read_paused = 0;
  // Largest unsent answer buffer any connection held at a flush.
  std::uint64_t max_unsent_bytes = 0;
};

class QueryServer {
 public:
  // Takes ownership of the (heap) index it serves (hot swaps replace it).
  QueryServer(pll::Index index, ServeOptions options);
  // Serves an already-loaded source behind any backend.
  QueryServer(pll::ServableIndex servable, ServeOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds 127.0.0.1:port and spawns the event loop (and the watcher when
  // watch_path is set). Throws std::runtime_error on socket failure.
  void Start();
  void Stop();  // idempotent

  [[nodiscard]] bool Running() const {
    // acquire: pairs with the release store in Start() so a caller that
    // observes true also sees the bound port.
    return running_.load(std::memory_order_acquire);
  }
  // Bound port; valid after Start() (resolves port 0 to the real one).
  [[nodiscard]] std::uint16_t Port() const {
    util::MutexLock lock(mutex_);
    return port_;
  }

  [[nodiscard]] ServeStats Stats() const;

  // The wide-event request log (tests and the CLI flush hook read it).
  [[nodiscard]] RequestLog& RequestLogRef() { return request_log_; }

 private:
  // The RCU-style unit of hot swap: a loaded label source and the engine
  // built over it, flipped together so a batch never outlives its labels
  // (for the mmap backend: never outlives its mapping). The engine
  // shares ownership of servable.source, so the pair lives and dies as
  // one shared_ptr<Served>.
  struct Served {
    pll::ServableIndex servable;
    query::QueryEngine engine;
    std::uint64_t published_ns = 0;  // when this snapshot went live
    Served(pll::ServableIndex s,
           const query::QueryEngineOptions& engine_options)
        : servable(std::move(s)),
          engine(servable.source, servable.order, engine_options) {}
  };

  struct Connection;
  struct PendingRequest;

  // Identity of the watched file as of the last (attempted) load.
  struct FileStamp {
    bool ok = false;
    std::uint64_t mtime_ns = 0;
    std::uint64_t size = 0;
    std::uint64_t inode = 0;
    friend bool operator==(const FileStamp&, const FileStamp&) = default;
  };
  static FileStamp StampOf(const std::string& path);

  void EventLoop(int listen_fd);
  void Watch();
  void TryReload();

  // Current engine snapshot (shared_ptr copy under the lock); callers
  // run batches on the copy so a concurrent flip never invalidates it.
  [[nodiscard]] std::shared_ptr<Served> Snapshot() const;

  // Event-loop helpers (all run on the loop thread only).
  void AcceptReady(int listen_fd,
                   std::vector<std::unique_ptr<Connection>>& conns);
  void ReadFrom(Connection& conn, std::vector<PendingRequest>& pending,
                std::uint64_t now_ns);
  // Decodes and admits the frames buffered in conn's reader until it
  // runs dry or conn's answers reach kMaxUnsentBytes (which parks it).
  void DecodeFrames(Connection& conn, std::vector<PendingRequest>& pending,
                    std::uint64_t now_ns);
  void DrainPending(std::vector<PendingRequest>& pending);
  // Frames one answer into conn's outbuf and holds its request-log record
  // until the cycle's flush stage.
  static void Answer(Connection& conn, ResponseStatus status,
                     RequestRecord record,
                     std::span<const graph::Distance> distances = {});
  // The flush stage for one connection: commits its held records, then
  // sends its outbuf as far as the socket takes it.
  void Flush(Connection& conn);
  static void CloseConnection(Connection& conn);

  [[nodiscard]] ServerInfo InfoSnapshot() const;

  ServeOptions options_;  // written by the ctor only, then read-only
  query::QueryEngineOptions engine_options_;

  // Lifecycle + published engine. Start/Stop/Port and the served_ flip
  // all serialize on mutex_; the event loop only takes it for the brief
  // Snapshot() copy.
  mutable util::Mutex mutex_;
  std::shared_ptr<Served> served_ GUARDED_BY(mutex_);
  int listen_fd_ GUARDED_BY(mutex_) = -1;
  std::uint16_t port_ GUARDED_BY(mutex_) = 0;
  std::thread loop_ GUARDED_BY(mutex_);
  std::thread watcher_ GUARDED_BY(mutex_);
  std::atomic<bool> running_{false};
  // Wakes the watcher's poll sleep early on Stop().
  util::CondVar stop_cv_;

  FileStamp last_stamp_;  // watcher thread only after Start()

  // Plain (seq_cst) atomics: per-request bookkeeping, not hot-path; no
  // ordering subtleties to document.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> answered_pairs_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> idle_closed_{0};
  std::atomic<std::uint64_t> hot_swaps_{0};
  std::atomic<std::uint64_t> reload_errors_{0};
  std::atomic<std::uint64_t> sends_{0};
  std::atomic<std::uint64_t> read_paused_{0};
  std::atomic<std::uint64_t> max_unsent_bytes_{0};

  // Mirror of loop_queued_pairs_ readable off the event-loop thread (the
  // INFO frame is answered inline, but /healthz reads from the
  // StatsServer's worker). Plain (seq_cst) atomic, like the stats above.
  std::atomic<std::uint64_t> queued_pairs_{0};

  RequestLog request_log_;

  // Event-loop scratch, reused across cycles: the recv buffer (sized
  // once), the decoded payload, and the coalesced batch's pairs and
  // answers.
  std::vector<char> read_buf_;
  std::string payload_;
  std::vector<query::QueryPair> batch_pairs_;
  std::vector<graph::Distance> batch_out_;
  // Pairs admitted but not yet drained this coalescing cycle; event-loop
  // thread only (the admission decision and the drain share that thread).
  std::size_t loop_queued_pairs_ = 0;
  // Event-loop-thread-only sequence numbers: server-minted trace ids
  // ("srv-N") for clients that sent none, and per-connection ids for the
  // request log.
  std::uint64_t next_server_trace_ = 0;
  std::uint64_t next_connection_id_ = 0;
};

}  // namespace parapll::serve
