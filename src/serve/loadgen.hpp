// ServeClient — a blocking client for the parapll_serve frame protocol —
// and a closed-/open-loop load generator built on it.
//
// ServeClient is deliberately simple (connect, send one frame, block for
// one response) so tests, the bench, and the `serve-bench` CLI all
// exercise the daemon through the same code path a real client would.
//
// RunLoadGen drives options.connections concurrent clients:
//   * closed loop (open_loop_qps == 0): each connection fires
//     requests_per_connection back-to-back requests — measures capacity.
//   * open loop (open_loop_qps > 0): requests follow an absolute paced
//     schedule (request k is due at start + k/qps, round-robined across
//     connections) for duration_seconds — measures latency at a fixed
//     offered load. Each latency counts from the request's due time, so
//     a request delayed behind a stall reports that wait (percentiles
//     free of coordinated omission).
// The report carries answered/shed/error counts and p50/p99/p999 of the
// per-request latency: the round trip in the closed loop, due time to
// response in the open loop.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/types.hpp"
#include "serve/frame.hpp"

namespace parapll::serve {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient() { Close(); }

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  // Connects to 127.0.0.1:port. Throws std::runtime_error on failure.
  void Connect(std::uint16_t port);
  void Close();
  [[nodiscard]] bool Connected() const { return fd_ >= 0; }

  // Sends one DISTANCE_QUERY and blocks for its response (kOk with
  // pairs.size() distances, or kShed / kBadRequest). A non-empty
  // trace_id rides the request's trace block and comes back echoed in
  // Response::trace_id. Throws std::runtime_error on connection loss or
  // a malformed response.
  Response Distance(std::span<const query::QueryPair> pairs,
                    std::string_view trace_id = {});

  // Sends one INFO request and blocks for the answer.
  ServerInfo Info();

 private:
  Response Call(const std::string& frame);

  int fd_ = -1;
  FrameReader reader_{kMaxResponsePayload};
};

struct LoadGenOptions {
  std::uint16_t port = 0;
  std::size_t connections = 4;
  // Closed loop: requests each connection sends back-to-back.
  std::size_t requests_per_connection = 200;
  std::size_t pairs_per_request = 16;
  // Vertex ids are drawn uniformly from [0, max_vertex); must be > 0.
  std::uint32_t max_vertex = 1;
  // > 0 switches to the paced open loop at this aggregate request rate.
  double open_loop_qps = 0.0;
  double duration_seconds = 1.0;  // open loop only
  std::uint64_t seed = 1;
  // Non-empty: request k of worker w carries trace id
  // "<prefix>-w<w>-r<k>", and each response's echoed trace id is checked
  // against it (a mismatch counts as an error). Empty sends no trace
  // block, exercising the server-minted-id path.
  std::string trace_prefix = "lg";
};

struct LoadGenReport {
  std::uint64_t answered = 0;  // kOk responses
  std::uint64_t shed = 0;      // kShed responses
  std::uint64_t errors = 0;    // connection losses / bad responses
  std::uint64_t pairs = 0;     // pairs answered (kOk only)
  double seconds = 0.0;
  double qps = 0.0;  // (answered + shed) / seconds
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;

  [[nodiscard]] double ShedRate() const {
    const std::uint64_t total = answered + shed;
    return total == 0 ? 0.0
                      : static_cast<double>(shed) / static_cast<double>(total);
  }
  // Human-readable multi-line summary (used by `serve-bench` and the
  // bench harness; keep the field layout grep-stable).
  [[nodiscard]] std::string ToString() const;
};

// Runs the load against a daemon on 127.0.0.1:options.port. Throws
// std::invalid_argument on nonsensical options (max_vertex == 0, no
// connections). Individual connection failures are counted, not thrown.
LoadGenReport RunLoadGen(const LoadGenOptions& options);

}  // namespace parapll::serve
