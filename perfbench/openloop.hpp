// Open-loop load generator for the serving daemon, owned by the benchmark.
//
// One thread drives four non-blocking loopback connections. Request k is
// due at a seeded Poisson schedule time and is written to connection
// k mod 4 as soon as it is due, without waiting for earlier answers
// (requests pipeline on a connection). Each request is timed from its due
// time, not from when it was sent, so a stall in the server or in the
// generator shows as latency of every request it delayed; how late the
// generator itself sent each request is reported separately. The backlog
// (requests due but unanswered) is sampled 8 times through the phase.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "query/query_engine.hpp"

namespace perfbench {

struct OpenLoopOptions {
  std::uint16_t port = 0;
  double rate_rps = 1000.0;
  double seconds = 1.0;
  // After the last due time, wait at most this long for answers; what is
  // still unanswered then counts as failed.
  double drain_seconds = 1.0;
  std::size_t pairs_per_request = 1;
  // Request k asks pool[(k * pairs_per_request + i) % pool.size()] and
  // must be answered with the same index of `expected`.
  std::span<const parapll::query::QueryPair> pool;
  std::span<const parapll::graph::Distance> expected;
  std::size_t first_pair = 0;  // pool offset of request 0
  std::uint64_t seed = 1;
  std::string trace_prefix = "r";  // request k carries "<prefix>-<k>"
  bool keep_requests = false;  // fill OpenLoopResult::requests
};

// Per-request record, kept when OpenLoopOptions::keep_requests is set.
struct RequestTiming {
  std::uint64_t due_ns = 0;
  std::uint64_t done_ns = 0;  // 0 when never answered
  bool ok = false;
};

struct OpenLoopResult {
  std::uint64_t scheduled = 0;
  std::uint64_t answered = 0;  // OK with every distance correct
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;  // bad-request status, malformed or lost
  std::uint64_t wrong = 0;   // OK whose distances differ from expected
  std::uint64_t missing = 0;  // unanswered after the drain window
  std::vector<double> latency_ms;  // answered requests, from due time
  std::vector<double> late_ms;     // send time minus due time, all sent
  std::vector<std::uint64_t> backlog;  // outstanding at evenly spaced points
  double achieved_rps = 0.0;  // answered within the phase window / seconds
  std::uint64_t start_ns = 0;  // obs::TraceNowNs() of the first due time
  std::vector<RequestTiming> requests;

  [[nodiscard]] std::uint64_t Failed() const {
    return shed + errors + wrong + missing;
  }
};

// Runs one phase. Throws std::runtime_error when it cannot connect.
OpenLoopResult RunOpenLoop(const OpenLoopOptions& options);

}  // namespace perfbench
