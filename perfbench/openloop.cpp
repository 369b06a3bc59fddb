#include "openloop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "serve/frame.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using parapll::obs::TraceNowNs;
namespace serve = parapll::serve;

constexpr std::uint64_t kLeadNs = 2'000'000;     // first due time after start
constexpr std::uint64_t kSpinNs = 5'000'000;     // busy-poll this close to due
constexpr std::uint64_t kWakeEarlyNs = 50'000;   // sleep ends this early
constexpr std::size_t kConnections = 4;
constexpr std::size_t kBacklogSamples = 8;  // evenly spaced over the window

struct Connection {
  int fd = -1;
  bool dead = false;
  std::string out;  // bytes not yet accepted by the kernel start at out_off
  std::size_t out_off = 0;
  std::uint64_t bytes_queued = 0;
  std::uint64_t bytes_written = 0;
  // Requests whose last frame byte is not yet written: (request, end).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> unsent;
  std::size_t unsent_head = 0;
  serve::FrameReader reader{serve::kMaxResponsePayload};

  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
};

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("perfbench: socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("perfbench: cannot connect to the daemon");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

// Request index encoded in a trace id "<prefix>-<k>"; -1 when malformed.
long RequestOf(std::string_view trace_id, std::string_view prefix) {
  if (trace_id.size() <= prefix.size() + 1 ||
      trace_id.substr(0, prefix.size()) != prefix ||
      trace_id[prefix.size()] != '-') {
    return -1;
  }
  const std::string_view digits = trace_id.substr(prefix.size() + 1);
  long k = -1;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), k);
  return ec == std::errc() && end == digits.data() + digits.size() ? k : -1;
}

}  // namespace

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options) {
  const std::size_t per = options.pairs_per_request;
  const std::size_t pool = options.pool.size();
  if (per == 0 || pool == 0 || options.expected.size() != pool ||
      options.rate_rps <= 0.0) {
    throw std::invalid_argument("perfbench: bad open-loop options");
  }
  // Tight wake-ups: the default 50 us timer slack would show as lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  // Seeded Poisson schedule, then every frame encoded up front so the
  // loop only copies bytes.
  parapll::util::Rng rng(options.seed);
  const double window_ns = options.seconds * 1e9;
  std::vector<double> offsets;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.Real()) / options.rate_rps * 1e9;
    if (t >= window_ns) {
      break;
    }
    offsets.push_back(t);
  }
  const std::size_t n = offsets.size();
  std::vector<std::string> frames(n);
  std::vector<parapll::query::QueryPair> pairs(per);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < per; ++i) {
      pairs[i] = options.pool[(options.first_pair + k * per + i) % pool];
    }
    frames[k] = serve::EncodeDistanceRequest(
        pairs, options.trace_prefix + "-" + std::to_string(k));
  }

  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>());
    conns.back()->fd = ConnectLoopback(options.port);
  }

  OpenLoopResult result;
  result.scheduled = n;
  result.latency_ms.reserve(n);
  result.late_ms.reserve(n);
  const std::uint64_t start = TraceNowNs() + kLeadNs;
  result.start_ns = start;
  std::vector<std::uint64_t> due(n);
  for (std::size_t k = 0; k < n; ++k) {
    due[k] = start + static_cast<std::uint64_t>(offsets[k]);
  }
  const std::uint64_t window_end = start + static_cast<std::uint64_t>(window_ns);
  const std::uint64_t deadline =
      window_end + static_cast<std::uint64_t>(options.drain_seconds * 1e9);
  std::vector<std::uint64_t> sample_at;
  for (std::size_t j = 1; j <= kBacklogSamples; ++j) {
    sample_at.push_back(start + static_cast<std::uint64_t>(
                                    window_ns * static_cast<double>(j) /
                                    static_cast<double>(kBacklogSamples)));
  }
  std::vector<RequestTiming> timing(n);
  std::vector<char> done(n, 0);
  std::size_t next = 0;       // first request not yet issued
  std::size_t completed = 0;  // answered or failed
  std::size_t in_window = 0;  // answered correctly before window_end
  std::size_t sample = 0;

  auto finish = [&](std::size_t k, std::uint64_t now, bool ok) {
    done[k] = 1;
    ++completed;
    timing[k].done_ns = now;
    timing[k].ok = ok;
    if (ok) {
      ++result.answered;
      result.latency_ms.push_back(static_cast<double>(now - due[k]) * 1e-6);
      if (now <= window_end) {
        ++in_window;
      }
    }
  };
  // A lost connection fails every request routed to it, now and later.
  auto kill = [&](std::size_t c, std::uint64_t now) {
    Connection& conn = *conns[c];
    conn.dead = true;
    for (std::size_t k = c; k < next; k += kConnections) {
      if (done[k] == 0) {
        ++result.errors;
        finish(k, now, false);
      }
    }
  };
  auto handle = [&](std::size_t c, std::string_view payload,
                    std::uint64_t now) {
    serve::Response response;
    try {
      response = serve::DecodeResponsePayload(payload);
    } catch (const std::exception&) {
      kill(c, now);
      return;
    }
    const long k = RequestOf(response.trace_id, options.trace_prefix);
    if (k < 0 || static_cast<std::size_t>(k) >= next ||
        static_cast<std::size_t>(k) % kConnections != c || done[k] != 0) {
      kill(c, now);  // an answer we never asked for on this connection
      return;
    }
    const auto req = static_cast<std::size_t>(k);
    if (response.status == serve::ResponseStatus::kOk) {
      bool ok = response.distances.size() == per;
      for (std::size_t i = 0; ok && i < per; ++i) {
        ok = response.distances[i] ==
             options.expected[(options.first_pair + req * per + i) % pool];
      }
      if (!ok) {
        ++result.wrong;
      }
      finish(req, now, ok);
    } else {
      if (response.status == serve::ResponseStatus::kShed) {
        ++result.shed;
      } else {
        ++result.errors;
      }
      finish(req, now, false);
    }
  };

  std::vector<pollfd> pfds(kConnections);
  std::vector<char> buffer(1 << 16);
  std::string payload;
  for (;;) {
    std::uint64_t now = TraceNowNs();
    for (; next < n && due[next] <= now; ++next) {
      const std::size_t c = next % kConnections;
      Connection& conn = *conns[c];
      if (conn.dead) {
        timing[next].due_ns = due[next];
        ++result.errors;
        finish(next, now, false);
        continue;
      }
      timing[next].due_ns = due[next];
      conn.out += frames[next];
      conn.bytes_queued += frames[next].size();
      conn.unsent.emplace_back(next, conn.bytes_queued);
    }
    for (; sample < sample_at.size() && now >= sample_at[sample]; ++sample) {
      result.backlog.push_back(next - completed);
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      Connection& conn = *conns[c];
      while (!conn.dead && conn.out_off < conn.out.size()) {
        const ssize_t wrote =
            ::send(conn.fd, conn.out.data() + conn.out_off,
                   conn.out.size() - conn.out_off, MSG_DONTWAIT | MSG_NOSIGNAL);
        if (wrote < 0) {
          if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            kill(c, now);
          }
          break;
        }
        conn.out_off += static_cast<std::size_t>(wrote);
        conn.bytes_written += static_cast<std::uint64_t>(wrote);
      }
      const std::uint64_t sent_at = TraceNowNs();
      while (conn.unsent_head < conn.unsent.size() &&
             conn.unsent[conn.unsent_head].second <= conn.bytes_written) {
        const std::uint64_t k = conn.unsent[conn.unsent_head++].first;
        result.late_ms.push_back(static_cast<double>(sent_at - due[k]) * 1e-6);
      }
      if (conn.out_off == conn.out.size() || conn.out_off > (1U << 20)) {
        conn.out.erase(0, conn.out_off);
        conn.out_off = 0;
      }
    }
    if (next == n && completed == n) {
      break;
    }
    now = TraceNowNs();
    if (now >= deadline) {
      break;
    }
    std::uint64_t wake = next < n ? due[next] : deadline;
    if (sample < sample_at.size()) {
      wake = std::min(wake, sample_at[sample]);
    }
    const std::uint64_t wait = wake > now ? wake - now : 0;
    timespec timeout{};
    if (wait > kSpinNs) {
      const std::uint64_t sleep = wait - kWakeEarlyNs;
      timeout.tv_sec = static_cast<time_t>(sleep / 1'000'000'000ULL);
      timeout.tv_nsec = static_cast<long>(sleep % 1'000'000'000ULL);
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      const Connection& conn = *conns[c];
      pfds[c].fd = conn.dead ? -1 : conn.fd;
      pfds[c].events = static_cast<short>(
          POLLIN | (conn.out_off < conn.out.size() ? POLLOUT : 0));
      pfds[c].revents = 0;
    }
    if (::ppoll(pfds.data(), pfds.size(), &timeout, nullptr) <= 0) {
      continue;
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      Connection& conn = *conns[c];
      if (conn.dead || (pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      for (;;) {
        const ssize_t got =
            ::recv(conn.fd, buffer.data(), buffer.size(), MSG_DONTWAIT);
        if (got > 0) {
          conn.reader.Append(buffer.data(), static_cast<std::size_t>(got));
          continue;
        }
        if (got == 0 ||
            (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
          conn.dead = true;
        }
        break;
      }
      const std::uint64_t received = TraceNowNs();
      try {
        while (conn.reader.Next(payload)) {
          handle(c, payload, received);
        }
      } catch (const std::exception&) {
        conn.dead = true;
      }
      if (conn.dead) {
        kill(c, received);
      }
    }
  }
  result.missing = n - completed;
  for (std::size_t k = 0; k < n; ++k) {
    timing[k].due_ns = due[k];
  }
  while (result.backlog.size() < sample_at.size()) {
    result.backlog.push_back(next - completed);
  }
  result.achieved_rps = static_cast<double>(in_window) / options.seconds;
  if (options.keep_requests) {
    result.requests = std::move(timing);
  }
  return result;
}

}  // namespace perfbench
