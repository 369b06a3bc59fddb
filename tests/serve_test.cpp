// parapll_serve end-to-end: the daemon's answers over real loopback
// sockets must be bit-identical to QueryEngine::QueryBatch, overload must
// degrade into explicit SHED responses, slow readers must get complete
// responses via the POLLOUT partial-write path, and a hot index reload
// under live traffic must never fail a query.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "build/artifact.hpp"
#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "pll/format_v2.hpp"
#include "pll/mapped_file.hpp"
#include "pll/servable.hpp"
#include "query/query_engine.hpp"
#include "serve/frame.hpp"
#include "serve/loadgen.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"

#ifdef PARAPLL_HAVE_SOCKETS
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace parapll::serve {
namespace {

using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;
using query::QueryPair;

pll::Index BuildTestIndex(const Graph& g) {
  return build::Run(g, {}).artifact.index;
}

std::vector<QueryPair> RandomPairs(graph::VertexId n, std::size_t count,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<QueryPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<graph::VertexId>(rng.Below(n)),
                       static_cast<graph::VertexId>(rng.Below(n)));
  }
  return pairs;
}

// --- frame unit coverage (no sockets required) ----------------------------

TEST(ServeFrame, DistanceRequestRoundTrips) {
  const std::vector<QueryPair> pairs = {{0, 1}, {7, 3}, {2, 2}};
  const std::string frame = EncodeDistanceRequest(pairs);
  FrameReader reader(kMaxRequestPayload);
  reader.Append(frame.data(), frame.size());
  std::string payload;
  ASSERT_TRUE(reader.Next(payload));
  EXPECT_EQ(reader.BufferedBytes(), 0u);
  const Request request = DecodeRequestPayload(payload);
  EXPECT_EQ(request.type, RequestType::kDistanceQuery);
  EXPECT_EQ(request.pairs, pairs);
}

TEST(ServeFrame, ResponsesRoundTrip) {
  const std::vector<graph::Distance> distances = {
      0, 42, graph::kInfiniteDistance};
  std::string frame = EncodeOkResponse(distances);
  Response ok = DecodeResponsePayload(frame.substr(4));
  EXPECT_EQ(ok.status, ResponseStatus::kOk);
  EXPECT_EQ(ok.distances, distances);

  frame = EncodeStatusResponse(ResponseStatus::kShed);
  EXPECT_EQ(DecodeResponsePayload(frame.substr(4)).status,
            ResponseStatus::kShed);

  const ServerInfo info{.num_vertices = 9, .fingerprint = 0xfeed,
                        .hot_swaps = 2, .queued_pairs = 17, .shed = 5,
                        .snapshot_age_ms = 1234};
  frame = EncodeInfoResponse(info);
  const Response decoded = DecodeResponsePayload(frame.substr(4));
  EXPECT_EQ(decoded.status, ResponseStatus::kInfo);
  EXPECT_EQ(decoded.info.num_vertices, 9u);
  EXPECT_EQ(decoded.info.fingerprint, 0xfeedu);
  EXPECT_EQ(decoded.info.hot_swaps, 2u);
  EXPECT_EQ(decoded.info.queued_pairs, 17u);
  EXPECT_EQ(decoded.info.shed, 5u);
  EXPECT_EQ(decoded.info.snapshot_age_ms, 1234u);
}

// Old clients send 25-byte INFO bodies (no saturation fields); the
// decoder must still accept them with the new fields zeroed.
TEST(ServeFrame, LegacyInfoBodyStillDecodes) {
  const ServerInfo info{.num_vertices = 9, .fingerprint = 0xfeed,
                        .hot_swaps = 2, .queued_pairs = 17, .shed = 5,
                        .snapshot_age_ms = 1234};
  const std::string payload = EncodeInfoResponse(info).substr(4);
  const Response decoded = DecodeResponsePayload(payload.substr(0, 4 + 1 + 4 + 8 + 8));
  EXPECT_EQ(decoded.info.num_vertices, 9u);
  EXPECT_EQ(decoded.info.hot_swaps, 2u);
  EXPECT_EQ(decoded.info.queued_pairs, 0u);
  EXPECT_EQ(decoded.info.shed, 0u);
}

// A socket read loop hands FrameReader arbitrary byte slices; feeding one
// byte at a time must yield exactly the frames that were sent, in order.
TEST(ServeFrame, ReaderReassemblesByteAtATime) {
  const std::vector<QueryPair> pairs = {{1, 2}, {3, 4}};
  const std::string stream =
      EncodeDistanceRequest(pairs) + EncodeInfoRequest();
  FrameReader reader(kMaxRequestPayload);
  std::vector<Request> decoded;
  std::string payload;
  for (const char byte : stream) {
    reader.Append(&byte, 1);
    while (reader.Next(payload)) {
      decoded.push_back(DecodeRequestPayload(payload));
    }
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].pairs, pairs);
  EXPECT_EQ(decoded[1].type, RequestType::kInfo);
}

// FrameReader pops frames by advancing an offset and compacts once per
// Append. However the stream is cut (all at once, split at any byte, or
// fed in uneven chunks with Next between them), it must yield the same
// frames in order, and BufferedBytes must count exactly the bytes not yet
// popped.
TEST(ServeFrame, ReaderPopsManyFramesPerAppendAndAnySplit) {
  std::string stream;
  std::vector<std::size_t> frame_ends;
  std::vector<Request> want;
  for (std::uint32_t k = 0; k < 40; ++k) {
    if (k % 7 == 3) {
      stream += EncodeInfoRequest();
      want.push_back(Request{RequestType::kInfo, {}, {}});
    } else {
      std::vector<QueryPair> pairs;
      for (std::uint32_t i = 0; i < k % 5; ++i) {
        pairs.emplace_back(k, i);
      }
      const std::string trace = k % 2 == 0 ? "f-" + std::to_string(k) : "";
      stream += EncodeDistanceRequest(pairs, trace);
      want.push_back(Request{RequestType::kDistanceQuery, pairs, trace});
    }
    frame_ends.push_back(stream.size());
  }
  // Pops every complete frame, checking each against `want` and the
  // buffered count against the bytes appended so far.
  auto drain = [&](FrameReader& reader, std::size_t appended,
                   std::size_t& popped) {
    std::string payload;
    while (reader.Next(payload)) {
      ASSERT_LT(popped, want.size());
      const Request got = DecodeRequestPayload(payload);
      EXPECT_EQ(got.type, want[popped].type) << "frame " << popped;
      EXPECT_EQ(got.pairs, want[popped].pairs) << "frame " << popped;
      EXPECT_EQ(got.trace_id, want[popped].trace_id) << "frame " << popped;
      EXPECT_EQ(reader.BufferedBytes(), appended - frame_ends[popped]);
      ++popped;
    }
    EXPECT_EQ(reader.BufferedBytes(),
              appended - (popped == 0 ? 0 : frame_ends[popped - 1]));
  };

  {  // Every frame in one Append.
    FrameReader reader(kMaxRequestPayload);
    reader.Append(stream.data(), stream.size());
    EXPECT_EQ(reader.BufferedBytes(), stream.size());
    std::size_t popped = 0;
    drain(reader, stream.size(), popped);
    EXPECT_EQ(popped, want.size());
    EXPECT_EQ(reader.BufferedBytes(), 0u);
  }
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    SCOPED_TRACE(cut);
    FrameReader reader(kMaxRequestPayload);
    std::size_t popped = 0;
    reader.Append(stream.data(), cut);
    drain(reader, cut, popped);
    reader.Append(stream.data() + cut, stream.size() - cut);
    drain(reader, stream.size(), popped);
    ASSERT_EQ(popped, want.size());
  }
  {  // Uneven chunks, Next between appends.
    FrameReader reader(kMaxRequestPayload);
    std::size_t popped = 0;
    std::size_t appended = 0;
    for (std::size_t chunk = 1; appended < stream.size();
         chunk = chunk * 3 % 61 + 1) {
      const std::size_t n = std::min(chunk, stream.size() - appended);
      reader.Append(stream.data() + appended, n);
      appended += n;
      drain(reader, appended, popped);
    }
    EXPECT_EQ(popped, want.size());
  }
}

// The payload cap is checked on the length prefix itself, before the
// reader waits for (or buffers toward) the declared bytes — also when the
// prefix follows popped frames or arrives split across appends.
TEST(ServeFrame, ReaderRejectsOversizeLengthAfterPoppedFrames) {
  const std::string valid = EncodeInfoRequest();
  const std::uint32_t declared = kMaxRequestPayload + 1;
  char prefix[4];
  std::memcpy(prefix, &declared, sizeof(prefix));
  FrameReader reader(kMaxRequestPayload);
  std::string payload;
  reader.Append(valid.data(), valid.size());
  reader.Append(valid.data(), valid.size());
  ASSERT_TRUE(reader.Next(payload));
  reader.Append(prefix, 2);
  ASSERT_TRUE(reader.Next(payload));
  EXPECT_FALSE(reader.Next(payload));
  reader.Append(prefix + 2, 2);
  EXPECT_EQ(reader.BufferedBytes(), 4u);
  EXPECT_THROW((void)reader.Next(payload), std::runtime_error);
}

TEST(ServeFrame, OkResponseFrameBytesMatchesTheEncoder) {
  const std::vector<graph::Distance> distances(37, 5);
  EXPECT_EQ(EncodeOkResponse(distances, "abc").size(),
            OkResponseFrameBytes(37, 3));
  EXPECT_EQ(EncodeOkResponse(distances).size(), OkResponseFrameBytes(37, 0));
  EXPECT_EQ(EncodeOkResponse({}, "t").size(), OkResponseFrameBytes(0, 1));
}

TEST(ServeFrame, OversizedPairCountThrows) {
  std::vector<QueryPair> pairs(kMaxPairsPerRequest + 1, {0, 0});
  EXPECT_THROW((void)EncodeDistanceRequest(pairs), std::invalid_argument);
}

#ifdef PARAPLL_HAVE_SOCKETS

// --- daemon end-to-end ----------------------------------------------------

// A raw blocking socket to 127.0.0.1:port, for tests that need to feed
// the daemon byte streams ServeClient would never produce (slow reads,
// raw garbage).
class RawClient {
 public:
  // receive_buffer > 0 shrinks the socket's receive buffer first, so a
  // client that does not read fills the kernel's buffers sooner.
  explicit RawClient(std::uint16_t port, int receive_buffer = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw std::runtime_error("raw client: socket() failed");
    }
    if (receive_buffer > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
                   sizeof(receive_buffer));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("raw client: connect() failed");
    }
  }
  ~RawClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  void Send(const std::string& bytes) {
    ASSERT_TRUE(util::SendAll(fd_, bytes));
  }

  // False once the daemon closed the connection mid-send.
  [[nodiscard]] bool TrySend(const std::string& bytes) {
    return util::SendAll(fd_, bytes);
  }

  // Reads one complete response payload, `chunk` bytes at a time with a
  // short pause between reads — a deliberately slow reader. Bytes past
  // that response stay buffered for the next call.
  Response ReadSlowly(std::size_t chunk) {
    std::string payload;
    std::vector<char> buf(chunk);
    while (!reader_.Next(payload)) {
      const ssize_t n = util::RecvRetry(fd_, buf.data(), buf.size());
      if (n <= 0) {
        throw std::runtime_error("raw client: connection closed");
      }
      reader_.Append(buf.data(), static_cast<std::size_t>(n));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return DecodeResponsePayload(payload);
  }

 private:
  int fd_ = -1;
  FrameReader reader_{kMaxResponsePayload};
};

struct MatrixCase {
  const char* name;
  Graph graph;
};

std::vector<MatrixCase> GraphMatrix() {
  std::vector<MatrixCase> cases;
  cases.push_back({"erdos_renyi",
                   graph::ErdosRenyi(
                       120, 360, {WeightModel::kUniform, 50}, 11)});
  cases.push_back({"barabasi_albert",
                   graph::BarabasiAlbert(
                       120, 3, {WeightModel::kUniform, 20}, 12)});
  cases.push_back({"road_grid",
                   graph::RoadGrid(
                       10, 12, 0.9, 4, {WeightModel::kRoadLike, 100}, 13)});
  return cases;
}

// The core guarantee: every distance served over the wire is bit-identical
// to calling QueryEngine::QueryBatch on the same index directly.
TEST(QueryServerTest, ServedAnswersAreBitIdenticalToQueryBatch) {
  for (const MatrixCase& c : GraphMatrix()) {
    SCOPED_TRACE(c.name);
    pll::Index index = BuildTestIndex(c.graph);
    query::QueryEngine direct(index, {.threads = 2});
    const auto pairs = RandomPairs(c.graph.NumVertices(), 500, 21);
    const std::vector<graph::Distance> want = direct.QueryBatch(pairs);

    ServeOptions options;
    options.engine_threads = 2;
    QueryServer server(index, options);
    server.Start();
    ServeClient client;
    client.Connect(server.Port());
    // Several request sizes, including an empty batch and a single pair.
    std::size_t offset = 0;
    for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                    std::size_t{37}, std::size_t{462}}) {
      const std::span<const QueryPair> slice(pairs.data() + offset, count);
      const Response response = client.Distance(slice);
      ASSERT_EQ(response.status, ResponseStatus::kOk);
      ASSERT_EQ(response.distances.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(response.distances[i], want[offset + i])
            << "pair " << offset + i;
      }
      offset += count;
    }
    const ServeStats stats = server.Stats();
    EXPECT_EQ(stats.requests, 4u);
    EXPECT_EQ(stats.answered_pairs, 500u);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.bad_requests, 0u);
    server.Stop();
  }
}

TEST(QueryServerTest, InfoReportsServedIndex) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  QueryServer server(BuildTestIndex(g), {});
  server.Start();
  ServeClient client;
  client.Connect(server.Port());
  const ServerInfo info = client.Info();
  EXPECT_EQ(info.num_vertices, g.NumVertices());
  EXPECT_EQ(info.hot_swaps, 0u);
  EXPECT_EQ(info.queued_pairs, 0u);
  EXPECT_EQ(info.shed, 0u);
  server.Stop();
}

// Tracing end to end: a client-supplied trace id must come back on the
// response and land in the wide-event request log with the coalesced
// batch's context id — one id joining both for the same request.
TEST(QueryServerTest, ClientTraceIdJoinsResponseAndRequestLog) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);

  ServeOptions options;
  options.request_log.sample_every = 1;  // keep every OK request
  QueryServer server(BuildTestIndex(g), options);
  server.Start();
  ServeClient client;
  client.Connect(server.Port());

  const std::vector<QueryPair> pairs = {{1, 2}, {3, 4}};
  const Response response = client.Distance(pairs, "cli-abc.1");
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.trace_id, "cli-abc.1");

  const std::vector<RequestRecord> ring =
      server.RequestLogRef().RingSnapshot();
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0].trace_id, "cli-abc.1");
  EXPECT_STREQ(ring[0].status, "ok");
  EXPECT_EQ(ring[0].pairs, 2u);
  EXPECT_NE(ring[0].batch_context, 0u);
  EXPECT_GE(ring[0].latency_ns, ring[0].batch_ns);
  EXPECT_NE(ring[0].connection, 0u);
  server.Stop();
}

// A client that sends no trace block gets a server-minted "srv-N" id —
// responses stay attributable even for legacy clients.
TEST(QueryServerTest, ServerMintsTraceIdsForLegacyClients) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  ServeOptions options;
  options.request_log.sample_every = 1;
  QueryServer server(BuildTestIndex(g), options);
  server.Start();
  ServeClient client;
  client.Connect(server.Port());

  const std::vector<QueryPair> pairs = {{1, 2}};
  const Response first = client.Distance(pairs);  // no trace block
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  EXPECT_EQ(first.trace_id.rfind("srv-", 0), 0u) << first.trace_id;
  const Response second = client.Distance(pairs);
  EXPECT_NE(second.trace_id, first.trace_id);  // unique per request

  const std::vector<RequestRecord> ring =
      server.RequestLogRef().RingSnapshot();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0].trace_id, first.trace_id);
  EXPECT_EQ(ring[1].trace_id, second.trace_id);
  server.Stop();
}

// SHED responses echo the trace id too (an unattributable rejection is
// undebuggable), and the shed lands in the request log with the id.
TEST(QueryServerTest, ShedEchoesTraceIdAndLogsIt) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  ServeOptions options;
  options.max_queued_pairs = 4;
  QueryServer server(BuildTestIndex(g), options);
  server.Start();
  ServeClient client;
  client.Connect(server.Port());

  const auto pairs = RandomPairs(g.NumVertices(), 16, 5);  // over budget
  const Response response = client.Distance(pairs, "overload-probe");
  ASSERT_EQ(response.status, ResponseStatus::kShed);
  EXPECT_EQ(response.trace_id, "overload-probe");

  const std::vector<RequestRecord> ring =
      server.RequestLogRef().RingSnapshot();
  ASSERT_EQ(ring.size(), 1u);  // errors always kept, no sampling needed
  EXPECT_EQ(ring[0].trace_id, "overload-probe");
  EXPECT_STREQ(ring[0].status, "shed");

  // INFO now carries the cumulative shed count.
  EXPECT_EQ(client.Info().shed, 1u);
  server.Stop();
}

// A request larger than the admission budget must be answered SHED — an
// explicit, well-formed response on the same connection — and the
// connection must remain usable for a request that fits.
TEST(QueryServerTest, OverBudgetRequestShedsExplicitly) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  ServeOptions options;
  options.max_queued_pairs = 4;
  QueryServer server(BuildTestIndex(g), options);
  server.Start();
  ServeClient client;
  client.Connect(server.Port());

  const auto big = RandomPairs(g.NumVertices(), 8, 5);
  EXPECT_EQ(client.Distance(big).status, ResponseStatus::kShed);

  const auto small = RandomPairs(g.NumVertices(), 4, 6);
  const Response ok = client.Distance(small);
  ASSERT_EQ(ok.status, ResponseStatus::kOk);
  EXPECT_EQ(ok.distances.size(), 4u);

  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.answered_pairs, 4u);
  server.Stop();
}

// Answers of one loop cycle leave in one send per connection: 32
// pipelined one-pair requests read in one cycle against a 24-pair budget
// get 24 OK and 8 SHED answers, each with its trace id, and the loop
// makes at most two send() calls for them, not one per answer.
TEST(QueryServerTest, PipelinedAnswersOfOneCycleShareOneSend) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  pll::Index index = BuildTestIndex(g);
  query::QueryEngine direct(index, {});
  ServeOptions options;
  options.max_queued_pairs = 24;
  QueryServer server(index, options);
  server.Start();

  constexpr std::size_t kRequests = 32;
  const auto pairs = RandomPairs(g.NumVertices(), kRequests, 41);
  const std::vector<graph::Distance> want = direct.QueryBatch(pairs);
  std::string frames;
  for (std::size_t k = 0; k < kRequests; ++k) {
    frames += EncodeDistanceRequest(std::span(pairs).subspan(k, 1),
                                    "p-" + std::to_string(k));
  }
  RawClient raw(server.Port());
  const std::uint64_t sends_before = server.Stats().sends;
  raw.Send(frames);

  std::map<std::string, Response> answers;
  for (std::size_t k = 0; k < kRequests; ++k) {
    Response response = raw.ReadSlowly(4096);
    const std::string trace = response.trace_id;
    EXPECT_TRUE(answers.emplace(trace, std::move(response)).second)
        << "duplicate answer for " << trace;
  }
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (std::size_t k = 0; k < kRequests; ++k) {
    const auto it = answers.find("p-" + std::to_string(k));
    ASSERT_NE(it, answers.end()) << "no answer for request " << k;
    if (it->second.status == ResponseStatus::kOk) {
      ++ok;
      ASSERT_EQ(it->second.distances.size(), 1u);
      EXPECT_EQ(it->second.distances[0], want[k]) << "request " << k;
    } else {
      EXPECT_EQ(it->second.status, ResponseStatus::kShed);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 24u);
  EXPECT_EQ(shed, 8u);
  EXPECT_LE(server.Stats().sends - sends_before, 2u);
  server.Stop();
}

TEST(QueryServerTest, OutOfRangeVertexGetsBadRequestNotPoisonedBatch) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  pll::Index index = BuildTestIndex(g);
  query::QueryEngine direct(index, {});
  QueryServer server(index, {});
  server.Start();

  // Two connections drain in the same coalescing cycle as one QueryBatch;
  // the bad id must 400 its own request without failing the good one.
  ServeClient good;
  ServeClient bad;
  good.Connect(server.Port());
  bad.Connect(server.Port());
  const std::vector<QueryPair> bad_pairs = {{0, g.NumVertices() + 5}};
  EXPECT_EQ(bad.Distance(bad_pairs).status, ResponseStatus::kBadRequest);

  const auto pairs = RandomPairs(g.NumVertices(), 16, 8);
  const Response ok = good.Distance(pairs);
  ASSERT_EQ(ok.status, ResponseStatus::kOk);
  EXPECT_EQ(ok.distances, direct.QueryBatch(pairs));
  EXPECT_GE(server.Stats().bad_requests, 1u);
  server.Stop();
}

TEST(QueryServerTest, GarbageFrameGetsBadRequestAndClose) {
  const Graph g = graph::ErdosRenyi(40, 100, {WeightModel::kUniform, 9}, 3);
  QueryServer server(BuildTestIndex(g), {});
  server.Start();
  RawClient raw(server.Port());
  // Correct length prefix, wrong magic: decodes must throw server-side.
  std::string frame = EncodeInfoRequest();
  frame[4] ^= 0x5a;
  raw.Send(frame);
  EXPECT_EQ(raw.ReadSlowly(64).status, ResponseStatus::kBadRequest);
  EXPECT_GE(server.Stats().bad_requests, 1u);
  server.Stop();
}

// A full-size response (kMaxPairsPerRequest distances, ~512 KiB) read by a
// deliberately slow client: the daemon's non-blocking send must park the
// overflow in the connection's outbuf and finish via POLLOUT, delivering
// every byte bit-identically.
TEST(QueryServerTest, SlowReaderGetsCompleteResponseViaPartialWrites) {
  const Graph g = graph::ErdosRenyi(80, 240, {WeightModel::kUniform, 9}, 4);
  pll::Index index = BuildTestIndex(g);
  query::QueryEngine direct(index, {});
  QueryServer server(index, {});
  server.Start();

  const auto pairs =
      RandomPairs(g.NumVertices(), kMaxPairsPerRequest, 31);
  const std::vector<graph::Distance> want = direct.QueryBatch(pairs);

  RawClient raw(server.Port());
  raw.Send(EncodeDistanceRequest(pairs));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const Response response = raw.ReadSlowly(4096);
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.distances, want);
  server.Stop();
}

// Requests in a flood: ~8.8 MB each way, more than kMaxUnsentBytes plus
// what the kernel's loopback buffers absorb (a 4 MB send buffer by
// default), so a client that does not read gets parked.
constexpr std::size_t kFloodRequests = 16'000;

// Several MB of pipelined requests, the answers to `count` 64-pair
// DISTANCE_QUERY frames traced "bp-<k>", with an INFO frame (an answer
// ~6x the size of its request) after every 8th.
std::string PipelinedFlood(std::span<const QueryPair> pairs,
                           std::size_t count) {
  std::string frames;
  for (std::size_t k = 0; k < count; ++k) {
    frames += EncodeDistanceRequest(pairs.subspan(k * 64, 64),
                                    "bp-" + std::to_string(k));
    if (k % 8 == 7) {
      frames += EncodeInfoRequest();
    }
  }
  return frames;
}

bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// A client that pipelines without reading is parked at kMaxUnsentBytes
// instead of growing the daemon's memory: its unsent answers stay under
// the cap plus one answer, another connection keeps being served, and
// once the client reads, every answer arrives, distance answers in
// request order and bit-identical to QueryBatch.
TEST(QueryServerTest, ClientThatDoesNotReadIsParkedAtTheAnswerCap) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  pll::Index index = BuildTestIndex(g);
  query::QueryEngine direct(index, {});
  QueryServer server(index, {});
  server.Start();

  constexpr std::size_t kRequests = kFloodRequests;
  const auto pairs = RandomPairs(g.NumVertices(), kRequests * 64, 51);
  const std::vector<graph::Distance> want = direct.QueryBatch(pairs);
  const std::string frames = PipelinedFlood(pairs, kRequests);
  RawClient flood(server.Port(), 16 << 10);
  // Blocks once the kernel's buffers fill, until the main thread reads.
  std::thread sender([&flood, &frames] { flood.Send(frames); });
  ASSERT_TRUE(WaitFor([&server] { return server.Stats().read_paused > 0; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::size_t one_answer = OkResponseFrameBytes(64, kMaxTraceIdBytes);
  EXPECT_LT(server.Stats().max_unsent_bytes, kMaxUnsentBytes + one_answer);
  EXPECT_GE(server.Stats().max_unsent_bytes, kMaxUnsentBytes);

  ServeClient other;
  other.Connect(server.Port());
  const auto other_pairs = RandomPairs(g.NumVertices(), 100, 52);
  const Response answer = other.Distance(other_pairs);
  ASSERT_EQ(answer.status, ResponseStatus::kOk);
  EXPECT_EQ(answer.distances, direct.QueryBatch(other_pairs));

  std::size_t next = 0;
  std::size_t infos = 0;
  while (next < kRequests || infos < kRequests / 8) {
    const Response response = flood.ReadSlowly(64 << 10);
    if (response.status == ResponseStatus::kInfo) {
      ++infos;
      continue;
    }
    ASSERT_EQ(response.status, ResponseStatus::kOk) << "request " << next;
    ASSERT_EQ(response.trace_id, "bp-" + std::to_string(next));
    const auto first = want.begin() + static_cast<std::ptrdiff_t>(64 * next);
    ASSERT_TRUE(std::equal(response.distances.begin(),
                           response.distances.end(), first, first + 64))
        << "request " << next;
    ++next;
  }
  sender.join();
  EXPECT_LT(server.Stats().max_unsent_bytes, kMaxUnsentBytes + one_answer);
  EXPECT_EQ(server.Stats().shed, 0u);
  server.Stop();
}

// A parked connection's reads no longer count as activity, so a client
// that never takes its answers is closed by the idle timeout.
TEST(QueryServerTest, ParkedClientIsClosedByTheIdleTimeout) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  ServeOptions options;
  options.idle_timeout_ms = 500;
  QueryServer server(BuildTestIndex(g), options);
  server.Start();
  constexpr std::size_t kRequests = kFloodRequests;
  const auto pairs = RandomPairs(g.NumVertices(), kRequests * 64, 53);
  // Framed before connecting: the connection must not idle before it
  // is parked.
  const std::string frames = PipelinedFlood(pairs, kRequests);
  RawClient flood(server.Port(), 16 << 10);
  std::thread sender([&flood, &frames] { (void)flood.TrySend(frames); });
  EXPECT_TRUE(WaitFor([&server] { return server.Stats().read_paused > 0; }));
  EXPECT_TRUE(WaitFor([&server] { return server.Stats().idle_closed > 0; }));
  sender.join();
  EXPECT_LT(server.Stats().max_unsent_bytes,
            kMaxUnsentBytes + OkResponseFrameBytes(64, kMaxTraceIdBytes));
  server.Stop();
}

TEST(QueryServerTest, LoadGenClosedLoopAnswersEverything) {
  const Graph g = graph::ErdosRenyi(80, 240, {WeightModel::kUniform, 9}, 4);
  ServeOptions options;
  options.engine_threads = 2;
  QueryServer server(BuildTestIndex(g), options);
  server.Start();
  LoadGenOptions load;
  load.port = server.Port();
  load.connections = 3;
  load.requests_per_connection = 40;
  load.pairs_per_request = 8;
  load.max_vertex = g.NumVertices();
  const LoadGenReport report = RunLoadGen(load);
  EXPECT_EQ(report.answered, 120u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.pairs, 960u);
  EXPECT_GT(report.p99_ns, 0u);
  server.Stop();
}

// A one-connection stand-in daemon: answers every DISTANCE_QUERY with
// zeros, but holds its first reply for `stall`.
class StallingListener {
 public:
  explicit StallingListener(std::chrono::milliseconds stall) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd_ < 0 ||
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 1) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      if (fd_ >= 0) {
        ::close(fd_);
      }
      throw std::runtime_error("stalling listener: cannot listen");
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, stall] { Serve(stall); });
  }
  ~StallingListener() {
    ::shutdown(fd_, SHUT_RDWR);  // wakes accept() if nobody connected
    thread_.join();
    ::close(fd_);
  }
  StallingListener(const StallingListener&) = delete;
  StallingListener& operator=(const StallingListener&) = delete;

  [[nodiscard]] std::uint16_t Port() const { return port_; }

 private:
  // Runs until the client hangs up; a malformed frame also ends it, which
  // the client sees as an error.
  void Serve(std::chrono::milliseconds stall) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) {
      return;
    }
    FrameReader reader(kMaxRequestPayload);
    std::string payload;
    char buf[4096];
    try {
      for (bool first = true;; first = false) {
        while (!reader.Next(payload)) {
          const ssize_t n = util::RecvRetry(conn, buf, sizeof(buf));
          if (n <= 0) {
            ::close(conn);
            return;
          }
          reader.Append(buf, static_cast<std::size_t>(n));
        }
        const Request request = DecodeRequestPayload(payload);
        if (first) {
          std::this_thread::sleep_for(stall);
        }
        const std::vector<graph::Distance> zeros(request.pairs.size(), 0);
        (void)util::SendAll(conn, EncodeOkResponse(zeros, request.trace_id));
      }
    } catch (const std::exception&) {
      ::close(conn);
    }
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

// Open-loop latency counts from each request's due time. One connection
// offers 40 requests, one every millisecond, to a server that holds its
// first reply for 50 ms: every later request is due during the stall
// and waits behind it, so at least half of them wait over 20 ms. Timing
// from the send instead would hide that wait (coordinated omission) and
// put the p50 near the bare loopback round trip.
TEST(LoadGenTest, OpenLoopLatencyIncludesTimeQueuedBehindAStall) {
  StallingListener listener(std::chrono::milliseconds(50));
  LoadGenOptions load;
  load.port = listener.Port();
  load.connections = 1;
  load.pairs_per_request = 1;
  load.max_vertex = 10;
  load.open_loop_qps = 1000.0;
  load.duration_seconds = 0.04;
  const LoadGenReport report = RunLoadGen(load);
  EXPECT_EQ(report.answered, 40u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GE(report.p50_ns, 20'000'000u);
  EXPECT_GE(report.p999_ns, 50'000'000u);
}

// Hot swap under live traffic: republish a different complete artifact
// under the watched path while a client hammers the daemon. The swap must
// be observed (Info().hot_swaps), and not a single query may fail.
TEST(QueryServerTest, HotSwapUnderLiveTrafficNeverFailsAQuery) {
  const std::string path =
      ::testing::TempDir() + "parapll_serve_hotswap." +
      std::to_string(::getpid()) + ".idx";
  const Graph g1 =
      graph::ErdosRenyi(80, 240, {WeightModel::kUniform, 9}, 101);
  const Graph g2 =
      graph::ErdosRenyi(80, 260, {WeightModel::kUniform, 9}, 202);
  const build::BuildOutcome b1 = build::Run(g1, {});
  b1.artifact.Save(path);

  ServeOptions options;
  options.watch_path = path;
  options.watch_poll_ms = 20;
  QueryServer server(b1.artifact.index, options);
  server.Start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> failed{0};
  std::thread traffic([&] {
    try {
      ServeClient client;
      client.Connect(server.Port());
      const auto pairs = RandomPairs(80, 16, 77);
      while (!stop.load()) {
        const Response response = client.Distance(pairs);
        if (response.status == ResponseStatus::kOk &&
            response.distances.size() == pairs.size()) {
          answered.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    } catch (const std::exception&) {
      failed.fetch_add(1);
    }
  });

  // Republish a different build over the watched path (atomic rename),
  // then wait for the watcher to flip the engine.
  build::Run(g2, {}).artifact.Save(path);
  ServeClient prober;
  prober.Connect(server.Port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t swaps = 0;
  while (swaps == 0 && std::chrono::steady_clock::now() < deadline) {
    swaps = prober.Info().hot_swaps;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  traffic.join();

  EXPECT_EQ(swaps, 1u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.hot_swaps, 1u);
  EXPECT_EQ(stats.reload_errors, 0u);
  // The prober's view reflects the new index's identity.
  EXPECT_EQ(prober.Info().fingerprint,
            build::IndexArtifact::Load(path).Manifest().graph_fingerprint);
  server.Stop();
}

// Republishing an identical build (same manifest) must NOT count as a
// swap, and a corrupt republish must keep the old engine serving.
TEST(QueryServerTest, WatcherSkipsIdenticalAndSurvivesCorruptRepublish) {
  const std::string path =
      ::testing::TempDir() + "parapll_serve_reload." +
      std::to_string(::getpid()) + ".idx";
  const Graph g =
      graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 55);
  const build::BuildOutcome built = build::Run(g, {});
  built.artifact.Save(path);

  ServeOptions options;
  options.watch_path = path;
  options.watch_poll_ms = 20;
  QueryServer server(built.artifact.index, options);
  server.Start();
  ServeClient client;
  client.Connect(server.Port());

  // Same bytes, new inode: the stamp changes but the manifest matches.
  built.artifact.Save(path);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(client.Info().hot_swaps, 0u);

  // Corrupt republish: reload fails, old engine keeps answering.
  {
    std::string bytes(64, '\x5a');
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.Stats().reload_errors == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.Stats().reload_errors, 1u);
  EXPECT_EQ(client.Info().hot_swaps, 0u);
  const auto pairs = RandomPairs(g.NumVertices(), 8, 9);
  EXPECT_EQ(client.Distance(pairs).status, ResponseStatus::kOk);
  server.Stop();
}

TEST(QueryServerTest, StopIsIdempotentAndRestartable) {
  const Graph g = graph::ErdosRenyi(40, 100, {WeightModel::kUniform, 9}, 3);
  QueryServer server(BuildTestIndex(g), {});
  server.Start();
  EXPECT_TRUE(server.Running());
  server.Stop();
  server.Stop();
  EXPECT_FALSE(server.Running());
  server.Start();
  ServeClient client;
  client.Connect(server.Port());
  EXPECT_EQ(client.Info().num_vertices, g.NumVertices());
  server.Stop();
}

#if PARAPLL_HAVE_MMAP

std::string BackendTempPath(const char* name) {
  return ::testing::TempDir() + "parapll_serve_backend_" + name + "." +
         std::to_string(::getpid()) + ".idx";
}

// The daemon's answers must be bit-identical whichever owner (heap store
// or mapped file) the served snapshot's LabelSource views.
TEST(QueryServerTest, ServesIdenticallyFromEveryBackend) {
  const Graph g = graph::ErdosRenyi(90, 270, {WeightModel::kUniform, 9}, 61);
  const build::BuildOutcome built = build::Run(g, {});
  const std::string path = BackendTempPath("matrix");
  built.artifact.Save(path, pll::kIndexFormatV2);

  const auto pairs = RandomPairs(g.NumVertices(), 64, 71);
  const std::vector<graph::Distance> want =
      query::QueryEngine(built.artifact.index).QueryBatch(pairs);

  for (const pll::StoreBackend backend :
       {pll::StoreBackend::kHeap, pll::StoreBackend::kMmap}) {
    SCOPED_TRACE(pll::ToString(backend));
    pll::ServableIndex servable = pll::ServableIndex::Load(path, backend);
    EXPECT_EQ(servable.backend, backend);
    QueryServer server(std::move(servable), {});
    server.Start();
    ServeClient client;
    client.Connect(server.Port());
    const Response response = client.Distance(pairs);
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(response.distances, want);
    server.Stop();
  }
  std::remove(path.c_str());
}

// Hot swap on the mmap backend: the republished v2 file must flip in
// under live traffic without failing a query — the old mapping may only
// be unmapped after in-flight batches drain (a use-after-unmap here is a
// crash, which is exactly what this test would catch).
TEST(QueryServerTest, HotSwapUnderTrafficOnMmapBackend) {
  const Graph g1 =
      graph::ErdosRenyi(80, 240, {WeightModel::kUniform, 9}, 301);
  const Graph g2 =
      graph::ErdosRenyi(80, 260, {WeightModel::kUniform, 9}, 302);
  const std::string path = BackendTempPath("mmap");
  build::Run(g1, {}).artifact.Save(path, pll::kIndexFormatV2);

  ServeOptions options;
  options.watch_path = path;
  options.watch_poll_ms = 20;
  options.backend = pll::StoreBackend::kMmap;
  QueryServer server(pll::ServableIndex::Load(path, options.backend),
                     options);
  server.Start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> failed{0};
  std::thread traffic([&] {
    try {
      ServeClient client;
      client.Connect(server.Port());
      const auto pairs = RandomPairs(80, 16, 77);
      while (!stop.load()) {
        const Response response = client.Distance(pairs);
        if (response.status == ResponseStatus::kOk &&
            response.distances.size() == pairs.size()) {
          answered.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    } catch (const std::exception&) {
      failed.fetch_add(1);
    }
  });

  build::Run(g2, {}).artifact.Save(path, pll::kIndexFormatV2);
  ServeClient prober;
  prober.Connect(server.Port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t swaps = 0;
  while (swaps == 0 && std::chrono::steady_clock::now() < deadline) {
    swaps = prober.Info().hot_swaps;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  traffic.join();

  EXPECT_EQ(swaps, 1u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(server.Stats().reload_errors, 0u);
  server.Stop();
  std::remove(path.c_str());
}

#endif  // PARAPLL_HAVE_MMAP

#endif  // PARAPLL_HAVE_SOCKETS

}  // namespace
}  // namespace parapll::serve
