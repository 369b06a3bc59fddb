// parapll_serve wire format: compact length-prefixed binary frames.
//
// Everything is little-endian. A frame is
//
//   u32 payload_len | payload_len bytes of payload
//
// and a payload starts with a magic + a one-byte discriminator:
//
//   request  = u32 kRequestMagic  | u8 RequestType  | body
//   response = u32 kResponseMagic | u8 ResponseStatus | body
//
//   DISTANCE_QUERY body: u32 count | count x (u32 s, u32 t) [| trace]
//   OK body:             u32 count | count x u64 distance   [| trace]
//   INFO response body:  u32 num_vertices | u64 fingerprint | u64 hot_swaps
//                        | u64 queued_pairs | u64 shed | u64 snapshot_age_ms
//                        (the 25-byte pre-0.8 body without the last three
//                        fields still decodes, for older daemons)
//   SHED / BAD_REQUEST body: empty                          [| trace]
//   INFO request: empty body
//
// `trace` is an optional trailing block `u8 trace_len | trace_len bytes`
// carrying a client-supplied trace id (absent block == no id — old
// clients' frames are byte-identical to pre-0.8). The server echoes the
// request's id on the matching OK/SHED response and threads it through
// the wide-event request log. Hostile bytes are
// sanitized on decode: ids are capped at kMaxTraceIdBytes (a longer
// declared length throws) and every byte outside [A-Za-z0-9._:/-] is
// replaced with '_' so ids are always safe to grep and to embed in JSON.
//
// Decoding follows the repo's untrusted-wire discipline (see
// corrupt_input_test): magic, discriminator, and count are validated
// before anything is allocated, counts are hard-capped at
// kMaxPairsPerRequest, payload sizes must match the declared count
// *exactly* (truncation and trailing bytes both throw), and every
// malformation surfaces as a recoverable std::runtime_error — never an
// abort or an attacker-sized reserve. FrameReader enforces the payload
// cap on the declared length *before* buffering toward it, so a hostile
// length prefix cannot balloon a connection's buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/types.hpp"
#include "query/query_engine.hpp"

namespace parapll::serve {

inline constexpr std::uint32_t kRequestMagic = 0x71725031;   // "1Prq"
inline constexpr std::uint32_t kResponseMagic = 0x71735031;  // "1Psq"

// Hard cap on (s, t) pairs in one DISTANCE_QUERY — and therefore on
// distances in one OK response. Anything larger must be split client-side.
inline constexpr std::uint32_t kMaxPairsPerRequest = 65536;

// Hard cap on a trace id's length on the wire; a declared trace_len
// beyond this is a malformed frame, and encoders refuse longer ids.
inline constexpr std::size_t kMaxTraceIdBytes = 64;

// Largest legal payloads, derived from the caps: magic + type/status byte
// [+ count + count * sizeof(element)] [+ trace_len byte + trace bytes].
inline constexpr std::size_t kMaxRequestPayload =
    4 + 1 + 4 + std::size_t{kMaxPairsPerRequest} * 8 + 1 + kMaxTraceIdBytes;
inline constexpr std::size_t kMaxResponsePayload =
    4 + 1 + 4 + std::size_t{kMaxPairsPerRequest} * 8 + 1 + kMaxTraceIdBytes;

enum class RequestType : std::uint8_t {
  kDistanceQuery = 1,  // N (s, t) pairs -> N distances
  kInfo = 2,           // what index is this process serving?
};

enum class ResponseStatus : std::uint8_t {
  kOk = 0,          // distances, one per requested pair, in order
  kShed = 1,        // admission queue over budget: retry later
  kBadRequest = 2,  // malformed frame or out-of-range vertex id
  kInfo = 3,        // answer to RequestType::kInfo
};

struct Request {
  RequestType type = RequestType::kDistanceQuery;
  std::vector<query::QueryPair> pairs;  // DISTANCE_QUERY only
  std::string trace_id;  // sanitized; empty when the client sent none
};

// INFO response body: enough for a client to generate valid queries, and
// a saturation view (queue depth, sheds, snapshot age) so a probe can
// see overload without scraping metrics.
struct ServerInfo {
  std::uint32_t num_vertices = 0;
  std::uint64_t fingerprint = 0;  // BuildManifest graph fingerprint
  std::uint64_t hot_swaps = 0;
  std::uint64_t queued_pairs = 0;     // admitted, awaiting the next drain
  std::uint64_t shed = 0;             // cumulative SHED responses
  std::uint64_t snapshot_age_ms = 0;  // ms since the served index flip
};

struct Response {
  ResponseStatus status = ResponseStatus::kOk;
  std::vector<graph::Distance> distances;  // kOk only
  ServerInfo info;                         // kInfo only
  std::string trace_id;  // echoed request id (kOk/kShed/kBadRequest)
};

// Truncates to kMaxTraceIdBytes and replaces every byte outside
// [A-Za-z0-9._:/-] with '_': the id a hostile client sent becomes safe
// to log, grep, and embed in JSON without escaping surprises.
[[nodiscard]] std::string SanitizeTraceId(std::string_view raw);

// --- encoding (always produces a complete frame, length prefix included) ---

// Throws std::invalid_argument when pairs.size() > kMaxPairsPerRequest or
// trace_id.size() > kMaxTraceIdBytes. An empty trace_id omits the trace
// block entirely (byte-identical to the pre-0.8 encoding).
[[nodiscard]] std::string EncodeDistanceRequest(
    std::span<const query::QueryPair> pairs, std::string_view trace_id = {});
[[nodiscard]] std::string EncodeInfoRequest();

// Appends one complete response frame to `out`: kOk carries `distances`,
// kShed / kBadRequest carry none (their body is just the optional trace).
// The daemon frames every answer of a loop cycle straight into the
// connection's write buffer through this. Throws std::invalid_argument,
// leaving `out` untouched, for kInfo (see EncodeInfoResponse), for
// distances on a non-OK status, or when a cap above is exceeded.
void AppendResponseFrame(std::string& out, ResponseStatus status,
                         std::span<const graph::Distance> distances,
                         std::string_view trace_id);

// Bytes AppendResponseFrame adds for an OK answer of `pairs` distances
// echoing a `trace_bytes`-byte trace id, length prefix included.
[[nodiscard]] constexpr std::size_t OkResponseFrameBytes(
    std::size_t pairs, std::size_t trace_bytes) {
  return 4 + 4 + 1 + 4 + pairs * sizeof(graph::Distance) +
         (trace_bytes == 0 ? 0 : 1 + trace_bytes);
}

[[nodiscard]] std::string EncodeOkResponse(
    std::span<const graph::Distance> distances, std::string_view trace_id = {});
// kShed / kBadRequest (statuses whose body is just the optional trace).
[[nodiscard]] std::string EncodeStatusResponse(ResponseStatus status,
                                               std::string_view trace_id = {});
[[nodiscard]] std::string EncodeInfoResponse(const ServerInfo& info);

// --- decoding (payload = frame minus the length prefix) -------------------

// Both throw std::runtime_error on any malformation: bad magic, unknown
// discriminator, count over the cap, truncated body, or trailing bytes.
[[nodiscard]] Request DecodeRequestPayload(std::string_view payload);
[[nodiscard]] Response DecodeResponsePayload(std::string_view payload);

// Incremental frame assembly over an arbitrary byte stream (a socket read
// loop feeds whatever recv returned). Append() buffers bytes; Next() pops
// the next complete payload, validating the declared length against
// `max_payload` as soon as the 4-byte prefix is visible. Next() only
// advances a read offset; Append() drops the consumed prefix once, so a
// read holding k frames costs one compaction, not k.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_payload) : max_payload_(max_payload) {}

  void Append(const char* data, std::size_t n);

  // True when a complete payload was popped into `payload`. Throws
  // std::runtime_error when the buffered length prefix exceeds
  // max_payload (the stream is unframeable from here on).
  bool Next(std::string& payload);

  // Bytes appended but not yet popped by Next().
  [[nodiscard]] std::size_t BufferedBytes() const {
    return buffer_.size() - head_;
  }

 private:
  std::size_t max_payload_;
  std::string buffer_;
  std::size_t head_ = 0;  // bytes of buffer_ already popped by Next()
};

}  // namespace parapll::serve
