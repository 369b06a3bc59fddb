#include "serve/frame.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace parapll::serve {

namespace {

void AppendU32(std::string& out, std::uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, sizeof(v));
  out.append(bytes, sizeof(bytes));
}

void AppendU64(std::string& out, std::uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, sizeof(v));
  out.append(bytes, sizeof(bytes));
}

// parapll-lint: begin-untrusted-decode
std::uint32_t ReadU32(std::string_view bytes, std::size_t pos) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}

std::uint64_t ReadU64(std::string_view bytes, std::size_t pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}
// parapll-lint: end-untrusted-decode

// Prepends the length prefix once a payload is fully built.
std::string Framed(std::string payload) {
  std::string frame;
  frame.reserve(4 + payload.size());
  AppendU32(frame, static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  return frame;
}

[[noreturn]] void Fail(const char* what) {
  throw std::runtime_error(std::string("serve frame: ") + what);
}

// Appends the optional trailing trace block; an empty id appends nothing
// (the frame stays byte-identical to the pre-0.8 encoding).
void AppendTrace(std::string& payload, std::string_view trace_id) {
  if (trace_id.empty()) {
    return;
  }
  if (trace_id.size() > kMaxTraceIdBytes) {
    throw std::invalid_argument(
        "serve frame: trace id exceeds kMaxTraceIdBytes");
  }
  payload.push_back(static_cast<char>(trace_id.size()));
  payload.append(trace_id);
}

// parapll-lint: begin-untrusted-decode
// Validates and extracts the optional trace block that may follow the
// fixed body ending at `base`. Declared lengths over the cap and any
// size mismatch throw *before* anything is copied; the returned id is
// sanitized, never raw wire bytes.
std::string DecodeTrace(std::string_view payload, std::size_t base) {
  if (payload.size() == base) {
    return {};
  }
  const auto trace_len = static_cast<std::uint8_t>(payload[base]);
  if (trace_len > kMaxTraceIdBytes) {
    Fail("trace id exceeds kMaxTraceIdBytes");
  }
  if (payload.size() != base + 1 + std::size_t{trace_len}) {
    Fail("size does not match the declared trace length");
  }
  return SanitizeTraceId(payload.substr(base + 1, trace_len));
}
// parapll-lint: end-untrusted-decode

}  // namespace

std::string SanitizeTraceId(std::string_view raw) {
  std::string out;
  out.reserve(std::min(raw.size(), kMaxTraceIdBytes));
  for (const char c : raw.substr(0, std::min(raw.size(), kMaxTraceIdBytes))) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == ':' || c == '/' || c == '-';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string EncodeDistanceRequest(std::span<const query::QueryPair> pairs,
                                  std::string_view trace_id) {
  if (pairs.size() > kMaxPairsPerRequest) {
    throw std::invalid_argument(
        "serve frame: request exceeds kMaxPairsPerRequest");
  }
  std::string payload;
  payload.reserve(4 + 1 + 4 + pairs.size() * 8 + 1 + trace_id.size());
  AppendU32(payload, kRequestMagic);
  payload.push_back(
      static_cast<char>(RequestType::kDistanceQuery));
  AppendU32(payload, static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [s, t] : pairs) {
    AppendU32(payload, s);
    AppendU32(payload, t);
  }
  AppendTrace(payload, trace_id);
  return Framed(std::move(payload));
}

std::string EncodeInfoRequest() {
  std::string payload;
  AppendU32(payload, kRequestMagic);
  payload.push_back(static_cast<char>(RequestType::kInfo));
  return Framed(std::move(payload));
}

void AppendResponseFrame(std::string& out, ResponseStatus status,
                         std::span<const graph::Distance> distances,
                         std::string_view trace_id) {
  const bool ok = status == ResponseStatus::kOk;
  if (status == ResponseStatus::kInfo || (!ok && !distances.empty())) {
    throw std::invalid_argument(
        "serve frame: only an OK response carries distances");
  }
  if (distances.size() > kMaxPairsPerRequest) {
    throw std::invalid_argument(
        "serve frame: response exceeds kMaxPairsPerRequest");
  }
  if (trace_id.size() > kMaxTraceIdBytes) {
    throw std::invalid_argument(
        "serve frame: trace id exceeds kMaxTraceIdBytes");
  }
  const std::size_t payload = 4 + 1 +
                              (ok ? 4 + distances.size_bytes() : 0) +
                              (trace_id.empty() ? 0 : 1 + trace_id.size());
  AppendU32(out, static_cast<std::uint32_t>(payload));
  AppendU32(out, kResponseMagic);
  out.push_back(static_cast<char>(status));
  if (ok) {
    // Native u64s are the wire's little-endian u64s on every supported
    // host, as AppendU64 assumes.
    static_assert(sizeof(graph::Distance) == 8);
    AppendU32(out, static_cast<std::uint32_t>(distances.size()));
    out.append(reinterpret_cast<const char*>(distances.data()),
               distances.size_bytes());
  }
  AppendTrace(out, trace_id);
}

std::string EncodeOkResponse(std::span<const graph::Distance> distances,
                             std::string_view trace_id) {
  std::string frame;
  AppendResponseFrame(frame, ResponseStatus::kOk, distances, trace_id);
  return frame;
}

std::string EncodeStatusResponse(ResponseStatus status,
                                 std::string_view trace_id) {
  std::string frame;
  AppendResponseFrame(frame, status, {}, trace_id);
  return frame;
}

std::string EncodeInfoResponse(const ServerInfo& info) {
  std::string payload;
  AppendU32(payload, kResponseMagic);
  payload.push_back(static_cast<char>(ResponseStatus::kInfo));
  AppendU32(payload, info.num_vertices);
  AppendU64(payload, info.fingerprint);
  AppendU64(payload, info.hot_swaps);
  AppendU64(payload, info.queued_pairs);
  AppendU64(payload, info.shed);
  AppendU64(payload, info.snapshot_age_ms);
  return Framed(std::move(payload));
}

// parapll-lint: begin-untrusted-decode
Request DecodeRequestPayload(std::string_view payload) {
  if (payload.size() < 5) {
    Fail("request payload shorter than header");
  }
  if (ReadU32(payload, 0) != kRequestMagic) {
    Fail("bad request magic");
  }
  Request request;
  const auto type = static_cast<std::uint8_t>(payload[4]);
  switch (type) {
    case static_cast<std::uint8_t>(RequestType::kDistanceQuery): {
      request.type = RequestType::kDistanceQuery;
      if (payload.size() < 9) {
        Fail("DISTANCE_QUERY truncated before count");
      }
      const std::uint32_t count = ReadU32(payload, 5);
      if (count > kMaxPairsPerRequest) {
        Fail("pair count exceeds kMaxPairsPerRequest");
      }
      const std::size_t base = 9 + std::size_t{count} * 8;
      if (payload.size() < base) {
        Fail("DISTANCE_QUERY size does not match pair count");
      }
      request.trace_id = DecodeTrace(payload, base);
      // Bounds: count is capped and the full-structure check above holds
      // it to bytes actually delivered, never the declared value alone.
      request.pairs.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::size_t at = 9 + std::size_t{i} * 8;
        request.pairs.emplace_back(ReadU32(payload, at),
                                   ReadU32(payload, at + 4));
      }
      return request;
    }
    case static_cast<std::uint8_t>(RequestType::kInfo): {
      request.type = RequestType::kInfo;
      if (payload.size() != 5) {
        Fail("INFO request carries trailing bytes");
      }
      return request;
    }
    default:
      Fail("unknown request type");
  }
}

Response DecodeResponsePayload(std::string_view payload) {
  if (payload.size() < 5) {
    Fail("response payload shorter than header");
  }
  if (ReadU32(payload, 0) != kResponseMagic) {
    Fail("bad response magic");
  }
  Response response;
  const auto status = static_cast<std::uint8_t>(payload[4]);
  switch (status) {
    case static_cast<std::uint8_t>(ResponseStatus::kOk): {
      response.status = ResponseStatus::kOk;
      if (payload.size() < 9) {
        Fail("OK response truncated before count");
      }
      const std::uint32_t count = ReadU32(payload, 5);
      if (count > kMaxPairsPerRequest) {
        Fail("distance count exceeds kMaxPairsPerRequest");
      }
      const std::size_t base = 9 + std::size_t{count} * 8;
      if (payload.size() < base) {
        Fail("OK response size does not match distance count");
      }
      response.trace_id = DecodeTrace(payload, base);
      // Bounds: count is capped and size-matched against the payload
      // above, so this reserve is bytes-delivered-proportional.
      response.distances.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        response.distances.push_back(ReadU64(payload, 9 + std::size_t{i} * 8));
      }
      return response;
    }
    case static_cast<std::uint8_t>(ResponseStatus::kShed):
    case static_cast<std::uint8_t>(ResponseStatus::kBadRequest): {
      response.status = static_cast<ResponseStatus>(status);
      response.trace_id = DecodeTrace(payload, 5);
      return response;
    }
    case static_cast<std::uint8_t>(ResponseStatus::kInfo): {
      response.status = ResponseStatus::kInfo;
      // 25 bytes = the pre-0.8 body (identity only); 49 adds the
      // saturation fields. Anything else is malformed.
      if (payload.size() != 25 && payload.size() != 49) {
        Fail("INFO response has wrong size");
      }
      response.info.num_vertices = ReadU32(payload, 5);
      response.info.fingerprint = ReadU64(payload, 9);
      response.info.hot_swaps = ReadU64(payload, 17);
      if (payload.size() == 49) {
        response.info.queued_pairs = ReadU64(payload, 25);
        response.info.shed = ReadU64(payload, 33);
        response.info.snapshot_age_ms = ReadU64(payload, 41);
      }
      return response;
    }
    default:
      Fail("unknown response status");
  }
}
// parapll-lint: end-untrusted-decode

void FrameReader::Append(const char* data, std::size_t n) {
  buffer_.erase(0, head_);
  head_ = 0;
  buffer_.append(data, n);
}

// parapll-lint: begin-untrusted-decode
bool FrameReader::Next(std::string& payload) {
  const std::string_view pending = std::string_view(buffer_).substr(head_);
  if (pending.size() < 4) {
    return false;
  }
  const std::uint32_t declared = ReadU32(pending, 0);
  if (declared > max_payload_) {
    // Checked before waiting for (or buffering) `declared` bytes: a
    // hostile length prefix can never grow this connection's buffer.
    Fail("declared frame length exceeds the payload cap");
  }
  if (pending.size() < 4 + std::size_t{declared}) {
    return false;
  }
  payload.assign(pending.substr(4, declared));
  head_ += 4 + std::size_t{declared};
  return true;
}
// parapll-lint: end-untrusted-decode

}  // namespace parapll::serve
