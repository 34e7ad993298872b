#include "serve/shard_protocol.h"

#include <cstring>

namespace sttr::serve {

namespace {

template <typename T>
void AppendRaw(const T& value, std::string* out) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T LoadRaw(const char* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

// Decodes the common `magic | payload_len` prefix. Returns kComplete when
// `buffer` holds the full payload (payload start/length in *payload_*).
FrameParse ParseHeader(std::string_view buffer, uint32_t want_magic,
                       size_t* payload_len) {
  if (buffer.size() < kFrameHeaderBytes) return FrameParse::kNeedMore;
  if (LoadRaw<uint32_t>(buffer.data()) != want_magic) return FrameParse::kBad;
  const size_t len = LoadRaw<uint32_t>(buffer.data() + 4);
  if (len > kMaxFramePayloadBytes) return FrameParse::kBad;
  if (buffer.size() < kFrameHeaderBytes + len) return FrameParse::kNeedMore;
  *payload_len = len;
  return FrameParse::kComplete;
}

}  // namespace

void AppendGatherRequest(const GatherRequest& req, std::string* out) {
  const uint32_t count = static_cast<uint32_t>(req.ids.size());
  const uint32_t payload_len = 8 + 1 + 3 + 4 + 4 + count * 8;
  AppendRaw(kGatherRequestMagic, out);
  AppendRaw(payload_len, out);
  AppendRaw(req.request_id, out);
  out->push_back(static_cast<char>(req.table));
  out->append(3, '\0');
  AppendRaw(req.deadline_ms, out);
  AppendRaw(count, out);
  out->append(reinterpret_cast<const char*>(req.ids.data()), count * 8);
}

void AppendGatherResponse(uint64_t request_id, GatherStatus status,
                          uint32_t dim, std::span<const float> rows,
                          std::string* out) {
  const uint32_t count = dim == 0 ? 0 : static_cast<uint32_t>(rows.size() / dim);
  const uint32_t payload_len =
      8 + 1 + 3 + 4 + 4 + static_cast<uint32_t>(rows.size() * sizeof(float));
  AppendRaw(kGatherResponseMagic, out);
  AppendRaw(payload_len, out);
  AppendRaw(request_id, out);
  out->push_back(static_cast<char>(status));
  out->append(3, '\0');
  AppendRaw(dim, out);
  AppendRaw(count, out);
  out->append(reinterpret_cast<const char*>(rows.data()),
              rows.size() * sizeof(float));
}

FrameParse ParseGatherRequest(std::string_view buffer, GatherRequest* out,
                              size_t* consumed) {
  size_t payload_len = 0;
  const FrameParse header = ParseHeader(buffer, kGatherRequestMagic, &payload_len);
  if (header != FrameParse::kComplete) return header;
  if (payload_len < 20) return FrameParse::kBad;
  const char* p = buffer.data() + kFrameHeaderBytes;
  out->request_id = LoadRaw<uint64_t>(p);
  const uint8_t table = static_cast<uint8_t>(p[8]);
  if (table > static_cast<uint8_t>(EmbeddingTable::kPoi)) return FrameParse::kBad;
  out->table = static_cast<EmbeddingTable>(table);
  out->deadline_ms = LoadRaw<uint32_t>(p + 12);
  const uint32_t count = LoadRaw<uint32_t>(p + 16);
  if (count > kMaxGatherIds) return FrameParse::kBad;
  if (payload_len != 20 + static_cast<size_t>(count) * 8) return FrameParse::kBad;
  out->ids.resize(count);
  std::memcpy(out->ids.data(), p + 20, static_cast<size_t>(count) * 8);
  *consumed = kFrameHeaderBytes + payload_len;
  return FrameParse::kComplete;
}

FrameParse ParseGatherResponse(std::string_view buffer, GatherResponse* out,
                               size_t* consumed) {
  size_t payload_len = 0;
  const FrameParse header =
      ParseHeader(buffer, kGatherResponseMagic, &payload_len);
  if (header != FrameParse::kComplete) return header;
  if (payload_len < 20) return FrameParse::kBad;
  const char* p = buffer.data() + kFrameHeaderBytes;
  out->request_id = LoadRaw<uint64_t>(p);
  const uint8_t status = static_cast<uint8_t>(p[8]);
  if (status > static_cast<uint8_t>(GatherStatus::kShuttingDown)) {
    return FrameParse::kBad;
  }
  out->status = static_cast<GatherStatus>(status);
  out->dim = LoadRaw<uint32_t>(p + 12);
  out->count = LoadRaw<uint32_t>(p + 16);
  const size_t floats = static_cast<size_t>(out->dim) * out->count;
  if (out->count > kMaxGatherIds) return FrameParse::kBad;
  if (payload_len != 20 + floats * sizeof(float)) return FrameParse::kBad;
  out->rows.resize(floats);
  // An empty vector's data() may be null, which memcpy must not receive.
  if (floats > 0) {
    std::memcpy(out->rows.data(), p + 20, floats * sizeof(float));
  }
  *consumed = kFrameHeaderBytes + payload_len;
  return FrameParse::kComplete;
}

}  // namespace sttr::serve
