// Fuzz harness for the gather-protocol frame parsers
// (serve/shard_protocol.h). Frames cross process boundaries between the
// router and shard servers, over sockets the chaos suite tears mid-send —
// so kNeedMore/kBad classification on arbitrary prefixes is load-bearing,
// not cosmetic. Properties:
//
//   * kComplete consumes (0, size] bytes and respects the protocol caps.
//   * Encode(Parse(x)) re-parses to the same frame (round-trip identity) —
//     and consumes exactly the re-encoded length.
//   * A strict prefix of a valid frame is kNeedMore, never kComplete or
//     kBad: the router accumulates partial reads and re-parses, so a
//     prefix misclassified as kBad would tear a healthy connection.

#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "fuzz_driver.h"
#include "serve/shard_protocol.h"

using sttr::serve::AppendGatherRequest;
using sttr::serve::AppendGatherResponse;
using sttr::serve::FrameParse;
using sttr::serve::GatherRequest;
using sttr::serve::GatherResponse;
using sttr::serve::kMaxGatherIds;
using sttr::serve::ParseGatherRequest;
using sttr::serve::ParseGatherResponse;

namespace {

void CheckPrefixesNeedMore(std::string_view wire, bool request) {
  // Spot-check a handful of strict prefixes (every length would make large
  // frames quadratic): truncating anywhere must yield kNeedMore.
  const size_t probes[] = {0, 1, wire.size() / 2, wire.size() - 1};
  for (size_t len : probes) {
    if (len >= wire.size()) continue;
    size_t consumed = 0;
    FrameParse st;
    if (request) {
      GatherRequest out;
      st = ParseGatherRequest(wire.substr(0, len), &out, &consumed);
    } else {
      GatherResponse out;
      st = ParseGatherResponse(wire.substr(0, len), &out, &consumed);
    }
    FUZZ_CHECK(st == FrameParse::kNeedMore);
  }
}

void RunRequest(std::string_view buffer) {
  GatherRequest req;
  size_t consumed = 0;
  if (ParseGatherRequest(buffer, &req, &consumed) != FrameParse::kComplete) {
    return;
  }
  FUZZ_CHECK(consumed > 0);
  FUZZ_CHECK(consumed <= buffer.size());
  FUZZ_CHECK(req.ids.size() <= kMaxGatherIds);

  std::string wire;
  AppendGatherRequest(req, &wire);
  GatherRequest back;
  size_t reconsumed = 0;
  FUZZ_CHECK(ParseGatherRequest(wire, &back, &reconsumed) ==
             FrameParse::kComplete);
  FUZZ_CHECK(reconsumed == wire.size());
  FUZZ_CHECK(back.request_id == req.request_id);
  FUZZ_CHECK(back.table == req.table);
  FUZZ_CHECK(back.deadline_ms == req.deadline_ms);
  FUZZ_CHECK(back.ids == req.ids);
  CheckPrefixesNeedMore(wire, /*request=*/true);
}

void RunResponse(std::string_view buffer) {
  GatherResponse resp;
  size_t consumed = 0;
  if (ParseGatherResponse(buffer, &resp, &consumed) != FrameParse::kComplete) {
    return;
  }
  FUZZ_CHECK(consumed > 0);
  FUZZ_CHECK(consumed <= buffer.size());
  FUZZ_CHECK(resp.rows.size() ==
             static_cast<size_t>(resp.count) * resp.dim);

  std::string wire;
  AppendGatherResponse(resp.request_id, resp.status, resp.dim,
                       std::span<const float>(resp.rows), &wire);
  GatherResponse back;
  size_t reconsumed = 0;
  FUZZ_CHECK(ParseGatherResponse(wire, &back, &reconsumed) ==
             FrameParse::kComplete);
  FUZZ_CHECK(reconsumed == wire.size());
  FUZZ_CHECK(back.request_id == resp.request_id);
  FUZZ_CHECK(back.status == resp.status);
  FUZZ_CHECK(back.dim == resp.dim);
  FUZZ_CHECK(back.count == resp.count);
  // Float payloads round-trip bit-exactly (raw little-endian copies), so
  // compare representations, not values — NaNs must survive too. Empty
  // rows have null data(), which memcmp must not receive.
  FUZZ_CHECK(back.rows.size() == resp.rows.size());
  FUZZ_CHECK(resp.rows.empty() ||
             std::memcmp(back.rows.data(), resp.rows.data(),
                         resp.rows.size() * sizeof(float)) == 0);
  CheckPrefixesNeedMore(wire, /*request=*/false);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view buffer(reinterpret_cast<const char*>(data), size);
  RunRequest(buffer);
  RunResponse(buffer);
  return 0;
}
