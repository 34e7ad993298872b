// Unit tests for the incremental HTTP/1.1 request-head parser and the
// response serializers. The parser is driven exactly as the event loop
// drives it — over a growing buffer, byte at a time, with pipelined and
// partial input — and its verdicts pin the request-line/header semantics
// (golden_test.cc then pins the end-to-end bytes).

#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "serve/conn.h"

namespace sttr::serve {
namespace {

constexpr size_t kMaxBytes = 16 * 1024;

ParseStatus Parse(std::string_view buffer, ParsedRequest* out,
                  size_t max_bytes = kMaxBytes) {
  return ParseRequest(buffer, max_bytes, out);
}

TEST(HttpParserTest, ParsesSimpleGet) {
  ParsedRequest req;
  const std::string raw = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(Parse(raw, &req), ParseStatus::kComplete);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/healthz");
  EXPECT_EQ(req.path, "/healthz");
  EXPECT_EQ(req.query, "");
  EXPECT_TRUE(req.keep_alive);
  EXPECT_EQ(req.consumed, raw.size());
}

TEST(HttpParserTest, SplitsQueryString) {
  ParsedRequest req;
  ASSERT_EQ(Parse("GET /recommend?user=3&k=5 HTTP/1.1\r\n\r\n", &req),
            ParseStatus::kComplete);
  EXPECT_EQ(req.path, "/recommend");
  EXPECT_EQ(req.query, "user=3&k=5");
}

TEST(HttpParserTest, ByteAtATimeNeedsMoreUntilTerminator) {
  const std::string raw =
      "GET /recommend?user=1&lat=2&lon=3 HTTP/1.1\r\n"
      "Host: example\r\nAccept: */*\r\n\r\n";
  std::string buffer;
  ParsedRequest req;
  for (size_t i = 0; i + 1 < raw.size(); ++i) {
    buffer += raw[i];
    ASSERT_EQ(Parse(buffer, &req), ParseStatus::kNeedMore)
        << "after " << (i + 1) << " bytes";
  }
  buffer += raw.back();
  ASSERT_EQ(Parse(buffer, &req), ParseStatus::kComplete);
  EXPECT_EQ(req.consumed, raw.size());
  EXPECT_EQ(req.query, "user=1&lat=2&lon=3");
}

TEST(HttpParserTest, PipelinedRequestsConsumeOneAtATime) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string second = "GET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
  std::string buffer = first + second;

  ParsedRequest req;
  ASSERT_EQ(Parse(buffer, &req), ParseStatus::kComplete);
  EXPECT_EQ(req.path, "/a");
  EXPECT_TRUE(req.keep_alive);
  EXPECT_EQ(req.consumed, first.size());

  buffer.erase(0, req.consumed);
  ASSERT_EQ(Parse(buffer, &req), ParseStatus::kComplete);
  EXPECT_EQ(req.path, "/b");
  EXPECT_FALSE(req.keep_alive);
  EXPECT_EQ(req.consumed, second.size());
}

TEST(HttpParserTest, ConnectionCloseIsCaseInsensitiveAndTrimmed) {
  ParsedRequest req;
  ASSERT_EQ(Parse("GET / HTTP/1.1\r\n  CONNECTION: Close  \r\n\r\n", &req),
            ParseStatus::kComplete);
  EXPECT_FALSE(req.keep_alive);
  // Internal whitespace is significant: the trimmed, lowercased line must
  // equal "connection: close" exactly.
  ASSERT_EQ(Parse("GET / HTTP/1.1\r\nConnection:   close\r\n\r\n", &req),
            ParseStatus::kComplete);
  EXPECT_TRUE(req.keep_alive);
  // Unrelated headers must not flip it.
  ASSERT_EQ(Parse("GET / HTTP/1.1\r\nX-Connection: close\r\n\r\n", &req),
            ParseStatus::kComplete);
  EXPECT_TRUE(req.keep_alive);
}

TEST(HttpParserTest, MalformedRequestLines) {
  ParsedRequest req;
  // Too few tokens.
  EXPECT_EQ(Parse("NONSENSE\r\n\r\n", &req), ParseStatus::kMalformed);
  EXPECT_EQ(Parse("GET /\r\n\r\n", &req), ParseStatus::kMalformed);
  // Too many tokens.
  EXPECT_EQ(Parse("GET / extra HTTP/1.1\r\n\r\n", &req),
            ParseStatus::kMalformed);
  // Wrong protocol.
  EXPECT_EQ(Parse("GET / SMTP/1.0\r\n\r\n", &req), ParseStatus::kMalformed);
  EXPECT_EQ(Parse("GET / HTTP/2\r\n\r\n", &req), ParseStatus::kMalformed);
  // HTTP/1.x is accepted (prefix match).
  EXPECT_EQ(Parse("GET / HTTP/1.0\r\n\r\n", &req), ParseStatus::kComplete);
}

TEST(HttpParserTest, OversizedHeadIsBounded) {
  ParsedRequest req;
  // Below the cap without a terminator: keep reading.
  std::string head = "GET / HTTP/1.1\r\nX-Junk: " + std::string(100, 'a');
  EXPECT_EQ(Parse(head, &req, /*max_bytes=*/1024), ParseStatus::kNeedMore);
  // Past the cap without a terminator: reject, never buffer unboundedly.
  head += std::string(2000, 'a');
  EXPECT_EQ(Parse(head, &req, /*max_bytes=*/1024), ParseStatus::kTooLarge);
  // A complete (terminated) head is parsed even if the buffer has since
  // grown past the cap with pipelined input behind it.
  const std::string ok = "GET / HTTP/1.1\r\n\r\n";
  EXPECT_EQ(Parse(ok + std::string(5000, 'b'), &req, /*max_bytes=*/1024),
            ParseStatus::kComplete);
  EXPECT_EQ(req.consumed, ok.size());
}

TEST(HttpParserTest, TornMultibyteUtf8InTargetIsByteTransparent) {
  // "/café" in UTF-8; é = 0xC3 0xA9. Split the buffer inside the multibyte
  // sequence: the parser must neither complete early nor mangle the bytes.
  const std::string raw = "GET /caf\xC3\xA9?q=\xE2\x82\xAC HTTP/1.1\r\n\r\n";
  const size_t torn_at = raw.find('\xC3') + 1;  // between the two é bytes
  ParsedRequest req;
  EXPECT_EQ(Parse(raw.substr(0, torn_at), &req), ParseStatus::kNeedMore);
  ASSERT_EQ(Parse(raw, &req), ParseStatus::kComplete);
  EXPECT_EQ(req.path, "/caf\xC3\xA9");
  EXPECT_EQ(req.query, "q=\xE2\x82\xAC");
}

TEST(HttpParserTest, ViewsPointIntoTheBuffer) {
  // Zero-copy contract: the parsed views alias the input buffer.
  const std::string raw = "GET /p?q=1 HTTP/1.1\r\n\r\n";
  ParsedRequest req;
  ASSERT_EQ(Parse(raw, &req), ParseStatus::kComplete);
  EXPECT_GE(req.method.data(), raw.data());
  EXPECT_LE(req.target.data() + req.target.size(), raw.data() + raw.size());
}

TEST(HttpSerializeTest, ArenaAndHeapSerializersAgreeByteForByte) {
  const struct {
    int status;
    std::string_view body;
    bool keep_alive;
  } cases[] = {
      {200, "{\"status\": \"ok\"}", true},
      {200, "", false},
      {400, "{\"error\": \"malformed request line\"}", false},
      {404, "{\"error\": \"unknown path\"}", true},
      {408, "{\"error\": \"request timeout\"}", false},
      {431, "{\"error\": \"request too large\"}", false},
      {503, "{\"error\": \"server overloaded\"}", false},
      {599, "x", true},  // unknown code -> default reason phrase
  };
  for (const auto& c : cases) {
    Conn conn;
    conn.http_status = c.status;
    conn.body.Append(c.body);
    SerializeResponseInto(&conn, c.keep_alive);
    EXPECT_EQ(conn.out.view(),
              SerializeResponse(c.status, c.body, c.keep_alive))
        << c.status;
  }
}

TEST(HttpSerializeTest, SerializedBytesMatchTheWireFormat) {
  EXPECT_EQ(SerializeResponse(200, "{}", true),
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: 2\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
            "{}");
}

}  // namespace
}  // namespace sttr::serve
