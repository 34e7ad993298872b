#include "serve/conn.h"

#include <cctype>

namespace sttr::serve {

namespace {

inline bool IsWs(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}

std::string_view TrimView(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && IsWs(s[b])) ++b;
  while (e > b && IsWs(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Case-insensitive equality against an already-lowercase literal, without
/// materializing the lowered string.
bool EqualsLower(std::string_view s, std::string_view lower) {
  if (s.size() != lower.size()) return false;
  for (size_t i = 0; i < s.size(); ++i) {
    if (static_cast<char>(
            std::tolower(static_cast<unsigned char>(s[i]))) != lower[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

ParseStatus ParseRequest(std::string_view buffer, size_t max_request_bytes,
                         ParsedRequest* out) {
  const size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    // The size check applies while the terminator is still missing, so a
    // complete head that arrived oversized in one read is still parsed.
    return buffer.size() > max_request_bytes ? ParseStatus::kTooLarge
                                             : ParseStatus::kNeedMore;
  }
  const std::string_view head = buffer.substr(0, header_end);

  // Request line: exactly three whitespace-separated tokens, the third an
  // HTTP/1.x version. (A trailing '\r' before the first '\n' is whitespace
  // and drops out of the tokenization, as it did with SplitWhitespace.)
  size_t line_end = head.find('\n');
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  std::string_view tokens[3];
  size_t num_tokens = 0;
  size_t i = 0;
  while (i < request_line.size()) {
    while (i < request_line.size() && IsWs(request_line[i])) ++i;
    if (i >= request_line.size()) break;
    const size_t start = i;
    while (i < request_line.size() && !IsWs(request_line[i])) ++i;
    if (num_tokens == 3) return ParseStatus::kMalformed;  // 4+ tokens
    tokens[num_tokens++] = request_line.substr(start, i - start);
  }
  if (num_tokens != 3 || tokens[2].substr(0, 7) != "HTTP/1.") {
    return ParseStatus::kMalformed;
  }

  out->method = tokens[0];
  out->target = tokens[1];
  out->keep_alive = true;
  out->consumed = header_end + 4;

  // Header lines: only "Connection: close" (case-insensitive, whitespace
  // trimmed, byte-for-byte otherwise) flips keep-alive.
  while (line_end != std::string_view::npos) {
    const size_t line_start = line_end + 1;
    line_end = head.find('\n', line_start);
    const std::string_view line =
        TrimView(line_end == std::string_view::npos
                     ? head.substr(line_start)
                     : head.substr(line_start, line_end - line_start));
    if (EqualsLower(line, "connection: close")) out->keep_alive = false;
  }

  const size_t qmark = out->target.find('?');
  out->path = out->target.substr(0, qmark);
  out->query = qmark == std::string_view::npos
                   ? std::string_view{}
                   : out->target.substr(qmark + 1);
  return ParseStatus::kComplete;
}

std::string_view HttpStatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 408: return "Request Timeout";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

void SerializeResponseInto(Conn* conn, bool keep_alive_header) {
  ArenaBuf& out = conn->out;
  out.Append("HTTP/1.1 ");
  out.AppendInt(conn->http_status);
  out.Append(' ');
  out.Append(HttpStatusText(conn->http_status));
  out.Append("\r\nContent-Type: application/json\r\nContent-Length: ");
  out.AppendUint(conn->body.size());
  out.Append("\r\nConnection: ");
  out.Append(keep_alive_header ? std::string_view("keep-alive")
                               : std::string_view("close"));
  out.Append("\r\n\r\n");
  out.Append(conn->body.view());
}

std::string SerializeResponse(int code, std::string_view body,
                              bool keep_alive) {
  std::string out;
  out += "HTTP/1.1 ";
  out += std::to_string(code);
  out += ' ';
  out += HttpStatusText(code);
  out += "\r\nContent-Type: application/json\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n\r\n";
  out.append(body);
  return out;
}

}  // namespace sttr::serve
