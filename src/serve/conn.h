#ifndef STTR_SERVE_CONN_H_
#define STTR_SERVE_CONN_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/arena.h"

namespace sttr::serve {

/// One parsed HTTP/1.1 request head. Every view points into the
/// connection's input buffer and is valid only until the buffer is consumed
/// (ConsumeRequest) — i.e. for the lifetime of the request being handled.
struct ParsedRequest {
  std::string_view method;   ///< "GET", "POST", ...
  std::string_view target;   ///< full request target, e.g. "/recommend?u=1"
  std::string_view path;     ///< target up to '?'
  std::string_view query;    ///< after '?', empty when absent
  bool keep_alive = true;    ///< false on "Connection: close"
  size_t consumed = 0;       ///< bytes of the buffer this request spans
};

/// Incremental HTTP/1.1 request-head parser over a connection's buffered
/// bytes. Stateless: call again whenever more bytes arrive; a request is
/// complete once the blank line terminator is buffered. Bodies are not part
/// of this API (requests are GETs), so the head is the whole request —
/// pipelined requests simply queue up behind `consumed`.
///
/// Parsing allocates nothing: the request line is sliced in place and
/// headers are scanned, not stored. Malformed or oversized heads surface as
/// distinct statuses so the server can answer 400/431 and close.
enum class ParseStatus {
  kNeedMore,   ///< no complete head buffered yet
  kComplete,   ///< *out filled, out->consumed bytes ready to consume
  kTooLarge,   ///< head exceeds max_request_bytes (431, close)
  kMalformed,  ///< bad request line (400, close)
};

ParseStatus ParseRequest(std::string_view buffer, size_t max_request_bytes,
                         ParsedRequest* out);

/// Reason phrase for a status code.
std::string_view HttpStatusText(int code);

struct Conn;

/// Serializes the response ("HTTP/1.1 <code> <text>\r\nContent-Type: ...\r\n
/// Content-Length: <n>\r\nConnection: <keep-alive|close>\r\n\r\n<body>") from
/// conn->http_status and conn->body into conn->out. Arena-backed: allocates
/// nothing once the connection is warmed. `keep_alive_header` sets only the
/// Connection: header value — whether the socket actually stays open is the
/// event loop's decision.
void SerializeResponseInto(Conn* conn, bool keep_alive_header);

/// Heap-allocating variant used to pre-serialize the handful of static
/// replies (400/408/431/503) once at startup. Byte-identical to
/// SerializeResponseInto for the same inputs (asserted by tests).
std::string SerializeResponse(int code, std::string_view body,
                              bool keep_alive);

/// Per-connection state owned by one event loop. Input bytes accumulate in
/// `in` (capacity sticky across requests); per-request scratch — the JSON
/// body a worker assembles and the serialized response bytes — lives in the
/// arena, which is Reset at each request's start. A connection object is
/// pooled: Reset()+Open() recycle it for the next accepted socket on the
/// same fd slot without freeing buffers.
///
/// Ownership protocol (enforced by the loop's state machine, synchronized by
/// the loop/worker queue mutexes): in kProcessing the handling worker owns
/// `body`/`http_status` and the arena; in every other state the loop owns
/// all fields. `generation` stamps each accepted socket so a completion
/// posted for a connection that has since been closed and recycled is
/// ignored.
struct Conn {
  enum class State : uint8_t {
    kClosed,      ///< free slot
    kReading,     ///< waiting for (more of) a request head
    kProcessing,  ///< complete request handed to a worker
    kWriting,     ///< response bytes pending in `out`
  };

  Conn() : body(&arena), out(&arena) {}

  void Open(int new_fd, uint64_t gen,
            std::chrono::steady_clock::time_point now) {
    fd = new_fd;
    generation = gen;
    state = State::kReading;
    keep_alive = true;
    close_after_write = false;
    defer_close = false;
    interest = 0;
    http_status = 200;
    in.clear();  // capacity sticky
    out_off = 0;
    last_activity = now;
    req_start = now;
    arena.Reset();
    body.Clear();
    out.Clear();
  }

  /// Begins a request: reclaims the previous request's scratch.
  void StartRequest() {
    arena.Reset();
    body.Clear();
    out.Clear();
    out_off = 0;
    http_status = 200;
  }

  /// Drops the request's consumed bytes; what remains is pipelined input.
  void ConsumeRequest(size_t consumed) { in.erase(0, consumed); }

  int fd = -1;
  uint64_t generation = 0;
  State state = State::kClosed;
  bool keep_alive = true;
  bool close_after_write = false;
  /// Peer hung up (or errored) while a request was in flight: the loop
  /// never recycles a kProcessing connection, it closes it here after the
  /// completion lands instead.
  bool defer_close = false;
  /// epoll interest mask currently registered for this fd (loop
  /// bookkeeping; avoids redundant epoll_ctl calls).
  uint32_t interest = 0;

  std::string in;  ///< unconsumed request bytes read off the socket

  Arena arena;      ///< per-request scratch; Reset by StartRequest()
  ArenaBuf body;    ///< response body (worker-owned during kProcessing)
  int http_status = 200;
  ArenaBuf out;     ///< serialized response; written from out_off
  size_t out_off = 0;

  std::chrono::steady_clock::time_point last_activity;
  /// Set by the request router at parse time; the latency histogram records
  /// req_start -> response-built.
  std::chrono::steady_clock::time_point req_start;
};

}  // namespace sttr::serve

#endif  // STTR_SERVE_CONN_H_
