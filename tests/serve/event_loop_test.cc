// EventLoop tests against real loopback sockets: keep-alive and pipelining,
// partial reads and writes, bounded/malformed input, idle timeouts, the
// async completion hand-off, the connection cap, and lifecycle churn. The
// loop is driven standalone with tiny synthetic handlers — server-level
// semantics (routing, scoring, the recorded HTTP contract) live in
// server_test.cc and golden_test.cc.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/event_loop.h"
#include "util/check.h"
#include "util/mutex.h"

namespace sttr::serve {
namespace {

/// Listener + loop pair: accepted sockets are handed straight to the loop,
/// the way RecommendServer's acceptor does.
class LoopHarness {
 public:
  explicit LoopHarness(EventLoop::Options opts, EventLoop::Handler handler,
                       ServeStats* stats = nullptr)
      : loop_(opts, stats, std::move(handler)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    STTR_CHECK_GE(listen_fd_, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    STTR_CHECK_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)),
                  0);
    STTR_CHECK_EQ(::listen(listen_fd_, 256), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    STTR_CHECK(loop_.Start());
    acceptor_ = std::thread([this] {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        loop_.AddConnection(fd);
      }
    });
  }

  ~LoopHarness() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    acceptor_.join();
    loop_.Stop();
  }

  int port() const { return port_; }
  EventLoop& loop() { return loop_; }

 private:
  EventLoop loop_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
};

/// Minimal blocking client for one connection.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    STTR_CHECK_GE(fd_, 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    STTR_CHECK_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& raw) {
    STTR_CHECK_EQ(::send(fd_, raw.data(), raw.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(raw.size()));
  }

  struct Response {
    int status = 0;
    std::string body;
  };

  /// Reads one full response (headers + Content-Length body).
  Response Read() {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      STTR_CHECK(Fill()) << "closed before headers";
    }
    Response r;
    STTR_CHECK_EQ(
        std::sscanf(buffer_.c_str(), "HTTP/1.1 %d", &r.status), 1);
    const size_t cl = buffer_.find("Content-Length: ");
    STTR_CHECK_NE(cl, std::string::npos);
    const size_t length = static_cast<size_t>(
        std::strtoull(buffer_.c_str() + cl + 16, nullptr, 10));
    while (buffer_.size() < header_end + 4 + length) {
      STTR_CHECK(Fill()) << "closed mid-body";
    }
    r.body = buffer_.substr(header_end + 4, length);
    buffer_.erase(0, header_end + 4 + length);
    return r;
  }

  Response Roundtrip(const std::string& raw) {
    Send(raw);
    return Read();
  }

  /// True when the server closes without sending further bytes. A clean FIN
  /// and an RST both count: closing an fd with unread input (e.g. the tail
  /// of an oversized head the server rightly stopped reading) resets.
  bool WaitForClose() {
    char c;
    return ::recv(fd_, &c, 1, 0) <= 0;
  }

  int fd() const { return fd_; }

 private:
  bool Fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// Handler answering 200 with the request path echoed in the body.
EventLoop::Handler EchoPath() {
  return [](Conn& conn, const ParsedRequest& req) {
    conn.http_status = 200;
    conn.body.Append("path=");
    conn.body.Append(req.path);
    return EventLoop::Dispatch::kRespond;
  };
}

TEST(EventLoopTest, KeepAliveServesManyRequestsOnOneConnection) {
  LoopHarness harness(EventLoop::Options{}, EchoPath());
  Client client(harness.port());
  for (int i = 0; i < 20; ++i) {
    const std::string path = "/req" + std::to_string(i);
    const auto r =
        client.Roundtrip("GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "path=" + path);
  }
  EXPECT_EQ(harness.loop().num_open(), 1u);
}

TEST(EventLoopTest, PipelinedRequestsAnswerInOrder) {
  LoopHarness harness(EventLoop::Options{}, EchoPath());
  Client client(harness.port());
  std::string burst;
  for (int i = 0; i < 5; ++i) {
    burst += "GET /p" + std::to_string(i) + " HTTP/1.1\r\n\r\n";
  }
  client.Send(burst);
  for (int i = 0; i < 5; ++i) {
    const auto r = client.Read();
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "path=/p" + std::to_string(i));
  }
}

TEST(EventLoopTest, ByteAtATimeRequestStillParses) {
  LoopHarness harness(EventLoop::Options{}, EchoPath());
  Client client(harness.port());
  const std::string raw = "GET /slow HTTP/1.1\r\nHost: t\r\n\r\n";
  for (const char c : raw) client.Send(std::string(1, c));
  const auto r = client.Read();
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "path=/slow");
}

TEST(EventLoopTest, LargeResponseDrainsViaWriteReadiness) {
  // A response far larger than the socket buffers forces partial sends; the
  // loop must finish it via EPOLLOUT without blocking (a second connection
  // stays responsive while the first drains).
  const std::string big(4 * 1024 * 1024, 'x');
  LoopHarness harness(
      EventLoop::Options{},
      [&big](Conn& conn, const ParsedRequest& req) {
        conn.http_status = 200;
        conn.body.Append(req.path == "/big" ? std::string_view(big)
                                            : std::string_view("small"));
        return EventLoop::Dispatch::kRespond;
      });
  Client slow(harness.port());
  slow.Send("GET /big HTTP/1.1\r\n\r\n");
  // Don't read yet: let the server hit EAGAIN and park on write readiness.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Client other(harness.port());
  EXPECT_EQ(other.Roundtrip("GET /x HTTP/1.1\r\n\r\n").body, "small");
  const auto r = slow.Read();
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.body, big);
}

TEST(EventLoopTest, MalformedRequestLineGets400AndClose) {
  ServeStats stats;
  LoopHarness harness(EventLoop::Options{}, EchoPath(), &stats);
  Client client(harness.port());
  const auto r = client.Roundtrip("NONSENSE\r\n\r\n");
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(r.body, "{\"error\": \"malformed request line\"}");
  EXPECT_TRUE(client.WaitForClose());
  EXPECT_EQ(stats.bad_requests.load(), 1u);
}

TEST(EventLoopTest, OversizedHeadGets431AndClose) {
  EventLoop::Options opts;
  opts.max_request_bytes = 1024;
  LoopHarness harness(opts, EchoPath());
  Client client(harness.port());
  client.Send("GET / HTTP/1.1\r\nX-Junk: " + std::string(5000, 'a'));
  const auto r = client.Read();
  EXPECT_EQ(r.status, 431);
  EXPECT_EQ(r.body, "{\"error\": \"request too large\"}");
  EXPECT_TRUE(client.WaitForClose());
}

TEST(EventLoopTest, IdleTimeoutClosesSilentlyAndStrandedRequestGets408) {
  EventLoop::Options opts;
  opts.idle_timeout = std::chrono::milliseconds(100);
  LoopHarness harness(opts, EchoPath());
  // Fully idle: closed with no bytes.
  Client idle(harness.port());
  // Stranded partial request: answered 408 then closed.
  Client stranded(harness.port());
  stranded.Send("GET /part HTTP/1.1\r\nHost:");
  const auto r = stranded.Read();
  EXPECT_EQ(r.status, 408);
  EXPECT_EQ(r.body, "{\"error\": \"request timeout\"}");
  EXPECT_TRUE(stranded.WaitForClose());
  EXPECT_TRUE(idle.WaitForClose());
}

TEST(EventLoopTest, ConnectionCapAnswers503AndCloses) {
  EventLoop::Options opts;
  opts.max_connections = 2;
  LoopHarness harness(opts, EchoPath());
  Client a(harness.port());
  Client b(harness.port());
  // Make sure both are registered before the third connects.
  ASSERT_EQ(a.Roundtrip("GET /a HTTP/1.1\r\n\r\n").status, 200);
  ASSERT_EQ(b.Roundtrip("GET /b HTTP/1.1\r\n\r\n").status, 200);
  Client c(harness.port());
  const auto r = c.Read();
  EXPECT_EQ(r.status, 503);
  EXPECT_EQ(r.body, "{\"error\": \"server overloaded\"}");
  EXPECT_TRUE(c.WaitForClose());
  // The capped loop still serves its registered connections.
  EXPECT_EQ(a.Roundtrip("GET /again HTTP/1.1\r\n\r\n").status, 200);
}

TEST(EventLoopTest, ManyIdleKeepAliveConnectionsDontStarveTraffic) {
  LoopHarness harness(EventLoop::Options{}, EchoPath());
  std::vector<std::unique_ptr<Client>> idle;
  for (int i = 0; i < 200; ++i) {
    idle.push_back(std::make_unique<Client>(harness.port()));
  }
  Client active(harness.port());
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(active.Roundtrip("GET /hot HTTP/1.1\r\n\r\n").body,
              "path=/hot");
  }
  // All idle connections are still open server-side.
  EXPECT_GE(harness.loop().num_open(), 200u);
}

// Async handler plumbing: requests are parked (kProcessing) and completed
// from a separate thread, like the scoring worker pool does.
class AsyncEcho {
 public:
  explicit AsyncEcho(std::chrono::milliseconds delay) : delay_(delay) {
    worker_ = std::thread([this] { Drain(); });
  }
  ~AsyncEcho() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    worker_.join();
  }

  void set_loop(EventLoop* loop) { loop_ = loop; }

  EventLoop::Handler handler() {
    return [this](Conn& conn, const ParsedRequest&) {
      {
        MutexLock lock(mu_);
        pending_.push_back({&conn, conn.fd, conn.generation});
      }
      cv_.NotifyOne();
      return EventLoop::Dispatch::kAsync;
    };
  }

 private:
  struct Item {
    Conn* conn;
    int fd;
    uint64_t generation;
  };

  void Drain() {
    for (;;) {
      Item item;
      {
        MutexLock lock(mu_);
        while (pending_.empty() && !stop_) cv_.Wait(mu_);
        if (pending_.empty()) return;
        item = pending_.front();
        pending_.pop_front();
      }
      std::this_thread::sleep_for(delay_);
      item.conn->http_status = 200;
      item.conn->body.Append("async-done");
      loop_->Complete(item.fd, item.generation);
    }
  }

  const std::chrono::milliseconds delay_;
  EventLoop* loop_ = nullptr;
  Mutex mu_;
  CondVar cv_;
  std::deque<Item> pending_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread worker_;
};

TEST(EventLoopTest, AsyncCompletionFromAnotherThreadWritesResponse) {
  AsyncEcho async(std::chrono::milliseconds(5));
  LoopHarness harness(EventLoop::Options{}, async.handler());
  async.set_loop(&harness.loop());
  Client client(harness.port());
  for (int i = 0; i < 5; ++i) {
    const auto r = client.Roundtrip("GET /a HTTP/1.1\r\n\r\n");
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "async-done");
  }
}

TEST(EventLoopTest, PipelinedAsyncCompletionsNeverWaitForTheTimeout) {
  // Completions land from another thread while the loop is mid-iteration.
  // Every one must wake the loop: a lost wake-up leaves the response parked
  // until epoll_wait's 100 ms timeout.
  constexpr int kConns = 4;
  constexpr int kRequests = 500;
  AsyncEcho async(std::chrono::milliseconds(0));
  LoopHarness harness(EventLoop::Options{}, async.handler());
  async.set_loop(&harness.loop());
  std::atomic<int64_t> worst_gap_us{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&] {
      Client client(harness.port());
      std::string burst;
      for (int i = 0; i < kRequests; ++i) {
        burst += "GET /p HTTP/1.1\r\n\r\n";
      }
      client.Send(burst);
      auto last = std::chrono::steady_clock::now();
      for (int i = 0; i < kRequests; ++i) {
        const auto r = client.Read();
        const auto now = std::chrono::steady_clock::now();
        const int64_t gap_us =
            std::chrono::duration_cast<std::chrono::microseconds>(now - last)
                .count();
        last = now;
        int64_t prev = worst_gap_us.load();
        while (gap_us > prev &&
               !worst_gap_us.compare_exchange_weak(prev, gap_us)) {
        }
        if (r.status == 200 && r.body == "async-done") ++answered;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(answered.load(), kConns * kRequests);
  EXPECT_LT(worst_gap_us.load(), 50'000)
      << "a response waited for the epoll_wait timeout";
}

TEST(EventLoopTest, StopDrainsInFlightAsyncRequests) {
  // Shutdown must not drop a request already handed to a worker: the client
  // gets the full response (Connection mirrors the request's keep-alive,
  // but the socket closes after).
  AsyncEcho async(std::chrono::milliseconds(100));
  auto harness = std::make_unique<LoopHarness>(EventLoop::Options{},
                                               async.handler());
  async.set_loop(&harness->loop());
  Client client(harness->port());
  client.Send("GET /slow HTTP/1.1\r\n\r\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread stopper([&harness] { harness.reset(); });  // Stop() inside
  const auto r = client.Read();
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "async-done");
  EXPECT_TRUE(client.WaitForClose());
  stopper.join();
}

TEST(EventLoopTest, StopIsIdempotentAndStartStopChurns) {
  for (int round = 0; round < 10; ++round) {
    EventLoop loop(EventLoop::Options{}, nullptr, EchoPath());
    ASSERT_TRUE(loop.Start());
    loop.Stop();
    loop.Stop();  // idempotent
  }
}

TEST(EventLoopTest, ConcurrentStopCallsAreSafe) {
  for (int round = 0; round < 10; ++round) {
    EventLoop loop(EventLoop::Options{}, nullptr, EchoPath());
    ASSERT_TRUE(loop.Start());
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([&loop] { loop.Stop(); });
    }
    for (auto& t : stoppers) t.join();
  }
}

}  // namespace
}  // namespace sttr::serve
