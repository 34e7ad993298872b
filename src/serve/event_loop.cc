#include "serve/event_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "serve/alloc_hook.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/socket_io.h"

namespace sttr::serve {

namespace {

constexpr size_t kMaxEvents = 128;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Replies the loop makes without consulting the handler, pre-serialized once
// at startup (EventLoop's constructor touches each accessor) so the steady
// state never assembles them. Their bytes are pinned by
// tests/serve/golden/protocol_errors.golden and request_timeout.golden.
const std::string& MalformedResponse() {
  static const std::string r = SerializeResponse(
      400, "{\"error\": \"malformed request line\"}", /*keep_alive=*/false);
  return r;
}
const std::string& TooLargeResponse() {
  static const std::string r = SerializeResponse(
      431, "{\"error\": \"request too large\"}", /*keep_alive=*/false);
  return r;
}
const std::string& TimeoutResponse() {
  static const std::string r = SerializeResponse(
      408, "{\"error\": \"request timeout\"}", /*keep_alive=*/false);
  return r;
}
const std::string& OverloadedResponse() {
  static const std::string r = SerializeResponse(
      503, "{\"error\": \"server overloaded\"}", /*keep_alive=*/false);
  return r;
}

}  // namespace

EventLoop::EventLoop(Options options, ServeStats* stats, Handler handler)
    : opts_(options), stats_(stats), handler_(std::move(handler)) {
  STTR_CHECK(handler_ != nullptr);
  // Both fds live for the whole object lifetime so Wake() from worker
  // threads can never race with a close() — Stop() joins the loop but only
  // the destructor (which requires external quiescence) closes them.
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  events_.resize(kMaxEvents);
  // Force the pre-serialized replies to build now, not on the hot path.
  MalformedResponse();
  TooLargeResponse();
  TimeoutResponse();
  OverloadedResponse();
}

EventLoop::~EventLoop() {
  Stop();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
}

bool EventLoop::Start() {
  MutexLock lock(mu_);
  STTR_CHECK(!running_) << "Start() on a running EventLoop";
  if (epoll_fd_ < 0 || event_fd_ < 0) return false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = event_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0 &&
      errno != EEXIST) {
    return false;
  }
  running_ = true;
  stopping_ = false;
  stop_done_ = false;
  thread_ = std::thread([this] { Run(); });
  return true;
}

void EventLoop::Stop() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
    if (stopping_) {
      // A concurrent Stop() is already driving the shutdown; wait it out.
      while (!stop_done_) stop_cv_.Wait(mu_);
      return;
    }
    stopping_ = true;
  }
  Wake();
  std::thread t;
  {
    MutexLock lock(mu_);
    t = std::move(thread_);
  }
  if (t.joinable()) t.join();
  {
    MutexLock lock(mu_);
    // Sockets that raced into the queue after the loop stopped draining it.
    for (int fd : incoming_) ::close(fd);
    incoming_.clear();
    completions_.clear();
    running_ = false;
    stop_done_ = true;
  }
  stop_cv_.NotifyAll();
}

void EventLoop::AddConnection(int fd) {
  {
    MutexLock lock(mu_);
    if (running_ && !stopping_) {
      incoming_.push_back(fd);
      fd = -1;
    }
  }
  if (fd >= 0) {
    ::close(fd);  // not accepting (never started, or stopping)
    return;
  }
  Wake();
}

void EventLoop::Complete(int fd, uint64_t generation) {
  {
    MutexLock lock(mu_);
    completions_.push_back(Completion{fd, generation});
  }
  Wake();
}

void EventLoop::Wake() {
  const uint64_t one = 1;
  const ssize_t n = ::write(event_fd_, &one, sizeof(one));
  (void)n;  // eventfd writes only fail when the counter saturates — fine.
}

void EventLoop::Run() {
  const auto sweep_period = std::clamp(opts_.idle_timeout / 4,
                                       std::chrono::milliseconds(10),
                                       std::chrono::milliseconds(500));
  next_sweep_ = std::chrono::steady_clock::now() + sweep_period;
  bool stopping = false;
  for (;;) {
    const uint64_t alloc_base = ThreadAllocCount();
    const int wait_ms = static_cast<int>(std::min<int64_t>(
        100, std::max<int64_t>(1, sweep_period.count())));
    const int n =
        ::epoll_wait(epoll_fd_, events_.data(),
                     static_cast<int>(events_.size()), wait_ms);
    if (stats_ != nullptr) {
      stats_->sys_epoll_waits.fetch_add(1, std::memory_order_relaxed);
    }
    if (n < 0 && errno != EINTR) {
      STTR_LOG(Warning) << "epoll_wait: " << std::strerror(errno);
    }

    // Drain the wake-up eventfd BEFORE taking the queues: a Complete() or
    // AddConnection() that lands after the swap below then re-arms it and
    // wakes the next epoll_wait. Draining after the swap would swallow that
    // wake-up and strand the item until the next event or the timeout.
    for (int i = 0; i < n; ++i) {
      if (events_[static_cast<size_t>(i)].data.fd == event_fd_) {
        uint64_t drained;
        while (::read(event_fd_, &drained, sizeof(drained)) > 0) {
        }
      }
    }
    {
      MutexLock lock(mu_);
      stopping = stopping_;
      incoming_scratch_.swap(incoming_);
      completions_scratch_.swap(completions_);
    }
    stopping_flag_ = stopping;

    for (int fd : incoming_scratch_) {
      if (stopping) {
        ::close(fd);
      } else {
        Register(fd);
      }
    }
    incoming_scratch_.clear();

    for (const Completion& c : completions_scratch_) {
      Conn* conn = Lookup(c.fd);
      if (conn == nullptr || conn->generation != c.generation ||
          conn->state != Conn::State::kProcessing) {
        continue;  // connection closed/recycled since dispatch
      }
      FinishResponse(*conn);
    }
    completions_scratch_.clear();

    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events_[static_cast<size_t>(i)];
      if (ev.data.fd == event_fd_) continue;  // drained above
      Conn* conn = Lookup(ev.data.fd);
      if (conn == nullptr || conn->state == Conn::State::kClosed) continue;
      if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (ev.events & (EPOLLIN | EPOLLOUT)) == 0) {
        // Pure hangup/error with nothing readable or writable left.
        if (conn->state == Conn::State::kProcessing) {
          // Level-triggered epoll reports a hang-up whatever the interest
          // mask, so the fd leaves the set until the completion closes it;
          // left in, it would wake every epoll_wait until then.
          conn->defer_close = true;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
        } else {
          CloseConn(*conn);
        }
        continue;
      }
      if ((ev.events & EPOLLIN) != 0 &&
          conn->state == Conn::State::kReading) {
        OnReadable(*conn);
      }
      if (conn->state == Conn::State::kWriting &&
          (ev.events & (EPOLLOUT | EPOLLHUP | EPOLLERR)) != 0) {
        OnWritable(*conn);
      }
    }

    const auto now = std::chrono::steady_clock::now();
    if (stopping) {
      // Graceful: drop connections that are between requests; let in-flight
      // work (kProcessing/kWriting) finish and drain.
      for (const auto& c : conns_) {
        if (c != nullptr && c->state == Conn::State::kReading) {
          CloseConn(*c);
        }
      }
      if (stats_ != nullptr) {
        stats_->loop_allocs.fetch_add(ThreadAllocCount() - alloc_base,
                                      std::memory_order_relaxed);
      }
      if (open_count_.load(std::memory_order_relaxed) == 0) return;
      continue;
    }
    if (now >= next_sweep_) {
      SweepIdle(now);
      next_sweep_ = now + sweep_period;
    }
    if (stats_ != nullptr) {
      stats_->loop_allocs.fetch_add(ThreadAllocCount() - alloc_base,
                                    std::memory_order_relaxed);
    }
  }
}

void EventLoop::Register(int fd) {
  if (open_count_.load(std::memory_order_relaxed) >= opts_.max_connections) {
    if (stats_ != nullptr) {
      stats_->rejected_connections.fetch_add(1, std::memory_order_relaxed);
      stats_->sys_writes.fetch_add(1, std::memory_order_relaxed);
    }
    // Best effort: a fresh socket's send buffer takes this tiny reply.
    SetNonBlocking(fd);
    const std::string& reply = OverloadedResponse();
    (void)net::Send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
    ::close(fd);
    return;
  }
  SetNonBlocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (static_cast<size_t>(fd) >= conns_.size()) {
    conns_.resize(static_cast<size_t>(fd) + 1);
  }
  if (conns_[static_cast<size_t>(fd)] == nullptr) {
    conns_[static_cast<size_t>(fd)] = std::make_unique<Conn>();
  }
  Conn& conn = *conns_[static_cast<size_t>(fd)];
  conn.Open(fd, ++gen_counter_, std::chrono::steady_clock::now());
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    STTR_LOG(Warning) << "epoll_ctl(ADD): " << std::strerror(errno);
    ::close(fd);
    conn.state = Conn::State::kClosed;
    return;
  }
  conn.interest = EPOLLIN;
  open_count_.fetch_add(1, std::memory_order_relaxed);
}

Conn* EventLoop::Lookup(int fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= conns_.size()) return nullptr;
  return conns_[static_cast<size_t>(fd)].get();
}

void EventLoop::CloseConn(Conn& conn) {
  ::close(conn.fd);  // implicitly removes the fd from the epoll set
  conn.state = Conn::State::kClosed;
  conn.interest = 0;
  open_count_.fetch_sub(1, std::memory_order_relaxed);
}

void EventLoop::UpdateInterest(Conn& conn) {
  uint32_t mask = 0;
  if (conn.state == Conn::State::kReading && !conn.defer_close) {
    mask = EPOLLIN;
  } else if (conn.state == Conn::State::kWriting) {
    mask = EPOLLOUT;
  }
  if (mask == conn.interest) return;
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.interest = mask;
}

void EventLoop::OnReadable(Conn& conn) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = net::Recv(conn.fd, chunk, sizeof(chunk), 0);
    if (stats_ != nullptr) {
      stats_->sys_reads.fetch_add(1, std::memory_order_relaxed);
    }
    if (n == 0) {
      CloseConn(conn);  // client closed between requests
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConn(conn);
      return;
    }
    conn.in.append(chunk, static_cast<size_t>(n));
    conn.last_activity = std::chrono::steady_clock::now();
    TryParse(conn);
    return;  // one read per readiness event; level-triggered epoll re-arms
  }
}

void EventLoop::OnWritable(Conn& conn) { FlushOut(conn); }

void EventLoop::TryParse(Conn& conn) {
  while (conn.state == Conn::State::kReading) {
    ParsedRequest req;
    switch (ParseRequest(conn.in, opts_.max_request_bytes, &req)) {
      case ParseStatus::kNeedMore:
        return;
      case ParseStatus::kTooLarge:
        // 431: reply and close, no counter.
        SendStatic(conn, TooLargeResponse());
        return;
      case ParseStatus::kMalformed:
        if (stats_ != nullptr) {
          stats_->bad_requests.fetch_add(1, std::memory_order_relaxed);
        }
        SendStatic(conn, MalformedResponse());
        return;
      case ParseStatus::kComplete:
        break;
    }
    conn.keep_alive = req.keep_alive;
    conn.close_after_write = !req.keep_alive;
    conn.req_start = std::chrono::steady_clock::now();
    conn.StartRequest();
    const Dispatch verdict = handler_(conn, req);
    conn.ConsumeRequest(req.consumed);
    switch (verdict) {
      case Dispatch::kClose:
        CloseConn(conn);
        return;
      case Dispatch::kAsync:
        conn.state = Conn::State::kProcessing;
        UpdateInterest(conn);
        return;
      case Dispatch::kRespond:
        FinishResponse(conn);
        break;  // may have gone back to kReading: serve pipelined input
    }
  }
}

void EventLoop::SendStatic(Conn& conn, std::string_view full_response) {
  conn.StartRequest();
  conn.out.Append(full_response);
  conn.close_after_write = true;
  conn.state = Conn::State::kWriting;
  FlushOut(conn);
}

void EventLoop::FinishResponse(Conn& conn) {
  // The Connection: header mirrors the request's keep-alive wish, even when
  // shutdown closes right afterwards.
  SerializeResponseInto(&conn, conn.keep_alive);
  conn.state = Conn::State::kWriting;
  FlushOut(conn);
}

void EventLoop::FlushOut(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n =
        net::Send(conn.fd, conn.out.data() + conn.out_off,
                  conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (stats_ != nullptr) {
      stats_->sys_writes.fetch_add(1, std::memory_order_relaxed);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && !conn.defer_close) {
        // Slow client: park the rest on write readiness, never block here.
        // (A hung-up one has left the epoll set; it is closed below.)
        conn.state = Conn::State::kWriting;
        UpdateInterest(conn);
        return;
      }
      CloseConn(conn);
      return;
    }
    conn.out_off += static_cast<size_t>(n);
  }
  if (conn.close_after_write || !conn.keep_alive || conn.defer_close ||
      stopping_flag_) {
    CloseConn(conn);
    return;
  }
  conn.state = Conn::State::kReading;
  conn.last_activity = std::chrono::steady_clock::now();
  UpdateInterest(conn);
  TryParse(conn);  // a pipelined request may already be buffered
}

void EventLoop::SweepIdle(std::chrono::steady_clock::time_point now) {
  for (const auto& c : conns_) {
    if (c == nullptr || c->state != Conn::State::kReading) continue;
    if (now - c->last_activity < opts_.idle_timeout) continue;
    if (!c->in.empty()) {
      // A partial request is stranded: answer 408 then close.
      SendStatic(*c, TimeoutResponse());
    } else {
      CloseConn(*c);  // idle keep-alive connection
    }
  }
}

}  // namespace sttr::serve
