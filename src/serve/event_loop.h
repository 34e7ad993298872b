#ifndef STTR_SERVE_EVENT_LOOP_H_
#define STTR_SERVE_EVENT_LOOP_H_

#include <sys/epoll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "serve/conn.h"
#include "serve/stats.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sttr::serve {

/// One epoll (level-triggered) I/O thread owning a set of nonblocking
/// connections. The loop reads request bytes into per-connection buffers,
/// parses incrementally (keep-alive, partial reads, pipelining), and hands
/// each complete request head to the `Handler`. The handler either answers
/// synchronously on the loop thread (Dispatch::kRespond) or goes async
/// (Dispatch::kAsync) — typically by queueing a task for a worker pool — and
/// later calls Complete(fd, generation) from any thread; the loop then
/// serializes and writes the response, honouring write readiness so a slow
/// client never blocks the thread.
///
/// Steady-state behaviour is allocation-free: connection slots, the epoll
/// event array, the wakeup queues, and each connection's buffers/arena all
/// reach a sticky high-water capacity during warmup. Loop-thread allocations
/// are metered per iteration into ServeStats::loop_allocs so tests can
/// assert the counter goes flat.
///
/// Thread model: all connection state is touched only by the loop thread,
/// except a kProcessing connection's `body`/`http_status`/arena which the
/// handling worker owns until it posts the completion (hand-off ordered by
/// mu_, so the ownership transfer is a proper happens-before edge). External
/// entry points — AddConnection, Complete, Stop — only enqueue under mu_ and
/// wake the loop via eventfd.
class EventLoop {
 public:
  struct Options {
    size_t max_request_bytes = 16 * 1024;
    /// A connection idle (no complete request in progress) longer than this
    /// is closed; one with a *partial* request buffered gets a 408 first.
    std::chrono::milliseconds idle_timeout{5000};
    /// Open-socket cap for this loop; connections beyond it are answered
    /// with the pre-serialized 503 and closed.
    size_t max_connections = 4096;
  };

  /// Handler verdict for one parsed request.
  enum class Dispatch {
    kRespond,  ///< conn.http_status/body filled; loop writes the response
    kAsync,    ///< handed off; Complete(fd, generation) will arrive later
    kClose,    ///< drop the connection without a response
  };

  /// Invoked on the loop thread with a complete request head. The
  /// ParsedRequest's views point into conn.in and die when the handler
  /// returns — an async handler must copy what it needs first.
  using Handler = std::function<Dispatch(Conn&, const ParsedRequest&)>;

  /// `stats` may be null (syscall/alloc tallies are then skipped);
  /// `handler` must be valid for the loop's lifetime.
  EventLoop(Options options, ServeStats* stats, Handler handler);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread. False if epoll/eventfd setup failed.
  bool Start() EXCLUDES(mu_);

  /// Graceful shutdown: stops accepting new connections, closes idle ones,
  /// lets in-flight requests finish and their responses drain, then joins
  /// the thread. Idempotent; latecomers block until the first call is done.
  void Stop() EXCLUDES(mu_);

  /// Transfers ownership of an accepted socket to this loop (thread-safe).
  /// The loop makes it nonblocking and starts reading. After Stop() began,
  /// the fd is simply closed.
  void AddConnection(int fd) EXCLUDES(mu_);

  /// Posts the completion of an async request (thread-safe, any thread).
  /// The (fd, generation) pair names the exact connection the request was
  /// dispatched on; completions for since-recycled slots are ignored.
  void Complete(int fd, uint64_t generation) EXCLUDES(mu_);

  /// Connections currently open on this loop (approximate; for tests).
  size_t num_open() const {
    return open_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Completion {
    int fd;
    uint64_t generation;
  };

  void Run();

  // All of the below run exclusively on the loop thread.
  void Register(int fd);
  Conn* Lookup(int fd);
  void CloseConn(Conn& conn);
  void OnReadable(Conn& conn);
  void OnWritable(Conn& conn);
  void TryParse(Conn& conn);
  void SendStatic(Conn& conn, std::string_view full_response);
  void FinishResponse(Conn& conn);
  void FlushOut(Conn& conn);
  void UpdateInterest(Conn& conn);
  void SweepIdle(std::chrono::steady_clock::time_point now);
  void Wake();

  const Options opts_;
  ServeStats* const stats_;
  const Handler handler_;

  int epoll_fd_ = -1;
  int event_fd_ = -1;

  Mutex mu_;
  bool running_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  bool stop_done_ GUARDED_BY(mu_) = false;
  CondVar stop_cv_;
  std::thread thread_ GUARDED_BY(mu_);
  std::vector<int> incoming_ GUARDED_BY(mu_);
  std::vector<Completion> completions_ GUARDED_BY(mu_);

  // Loop-thread-only state (no locks; single owner).
  std::vector<std::unique_ptr<Conn>> conns_;  ///< indexed by fd
  std::vector<int> incoming_scratch_;
  std::vector<Completion> completions_scratch_;
  std::vector<epoll_event> events_;
  uint64_t gen_counter_ = 0;
  std::chrono::steady_clock::time_point next_sweep_;
  /// Loop-thread snapshot of stopping_, refreshed each iteration so the
  /// write path can force-close after the in-flight response drains.
  bool stopping_flag_ = false;

  std::atomic<size_t> open_count_{0};
};

}  // namespace sttr::serve

#endif  // STTR_SERVE_EVENT_LOOP_H_
