#include "serve/sharded_store.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "util/logging.h"
#include "util/socket_io.h"
#include "util/string_util.h"

namespace sttr::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Remaining budget in whole milliseconds, saturated to a sane range so a
/// caller passing time_point::max() cannot overflow the u32 wire field.
uint32_t RemainingMs(Clock::time_point deadline) {
  const auto now = Clock::now();
  if (deadline <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count();
  return static_cast<uint32_t>(std::min<long long>(ms, 1 << 30));
}

}  // namespace

struct ShardedEmbeddingStore::ShardState {
  int port = 0;
  size_t index = 0;

  Mutex mu;
  std::vector<int> idle_fds GUARDED_BY(mu);
  size_t consecutive_failures GUARDED_BY(mu) = 0;
  bool tripped GUARDED_BY(mu) = false;
  Clock::time_point open_until GUARDED_BY(mu){};
  bool probe_in_flight GUARDED_BY(mu) = false;
};

struct ShardedEmbeddingStore::Pending {
  enum class State { kUnsent, kSending, kReceiving, kDone, kFailed };

  ShardState* shard = nullptr;
  std::vector<int64_t> ids;       // this shard's subset, send order
  std::vector<size_t> positions;  // index of each id in the caller's batch
  uint64_t request_id = 0;
  int fd = -1;
  bool is_probe = false;
  bool counted = false;  // fd acquired ⇒ outcome must be recorded once
  State state = State::kUnsent;
  bool transient = false;
  Status error = Status::OK();
  std::string out_buf;
  size_t out_off = 0;
  std::string in_buf;
};

ShardedEmbeddingStore::ShardedEmbeddingStore(ShardedStoreOptions options,
                                             size_t dim, size_t num_users,
                                             size_t num_pois)
    : options_(std::move(options)),
      dim_(dim),
      num_users_(num_users),
      num_pois_(num_pois),
      rng_(options_.jitter_seed) {
  shards_.reserve(options_.shard_ports.size());
  for (size_t i = 0; i < options_.shard_ports.size(); ++i) {
    auto shard = std::make_unique<ShardState>();
    shard->port = options_.shard_ports[i];
    shard->index = i;
    shards_.push_back(std::move(shard));
  }
}

ShardedEmbeddingStore::~ShardedEmbeddingStore() { CloseAllConnections(); }

void ShardedEmbeddingStore::CloseAllConnections() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const int fd : shard->idle_fds) ::close(fd);
    shard->idle_fds.clear();
  }
}

size_t ShardedEmbeddingStore::shards_down() const {
  size_t down = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    if (shard->tripped) ++down;
  }
  return down;
}

bool ShardedEmbeddingStore::AdmitShard(ShardState& shard, bool* is_probe) {
  MutexLock lock(shard.mu);
  *is_probe = false;
  if (!shard.tripped) return true;
  if (Clock::now() < shard.open_until) return false;  // open: fail fast
  if (shard.probe_in_flight) return false;  // half-open slot already taken
  shard.probe_in_flight = true;
  *is_probe = true;
  return true;
}

void ShardedEmbeddingStore::RecordShardSuccess(ShardState& shard) {
  MutexLock lock(shard.mu);
  shard.consecutive_failures = 0;
  shard.tripped = false;
  shard.probe_in_flight = false;
}

void ShardedEmbeddingStore::RecordShardFailure(ShardState& shard) {
  {
    MutexLock lock(shard.mu);
    ++shard.consecutive_failures;
    shard.probe_in_flight = false;
    if (shard.consecutive_failures >= options_.trip_threshold) {
      shard.tripped = true;
      shard.open_until = Clock::now() + options_.open_duration;
    }
  }
  if (options_.stats != nullptr) {
    options_.stats->shard_errors.fetch_add(1, std::memory_order_relaxed);
  }
}

int ShardedEmbeddingStore::AcquireConnection(ShardState& shard,
                                             Clock::time_point deadline) {
  {
    MutexLock lock(shard.mu);
    if (!shard.idle_fds.empty()) {
      const int fd = shard.idle_fds.back();
      shard.idle_fds.pop_back();
      return fd;
    }
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(shard.port));
  const int rc = net::Connect(fd, reinterpret_cast<sockaddr*>(&addr),
                              sizeof(addr), options_.fault);
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  if (rc < 0) {
    // Nonblocking connect in flight: wait for writability, bounded by both
    // the request deadline and the configured connect timeout.
    const Clock::time_point limit =
        std::min(deadline, Clock::now() + options_.connect_timeout);
    for (;;) {
      const auto now = Clock::now();
      if (now >= limit) {
        ::close(fd);
        errno = ETIMEDOUT;
        return -1;
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int ms = static_cast<int>(std::max<long long>(
          1, std::chrono::duration_cast<std::chrono::milliseconds>(limit - now)
                 .count()));
      const int pr = net::Poll(&pfd, 1, ms, options_.fault);
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) {
        ::close(fd);
        errno = ETIMEDOUT;
        return -1;
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
      if (so_error != 0) {
        ::close(fd);
        errno = so_error;
        return -1;
      }
      break;
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void ShardedEmbeddingStore::ReleaseConnection(ShardState& shard, int fd) {
  MutexLock lock(shard.mu);
  if (shard.idle_fds.size() < options_.max_pooled_connections) {
    shard.idle_fds.push_back(fd);
  } else {
    ::close(fd);
  }
}

std::chrono::milliseconds ShardedEmbeddingStore::JitteredBackoff(
    size_t attempt) {
  auto backoff = options_.backoff_base;
  for (size_t i = 0; i < attempt && backoff < options_.backoff_max; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, options_.backoff_max);
  double factor;
  {
    MutexLock lock(rng_mu_);
    factor = 0.5 + 0.5 * rng_.Uniform();
  }
  return std::chrono::milliseconds(static_cast<int64_t>(
      std::max(1.0, static_cast<double>(backoff.count()) * factor)));
}

void ShardedEmbeddingStore::RunRound(std::vector<Pending>& pending,
                                     EmbeddingTable table, float* out,
                                     Clock::time_point deadline) {
  // A sub-gather failure closes the connection — half-written requests and
  // half-read responses leave the stream unusable for the next exchange.
  const auto fail = [&](Pending& p, bool transient, Status error) {
    if (p.fd >= 0) {
      ::close(p.fd);
      p.fd = -1;
    }
    p.state = Pending::State::kFailed;
    p.transient = transient;
    p.error = std::move(error);
    if (p.counted) {
      p.counted = false;
      RecordShardFailure(*p.shard);
    }
  };

  // Arm every sub-gather: circuit check, connection, request frame.
  for (Pending& p : pending) {
    if (p.state != Pending::State::kUnsent) continue;
    if (!AdmitShard(*p.shard, &p.is_probe)) {
      p.state = Pending::State::kFailed;
      p.transient = true;
      p.error = Status::IOError(
          StrFormat("shard %zu circuit open", p.shard->index));
      continue;
    }
    p.counted = true;  // admitted: exactly one Record* must follow
    p.fd = AcquireConnection(*p.shard, deadline);
    if (p.fd < 0) {
      fail(p, /*transient=*/true,
           Status::IOError(StrFormat("shard %zu connect: %s", p.shard->index,
                                     std::strerror(errno))));
      continue;
    }
    GatherRequest req;
    req.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    req.table = table;
    req.deadline_ms = RemainingMs(deadline);
    req.ids = p.ids;
    p.request_id = req.request_id;
    p.out_buf.clear();
    p.out_off = 0;
    p.in_buf.clear();
    AppendGatherRequest(req, &p.out_buf);
    p.state = Pending::State::kSending;
  }

  // One poll() loop drives every in-flight sub-gather until it completes,
  // fails, or the deadline lands — a stalled shard can burn its own slot
  // but never the caller's budget.
  char chunk[64 * 1024];
  std::vector<pollfd> pfds;
  std::vector<Pending*> pfd_owner;
  for (;;) {
    pfds.clear();
    pfd_owner.clear();
    for (Pending& p : pending) {
      if (p.state == Pending::State::kSending) {
        pfds.push_back({p.fd, POLLOUT, 0});
        pfd_owner.push_back(&p);
      } else if (p.state == Pending::State::kReceiving) {
        pfds.push_back({p.fd, POLLIN, 0});
        pfd_owner.push_back(&p);
      }
    }
    if (pfds.empty()) return;  // all done or failed

    const auto now = Clock::now();
    if (now >= deadline) {
      for (Pending* p : pfd_owner) {
        fail(*p, /*transient=*/false,
             Status::IOError(
                 StrFormat("shard %zu deadline exceeded", p->shard->index)));
      }
      return;
    }
    const int timeout_ms = static_cast<int>(std::min<long long>(
        std::max<long long>(
            1, std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                     now)
                   .count()),
        60 * 1000));
    const int pr = net::Poll(pfds.data(), pfds.size(), timeout_ms,
                             options_.fault);
    if (pr < 0) {
      if (errno == EINTR) continue;
      for (Pending* p : pfd_owner) {
        fail(*p, /*transient=*/true,
             Status::IOError(std::string("poll: ") + std::strerror(errno)));
      }
      return;
    }
    if (pr == 0) continue;  // timeout tick: loop re-checks the deadline

    for (size_t i = 0; i < pfds.size(); ++i) {
      Pending& p = *pfd_owner[i];
      const short revents = pfds[i].revents;
      if (revents == 0) continue;
      if (p.state == Pending::State::kSending) {
        if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
          fail(p, /*transient=*/true,
               Status::IOError(
                   StrFormat("shard %zu hangup during send", p.shard->index)));
          continue;
        }
        const ssize_t n =
            net::Send(p.fd, p.out_buf.data() + p.out_off,
                      p.out_buf.size() - p.out_off, MSG_NOSIGNAL,
                      options_.fault);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
            continue;  // includes injected stalls: deadline still governs
          }
          fail(p, /*transient=*/true,
               Status::IOError(StrFormat("shard %zu send: %s", p.shard->index,
                                         std::strerror(errno))));
          continue;
        }
        p.out_off += static_cast<size_t>(n);
        if (p.out_off == p.out_buf.size()) {
          p.state = Pending::State::kReceiving;
        }
        continue;
      }
      // kReceiving.
      const ssize_t n = net::Recv(p.fd, chunk, sizeof(chunk), 0,
                                  options_.fault);
      if (n == 0) {
        fail(p, /*transient=*/true,
             Status::IOError(StrFormat("shard %zu closed mid-response",
                                       p.shard->index)));
        continue;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        fail(p, /*transient=*/true,
             Status::IOError(StrFormat("shard %zu recv: %s", p.shard->index,
                                       std::strerror(errno))));
        continue;
      }
      p.in_buf.append(chunk, static_cast<size_t>(n));
      GatherResponse resp;
      size_t consumed = 0;
      const FrameParse parse = ParseGatherResponse(p.in_buf, &resp, &consumed);
      if (parse == FrameParse::kNeedMore) continue;
      if (parse == FrameParse::kBad) {
        fail(p, /*transient=*/true,
             Status::IOError(
                 StrFormat("shard %zu torn frame", p.shard->index)));
        continue;
      }
      if (resp.request_id != p.request_id || consumed != p.in_buf.size()) {
        // Stale bytes from an earlier exchange on a reused connection: the
        // stream is desynchronised, drop it and retry fresh.
        fail(p, /*transient=*/true,
             Status::IOError(
                 StrFormat("shard %zu stream desync", p.shard->index)));
        continue;
      }
      if (resp.status == GatherStatus::kShuttingDown) {
        fail(p, /*transient=*/true,
             Status::IOError(
                 StrFormat("shard %zu shutting down", p.shard->index)));
        continue;
      }
      if (resp.status != GatherStatus::kOk) {
        // The shard rejected the request itself (bad table / unowned id):
        // a router bug, not a fault to retry through.
        fail(p, /*transient=*/false,
             Status::Internal(StrFormat("shard %zu rejected gather, status %d",
                                        p.shard->index,
                                        static_cast<int>(resp.status))));
        continue;
      }
      if (resp.dim != dim_ || resp.count != p.ids.size()) {
        fail(p, /*transient=*/false,
             Status::Internal(
                 StrFormat("shard %zu shape mismatch", p.shard->index)));
        continue;
      }
      for (size_t j = 0; j < p.positions.size(); ++j) {
        std::memcpy(out + p.positions[j] * dim_, resp.rows.data() + j * dim_,
                    dim_ * sizeof(float));
      }
      p.state = Pending::State::kDone;
      p.counted = false;
      RecordShardSuccess(*p.shard);
      ReleaseConnection(*p.shard, p.fd);
      p.fd = -1;
    }
  }
}

Status ShardedEmbeddingStore::Gather(EmbeddingTable table,
                                     std::span<const int64_t> ids, float* out,
                                     Clock::time_point deadline) {
  if (options_.stats != nullptr) {
    options_.stats->shard_gathers.fetch_add(1, std::memory_order_relaxed);
  }
  if (shards_.empty()) {
    return Status::FailedPrecondition("sharded store has no shards");
  }
  if (ids.empty()) return Status::OK();
  const size_t rows = num_rows(table);
  for (const int64_t id : ids) {
    if (id < 0 || static_cast<size_t>(id) >= rows) {
      return Status::OutOfRange("gather id out of range");
    }
  }

  // Partition the batch by owning shard, remembering each id's slot in the
  // caller's output so reassembly restores request order.
  const size_t n_shards = shards_.size();
  std::vector<Pending> pending;
  {
    std::vector<size_t> bucket_of(n_shards, SIZE_MAX);
    for (size_t i = 0; i < ids.size(); ++i) {
      const size_t s = ShardOfId(ids[i], n_shards);
      if (bucket_of[s] == SIZE_MAX) {
        bucket_of[s] = pending.size();
        pending.emplace_back();
        pending.back().shard = shards_[s].get();
      }
      Pending& p = pending[bucket_of[s]];
      p.ids.push_back(ids[i]);
      p.positions.push_back(i);
    }
  }

  size_t attempt = 0;
  for (;;) {
    RunRound(pending, table, out, deadline);
    std::vector<Pending> failed;
    Status first_error = Status::OK();
    bool all_transient = true;
    for (Pending& p : pending) {
      if (p.state != Pending::State::kFailed) continue;
      if (first_error.ok()) first_error = p.error;
      all_transient = all_transient && p.transient;
      p.state = Pending::State::kUnsent;
      p.is_probe = false;
      failed.push_back(std::move(p));
    }
    if (failed.empty()) return Status::OK();
    if (!all_transient || attempt >= options_.max_retries) {
      return first_error;
    }
    const auto backoff = JitteredBackoff(attempt);
    if (Clock::now() + backoff >= deadline) {
      return Status::IOError("gather deadline exhausted before retry: " +
                             first_error.message());
    }
    std::this_thread::sleep_for(backoff);
    ++attempt;
    if (options_.stats != nullptr) {
      options_.stats->shard_retries.fetch_add(failed.size(),
                                              std::memory_order_relaxed);
    }
    pending = std::move(failed);
  }
}

}  // namespace sttr::serve
