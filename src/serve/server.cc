#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "core/recommender.h"
#include "serve/alloc_hook.h"
#include "util/check.h"
#include "util/logging.h"

namespace sttr::serve {

namespace {

std::string ErrorJson(const std::string& message) {
  // Parameter names and static messages only — nothing here needs escaping.
  return std::string("{\"error\": \"") + message + "\"}";
}

// Pre-serialized error bodies: byte-for-byte what ErrorJson() builds, with
// zero assembly on the hot path.
constexpr std::string_view kErrUser =
    "{\"error\": \"missing or invalid 'user'\"}";
constexpr std::string_view kErrLatLon =
    "{\"error\": \"missing or invalid 'lat'/'lon'\"}";
constexpr std::string_view kErrCity = "{\"error\": \"invalid 'city'\"}";
constexpr std::string_view kErrK = "{\"error\": \"invalid 'k'\"}";
constexpr std::string_view kErrNoModel = "{\"error\": \"no model loaded\"}";
constexpr std::string_view kErrNoCandidates =
    "{\"error\": \"no candidate POIs in city\"}";
constexpr std::string_view kErrPath = "{\"error\": \"unknown path\"}";
constexpr std::string_view kErrMethod =
    "{\"error\": \"unsupported method\"}";
constexpr std::string_view kErrOverloaded =
    "{\"error\": \"server overloaded\"}";
constexpr std::string_view kErrPoi =
    "{\"error\": \"missing or invalid 'poi'\"}";
constexpr std::string_view kErrT = "{\"error\": \"invalid 't'\"}";
constexpr std::string_view kErrHour = "{\"error\": \"invalid 'hour'\"}";
constexpr std::string_view kErrNoIngest =
    "{\"error\": \"ingest not enabled\"}";

/// First value of `name` in the query string, scanning '&' parts in order
/// (first match wins), without materializing anything.
std::optional<std::string_view> FindQueryParam(std::string_view query,
                                               std::string_view name) {
  size_t pos = 0;
  while (pos <= query.size()) {
    const size_t amp = query.find('&', pos);
    const std::string_view part =
        query.substr(pos, amp == std::string_view::npos ? std::string_view::npos
                                                        : amp - pos);
    if (!part.empty()) {
      const size_t eq = part.find('=');
      const std::string_view key =
          eq == std::string_view::npos ? part : part.substr(0, eq);
      if (key == name) {
        return eq == std::string_view::npos ? std::string_view{}
                                            : part.substr(eq + 1);
      }
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return std::nullopt;
}

/// strtoll/strtod need a NUL terminator, so the view is staged through a
/// stack buffer. Values longer than the buffer are treated as unparsable —
/// far beyond any representable number this API accepts.
constexpr size_t kNumBufSize = 128;

bool ParseInt64View(std::string_view s, int64_t* out) {
  if (s.empty() || s.size() >= kNumBufSize) return false;
  char buf[kNumBufSize];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDoubleView(std::string_view s, double* out) {
  if (s.empty() || s.size() >= kNumBufSize) return false;
  char buf[kNumBufSize];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

RecommendServer::RecommendServer(ServerConfig config, const Dataset& dataset,
                                 ModelBundle* bundle, CandidateIndex* index,
                                 ResultCache* cache, ServeStats* stats,
                                 stream::IngestService* ingest,
                                 const stream::ColdStartScorer* cold_start)
    : config_(config),
      dataset_(dataset),
      bundle_(bundle),
      index_(index),
      cache_(cache),
      stats_(stats),
      ingest_(ingest),
      cold_start_(cold_start) {
  STTR_CHECK(bundle_ != nullptr);
  STTR_CHECK(index_ != nullptr);
  STTR_CHECK(stats_ != nullptr);
  STTR_CHECK(!config_.enable_cache || cache_ != nullptr)
      << "enable_cache without a ResultCache";
  STTR_CHECK_GT(config_.num_workers, 0u);
}

RecommendServer::~RecommendServer() { Shutdown(); }

Status RecommendServer::Start() {
  STTR_CHECK(!running_.load()) << "Start() on a running server";
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st =
        Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  // The kernel clamps the backlog to somaxconn.
  const size_t backlog = std::clamp<size_t>(
      config_.max_connections, 1, std::numeric_limits<int>::max());
  if (::listen(listen_fd_, static_cast<int>(backlog)) < 0) {
    const Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  started_at_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);

  const size_t n_loops = std::max<size_t>(1, config_.num_io_threads);
  EventLoop::Options opts;
  opts.max_request_bytes = config_.max_request_bytes;
  opts.idle_timeout = config_.request_timeout;
  opts.max_connections =
      std::max<size_t>(1, config_.max_connections / n_loops);
  loops_.clear();
  for (size_t i = 0; i < n_loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(
        opts, stats_,
        [this, i](Conn& conn, const ParsedRequest& req) {
          return OnRequest(loops_[i].get(), conn, req);
        }));
  }
  for (const auto& loop : loops_) {
    if (!loop->Start()) {
      for (const auto& started : loops_) started->Stop();
      loops_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      running_.store(false, std::memory_order_release);
      return Status::IOError("event loop start failed");
    }
  }
  {
    MutexLock lock(task_mu_);
    ring_.assign(std::max<size_t>(1, config_.max_queued_requests), Task{});
    ring_head_ = 0;
    ring_count_ = 0;
    workers_stop_ = false;
  }
  workers_.reserve(config_.num_workers);
  for (size_t i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { ScoringWorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  STTR_LOG(Info) << "recommend server listening on 127.0.0.1:" << port_;
  return Status::OK();
}

void RecommendServer::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Closing the listener wakes the blocking accept(). The acceptor reads
  // listen_fd_, so the -1 store must wait until it has joined.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (acceptor_.joinable()) acceptor_.join();
  listen_fd_ = -1;
  // Loop shutdown drains in-flight requests: a loop exits only once all
  // its connections are closed, which requires the scoring workers to
  // post their completions — so the workers stop strictly after.
  for (const auto& loop : loops_) loop->Stop();
  {
    MutexLock lock(task_mu_);
    workers_stop_ = true;
  }
  task_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  loops_.clear();
  STTR_LOG(Info) << "recommend server on port " << port_ << " shut down";
}

void RecommendServer::AcceptLoop() {
  size_t next_loop = 0;
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (shutdown) or fatal accept error
    }
    stats_->sys_accepts.fetch_add(1, std::memory_order_relaxed);
    // Round-robin across loops; each loop enforces its connection cap.
    loops_[next_loop]->AddConnection(fd);
    next_loop = (next_loop + 1) % loops_.size();
  }
}

EventLoop::Dispatch RecommendServer::OnRequest(EventLoop* loop, Conn& conn,
                                               const ParsedRequest& req) {
  stats_->requests.fetch_add(1, std::memory_order_relaxed);

  Task task;
  task.loop = loop;
  task.conn = &conn;
  task.fd = conn.fd;
  task.generation = conn.generation;

  if (req.method != "GET" && req.method != "POST") {
    conn.http_status = 400;
    conn.body.Append(kErrMethod);
  } else if (req.path == "/recommend") {
    int status = 400;
    std::string_view error;
    if (!ParseRecommendParams(req.query, &task.params, &status, &error)) {
      conn.http_status = status;
      conn.body.Append(error);
    } else {
      task.kind = Task::Kind::kRecommend;
      if (!EnqueueTask(task)) {
        // Admission control: the worker ring is full, shed load now
        // instead of queueing unboundedly, and close.
        stats_->rejected_requests.fetch_add(1, std::memory_order_relaxed);
        conn.http_status = 503;
        conn.body.Append(kErrOverloaded);
        conn.close_after_write = true;
        return EventLoop::Dispatch::kRespond;
      }
      return EventLoop::Dispatch::kAsync;
    }
  } else if (req.path == "/checkin") {
    int status = 400;
    std::string_view error;
    if (ingest_ == nullptr) {
      conn.http_status = 404;
      conn.body.Append(kErrNoIngest);
    } else if (!ParseCheckinParams(req.query, &task.params, &status, &error)) {
      conn.http_status = status;
      conn.body.Append(error);
    } else {
      task.kind = Task::Kind::kCheckin;
      if (!EnqueueTask(task)) {
        stats_->rejected_requests.fetch_add(1, std::memory_order_relaxed);
        conn.http_status = 503;
        conn.body.Append(kErrOverloaded);
        conn.close_after_write = true;
        return EventLoop::Dispatch::kRespond;
      }
      return EventLoop::Dispatch::kAsync;
    }
  } else if (req.path == "/healthz" || req.path == "/statz") {
    task.kind = req.path == "/healthz" ? Task::Kind::kHealthz
                                       : Task::Kind::kStatz;
    if (!EnqueueTask(task)) {
      stats_->rejected_requests.fetch_add(1, std::memory_order_relaxed);
      conn.http_status = 503;
      conn.body.Append(kErrOverloaded);
      conn.close_after_write = true;
      return EventLoop::Dispatch::kRespond;
    }
    return EventLoop::Dispatch::kAsync;
  } else {
    conn.http_status = 404;
    conn.body.Append(kErrPath);
  }

  // Synchronous error reply, answered on the loop thread with a
  // pre-serialized body: same counters and latency span as a worker gives
  // its 4xx responses.
  stats_->bad_requests.fetch_add(1, std::memory_order_relaxed);
  RecordLatency(conn.req_start);
  return EventLoop::Dispatch::kRespond;
}

bool RecommendServer::ParseRecommendParams(std::string_view query,
                                           RequestParams* out, int* status,
                                           std::string_view* error) const {
  // Validation order, bounds and error bodies are part of the HTTP contract
  // pinned by tests/serve/golden/recommend.golden.
  const std::optional<std::string_view> user_param =
      FindQueryParam(query, "user");
  if (!user_param.has_value() || !ParseInt64View(*user_param, &out->user) ||
      out->user < 0 ||
      static_cast<size_t>(out->user) >= dataset_.num_users()) {
    *status = 400;
    *error = kErrUser;
    return false;
  }
  const std::optional<std::string_view> lat_param =
      FindQueryParam(query, "lat");
  const std::optional<std::string_view> lon_param =
      FindQueryParam(query, "lon");
  if (!lat_param.has_value() || !lon_param.has_value() ||
      !ParseDoubleView(*lat_param, &out->lat) ||
      !ParseDoubleView(*lon_param, &out->lon)) {
    *status = 400;
    *error = kErrLatLon;
    return false;
  }
  out->city = config_.default_city;
  if (const std::optional<std::string_view> p =
          FindQueryParam(query, "city")) {
    if (!ParseInt64View(*p, &out->city) || out->city < 0 ||
        static_cast<size_t>(out->city) >= dataset_.num_cities()) {
      *status = 400;
      *error = kErrCity;
      return false;
    }
  }
  out->k = static_cast<int64_t>(config_.default_k);
  if (const std::optional<std::string_view> p = FindQueryParam(query, "k")) {
    if (!ParseInt64View(*p, &out->k) || out->k <= 0 ||
        out->k > static_cast<int64_t>(config_.max_k)) {
      *status = 400;
      *error = kErrK;
      return false;
    }
  }
  out->use_cache = config_.enable_cache;
  if (const std::optional<std::string_view> p =
          FindQueryParam(query, "nocache")) {
    if (*p != "0") out->use_cache = false;
  }
  out->t = -1.0;
  if (const std::optional<std::string_view> p =
          FindQueryParam(query, "hour")) {
    if (!ParseDoubleView(*p, &out->t) || out->t < 0.0) {
      *status = 400;
      *error = kErrHour;
      return false;
    }
  }
  return true;
}

bool RecommendServer::ParseCheckinParams(std::string_view query,
                                         RequestParams* out, int* status,
                                         std::string_view* error) const {
  // Only well-formedness is checked here; id range validation (and the
  // poi/city consistency rule) is IngestService::Submit's job, so HTTP and
  // direct Submit callers share one semantic gate.
  const std::optional<std::string_view> user_param =
      FindQueryParam(query, "user");
  if (!user_param.has_value() || !ParseInt64View(*user_param, &out->user)) {
    *status = 400;
    *error = kErrUser;
    return false;
  }
  const std::optional<std::string_view> poi_param =
      FindQueryParam(query, "poi");
  if (!poi_param.has_value() || !ParseInt64View(*poi_param, &out->poi)) {
    *status = 400;
    *error = kErrPoi;
    return false;
  }
  out->city = -1;  // negative = derive from the POI
  if (const std::optional<std::string_view> p =
          FindQueryParam(query, "city")) {
    if (!ParseInt64View(*p, &out->city)) {
      *status = 400;
      *error = kErrCity;
      return false;
    }
  }
  out->t = -1.0;
  if (const std::optional<std::string_view> p = FindQueryParam(query, "t")) {
    if (!ParseDoubleView(*p, &out->t) || out->t < 0.0) {
      *status = 400;
      *error = kErrT;
      return false;
    }
  }
  return true;
}

bool RecommendServer::EnqueueTask(const Task& task) {
  {
    MutexLock lock(task_mu_);
    if (ring_count_ == ring_.size()) return false;
    ring_[(ring_head_ + ring_count_) % ring_.size()] = task;
    ++ring_count_;
  }
  task_cv_.NotifyOne();
  return true;
}

void RecommendServer::ScoringWorkerLoop() {
  WorkerScratch scratch;
  for (;;) {
    Task task;
    {
      MutexLock lock(task_mu_);
      while (ring_count_ == 0 && !workers_stop_) task_cv_.Wait(task_mu_);
      if (ring_count_ == 0) return;  // stopping and drained
      task = ring_[ring_head_];
      ring_head_ = (ring_head_ + 1) % ring_.size();
      --ring_count_;
    }
    Conn& conn = *task.conn;
    switch (task.kind) {
      case Task::Kind::kRecommend:
        ProcessRecommend(task.params, scratch, conn);
        break;
      case Task::Kind::kHealthz:
        ProcessHealthz(conn);
        break;
      case Task::Kind::kStatz:
        ProcessStatz(conn);
        break;
      case Task::Kind::kCheckin:
        ProcessCheckin(task.params, conn);
        break;
    }
    if (conn.http_status >= 400) {
      stats_->bad_requests.fetch_add(1, std::memory_order_relaxed);
    }
    RecordLatency(conn.req_start);
    task.loop->Complete(task.fd, task.generation);
  }
}

void RecommendServer::ProcessRecommend(const RequestParams& p,
                                       WorkerScratch& scratch, Conn& conn) {
  const ScopedAllocCount meter;

  // The cache ticket comes first: a delta landing between it and the
  // snapshot capture below outdates whatever this request caches.
  ResultCache::Ticket ticket =
      p.use_cache ? cache_->TakeTicket() : ResultCache::Ticket{};
  // Capture the snapshot once: this request scores (and reports provenance)
  // against exactly one model even if a hot reload lands mid-flight.
  const std::shared_ptr<const ModelSnapshot> snapshot = bundle_->snapshot();
  if (snapshot == nullptr || snapshot->scorer == nullptr) {
    conn.http_status = 503;
    conn.body.Append(kErrNoModel);
    stats_->recommend_allocs.fetch_add(meter.Count(),
                                       std::memory_order_relaxed);
    return;
  }
  ticket.version = snapshot->version;

  const GeoPoint loc{p.lat, p.lon};
  const CityId city_id = static_cast<CityId>(p.city);
  const uint64_t cell = index_->CellOf(city_id, loc);
  const ResultCacheKey key{p.user, city_id, cell, static_cast<uint32_t>(p.k),
                           static_cast<uint8_t>(snapshot->precision)};

  // Cold-start detection: a user with no history in the request city scores
  // through the word bridge, bypassing the cache entirely — those scores
  // track the live word table, which row-level invalidation does not cover.
  // Only an fp32 snapshot has a trained word table: a v2 artifact drops it,
  // so an int8 snapshot's table is Prepare()'s random initialisation.
  const bool cold = cold_start_ != nullptr &&
                    snapshot->precision == Precision::kFp32 &&
                    cold_start_->IsColdIn(p.user, city_id);

  bool cached = false;
  if (p.use_cache && !cold) {
    if (cache_->GetInto(key, ticket, &scratch.top)) {
      cached = true;
      stats_->cache_hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_->cache_misses.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!cached) {
    index_->CandidatesInto(city_id, loc, 0, &scratch.cand,
                           &scratch.candidates);
    if (scratch.candidates.empty()) {
      conn.http_status = 404;
      conn.body.Append(kErrNoCandidates);
      stats_->recommend_allocs.fetch_add(meter.Count(),
                                         std::memory_order_relaxed);
      return;
    }
    // Scores and ranking live in worker scratch, so a warmed tower request
    // allocates nothing. What still allocates: the word-bridge profiles
    // inside ColdStartScorer::Score, and the cache's copy in Put().
    const std::span<const PoiId> candidates(scratch.candidates);
    if (cold) {
      stats_->cold_start_requests.fetch_add(1, std::memory_order_relaxed);
      cold_start_->Score(snapshot->model->WordEmbeddingTable(), p.user,
                         cold_start_->BucketOf(p.t), candidates,
                         &scratch.scores);
    } else {
      stats_->scored_pairs.fetch_add(candidates.size(),
                                     std::memory_order_relaxed);
      scratch.scores.resize(candidates.size());
      snapshot->scorer->ScorePairsInto({&p.user, 1}, candidates,
                                       scratch.scores);
    }
    TopKByScoreInto(candidates, scratch.scores, static_cast<size_t>(p.k),
                    &scratch.top);
    // Cold-start results stay uncached (see above).
    if (p.use_cache && !cold) cache_->Put(key, scratch.top, ticket);
  }

  // JSON assembly in the connection's arena; %.17g round-trips the scores.
  ArenaBuf& b = conn.body;
  b.Append("{\"user\": ");
  b.AppendInt(p.user);
  b.Append(", \"city\": ");
  b.AppendInt(p.city);
  b.Append(", \"cell\": ");
  b.AppendUint(cell);
  b.Append(", \"k\": ");
  b.AppendInt(p.k);
  b.Append(", \"cached\": ");
  b.Append(cached ? std::string_view("true") : std::string_view("false"));
  if (cold_start_ != nullptr) {
    // Only cold-start-enabled servers carry the marker, so other servers'
    // response bytes are unchanged.
    b.Append(", \"cold_start\": ");
    b.Append(cold ? std::string_view("true") : std::string_view("false"));
  }
  b.Append(", \"model_epoch\": ");
  b.AppendUint(snapshot->epoch);
  b.Append(", \"model_version\": ");
  b.AppendUint(snapshot->version);
  b.Append(", \"results\": [");
  char num[64];
  for (size_t i = 0; i < scratch.top.size(); ++i) {
    if (i > 0) b.Append(", ");
    b.Append("{\"poi\": ");
    b.AppendInt(scratch.top[i].first);
    b.Append(", \"score\": ");
    const int len =
        std::snprintf(num, sizeof(num), "%.17g", scratch.top[i].second);
    b.Append(std::string_view(num, static_cast<size_t>(len)));
    b.Append('}');
  }
  b.Append("]}");

  const uint64_t allocs = meter.Count();
  stats_->recommend_allocs.fetch_add(allocs, std::memory_order_relaxed);
  if (cached) {
    // The asserted zero-alloc property: a warmed cache-hit request
    // allocates nothing between dequeue and completion.
    stats_->hot_requests.fetch_add(1, std::memory_order_relaxed);
    stats_->hot_allocs.fetch_add(allocs, std::memory_order_relaxed);
  }
}

void RecommendServer::ProcessHealthz(Conn& conn) {
  int http_status = 200;
  const std::string body = HealthzBody(&http_status);
  conn.http_status = http_status;
  conn.body.Append(body);
}

void RecommendServer::ProcessStatz(Conn& conn) {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  RefreshSnapshotGauges();
  conn.body.Append(stats_->ToJson(uptime));
}

void RecommendServer::ProcessCheckin(const RequestParams& p, Conn& conn) {
  int http_status = 200;
  const std::string body = CheckinBody(p, &http_status);
  conn.http_status = http_status;
  conn.body.Append(body);
}

std::string RecommendServer::CheckinBody(const RequestParams& p,
                                         int* http_status) {
  stats_->checkins_http.fetch_add(1, std::memory_order_relaxed);
  stream::CheckinEvent event;
  event.user = p.user;
  event.poi = p.poi;
  // A city beyond CityId's range can never belong to any POI; reject it
  // here instead of letting the narrowing cast alias a real city.
  if (p.city > std::numeric_limits<CityId>::max()) {
    *http_status = 400;
    return ErrorJson("invalid check-in");
  }
  event.city = static_cast<CityId>(p.city);
  event.time = p.t;
  StatusOr<uint64_t> seq = ingest_->Submit(event);
  if (!seq.ok()) {
    switch (seq.status().code()) {
      case StatusCode::kResourceExhausted:
        // Ingest backpressure: the event log is full because the trainer is
        // behind. Shed load; the client retries.
        *http_status = 503;
        return ErrorJson("ingest queue full");
      case StatusCode::kFailedPrecondition:
        *http_status = 503;
        return ErrorJson("ingest stopped");
      default:
        *http_status = 400;
        return ErrorJson("invalid check-in");
    }
  }
  *http_status = 200;
  std::ostringstream os;
  os << "{\"accepted\": true, \"seq\": " << *seq << "}";
  return os.str();
}

void RecommendServer::RefreshSnapshotGauges() const {
  const std::shared_ptr<const ModelSnapshot> snapshot = bundle_->snapshot();
  if (snapshot == nullptr) {
    stats_->snapshot_bytes.store(0, std::memory_order_relaxed);
    stats_->snapshot_precision.store(0, std::memory_order_relaxed);
    return;
  }
  stats_->snapshot_bytes.store(snapshot->resident_bytes,
                               std::memory_order_relaxed);
  stats_->snapshot_precision.store(
      static_cast<uint64_t>(snapshot->precision), std::memory_order_relaxed);
}

void RecommendServer::RecordLatency(
    std::chrono::steady_clock::time_point start) {
  stats_->request_latency.Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
}

std::string RecommendServer::HealthzBody(int* http_status) const {
  // A load balancer polling /healthz must see a non-200 when this replica
  // cannot serve real scores: no loadable model.
  const std::shared_ptr<const ModelSnapshot> snapshot = bundle_->snapshot();
  std::ostringstream os;
  if (snapshot == nullptr || snapshot->scorer == nullptr) {
    *http_status = 503;
    os << "{\"status\": \"unavailable\", \"reason\": \"no model loaded\"}";
    return os.str();
  }
  *http_status = 200;
  os << "{\"status\": \"ok\", \"checkpoint\": \"" << snapshot->checkpoint_path
     << "\", \"model_epoch\": " << snapshot->epoch
     << ", \"model_version\": " << snapshot->version << "}";
  return os.str();
}

}  // namespace sttr::serve
