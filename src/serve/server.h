#ifndef STTR_SERVE_SERVER_H_
#define STTR_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "serve/candidate_index.h"
#include "serve/conn.h"
#include "serve/event_loop.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "serve/stats.h"
#include "stream/cold_start.h"
#include "stream/ingest_service.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sttr::serve {

struct ServerConfig {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Scoring worker threads draining the request ring.
  size_t num_workers = 8;
  /// Epoll I/O threads. One loop comfortably drives thousands of keep-alive
  /// connections; scoring parallelism lives in num_workers.
  size_t num_io_threads = 1;
  /// Open sockets across all loops; connections beyond the cap are answered
  /// 503 and closed. Also sizes the listen backlog.
  size_t max_connections = 4096;
  /// Bounded loop->worker request ring. When full, requests are answered
  /// 503 "server overloaded" immediately (admission control) instead of
  /// queueing unboundedly.
  size_t max_queued_requests = 1024;
  /// Idle timeout of a connection; an idle keep-alive connection is closed
  /// when it fires (a stranded partial request gets a 408 first).
  std::chrono::milliseconds request_timeout{5000};
  /// Request line + headers larger than this are rejected 431.
  size_t max_request_bytes = 16 * 1024;
  /// Default K when /recommend omits ?k=.
  size_t default_k = 10;
  /// Largest accepted ?k= (bounds per-request work).
  size_t max_k = 100;
  /// Default city when /recommend omits ?city= (the split's target city).
  CityId default_city = 0;
  /// Requests may bypass the cache with ?nocache=1 (the loadgen's cold
  /// mode); this disables the cache entirely.
  bool enable_cache = true;
};

/// Minimal HTTP/1.1 JSON server over POSIX sockets gluing the serving
/// pieces together:
///
///   GET /recommend?user=U&lat=..&lon=..[&city=C][&k=K][&nocache=1]
///       -> {"user":U, "city":C, "cell":id, "k":K, "cached":bool,
///           "model_epoch":E, "model_version":V,
///           "results":[{"poi":id, "score":s}, ...]}
///   GET /healthz -> serving readiness + current snapshot provenance
///   GET /statz   -> ServeStats::ToJson()
///   POST /checkin?user=U&poi=P[&city=C][&t=T]  (GET accepted too)
///       -> {"accepted": true, "seq": N} | 400 | 503 when the ingest log is
///       full; 404 when no ingest service is configured. Feeds the
///       streaming trainer (stream/ingest_service.h).
///
/// With a ColdStartScorer configured, /recommend detects a user with no
/// history in the request city and scores through the word bridge instead
/// of the interaction tower (see stream/cold_start.h); such responses carry
/// "cold_start": true, bypass the result cache, and honour an optional
/// &hour=H time-of-day parameter. The bridge needs a trained word table,
/// which only fp32 snapshots have: on an int8 snapshot every user is
/// scored by the tower.
///
/// One request's path: snapshot capture -> cache probe (keyed by the query
/// location's grid cell) -> candidate generation -> ScorePairsInto on the
/// scoring worker -> TopKByScoreInto -> cache fill. Keep-alive and pipelining
/// are supported; shutdown is graceful (stop accepting, finish in-flight
/// requests, join every thread). The response bytes are pinned by the
/// recorded fixtures in tests/serve/golden/.
///
/// Sockets are driven by epoll event loops that own nonblocking sockets and
/// parse incrementally; complete requests go to the scoring workers over a
/// bounded ring and responses are written back via write readiness. Hot
/// path (zero allocations once warmed): the loop parses from the
/// connection's sticky buffer, validates parameters as views, and enqueues
/// a POD task; a worker probes the cache into per-worker scratch, assembles
/// JSON in the connection's arena, and posts a completion; the loop
/// serializes headers into the same arena and writes. A tower-scored miss
/// also scores and ranks in worker scratch, so it allocates only in the
/// cache fill (none with nocache=1). Allocation counters
/// (ServeStats::hot_allocs et al., fed by the counting operator-new hook)
/// assert the property instead of claiming it.
class RecommendServer {
 public:
  /// All dependencies must outlive the server. `cache` may be null iff
  /// config.enable_cache is false.
  ///
  /// `ingest` (optional) enables POST /checkin, feeding the streaming
  /// trainer; without it the route answers 404. `cold_start` (optional)
  /// enables word-bridge scoring for target-city-cold users on /recommend.
  RecommendServer(ServerConfig config, const Dataset& dataset,
                  ModelBundle* bundle, CandidateIndex* index,
                  ResultCache* cache, ServeStats* stats,
                  stream::IngestService* ingest = nullptr,
                  const stream::ColdStartScorer* cold_start = nullptr);
  ~RecommendServer();

  RecommendServer(const RecommendServer&) = delete;
  RecommendServer& operator=(const RecommendServer&) = delete;

  /// Binds, listens and spawns the accept + I/O + worker threads.
  Status Start();

  /// Graceful shutdown: closes the listener, finishes in-flight requests,
  /// joins all threads. Idempotent.
  void Shutdown();

  /// Bound port (after Start()).
  int port() const { return port_; }

  /// Connections open across the event loops (approximate; for tests). 0
  /// once every client has gone and the loops have noticed.
  size_t num_open_connections() const;

  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  /// Validated /recommend parameters, plain data so a queued task copies
  /// them out of the connection's input buffer before the views die.
  struct RequestParams {
    int64_t user = -1;
    double lat = 0.0;
    double lon = 0.0;
    int64_t city = 0;
    int64_t k = 0;
    bool use_cache = false;
    /// /checkin: target POI. Unused by /recommend.
    int64_t poi = -1;
    /// Hour-of-day clock value: /checkin's &t= (event time) and
    /// /recommend's &hour= (cold-start bucket). Negative = not given.
    double t = -1.0;
  };

  /// One queued request, POD so the ring never allocates. `conn` stays
  /// valid for the task's whole life: the loop never recycles a
  /// kProcessing connection, and (fd, generation) guards the completion.
  struct Task {
    enum class Kind : uint8_t { kRecommend, kHealthz, kStatz, kCheckin };
    EventLoop* loop = nullptr;
    Conn* conn = nullptr;
    int fd = -1;
    uint64_t generation = 0;
    Kind kind = Kind::kRecommend;
    RequestParams params;
  };

  /// Per-scoring-worker reusable buffers; every member's capacity is
  /// sticky, so a warmed worker serves cache hits without allocating.
  struct WorkerScratch {
    CandidateIndex::Scratch cand;
    std::vector<PoiId> candidates;
    std::vector<double> scores;
    ResultCache::Value top;  ///< the answer: a cache hit's copy or computed
  };

  /// Loop-thread request router: answers errors synchronously (zero-alloc,
  /// pre-serialized bodies), enqueues real work for the scoring workers.
  EventLoop::Dispatch OnRequest(EventLoop* loop, Conn& conn,
                                const ParsedRequest& req);
  /// Parses and validates ?query params (first occurrence of a name wins;
  /// errors in a fixed precedence). False: *status/*error describe the 400.
  bool ParseRecommendParams(std::string_view query, RequestParams* out,
                            int* status, std::string_view* error) const;
  /// /checkin analogue of ParseRecommendParams; id range checks live in
  /// IngestService::Submit, so parsing only rejects malformed values.
  bool ParseCheckinParams(std::string_view query, RequestParams* out,
                          int* status, std::string_view* error) const;
  bool EnqueueTask(const Task& task) EXCLUDES(task_mu_);
  void ScoringWorkerLoop() EXCLUDES(task_mu_);
  /// Fill conn.body/http_status; called from a scoring worker.
  void ProcessRecommend(const RequestParams& params, WorkerScratch& scratch,
                        Conn& conn);
  void ProcessHealthz(Conn& conn);
  void ProcessStatz(Conn& conn);
  void ProcessCheckin(const RequestParams& params, Conn& conn);
  /// Refreshes the /statz snapshot gauges (resident bytes, precision) from
  /// the bundle's current snapshot. Const: only touches atomics.
  void RefreshSnapshotGauges() const;
  void RecordLatency(std::chrono::steady_clock::time_point start);

  /// Submits a parsed check-in and builds the response body.
  std::string CheckinBody(const RequestParams& params, int* http_status);

  void AcceptLoop();

  /// /healthz body + status: 503 with a reason while no model is loadable,
  /// 200 otherwise.
  std::string HealthzBody(int* http_status) const;

  ServerConfig config_;
  const Dataset& dataset_;
  ModelBundle* bundle_;
  CandidateIndex* index_;
  ResultCache* cache_;
  ServeStats* stats_;
  stream::IngestService* ingest_;
  const stream::ColdStartScorer* cold_start_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point started_at_;

  // Bounded request ring -> scoring workers.
  Mutex task_mu_;
  CondVar task_cv_;
  std::vector<Task> ring_ GUARDED_BY(task_mu_);
  size_t ring_head_ GUARDED_BY(task_mu_) = 0;
  size_t ring_count_ GUARDED_BY(task_mu_) = 0;
  bool workers_stop_ GUARDED_BY(task_mu_) = false;

  std::vector<std::unique_ptr<EventLoop>> loops_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

}  // namespace sttr::serve

#endif  // STTR_SERVE_SERVER_H_
