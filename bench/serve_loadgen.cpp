// Load generator for the online serving subsystem. Spins the full serving
// stack (ModelBundle + CandidateIndex + ResultCache + RecommendServer)
// in-process on an ephemeral loopback port, then drives it with real HTTP
// clients over persistent keep-alive connections and measures client-side
// latency and throughput:
//
//   serve_closed      closed-loop, cache bypassed — every request scores
//                     its candidates on a worker
//   serve_cache_cold  single client, distinct (user, cell) per request,
//                     cache bypassed — cold-path latency
//   serve_cache_hit   same requests repeated against a warm cache — the
//                     zero-allocation hot path
//
// --connections=N holds N-clients extra idle keep-alive connections open
// through the closed-loop scenarios (the many-idle-few-loaded shape the
// epoll core exists for) and adds a `serve_idle_conns` row.
//
// With --open_qps=N an open-loop scenario is added: senders fire on a fixed
// arrival schedule *without waiting for prior responses* (requests pipeline
// behind a slow server), so offered load is honest; sends that would block
// are counted as dropped and senders that fall behind schedule as late.
//
// Each timed window also snapshots the in-process ServeStats — the same
// counters /statz serves — and reports allocations and syscalls per request.
// --assert_zero_alloc (implied by --smoke, the CI entry point) fails the run
// unless warmed cache-hit requests allocate exactly nothing.
//
// With --out=<prefix>, emits <prefix>serve_loadgen.json for
// tools/summarize_bench.py. A checkpoint is trained into --ckpt_dir (a temp
// directory by default) unless one is already there.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <unordered_set>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench/bench_util.h"
#include "core/checkpoint.h"
#include "serve/candidate_index.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace sttr::bench {
namespace {

// -- Minimal blocking HTTP client over a persistent loopback connection. -------

class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) { Connect(); }
  ~HttpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// One GET round-trip; returns the response body. Reconnects on a dropped
  /// connection.
  std::string Get(const std::string& target) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (fd_ < 0) Connect();
      const std::string request = "GET " + target +
                                  " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
      if (!SendAll(request)) {
        Disconnect();
        continue;
      }
      std::string body;
      if (ReadResponse(&body)) return body;
      Disconnect();
    }
    STTR_CHECK(false) << "HTTP request failed twice: " << target;
    return "";
  }

  enum class SendStatus { kOk, kWouldBlock, kError };

  /// Nonblocking-first send for the open-loop sender: if the socket buffer
  /// cannot take the first byte the request is droppable (the server is not
  /// draining this connection), but once any byte is on the wire the rest
  /// must follow — a torn request would corrupt the HTTP stream — so the
  /// remainder goes out blocking.
  SendStatus TrySend(const std::string& data) {
    const ssize_t first = ::send(fd_, data.data(), data.size(),
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
    if (first < 0) {
      return (errno == EAGAIN || errno == EWOULDBLOCK) ? SendStatus::kWouldBlock
                                                       : SendStatus::kError;
    }
    size_t off = static_cast<size_t>(first);
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return SendStatus::kError;
      off += static_cast<size_t>(n);
    }
    return SendStatus::kOk;
  }

  /// Reads the next pipelined response off the connection. Safe to call from
  /// a different thread than TrySend(): the two touch disjoint state
  /// (receive buffer vs. send path) and full-duplex sockets allow it.
  bool ReadBody(std::string* body) { return ReadResponse(body); }

 private:
  void Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    STTR_CHECK_GE(fd_, 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    STTR_CHECK_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << "cannot connect to loopback server on port " << port_;
  }

  void Disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool SendAll(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadResponse(std::string* body) {
    // Headers, then Content-Length bytes of body.
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    const std::string head = ToLower(buffer_.substr(0, header_end));
    const size_t cl = head.find("content-length:");
    STTR_CHECK_NE(cl, std::string::npos);
    const size_t length = static_cast<size_t>(
        std::strtoull(head.c_str() + cl + 15, nullptr, 10));
    const size_t total = header_end + 4 + length;
    while (buffer_.size() < total) {
      if (!Fill()) return false;
    }
    *body = buffer_.substr(header_end + 4, length);
    buffer_.erase(0, total);
    return true;
  }

  bool Fill() {
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

// -- Workload -------------------------------------------------------------------

/// One pre-generated query: a user at a POI's location in the target city.
struct Query {
  UserId user;
  double lat;
  double lon;
};

std::vector<Query> MakeQueries(const Dataset& dataset, CityId city,
                               size_t count, Rng& rng) {
  const auto& pois = dataset.PoisInCity(city);
  STTR_CHECK(!pois.empty());
  std::vector<Query> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Poi& poi =
        dataset.poi(pois[rng.UniformInt(static_cast<uint64_t>(pois.size()))]);
    queries.push_back(Query{
        static_cast<UserId>(
            rng.UniformInt(static_cast<uint64_t>(dataset.num_users()))),
        poi.location.lat, poi.location.lon});
  }
  return queries;
}

std::string QueryTarget(const Query& q, size_t k, bool nocache) {
  std::string target = "/recommend?user=" + std::to_string(q.user) +
                       "&lat=" + StrFormat("%.8f", q.lat) +
                       "&lon=" + StrFormat("%.8f", q.lon) +
                       "&k=" + std::to_string(k);
  if (nocache) target += "&nocache=1";
  return target;
}

struct LoadResult {
  size_t requests = 0;
  double seconds = 0.0;
  std::vector<double> latencies_ms;  // sorted after the run

  // Open-loop accounting: departures that left on schedule, departures the
  // full socket buffer refused (dropped), and departures whose send slipped
  // more than one interval past its timestamp (late).
  bool open_loop = false;
  size_t dropped = 0;
  size_t late = 0;

  double qps() const { return static_cast<double>(requests) / seconds; }
  double PercentileMs(double p) const {
    if (latencies_ms.empty()) return 0.0;
    const size_t idx = std::min(
        latencies_ms.size() - 1,
        static_cast<size_t>(p * static_cast<double>(latencies_ms.size())));
    return latencies_ms[idx];
  }
  double MeanMs() const {
    double sum = 0;
    for (double v : latencies_ms) sum += v;
    return latencies_ms.empty() ? 0.0
                                : sum / static_cast<double>(latencies_ms.size());
  }
};

/// Closed loop: `num_clients` threads issue back-to-back requests from their
/// slice of `queries` for `duration_s` seconds.
LoadResult RunClosedLoop(int port, const std::vector<Query>& queries, size_t k,
                         bool nocache, size_t num_clients, double duration_s) {
  std::atomic<size_t> total_requests{0};
  std::vector<std::vector<double>> latencies(num_clients);
  std::vector<std::thread> clients;
  Timer wall;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client(port);
      auto& lat = latencies[c];
      size_t i = c;  // interleaved slices, so clients hit different users
      const auto stop_at =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(duration_s));
      while (std::chrono::steady_clock::now() < stop_at) {
        const Query& q = queries[i % queries.size()];
        i += num_clients;
        Timer t;
        const std::string body = client.Get(QueryTarget(q, k, nocache));
        lat.push_back(t.ElapsedSeconds() * 1e3);
        STTR_CHECK_NE(body.find("\"results\""), std::string::npos) << body;
        total_requests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  LoadResult result;
  result.seconds = wall.ElapsedSeconds();
  result.requests = total_requests.load();
  for (auto& lat : latencies) {
    result.latencies_ms.insert(result.latencies_ms.end(), lat.begin(),
                               lat.end());
  }
  std::sort(result.latencies_ms.begin(), result.latencies_ms.end());
  return result;
}

/// Open loop: requests depart on a fixed arrival schedule of `qps` spread
/// over `num_clients` keep-alive connections. Each connection runs a sender
/// thread that fires at the scheduled timestamps *without waiting for prior
/// responses* — requests pipeline behind a slow server — and a receiver
/// thread that matches in-order responses to their scheduled departures, so
/// latency includes all queueing delay (no coordinated omission). A send the
/// socket buffer refuses outright is dropped (and counted); a sender running
/// more than one interval behind schedule counts its departure as late.
LoadResult RunOpenLoop(int port, const std::vector<Query>& queries, size_t k,
                       bool nocache, size_t num_clients, double duration_s,
                       double qps) {
  using Clock = std::chrono::steady_clock;
  std::atomic<size_t> total_requests{0};
  std::atomic<size_t> total_dropped{0};
  std::atomic<size_t> total_late{0};
  std::vector<std::vector<double>> latencies(num_clients);

  struct ConnState {
    std::unique_ptr<HttpClient> client;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Clock::time_point> pending;  // scheduled departures in flight
    bool done = false;
  };
  std::vector<std::unique_ptr<ConnState>> conns;
  conns.reserve(num_clients);
  for (size_t c = 0; c < num_clients; ++c) {
    conns.push_back(std::make_unique<ConnState>());
    conns.back()->client = std::make_unique<HttpClient>(port);
  }

  const auto interval =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          static_cast<double>(num_clients) / qps));
  std::vector<std::thread> threads;
  Timer wall;
  for (size_t c = 0; c < num_clients; ++c) {
    ConnState& conn = *conns[c];
    // Sender: fires on the arrival schedule, never gated on responses.
    threads.emplace_back([&, c] {
      size_t i = c;
      size_t dropped = 0, late = 0;
      const auto start = Clock::now();
      auto next_departure = start + (interval * static_cast<int>(c)) /
                                        static_cast<int>(num_clients);
      const auto stop_at =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(duration_s));
      while (next_departure < stop_at) {
        std::this_thread::sleep_until(next_departure);
        const auto scheduled = next_departure;
        next_departure += interval;
        const Query& q = queries[i % queries.size()];
        i += num_clients;
        const std::string request = "GET " + QueryTarget(q, k, nocache) +
                                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
        if (Clock::now() > scheduled + interval) ++late;
        switch (conn.client->TrySend(request)) {
          case HttpClient::SendStatus::kOk: {
            {
              std::lock_guard<std::mutex> lock(conn.mu);
              conn.pending.push_back(scheduled);
            }
            conn.cv.notify_one();
            break;
          }
          case HttpClient::SendStatus::kWouldBlock:
            ++dropped;
            break;
          case HttpClient::SendStatus::kError:
            STTR_CHECK(false) << "open-loop send failed";
        }
      }
      {
        std::lock_guard<std::mutex> lock(conn.mu);
        conn.done = true;
      }
      conn.cv.notify_one();
      total_dropped.fetch_add(dropped, std::memory_order_relaxed);
      total_late.fetch_add(late, std::memory_order_relaxed);
    });
    // Receiver: drains responses in order, charging each from its scheduled
    // departure.
    threads.emplace_back([&, c] {
      auto& lat = latencies[c];
      while (true) {
        Clock::time_point scheduled;
        {
          std::unique_lock<std::mutex> lock(conn.mu);
          conn.cv.wait(lock,
                       [&] { return !conn.pending.empty() || conn.done; });
          if (conn.pending.empty()) break;
          scheduled = conn.pending.front();
          conn.pending.pop_front();
        }
        std::string body;
        STTR_CHECK(conn.client->ReadBody(&body))
            << "connection closed with responses outstanding";
        lat.push_back(
            std::chrono::duration<double>(Clock::now() - scheduled).count() *
            1e3);
        STTR_CHECK_NE(body.find("\"results\""), std::string::npos) << body;
        total_requests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadResult result;
  result.open_loop = true;
  result.seconds = wall.ElapsedSeconds();
  result.requests = total_requests.load();
  result.dropped = total_dropped.load();
  result.late = total_late.load();
  for (auto& lat : latencies) {
    result.latencies_ms.insert(result.latencies_ms.end(), lat.begin(),
                               lat.end());
  }
  std::sort(result.latencies_ms.begin(), result.latencies_ms.end());
  return result;
}

// -- Stats deltas over a timed window. ------------------------------------------

/// Snapshot of the ServeStats counters the bench reports as per-request
/// rates — the same numbers /statz serves, read in-process.
struct StatsSnap {
  uint64_t requests = 0;
  uint64_t recommend_allocs = 0;
  uint64_t hot_requests = 0;
  uint64_t hot_allocs = 0;
  uint64_t loop_allocs = 0;
  uint64_t sys_reads = 0;
  uint64_t sys_writes = 0;
  uint64_t sys_epoll_waits = 0;

  static StatsSnap Of(const serve::ServeStats& s) {
    StatsSnap snap;
    snap.requests = s.requests.load(std::memory_order_relaxed);
    snap.recommend_allocs = s.recommend_allocs.load(std::memory_order_relaxed);
    snap.hot_requests = s.hot_requests.load(std::memory_order_relaxed);
    snap.hot_allocs = s.hot_allocs.load(std::memory_order_relaxed);
    snap.loop_allocs = s.loop_allocs.load(std::memory_order_relaxed);
    snap.sys_reads = s.sys_reads.load(std::memory_order_relaxed);
    snap.sys_writes = s.sys_writes.load(std::memory_order_relaxed);
    snap.sys_epoll_waits = s.sys_epoll_waits.load(std::memory_order_relaxed);
    return snap;
  }

  StatsSnap Minus(const StatsSnap& before) const {
    StatsSnap d;
    d.requests = requests - before.requests;
    d.recommend_allocs = recommend_allocs - before.recommend_allocs;
    d.hot_requests = hot_requests - before.hot_requests;
    d.hot_allocs = hot_allocs - before.hot_allocs;
    d.loop_allocs = loop_allocs - before.loop_allocs;
    d.sys_reads = sys_reads - before.sys_reads;
    d.sys_writes = sys_writes - before.sys_writes;
    d.sys_epoll_waits = sys_epoll_waits - before.sys_epoll_waits;
    return d;
  }
};

// -- Serving stack assembled per scenario. --------------------------------------

struct ServeStack {
  serve::ServeStats stats;
  std::unique_ptr<serve::ModelBundle> bundle;
  std::unique_ptr<serve::CandidateIndex> index;
  std::unique_ptr<serve::ResultCache> cache;
  std::unique_ptr<serve::RecommendServer> server;

  ~ServeStack() {
    if (server != nullptr) server->Shutdown();
  }
};

struct StackOptions {
  size_t workers = 8;
  size_t io_threads = 1;
  size_t min_candidates = 200;
  size_t max_connections = 4096;
};

std::unique_ptr<ServeStack> StartStack(const Dataset& dataset,
                                       const CrossCitySplit& split,
                                       const StTransRecConfig& model_cfg,
                                       const std::string& ckpt_dir,
                                       const StackOptions& options) {
  auto stack = std::make_unique<ServeStack>();

  serve::ModelBundleConfig bundle_cfg;
  bundle_cfg.checkpoint_dir = ckpt_dir;
  bundle_cfg.model = model_cfg;
  stack->bundle =
      std::make_unique<serve::ModelBundle>(dataset, split, bundle_cfg);
  STTR_CHECK_OK(stack->bundle->LoadInitial());

  serve::CandidateIndexConfig index_cfg;
  index_cfg.min_candidates = options.min_candidates;
  stack->index =
      std::make_unique<serve::CandidateIndex>(dataset, &split, index_cfg);

  serve::ResultCacheConfig cache_cfg;
  cache_cfg.ttl = std::chrono::milliseconds(0);  // no expiry during the run
  stack->cache = std::make_unique<serve::ResultCache>(cache_cfg);

  serve::ServerConfig server_cfg;
  server_cfg.num_workers = options.workers;
  server_cfg.num_io_threads = options.io_threads;
  server_cfg.default_city = split.target_city;
  server_cfg.max_connections = options.max_connections;
  // Idle keep-alive connections must survive the timed window.
  server_cfg.request_timeout = std::chrono::milliseconds(60000);
  stack->server = std::make_unique<serve::RecommendServer>(
      server_cfg, dataset, stack->bundle.get(), stack->index.get(),
      stack->cache.get(), &stack->stats);
  STTR_CHECK_OK(stack->server->Start());
  return stack;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.Define("dataset", "world preset: foursquare | yelp", "foursquare");
  flags.Define("scale", "world size: tiny | small | paper", "small");
  flags.Define("seed", "world seed override (0 = preset default)", "0");
  flags.Define("epochs", "training epochs for the served model", "1");
  flags.Define("ckpt_dir",
               "checkpoint directory (default: fresh temp dir; reused when "
               "it already holds a matching checkpoint)");
  flags.Define("clients", "concurrent loaded client connections", "8");
  flags.Define("connections",
               "total keep-alive connections held through the closed-loop "
               "scenarios; the surplus over --clients sits idle "
               "(0 = just the loaded clients)", "0");
  flags.Define("duration_s", "seconds per scenario", "3");
  flags.Define("k", "top-K per request", "10");
  flags.Define("min_candidates", "candidate list size target", "200");
  flags.Define("server_workers", "scoring worker threads", "8");
  flags.Define("io_threads", "epoll event-loop threads", "1");
  flags.Define("open_qps", "extra open-loop scenario at this arrival rate "
               "(0 = off)", "0");
  flags.Define("cache_probes", "requests in the cold/hit comparison", "64");
  flags.Define("assert_zero_alloc",
               "fail unless warmed cache hits allocate exactly nothing");
  flags.Define("smoke",
               "CI smoke run: 1s scenarios and implies --assert_zero_alloc");
  flags.Define("out", "JSON output path prefix");
  STTR_CHECK_OK(flags.Parse(argc, argv));
  if (flags.Has("help")) {
    std::fputs(flags.HelpText("serve_loadgen", "[flags]",
                              "Open/closed-loop load generator for the "
                              "serving subsystem.")
                   .c_str(),
               stdout);
    return 0;
  }

  const BenchOptions opts = BenchOptions::Parse(argc, argv);
  const std::string dataset_name = flags.GetString("dataset", "foursquare");
  WorldAndSplit ws = MakeWorld(dataset_name, opts);

  StTransRecConfig model_cfg = opts.DeepConfig();
  if (opts.epochs == 0) model_cfg.num_epochs = 1;  // serving, not accuracy
  ApplyPaperArchitecture(dataset_name, model_cfg);

  std::string ckpt_dir = flags.GetString("ckpt_dir", "");
  if (ckpt_dir.empty()) {
    ckpt_dir = (std::filesystem::temp_directory_path() /
                ("sttr_serve_loadgen_" + std::to_string(::getpid())))
                   .string();
  }
  if (!FindLatestValidCheckpoint(*Env::Default(), ckpt_dir).ok()) {
    std::printf("[serve_loadgen] training %zu epoch(s) into %s ...\n",
                model_cfg.num_epochs, ckpt_dir.c_str());
    StTransRecConfig train_cfg = model_cfg;
    train_cfg.checkpoint_dir = ckpt_dir;
    StTransRec trainer(train_cfg);
    STTR_CHECK_OK(trainer.Fit(ws.world.dataset, ws.split));
  }

  const bool smoke = flags.GetBool("smoke", false);
  const bool assert_zero_alloc =
      smoke || flags.GetBool("assert_zero_alloc", false);
  const size_t clients =
      static_cast<size_t>(flags.GetInt("clients", 8));
  const size_t connections =
      static_cast<size_t>(flags.GetInt("connections", 0));
  const double duration_s =
      smoke ? 1.0 : flags.GetDouble("duration_s", 3.0);
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  const size_t min_candidates =
      static_cast<size_t>(flags.GetInt("min_candidates", 200));
  const size_t server_workers =
      static_cast<size_t>(flags.GetInt("server_workers", 8));
  const size_t io_threads =
      static_cast<size_t>(flags.GetInt("io_threads", 1));
  const double open_qps = flags.GetDouble("open_qps", 0.0);
  const size_t cache_probes = std::min<size_t>(
      smoke ? 32 : 4096,
      static_cast<size_t>(flags.GetInt("cache_probes", 64)));

  Rng rng(opts.seed == 0 ? 1234 : opts.seed);
  const std::vector<Query> queries =
      MakeQueries(ws.world.dataset, ws.split.target_city, 4096, rng);

  struct Row {
    std::string kernel;
    size_t n;
    size_t clients;
    size_t connections;
    double seconds;
    double qps;
    double mean_ms, p50_ms, p99_ms;
    double allocs_per_req = -1.0;     // recommend-path allocs / request
    double hot_allocs_per_hit = -1.0; // allocs / warmed cache-hit request
    double sys_per_req = -1.0;        // read+write+epoll_wait / request
    long dropped = -1, late = -1;     // open-loop only
  };
  std::vector<Row> rows;
  bool zero_alloc_failed = false;

  const auto record = [&](const std::string& kernel, const LoadResult& r,
                          size_t n_clients, size_t n_connections,
                          const StatsSnap& d) {
    Row row{kernel,    r.requests, n_clients,           n_connections,
            r.seconds, r.qps(),    r.MeanMs(),          r.PercentileMs(0.50),
            r.PercentileMs(0.99)};
    if (d.requests > 0) {
      row.allocs_per_req = static_cast<double>(d.recommend_allocs) /
                           static_cast<double>(d.requests);
      row.sys_per_req =
          static_cast<double>(d.sys_reads + d.sys_writes + d.sys_epoll_waits) /
          static_cast<double>(d.requests);
    }
    if (d.hot_requests > 0) {
      row.hot_allocs_per_hit = static_cast<double>(d.hot_allocs) /
                               static_cast<double>(d.hot_requests);
    }
    if (r.open_loop) {
      row.dropped = static_cast<long>(r.dropped);
      row.late = static_cast<long>(r.late);
    }
    rows.push_back(row);
    std::printf("%-18s conns=%-5zu %6zu req  %8.1f qps  "
                "mean %7.3fms  p50 %7.3fms  p99 %7.3fms",
                kernel.c_str(), n_connections, r.requests, r.qps(),
                r.MeanMs(), r.PercentileMs(0.50), r.PercentileMs(0.99));
    if (row.allocs_per_req >= 0) {
      std::printf("  %6.1f alloc/req  %5.2f sys/req", row.allocs_per_req,
                  row.sys_per_req);
    }
    if (r.open_loop) {
      std::printf("  dropped=%zu late=%zu", r.dropped, r.late);
    }
    std::printf("\n");
  };

  // Untimed warmup ahead of each timed window: faults in the model pages,
  // grows the heap, arenas and connection buffers and warms the TCP path,
  // so scenario 1 doesn't pay the process's one-time costs.
  const auto warmup = [&](int port) {
    RunClosedLoop(port, queries, k, /*nocache=*/true, clients,
                  std::min(1.0, duration_s / 4.0));
  };

  StackOptions base;
  base.workers = server_workers;
  base.io_threads = io_threads;
  base.min_candidates = min_candidates;
  base.max_connections = std::max<size_t>(4096, connections + clients + 64);

  // ---- Scenario 1: closed loop, cache bypassed. -------------------------
  {
    auto stack =
        StartStack(ws.world.dataset, ws.split, model_cfg, ckpt_dir, base);
    warmup(stack->server->port());
    const StatsSnap before = StatsSnap::Of(stack->stats);
    const LoadResult r = RunClosedLoop(stack->server->port(), queries, k,
                                       /*nocache=*/true, clients,
                                       duration_s);
    record("serve_closed", r, clients, clients,
           StatsSnap::Of(stack->stats).Minus(before));
  }

  // ---- Scenario 2: cache cold vs hit, single client. --------------------
  {
    StackOptions so = base;
    // One worker: a single serial client never has two requests in
    // flight, and one worker means one scratch to warm, so the zero-alloc
    // window below is deterministic.
    so.workers = 1;
    auto stack =
        StartStack(ws.world.dataset, ws.split, model_cfg, ckpt_dir, so);
    HttpClient client(stack->server->port());
    // Probe with distinct users so every cold probe is a genuine first
    // touch of its (user, cell, k) cache key — random queries collide on
    // small worlds.
    std::vector<Query> probe_queries;
    {
      std::unordered_set<UserId> seen_users;
      for (const Query& q : queries) {
        if (probe_queries.size() >= cache_probes) break;
        if (seen_users.insert(q.user).second) probe_queries.push_back(q);
      }
    }
    const size_t probes = probe_queries.size();
    // Cold: first touch of each (user, cell, k) key populates the cache.
    std::vector<double> cold_ms, hit_ms;
    const StatsSnap cold_before = StatsSnap::Of(stack->stats);
    for (size_t i = 0; i < probes; ++i) {
      Timer t;
      const std::string body =
          client.Get(QueryTarget(probe_queries[i], k, /*nocache=*/false));
      cold_ms.push_back(t.ElapsedSeconds() * 1e3);
      STTR_CHECK_NE(body.find("\"cached\": false"), std::string::npos);
    }
    const StatsSnap cold_delta =
        StatsSnap::Of(stack->stats).Minus(cold_before);
    // One untimed warm pass: the first cache hit grows the worker's reused
    // result vector, the steady state starts at the second.
    for (size_t i = 0; i < probes; ++i) {
      const std::string body =
          client.Get(QueryTarget(probe_queries[i], k, /*nocache=*/false));
      STTR_CHECK_NE(body.find("\"cached\": true"), std::string::npos);
    }
    // Hit: identical requests again, now answered from the cache — the
    // arena, worker scratch and connection buffers are warm, so the epoll
    // core must not allocate at all from here on.
    const StatsSnap hit_before = StatsSnap::Of(stack->stats);
    for (size_t i = 0; i < probes; ++i) {
      Timer t;
      const std::string body =
          client.Get(QueryTarget(probe_queries[i], k, /*nocache=*/false));
      hit_ms.push_back(t.ElapsedSeconds() * 1e3);
      STTR_CHECK_NE(body.find("\"cached\": true"), std::string::npos);
    }
    const StatsSnap hit_delta = StatsSnap::Of(stack->stats).Minus(hit_before);
    std::sort(cold_ms.begin(), cold_ms.end());
    std::sort(hit_ms.begin(), hit_ms.end());
    const auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    LoadResult cold, hit;
    cold.requests = hit.requests = probes;
    cold.latencies_ms = cold_ms;
    hit.latencies_ms = hit_ms;
    cold.seconds = mean(cold_ms) * static_cast<double>(probes) / 1e3;
    hit.seconds = mean(hit_ms) * static_cast<double>(probes) / 1e3;
    record("serve_cache_cold", cold, 1, 1, cold_delta);
    record("serve_cache_hit", hit, 1, 1, hit_delta);
    std::printf("  (cache speedup: %.1fx mean;  hot path: %llu allocs / "
                "%llu warmed hits)\n",
                mean(cold_ms) / mean(hit_ms),
                static_cast<unsigned long long>(hit_delta.hot_allocs),
                static_cast<unsigned long long>(hit_delta.hot_requests));
    if (assert_zero_alloc) {
      if (hit_delta.hot_requests != probes || hit_delta.hot_allocs != 0 ||
          hit_delta.loop_allocs != 0) {
        std::fprintf(stderr,
                     "[serve_loadgen] ZERO-ALLOC VIOLATION: %llu warmed "
                     "cache hits performed %llu worker allocs and %llu "
                     "event-loop allocs (expected %zu hits, 0 allocs)\n",
                     static_cast<unsigned long long>(hit_delta.hot_requests),
                     static_cast<unsigned long long>(hit_delta.hot_allocs),
                     static_cast<unsigned long long>(hit_delta.loop_allocs),
                     probes);
        zero_alloc_failed = true;
      } else {
        std::printf("  (zero-alloc assertion: %zu warmed hits, 0 allocs — "
                    "ok)\n",
                    probes);
      }
    }
  }

  // ---- Scenario 3: many idle connections, few loaded. -------------------
  // The shape the epoll core exists for: the surplus over --clients sits
  // in established keep-alive connections doing nothing while the loaded
  // clients run the closed loop.
  if (connections > clients) {
    auto stack =
        StartStack(ws.world.dataset, ws.split, model_cfg, ckpt_dir, base);
    std::vector<std::unique_ptr<HttpClient>> idle;
    idle.reserve(connections - clients);
    for (size_t i = 0; i < connections - clients; ++i) {
      idle.push_back(std::make_unique<HttpClient>(stack->server->port()));
      // One round-trip pins the connection as established keep-alive.
      idle.back()->Get("/healthz");
    }
    warmup(stack->server->port());
    const StatsSnap before = StatsSnap::Of(stack->stats);
    const LoadResult r = RunClosedLoop(stack->server->port(), queries, k,
                                       /*nocache=*/true, clients,
                                       duration_s);
    record("serve_idle_conns", r, clients, connections,
           StatsSnap::Of(stack->stats).Minus(before));
  }

  // ---- Optional scenario 4: open loop at a fixed arrival rate. ----------
  if (open_qps > 0) {
    auto stack =
        StartStack(ws.world.dataset, ws.split, model_cfg, ckpt_dir, base);
    warmup(stack->server->port());
    const StatsSnap before = StatsSnap::Of(stack->stats);
    const LoadResult r =
        RunOpenLoop(stack->server->port(), queries, k, /*nocache=*/true,
                    clients, duration_s, open_qps);
    record(StrFormat("serve_open_%.0fqps", open_qps), r, clients, clients,
           StatsSnap::Of(stack->stats).Minus(before));
  }

  // ---- JSON emission for tools/summarize_bench.py. ------------------------
  std::ostringstream json;
  json << "{\n  \"bench\": \"serve_loadgen\", \"threads\": "
       << server_workers << ",\n  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"kernel\": \"" << r.kernel << "\", \"n\": " << r.n
         << ", \"clients\": " << r.clients
         << ", \"connections\": " << r.connections
         << ", \"seconds\": " << r.seconds
         << ", \"qps\": " << StrFormat("%.1f", r.qps)
         << ", \"mean_ms\": " << StrFormat("%.4f", r.mean_ms)
         << ", \"p50_ms\": " << StrFormat("%.4f", r.p50_ms)
         << ", \"p99_ms\": " << StrFormat("%.4f", r.p99_ms);
    if (r.allocs_per_req >= 0) {
      json << ", \"allocs_per_req\": " << StrFormat("%.2f", r.allocs_per_req)
           << ", \"sys_per_req\": " << StrFormat("%.2f", r.sys_per_req);
    }
    if (r.hot_allocs_per_hit >= 0) {
      json << ", \"hot_allocs_per_hit\": "
           << StrFormat("%.2f", r.hot_allocs_per_hit);
    }
    if (r.dropped >= 0) {
      json << ", \"dropped\": " << r.dropped << ", \"late\": " << r.late;
    }
    json << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  const std::string out_prefix = flags.GetString("out", "");
  if (!out_prefix.empty()) {
    const std::string path = out_prefix + "serve_loadgen.json";
    std::ofstream out(path);
    out << json.str();
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::cout << json.str();
  }

  if (zero_alloc_failed) return 1;
  if (assert_zero_alloc) {
    for (const Row& r : rows) {
      if (r.qps <= 0.0) {
        std::fprintf(stderr, "[serve_loadgen] %s: zero qps\n",
                     r.kernel.c_str());
        return 1;
      }
    }
    std::printf("[serve_loadgen] smoke checks passed\n");
  }
  return 0;
}

}  // namespace
}  // namespace sttr::bench

int main(int argc, char** argv) { return sttr::bench::Main(argc, argv); }
