// Serving-core chaos: a real RecommendServer on loopback keeps answering
// well-behaved clients while misbehaving ones
//   - send half a request head, then close;
//   - send a nocache=1 request and reset the connection (SO_LINGER {1, 0})
//     while it is queued or being scored, so its completion reaches a
//     connection that is gone;
//   - pipeline k=100 requests without reading until the socket buffers
//     are full both ways, then reset partway through the responses.
// Every answer a well-behaved client gets must equal the offline ranking,
// and a nocache=1 answer also the exact bytes recorded before the chaos.
// Once every client has left, no connection slot may stay open, and a
// warmed cache hit must still allocate nothing, on the worker or the loop.
// A connection reset while its request is scored must not wake the event
// loop again until the answer is ready.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eval/protocol.h"
#include "serve/alloc_hook.h"
#include "serve/candidate_index.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "serve_test_util.h"
#include "test_http_client.h"
#include "util/check.h"
#include "util/string_util.h"

namespace sttr::serve {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kGoodClients = 3;

std::string RequestBytes(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

/// Blocking loopback connection for a misbehaving client. A nonzero
/// `buf_bytes` shrinks both socket buffers, set before connect so the TCP
/// window honours them.
int ConnectRaw(int port, int buf_bytes = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  STTR_CHECK_GE(fd, 0);
  if (buf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf_bytes, sizeof(buf_bytes));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf_bytes, sizeof(buf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  STTR_CHECK_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void SendAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    STTR_CHECK_GT(n, 0) << std::strerror(errno);
    bytes.remove_prefix(static_cast<size_t>(n));
  }
}

/// Closes with SO_LINGER {1, 0}: the kernel drops whatever is queued and
/// answers the server with RST instead of FIN.
void Reset(int fd) {
  const linger hard{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(fd);
}

class ServeChaosTest : public ::testing::Test {
 protected:
  /// A request a well-behaved client sends, with what it must get back.
  struct Target {
    std::string path;
    bool nocache = false;
    std::vector<std::pair<PoiId, double>> want;  ///< the offline ranking
    std::string raw;  ///< nocache only: the answer's bytes before the chaos
  };

  static void SetUpTestSuite() {
    fixture_ = new ServeFixture(MakeServeFixture());
    ckpt_dir_ = new std::string(ServeTestDir());
    model_ = new std::shared_ptr<StTransRec>(
        TrainSmallModel(*fixture_, *ckpt_dir_));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete ckpt_dir_;
    delete fixture_;
    model_ = nullptr;
    ckpt_dir_ = nullptr;
    fixture_ = nullptr;
  }

  void SetUp() override {
    ASSERT_TRUE(AllocHookActive())
        << "counting operator new not linked in; the zero-alloc check "
           "cannot be asserted";
    ModelBundleConfig bundle_config;
    bundle_config.checkpoint_dir = *ckpt_dir_;
    bundle_config.model = SmallServingModelConfig();
    bundle_ = std::make_unique<ModelBundle>(fixture_->world.dataset,
                                            fixture_->split, bundle_config);
    ASSERT_TRUE(bundle_->LoadInitial().ok());

    CandidateIndexConfig index_config;
    index_config.min_candidates = 30;
    index_ = std::make_unique<CandidateIndex>(fixture_->world.dataset,
                                              &fixture_->split, index_config);
    cache_ = std::make_unique<ResultCache>(ResultCacheConfig{});

    ServerConfig server_config;
    // Two workers, so completions race each other as well as the resets.
    server_config.num_workers = 2;
    // One event loop: ExpectCleanAfterChaos relies on its accept order.
    server_config.num_io_threads = 1;
    server_config.default_city = fixture_->split.target_city;
    // Longer than any test: the idle sweep must not be what closes a
    // connection the loop failed to notice was gone.
    server_config.request_timeout = std::chrono::minutes(5);
    server_ = std::make_unique<RecommendServer>(
        server_config, fixture_->world.dataset, bundle_.get(), index_.get(),
        cache_.get(), &stats_);
    ASSERT_TRUE(server_->Start().ok());

    TestHttpClient client(server_->port());
    for (int i = 0; i < 8; ++i) {
      Target t;
      const UserId user = static_cast<UserId>(
          (i * 5) % static_cast<int>(dataset().num_users()));
      const GeoPoint loc = PoiLocation(static_cast<size_t>(i) * 3);
      const size_t k = i % 4 < 2 ? 100 : 10;
      t.nocache = i % 2 == 0;
      t.path = RecommendTarget(user, loc, k, t.nocache);
      const std::vector<PoiId> candidates =
          index_->Candidates(target_city(), loc);
      const std::vector<double> scores = (*model_)->ScoreBatch(
          user, {candidates.data(), candidates.size()});
      t.want = TopKByScore({candidates.data(), candidates.size()},
                           {scores.data(), scores.size()}, k);
      const auto reference = client.Get(t.path);
      ASSERT_EQ(reference.status, 200) << reference.body;
      ASSERT_EQ(ParseResults(reference.body), t.want) << t.path;
      if (t.nocache) t.raw = reference.raw;
      targets_.push_back(std::move(t));
    }
  }

  void TearDown() override {
    if (server_ == nullptr) return;
    // Shutdown() waits for every connection to close, so a leaked slot
    // would hang it: fail here instead.
    STTR_CHECK(OpenConnectionsDropTo(0))
        << "a connection slot outlived its client";
    server_->Shutdown();
  }

  const Dataset& dataset() { return fixture_->world.dataset; }
  CityId target_city() { return fixture_->split.target_city; }

  GeoPoint PoiLocation(size_t i) {
    const auto& pois = dataset().PoisInCity(target_city());
    return dataset().poi(pois[i % pois.size()]).location;
  }

  std::string RecommendTarget(UserId user, const GeoPoint& loc, size_t k,
                              bool nocache) {
    std::string target = "/recommend?user=" + std::to_string(user) +
                         "&lat=" + StrFormat("%.8f", loc.lat) +
                         "&lon=" + StrFormat("%.8f", loc.lon) +
                         "&k=" + std::to_string(k);
    if (nocache) target += "&nocache=1";
    return target;
  }

  /// Runs each misbehaving client on its own thread while kGoodClients
  /// well-behaved clients cycle through targets_, each on one keep-alive
  /// connection; checks every answer they got once the misbehavers are done.
  /// The misbehavers start once every good client has been answered, so
  /// the two kinds of traffic overlap however the threads are scheduled.
  void RunChaos(const std::vector<std::function<void()>>& misbehavers) {
    std::atomic<int> answered_once{0};
    std::atomic<bool> done{false};
    std::vector<std::string> first_bad(kGoodClients);
    std::vector<std::thread> good;
    for (int c = 0; c < kGoodClients; ++c) {
      good.emplace_back([&, c] {
        TestHttpClient client(server_->port());
        for (size_t i = static_cast<size_t>(c); !done.load(); ++i) {
          const Target& t = targets_[i % targets_.size()];
          const auto r = client.Get(t.path);
          const bool exact = r.status == 200 &&
                             ParseResults(r.body) == t.want &&
                             (!t.nocache || r.raw == t.raw);
          if (!exact && first_bad[static_cast<size_t>(c)].empty()) {
            first_bad[static_cast<size_t>(c)] = t.path + " -> " + r.raw;
          }
          if (i == static_cast<size_t>(c)) answered_once.fetch_add(1);
        }
      });
    }
    std::vector<std::thread> bad;
    for (const auto& misbehave : misbehavers) {
      bad.emplace_back([&answered_once, &misbehave] {
        while (answered_once.load() < kGoodClients) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        misbehave();
      });
    }
    for (std::thread& t : bad) t.join();
    done.store(true);
    for (std::thread& t : good) t.join();

    for (const std::string& why : first_bad) {
      EXPECT_TRUE(why.empty()) << "well-behaved client got " << why;
    }
  }

  /// Half a request head (a different cut each round), then a clean close.
  void HalfHeadThenClose(int rounds) {
    const std::string full = RequestBytes(targets_[1].path);
    for (int r = 0; r < rounds; ++r) {
      const int fd = ConnectRaw(server_->port());
      const size_t cut = 1 + static_cast<size_t>(r) * 37 % (full.size() - 1);
      SendAll(fd, std::string_view(full).substr(0, cut));
      ::close(fd);
    }
  }

  /// A k=100 nocache=1 request, then a reset after 0-700 us: across the
  /// rounds the reset lands before the loop reads the request, while it
  /// waits for a worker, while it is scored, and after it is answered.
  void ResetWhileScored(int rounds) {
    for (int r = 0; r < rounds; ++r) {
      const int fd = ConnectRaw(server_->port());
      SendAll(fd, RequestBytes(targets_[0].path));
      std::this_thread::sleep_for(std::chrono::microseconds(100 * (r % 8)));
      Reset(fd);
    }
  }

  /// Pipelines k=100 requests without reading until the server stops
  /// draining them (its unsent answers fill both socket buffers), then
  /// resets with answers still queued. False if it never stopped.
  bool PipelineThenReset() {
    const int fd = ConnectRaw(server_->port(), /*buf_bytes=*/4096);
    STTR_CHECK_EQ(::fcntl(fd, F_SETFL, O_NONBLOCK), 0);
    std::string batch;
    for (int i = 0; i < 32; ++i) batch += RequestBytes(targets_[1].path);
    constexpr size_t kMaxBatches = 1024;
    bool stalled = false;
    size_t off = 0;
    Clock::time_point blocked_since{};
    for (size_t batches = 0; batches < kMaxBatches && !stalled;) {
      const ssize_t n = ::send(fd, batch.data() + off, batch.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        if (off == batch.size()) {
          off = 0;
          ++batches;
        }
        blocked_since = {};
        continue;
      }
      STTR_CHECK(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
          << std::strerror(errno);
      const auto now = Clock::now();
      if (blocked_since == Clock::time_point{}) blocked_since = now;
      stalled = now - blocked_since > std::chrono::milliseconds(100);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    int unread = 0;
    ::ioctl(fd, FIONREAD, &unread);
    Reset(fd);
    return stalled && unread > 0;
  }

  /// The /statz counters an event-loop wake-up is accounted against.
  struct LoopCounters {
    uint64_t waits, reads, writes, accepts, requests;
    Clock::time_point at;
  };
  LoopCounters ReadLoopCounters() const {
    return {stats_.sys_epoll_waits.load(), stats_.sys_reads.load(),
            stats_.sys_writes.load(),      stats_.sys_accepts.load(),
            stats_.requests.load(),        Clock::now()};
  }

  /// Every epoll_wait since `from` that returned had work to show for it:
  /// a read or a write, a new connection (its hand-off wake-up and, at most
  /// once, its hang-up), a request's completion wake-up, or the end of a
  /// wait, which lasts up to 100 ms with this config's idle timeout. A loop
  /// woken over and over by a hung-up connection breaks the bound.
  void ExpectEpollWaitsPaidFor(const LoopCounters& from) const {
    const LoopCounters to = ReadLoopCounters();
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(to.at - from.at)
            .count();
    const uint64_t paid = (to.reads - from.reads) + (to.writes - from.writes) +
                          2 * (to.accepts - from.accepts) +
                          (to.requests - from.requests) +
                          static_cast<uint64_t>(elapsed_ms) / 100 + 2;
    EXPECT_LE(to.waits - from.waits, paid)
        << "the event loop woke without work to do";
  }

  /// Waits (bounded) until at most `n` connections are open.
  bool OpenConnectionsDropTo(size_t n) {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (server_->num_open_connections() > n) {
      if (Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }

  /// After the chaos, every connection the clients left is closed, and a
  /// window of warmed cache hits allocates nothing, on the scoring worker
  /// (hot_allocs) or on the event loop (loop_allocs).
  void ExpectCleanAfterChaos() {
    // This connection is accepted after every earlier one, and the one
    // event loop registers accepted sockets in order. So once it is
    // answered, every chaos connection has been registered, and this one
    // must soon be the only one open.
    TestHttpClient client(server_->port());
    const std::string& target = targets_[3].path;
    for (int i = 0; i < 6; ++i) ASSERT_EQ(client.Get(target).status, 200);
    ASSERT_TRUE(OpenConnectionsDropTo(1))
        << "a connection slot outlived its client";

    const uint64_t hot_requests0 = stats_.hot_requests.load();
    const uint64_t hot_allocs0 = stats_.hot_allocs.load();
    const uint64_t loop_allocs0 = stats_.loop_allocs.load();
    constexpr int kWindow = 50;
    for (int i = 0; i < kWindow; ++i) {
      const auto r = client.Get(target);
      ASSERT_EQ(r.status, 200);
      ASSERT_NE(r.body.find("\"cached\": true"), std::string::npos) << r.body;
    }
    EXPECT_EQ(stats_.hot_requests.load() - hot_requests0,
              static_cast<uint64_t>(kWindow));
    EXPECT_EQ(stats_.hot_allocs.load() - hot_allocs0, 0u);
    EXPECT_EQ(stats_.loop_allocs.load() - loop_allocs0, 0u);
  }

  static ServeFixture* fixture_;
  static std::string* ckpt_dir_;
  static std::shared_ptr<StTransRec>* model_;

  ServeStats stats_;
  std::unique_ptr<ModelBundle> bundle_;
  std::unique_ptr<CandidateIndex> index_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<RecommendServer> server_;
  std::vector<Target> targets_;
};

ServeFixture* ServeChaosTest::fixture_ = nullptr;
std::string* ServeChaosTest::ckpt_dir_ = nullptr;
std::shared_ptr<StTransRec>* ServeChaosTest::model_ = nullptr;

TEST_F(ServeChaosTest, HalfHeadThenClose) {
  RunChaos({[this] { HalfHeadThenClose(60); }});
  ExpectCleanAfterChaos();
}

TEST_F(ServeChaosTest, ResetWhileRequestIsScored) {
  const LoopCounters before = ReadLoopCounters();
  RunChaos({[this] { ResetWhileScored(64); }});
  ExpectEpollWaitsPaidFor(before);
  ExpectCleanAfterChaos();
}

TEST_F(ServeChaosTest, ResetMidResponseBehindPipelinedBacklog) {
  int stalled = 0;
  RunChaos({[&] {
    for (int r = 0; r < 3; ++r) stalled += PipelineThenReset() ? 1 : 0;
  }});
  EXPECT_EQ(stalled, 3) << "the backlog never filled the socket buffers, "
                           "so no reset landed mid-response";
  ExpectCleanAfterChaos();
}

TEST_F(ServeChaosTest, AllMisbehavioursAtOnce) {
  int stalled = 0;
  RunChaos({[this] { HalfHeadThenClose(60); },
            [this] { ResetWhileScored(64); },
            [&] {
              for (int r = 0; r < 2; ++r) {
                stalled += PipelineThenReset() ? 1 : 0;
              }
            }});
  EXPECT_EQ(stalled, 2);
  ExpectCleanAfterChaos();
}

}  // namespace
}  // namespace sttr::serve
