// FaultInjectionSocket + sttr::net wrapper semantics. One-shot and
// always-on faults must fire exactly where armed, and each Mode must
// surface through Send/Recv/Connect as the documented errno/short-count/EOF
// behaviour — the contract a caller's transient-error handling is built on.

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/socket_fault.h"
#include "util/socket_io.h"

namespace sttr {
namespace {

using Op = FaultInjectionSocket::Op;
using Mode = FaultInjectionSocket::Mode;

/// A connected AF_UNIX stream pair: real send/recv without a listener.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(SocketFaultTest, NthOperationFiresExactlyOnce) {
  FaultInjectionSocket fault;
  fault.FailNth(Op::kSend, 2);
  EXPECT_FALSE(fault.Apply(Op::kSend).fire);
  EXPECT_FALSE(fault.Apply(Op::kSend).fire);
  EXPECT_TRUE(fault.Apply(Op::kSend).fire);
  EXPECT_FALSE(fault.Apply(Op::kSend).fire);  // one-shot: disarmed after
  EXPECT_EQ(fault.op_count(Op::kSend), 4u);
  EXPECT_EQ(fault.faults_triggered(), 1u);
  // Other op kinds are independent.
  EXPECT_FALSE(fault.Apply(Op::kRecv).fire);
  EXPECT_EQ(fault.op_count(Op::kRecv), 1u);
}

TEST(SocketFaultTest, FailAlwaysUntilCleared) {
  FaultInjectionSocket fault;
  fault.FailAlways(Op::kRecv, Mode::kEof);
  for (int i = 0; i < 3; ++i) {
    const auto decision = fault.Apply(Op::kRecv);
    EXPECT_TRUE(decision.fire);
    EXPECT_EQ(decision.mode, Mode::kEof);
  }
  fault.Clear(Op::kRecv);
  EXPECT_FALSE(fault.Apply(Op::kRecv).fire);
  EXPECT_EQ(fault.faults_triggered(), 3u);
  EXPECT_EQ(fault.op_count(Op::kRecv), 4u);  // Clear keeps counters
  fault.Reset();
  EXPECT_EQ(fault.op_count(Op::kRecv), 0u);
  EXPECT_EQ(fault.faults_triggered(), 0u);
}

TEST(SocketFaultTest, PassthroughWithoutInjector) {
  SocketPair pair;
  const std::string msg = "hello peer";
  ASSERT_EQ(net::Send(pair.a, msg.data(), msg.size(), 0),
            static_cast<ssize_t>(msg.size()));
  char buf[64] = {};
  ASSERT_EQ(net::Recv(pair.b, buf, sizeof(buf), 0),
            static_cast<ssize_t>(msg.size()));
  EXPECT_EQ(std::string(buf, msg.size()), msg);
}

TEST(SocketFaultTest, ShortSendTearsTheFrame) {
  SocketPair pair;
  FaultInjectionSocket fault;
  fault.FailNth(Op::kSend, 0, Mode::kShort);
  const std::string msg(10, 'x');
  const ssize_t sent = net::Send(pair.a, msg.data(), msg.size(), 0, &fault);
  EXPECT_EQ(sent, 5);  // max(1, len/2): deterministic torn write
  char buf[64];
  EXPECT_EQ(net::Recv(pair.b, buf, sizeof(buf), MSG_DONTWAIT), 5);
}

TEST(SocketFaultTest, FailAndEofModesSurfaceAsErrno) {
  SocketPair pair;
  FaultInjectionSocket fault;

  fault.FailNth(Op::kSend, 0, Mode::kFail);
  errno = 0;
  EXPECT_EQ(net::Send(pair.a, "x", 1, 0, &fault), -1);
  EXPECT_EQ(errno, EPIPE);

  fault.FailNth(Op::kRecv, 0, Mode::kFail);
  errno = 0;
  char c;
  EXPECT_EQ(net::Recv(pair.b, &c, 1, 0, &fault), -1);
  EXPECT_EQ(errno, ECONNRESET);

  // kEof: the peer vanished cleanly — recv 0, send EPIPE.
  fault.FailNth(Op::kRecv, 0, Mode::kEof);
  EXPECT_EQ(net::Recv(pair.b, &c, 1, 0, &fault), 0);
  fault.FailNth(Op::kSend, 0, Mode::kEof);
  errno = 0;
  EXPECT_EQ(net::Send(pair.a, "x", 1, 0, &fault), -1);
  EXPECT_EQ(errno, EPIPE);

  // Injected connect failure never touches the (unconnectable) address.
  fault.FailNth(Op::kConnect, 0, Mode::kFail);
  errno = 0;
  EXPECT_EQ(net::Connect(pair.a, nullptr, 0, &fault), -1);
  EXPECT_EQ(errno, ECONNREFUSED);
}

TEST(SocketFaultTest, StallSleepsThenEagain) {
  SocketPair pair;
  FaultInjectionSocket fault;
  fault.set_stall(std::chrono::milliseconds(30));
  fault.FailNth(Op::kRecv, 0, Mode::kStall);
  char c;
  const auto start = std::chrono::steady_clock::now();
  errno = 0;
  EXPECT_EQ(net::Recv(pair.b, &c, 1, 0, &fault), -1);
  EXPECT_EQ(errno, EAGAIN);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
}

// One injector may serve sockets on several threads, so it must count and
// trigger correctly under contention.
TEST(SocketFaultTest, ConcurrentApplyCountsEveryOperation) {
  FaultInjectionSocket fault;
  fault.FailAlways(Op::kSend, Mode::kFail);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fault] {
      for (int i = 0; i < kPerThread; ++i) fault.Apply(Op::kSend);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(fault.op_count(Op::kSend), size_t{kThreads} * kPerThread);
  EXPECT_EQ(fault.faults_triggered(), size_t{kThreads} * kPerThread);
}

}  // namespace
}  // namespace sttr
