// Single-threaded epoll HTTP/1.1 load generator for the serving benchmark.
//
//   perfbench_loadgen --port=P --mode=closed|open --conns=N --plan=FILE
//                     --out=FILE [--duration_ms=D] [--server_pid=PID]
//                     [--timeout_ms=T] [--paced_plan=FILE]
//
// The plan holds one request per line: "<offset_ns>\t<keep>\t<target>".
//   closed  each connection keeps exactly one request in flight and sends
//           the next plan entry (cycling) when its response lands, until
//           --duration_ms has passed; 0 sends every entry exactly once.
//           With --paced_plan, that plan's entries leave open-loop at their
//           due times on the last connection (result idx = main plan size
//           + line), while the other connections run closed.
//   open    entry i is due at phase start + offset_ns, whatever the server
//           is doing: it leaves on a free connection at once, or waits in
//           the generator's FIFO until one frees up (requests are never
//           pipelined), and its latency is timed from the due time, so a
//           stall shows up in every later request.
//
// One result line per request goes to --out:
//   idx conn status cause due_ns send_ns done_ns digest version [body]
// where cause is ok | status | shed | reset | timeout, digest is an FNV-1a
// hash of the body with the "cached" flag blanked out, version is the
// body's "model_version" (-1 when absent) and the body itself is written
// only for plan entries with keep=1. A JSON summary (phase time, server
// CPU ticks over the phase, generator lateness) goes to stdout.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_loadgen: %s\n", msg.c_str());
  std::exit(2);
}

struct PlanEntry {
  int64_t offset_ns = 0;
  bool keep = false;
  std::string request;  // full HTTP request bytes
};

struct Result {
  size_t idx = 0;
  int conn = 0;
  int status = 0;
  const char* cause = "ok";
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  uint64_t digest = 0;
  int64_t version = -1;
  std::string body;  // kept entries only
};

struct InFlight {
  size_t idx;
  int64_t due_ns;
  int64_t send_ns;
};

struct Connection {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<InFlight> inflight;
  bool want_write = false;
};

uint64_t Fnv1a(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Hash of the body with the value of "cached" removed: a cache hit and the
// miss that filled it must otherwise be byte-identical.
uint64_t BodyDigest(std::string_view body) {
  uint64_t h = 1469598103934665603ull;
  constexpr std::string_view kCached = "\"cached\": ";
  const size_t at = body.find(kCached);
  if (at == std::string_view::npos) return Fnv1a(h, body);
  size_t rest = at + kCached.size();
  while (rest < body.size() && body[rest] >= 'a' && body[rest] <= 'z') ++rest;
  h = Fnv1a(h, body.substr(0, at + kCached.size()));
  return Fnv1a(h, body.substr(rest));
}

int64_t ModelVersion(std::string_view body) {
  constexpr std::string_view kKey = "\"model_version\": ";
  const size_t at = body.find(kKey);
  if (at == std::string_view::npos) return -1;
  int64_t v = 0;
  for (size_t i = at + kKey.size(); i < body.size(); ++i) {
    if (body[i] < '0' || body[i] > '9') break;
    v = v * 10 + (body[i] - '0');
  }
  return v;
}

// utime + stime of a process, in clock ticks; -1 when unreadable.
int64_t ProcessCpuTicks(int pid) {
  if (pid <= 0) return -1;
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(f, line)) return -1;
  // Field 2 (comm) may contain spaces; fields resume after the last ')'.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  int64_t utime = 0, stime = 0;
  // rest starts at field 3 (state); utime is field 14, stime field 15.
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::atoll(field.c_str());
    if (i == 15) stime = std::atoll(field.c_str());
  }
  return utime + stime;
}

class LoadGen {
 public:
  // plan[0, main_size) is the main plan; entries after it are paced.
  LoadGen(int port, std::vector<PlanEntry> plan, size_t main_size,
          int64_t timeout_ns)
      : port_(port),
        plan_(std::move(plan)),
        main_size_(main_size),
        timeout_ns_(timeout_ns) {
    epfd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) Die("epoll_create1 failed");
  }
  ~LoadGen() {
    for (Connection& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
    close(epfd_);
  }

  void Connect(int n) {
    conns_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) Open(i);
  }

  // Closed loop over the main plan; duration_ns == 0 sends each of its
  // entries exactly once. Paced entries (those after the main plan), if
  // any, leave open-loop at their due times on the last connection while
  // the others run closed, until duration_ns.
  void RunClosed(int64_t duration_ns) {
    t0_ = NowNs();
    const bool once = duration_ns == 0;
    const int n = static_cast<int>(conns_.size());
    const bool paced = main_size_ < plan_.size();
    const int closed_conns = paced ? n - 1 : n;
    size_t next_paced = main_size_;
    size_t paced_end = main_size_;
    while (paced_end < plan_.size() &&
           plan_[paced_end].offset_ns < duration_ns) {
      ++paced_end;
    }
    std::deque<size_t> backlog;
    for (;;) {
      const int64_t now = NowNs();
      const bool sending = once ? next_ < main_size_ : now - t0_ < duration_ns;
      for (int i = 0; i < closed_conns && sending; ++i) {
        if (conns_[static_cast<size_t>(i)].inflight.empty() &&
            (!once || next_ < main_size_)) {
          SendNext(i, now);
        }
      }
      if (paced) Dispatch(&next_paced, paced_end, &backlog, n - 1, n);
      if (!sending && next_paced == paced_end && backlog.empty() &&
          InFlightCount() == 0) {
        break;
      }
      Poll(0);
      CheckTimeouts(NowNs());
    }
    t_end_ = last_done_ns_ > 0 ? last_done_ns_ : NowNs();
  }

  void RunOpen() {
    t0_ = NowNs();
    std::deque<size_t> backlog;
    const int n = static_cast<int>(conns_.size());
    while (next_ < plan_.size() || !backlog.empty() || InFlightCount() > 0) {
      Dispatch(&next_, plan_.size(), &backlog, 0, n);
      // Busy-poll: the generator owns its core, and a thread that never
      // sleeps neither wakes late for a due send nor for a response.
      Poll(0);
      CheckTimeouts(NowNs());
    }
    t_end_ = last_done_ns_ > 0 ? last_done_ns_ : NowNs();
  }

  std::vector<Result>& results() { return results_; }
  int64_t elapsed_ns() const { return t_end_ - t0_; }
  int64_t max_lag_ns() const { return max_lag_ns_; }
  size_t late() const { return late_; }
  size_t queued() const { return queued_; }
  size_t sent() const { return sent_; }
  int reconnects() const { return reconnects_; }

 private:
  static constexpr int64_t kLateNs = 2000000;  // 2 ms behind schedule

  void Open(int i) {
    Connection& c = conns_[static_cast<size_t>(i)];
    c = Connection{};
    c.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) Die("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die("connect to port " + std::to_string(port_) + " failed: " +
          std::strerror(errno));
    }
    int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(i);
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, c.fd, &ev) != 0) Die("epoll_ctl");
  }

  // Fails everything in flight on connection i and reconnects it.
  void Reset(int i, const char* cause) {
    Connection& c = conns_[static_cast<size_t>(i)];
    const int64_t now = NowNs();
    for (const InFlight& f : c.inflight) Record(i, f, 0, cause, now, {});
    epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
    close(c.fd);
    ++reconnects_;
    Open(i);
  }

  size_t InFlightCount() const {
    size_t n = 0;
    for (const Connection& c : conns_) n += c.inflight.size();
    return n;
  }

  // A connection in [lo, hi) with nothing in flight; -1 when all are busy.
  // Requests are never pipelined: each connection carries one at a time.
  int FreeConnection(int lo, int hi) const {
    for (int i = lo; i < hi; ++i) {
      if (conns_[static_cast<size_t>(i)].inflight.empty()) return i;
    }
    return -1;
  }

  // Open-loop dispatch: sends plan_[*next, end) entries that are due onto
  // free connections in [lo, hi). An entry that finds none waits in
  // `backlog`, oldest first, and its latency still counts from its due
  // time. Lateness is how long after its due time an entry that found a
  // free connection actually left: the generator's own delay.
  void Dispatch(size_t* next, size_t end, std::deque<size_t>* backlog, int lo,
                int hi) {
    int64_t now = NowNs();
    while (*next < end && t0_ + plan_[*next].offset_ns <= now) {
      const int c = FreeConnection(lo, hi);
      if (c < 0 || !backlog->empty()) {
        backlog->push_back((*next)++);
        ++queued_;
        continue;
      }
      const int64_t due = t0_ + plan_[*next].offset_ns;
      max_lag_ns_ = std::max(max_lag_ns_, now - due);
      if (now - due > kLateNs) ++late_;
      SendOn(c, (*next)++, due, now);
      now = NowNs();
    }
    for (int c = FreeConnection(lo, hi); c >= 0 && !backlog->empty();
         c = FreeConnection(lo, hi)) {
      const size_t idx = backlog->front();
      backlog->pop_front();
      SendOn(c, idx, t0_ + plan_[idx].offset_ns, NowNs());
    }
  }

  void SendNext(int i, int64_t now) {
    SendOn(i, next_ % main_size_, now, now);
    ++next_;
  }

  void SendOn(int i, size_t idx, int64_t due, int64_t now) {
    Connection& c = conns_[static_cast<size_t>(i)];
    c.inflight.push_back(InFlight{idx, due, now});
    c.out.append(plan_[idx].request);
    ++sent_;
    Flush(i);
  }

  void Flush(int i) {
    Connection& c = conns_[static_cast<size_t>(i)];
    while (c.out_off < c.out.size()) {
      const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      Reset(i, "reset");
      return;
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    const bool want = !c.out.empty();
    if (want != c.want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u32 = static_cast<uint32_t>(i);
      epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
      c.want_write = want;
    }
  }

  void Poll(int timeout_ms) {
    epoll_event events[16];
    const int n = epoll_wait(epfd_, events, 16, timeout_ms);
    for (int e = 0; e < n; ++e) {
      const int i = static_cast<int>(events[e].data.u32);
      if (events[e].events & EPOLLOUT) Flush(i);
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) Read(i);
    }
  }

  void Read(int i) {
    Connection& c = conns_[static_cast<size_t>(i)];
    char buf[65536];
    for (;;) {
      const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF or error: whatever is complete is still answered below.
      Parse(i);
      Reset(i, "reset");
      return;
    }
    Parse(i);
  }

  // Completes every whole response buffered on connection i.
  void Parse(int i) {
    Connection& c = conns_[static_cast<size_t>(i)];
    size_t pos = 0;
    bool close_after = false;
    while (!c.inflight.empty()) {
      const size_t head_end = c.in.find("\r\n\r\n", pos);
      if (head_end == std::string::npos) break;
      const std::string_view head(c.in.data() + pos, head_end - pos);
      int status = 0;
      if (head.size() > 12) status = std::atoi(std::string(head.substr(9, 3)).c_str());
      size_t length = 0;
      std::string lower(head);
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char ch) { return std::tolower(ch); });
      const size_t cl = lower.find("content-length:");
      if (cl != std::string::npos) {
        length = static_cast<size_t>(std::atoll(lower.c_str() + cl + 15));
      }
      if (lower.find("connection: close") != std::string::npos) close_after = true;
      const size_t body_at = head_end + 4;
      if (c.in.size() < body_at + length) break;
      const std::string_view body(c.in.data() + body_at, length);
      const InFlight f = c.inflight.front();
      c.inflight.pop_front();
      const char* cause = status == 200 ? "ok" : status == 503 ? "shed" : "status";
      Record(i, f, status, cause, NowNs(), body);
      pos = body_at + length;
      if (close_after) break;
    }
    c.in.erase(0, pos);
    if (close_after) Reset(i, "reset");
  }

  void Record(int i, const InFlight& f, int status, const char* cause,
              int64_t now, std::string_view body) {
    Result r;
    r.idx = f.idx;
    r.conn = i;
    r.status = status;
    r.cause = cause;
    r.due_ns = f.due_ns - t0_;
    r.send_ns = f.send_ns - t0_;
    r.done_ns = now - t0_;
    r.digest = BodyDigest(body);
    r.version = ModelVersion(body);
    if (plan_[f.idx].keep) r.body.assign(body);
    results_.push_back(std::move(r));
    last_done_ns_ = now;
  }

  void CheckTimeouts(int64_t now) {
    for (size_t i = 0; i < conns_.size(); ++i) {
      const Connection& c = conns_[i];
      if (!c.inflight.empty() && now - c.inflight.front().send_ns > timeout_ns_) {
        Reset(static_cast<int>(i), "timeout");
      }
    }
  }

  int port_;
  std::vector<PlanEntry> plan_;
  size_t main_size_;
  int64_t timeout_ns_;
  int epfd_ = -1;
  std::vector<Connection> conns_;
  std::vector<Result> results_;
  size_t next_ = 0;
  size_t sent_ = 0;
  size_t late_ = 0;
  size_t queued_ = 0;
  int reconnects_ = 0;
  int64_t max_lag_ns_ = 0;
  int64_t t0_ = 0;
  int64_t t_end_ = 0;
  int64_t last_done_ns_ = 0;
};

std::vector<PlanEntry> ReadPlan(const std::string& path) {
  std::ifstream f(path);
  if (!f) Die("cannot read plan " + path);
  std::vector<PlanEntry> plan;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    const size_t t1 = line.find('\t');
    const size_t t2 = line.find('\t', t1 + 1);
    if (t1 == std::string::npos || t2 == std::string::npos) {
      Die("malformed plan line: " + line);
    }
    PlanEntry e;
    e.offset_ns = std::atoll(line.substr(0, t1).c_str());
    e.keep = line[t1 + 1] == '1';
    e.request = "GET " + line.substr(t2 + 1) +
                " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    plan.push_back(std::move(e));
  }
  if (plan.empty()) Die("empty plan " + path);
  return plan;
}

std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  const int port = std::atoi(Flag(argc, argv, "port", "0").c_str());
  const std::string mode = Flag(argc, argv, "mode", "closed");
  const int conns = std::atoi(Flag(argc, argv, "conns", "4").c_str());
  const std::string out_path = Flag(argc, argv, "out", "");
  const int64_t duration_ns =
      std::atoll(Flag(argc, argv, "duration_ms", "0").c_str()) * 1000000;
  const int server_pid = std::atoi(Flag(argc, argv, "server_pid", "0").c_str());
  const int64_t timeout_ns =
      std::atoll(Flag(argc, argv, "timeout_ms", "10000").c_str()) * 1000000;
  if (port <= 0 || conns <= 0 || conns > 4 || out_path.empty()) {
    Die("usage: --port=P --mode=closed|open --conns=1..4 --plan=F --out=F");
  }

  std::vector<PlanEntry> plan = ReadPlan(Flag(argc, argv, "plan", ""));
  const size_t main_size = plan.size();
  const std::string paced_path = Flag(argc, argv, "paced_plan", "");
  if (!paced_path.empty()) {
    if (mode != "closed" || conns < 2) {
      Die("--paced_plan needs --mode=closed and at least two connections");
    }
    for (PlanEntry& e : ReadPlan(paced_path)) plan.push_back(std::move(e));
  }
  LoadGen gen(port, std::move(plan), main_size, timeout_ns);
  gen.Connect(conns);
  const int64_t cpu0 = ProcessCpuTicks(server_pid);
  if (mode == "closed") {
    gen.RunClosed(duration_ns);
  } else if (mode == "open") {
    gen.RunOpen();
  } else {
    Die("unknown --mode=" + mode);
  }
  const int64_t cpu1 = ProcessCpuTicks(server_pid);

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) Die("cannot write " + out_path);
  for (const Result& r : gen.results()) {
    std::fprintf(out, "%zu\t%d\t%d\t%s\t%lld\t%lld\t%lld\t%016llx\t%lld",
                 r.idx, r.conn, r.status, r.cause,
                 static_cast<long long>(r.due_ns),
                 static_cast<long long>(r.send_ns),
                 static_cast<long long>(r.done_ns),
                 static_cast<unsigned long long>(r.digest),
                 static_cast<long long>(r.version));
    if (!r.body.empty()) std::fprintf(out, "\t%s", r.body.c_str());
    std::fputc('\n', out);
  }
  std::fclose(out);
  std::printf(
      "{\"mode\": \"%s\", \"elapsed_ns\": %lld, \"sent\": %zu, "
      "\"completed\": %zu, \"late\": %zu, \"queued\": %zu, \"max_lag_ns\": %lld, "
      "\"reconnects\": %d, \"server_cpu_ticks\": %lld, \"clk_tck\": %ld}\n",
      mode.c_str(), static_cast<long long>(gen.elapsed_ns()), gen.sent(),
      gen.results().size(), gen.late(), gen.queued(),
      static_cast<long long>(gen.max_lag_ns()), gen.reconnects(),
      static_cast<long long>(cpu0 >= 0 && cpu1 >= 0 ? cpu1 - cpu0 : -1),
      sysconf(_SC_CLK_TCK));
  return 0;
}
