#ifndef STTR_UTIL_SOCKET_FAULT_H_
#define STTR_UTIL_SOCKET_FAULT_H_

#include <array>
#include <chrono>
#include <cstddef>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sttr {

/// Socket-layer sibling of FaultInjectionEnv: decides, per wrapped socket
/// syscall (util/socket_io.h), whether the Nth operation of a kind should
/// fail, short-read/short-write, stall past a deadline, or behave as if the
/// peer vanished. SocketFaultTest drives every mode through the wrappers —
/// and the project linter (raw-socket) forbids raw ::connect/::send/::recv
/// outside them, so an unwrapped call is never a hole this seam cannot
/// reach.
///
/// Thread-safe, unlike FaultInjectionEnv: arming, counting and triggering
/// are all guarded by one mutex, so one injector may serve sockets on
/// several threads. Decisions are cheap (no IO under the lock).
class FaultInjectionSocket {
 public:
  enum class Op { kConnect = 0, kSend, kRecv, kPoll };
  static constexpr size_t kNumOps = 4;

  /// What the wrapper does instead of (or around) the real syscall.
  enum class Mode {
    kFail,   ///< errno-style failure (ECONNREFUSED / EPIPE / ECONNRESET)
    kShort,  ///< send/recv only half the requested bytes (torn frame)
    kStall,  ///< sleep `stall()`, then EAGAIN — a peer that stopped talking
    kEof,    ///< recv sees a clean close (0); send/connect see a dead peer
  };

  /// Verdict handed to the wrapper.
  struct Decision {
    bool fire = false;
    Mode mode = Mode::kFail;
    std::chrono::milliseconds stall{0};
  };

  FaultInjectionSocket() = default;

  /// Arms the `n`th (0-based, counted from now) operation of kind `op` to
  /// misbehave as `mode`. One one-shot fault per op kind at a time.
  void FailNth(Op op, size_t n, Mode mode = Mode::kFail) EXCLUDES(mu_);

  /// Every operation of kind `op` misbehaves as `mode` until Clear/Reset —
  /// a peer that is down (kFail/kEof) or wedged (kStall).
  void FailAlways(Op op, Mode mode) EXCLUDES(mu_);

  /// Disarms kind `op` (both one-shot and always), keeping counters.
  void Clear(Op op) EXCLUDES(mu_);

  /// Clears all faults and counters.
  void Reset() EXCLUDES(mu_);

  /// How long a kStall decision sleeps before EAGAIN (default 50ms); keep
  /// it comfortably past the deadline under test.
  void set_stall(std::chrono::milliseconds stall) EXCLUDES(mu_);

  /// Operations of kind `op` decided since the last Reset().
  size_t op_count(Op op) const EXCLUDES(mu_);

  /// Injected faults triggered since the last Reset().
  size_t faults_triggered() const EXCLUDES(mu_);

  /// Called by the socket wrapper before the real syscall. Advances the op
  /// counter and reports whether (and how) this call must misbehave.
  Decision Apply(Op op) EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::array<size_t, kNumOps> counts_ GUARDED_BY(mu_){};
  std::array<bool, kNumOps> armed_ GUARDED_BY(mu_){};
  std::array<size_t, kNumOps> fail_at_ GUARDED_BY(mu_){};
  std::array<Mode, kNumOps> nth_mode_ GUARDED_BY(mu_){};
  std::array<bool, kNumOps> always_ GUARDED_BY(mu_){};
  std::array<Mode, kNumOps> always_mode_ GUARDED_BY(mu_){};
  size_t faults_triggered_ GUARDED_BY(mu_) = 0;
  std::chrono::milliseconds stall_ GUARDED_BY(mu_){50};
};

}  // namespace sttr

#endif  // STTR_UTIL_SOCKET_FAULT_H_
