#ifndef STTR_SERVE_MODEL_BUNDLE_H_
#define STTR_SERVE_MODEL_BUNDLE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/st_transrec.h"
#include "data/dataset.h"
#include "data/split.h"
#include "serve/stats.h"
#include "util/fs.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sttr {
struct DeltaCheckpoint;
}

namespace sttr::serve {

class ResultCache;

/// Format of the artifact a snapshot was loaded from. Either way the
/// snapshot scores with an fp32 StTransRec.
enum class Precision : uint8_t {
  kFp32 = 1,  ///< v1 training checkpoint
  kInt8 = 2,  ///< v2 quantized serving artifact, dequantized at load
};

const char* PrecisionName(Precision p);

/// Which artifacts a bundle is willing to serve.
enum class PrecisionMode {
  kFp32,  ///< v1 training checkpoints only (pre-quantization behaviour)
  kInt8,  ///< v2 quantized artifacts only
  /// Whichever is newest by epoch, quantized preferred on ties — landing a
  /// quantized artifact next to the fp32 checkpoint of the same epoch hot-
  /// swaps the served parameters to the dequantized int8 ones, and a newer
  /// fp32 checkpoint swaps them back.
  kAuto,
};

/// One immutable serving snapshot: a fully loaded model plus the provenance
/// of the checkpoint it came from. Requests capture a shared_ptr to the
/// snapshot at admission and score against it for their whole lifetime, so
/// a hot reload can never hand one request parameters from two models.
struct ModelSnapshot {
  /// What requests score with; never null in a published snapshot, and
  /// always the same object as `model`.
  std::shared_ptr<const PoiScorer> scorer;
  /// The model itself, for callers that need more than scoring (embedding
  /// inspection). Never null in a published snapshot.
  std::shared_ptr<const StTransRec> model;
  /// Format of the loaded artifact. Only kFp32 snapshots carry a trained
  /// word table (a v2 artifact drops it) and accept streaming deltas.
  Precision precision = Precision::kFp32;
  /// Resident bytes of the model's fp32 parameters (the number /statz
  /// reports as model bytes); an int8 snapshot is resident at fp32 size.
  size_t resident_bytes = 0;
  std::string checkpoint_path;
  size_t epoch = 0;      ///< completed training epochs in the checkpoint
  uint64_t version = 0;  ///< reload counter, 1 for the initial load
  /// CRC32 of the base checkpoint's "model" section (fp32 snapshots only).
  /// A streaming delta names this value and is refused against any other
  /// base, even one with the same epoch number.
  uint32_t model_crc = 0;
  /// Streaming-delta provenance: the highest delta sequence patched into
  /// this snapshot (0 = pristine base) and the file it came from.
  uint64_t delta_seq = 0;
  std::string delta_path;
};

struct ModelBundleConfig {
  /// Directory the trainer writes checkpoints into.
  std::string checkpoint_dir;
  /// Must match the training config: checkpoints carry a config fingerprint
  /// and a snapshot that doesn't match is rejected, never served.
  StTransRecConfig model;
  /// Watcher poll period for newer checkpoints.
  std::chrono::milliseconds poll_interval{200};
  /// Filesystem; null means Env::Default().
  Env* env = nullptr;
  /// Which checkpoint flavors to serve (see PrecisionMode).
  PrecisionMode precision = PrecisionMode::kFp32;
  /// Directory quantized (v2) artifacts are picked up from; empty means
  /// "<checkpoint_dir>/quant" (where tools/sttr_quantize writes by default).
  std::string quant_checkpoint_dir;
  /// Optional failure-visibility sink: reload attempts that found a newer
  /// checkpoint but could not load it bump model_reload_failures and record
  /// the error string (surfaced at /statz); a later successful reload
  /// clears the error.
  ServeStats* stats = nullptr;
  /// Directory streaming delta checkpoints (core/delta.h) are consumed
  /// from; empty disables delta hot-patching. Deltas only patch fp32
  /// snapshots: each names its base's "model" section CRC, which a v2
  /// artifact does not have.
  std::string delta_dir;
};

/// Translates a delta into the minimal result-cache invalidation: user rows
/// invalidate those users' entries, POI rows invalidate their cities'
/// entries, word rows invalidate nothing (cached /recommend scores never
/// read the word table; it only feeds training and the uncached cold-start
/// path), and a dense-param refresh falls back to a wholesale flush. This
/// is the row-level hook delta listeners hang the cache on. `version` is
/// the patched snapshot's version (ResultCache::Ticket; 0: none).
void InvalidateForDelta(const Dataset& dataset, const DeltaCheckpoint& delta,
                        ResultCache& cache, uint64_t version = 0);

/// Loads the newest valid checkpoint into an immutable, atomically swappable
/// model snapshot, and (optionally) watches the checkpoint directory in the
/// background, hot-reloading whenever the trainer lands a newer one.
/// Corrupt or torn files are skipped by FindLatestValidCheckpoint, and a
/// checkpoint that vanishes mid-load (rotation racing the watcher) surfaces
/// as a Status and is retried on the next poll — the previous snapshot keeps
/// serving throughout. In-flight requests are never dropped: they hold
/// their snapshot's shared_ptr, and the old model is destroyed only when the
/// last request using it completes.
class ModelBundle {
 public:
  /// The dataset and split must outlive the bundle (snapshots Prepare()
  /// against them).
  ModelBundle(const Dataset& dataset, const CrossCitySplit& split,
              ModelBundleConfig config);
  ~ModelBundle();

  ModelBundle(const ModelBundle&) = delete;
  ModelBundle& operator=(const ModelBundle&) = delete;

  /// Blocking initial load of the newest valid checkpoint. Must succeed
  /// before snapshot() is usable.
  Status LoadInitial() EXCLUDES(mu_);

  /// Current snapshot (never null after a successful LoadInitial()).
  std::shared_ptr<const ModelSnapshot> snapshot() const EXCLUDES(mu_);

  /// Checks for a checkpoint newer than the current snapshot and swaps it
  /// in. Returns true when a swap happened, false when already current.
  /// The served file is not re-read, so a poll that finds nothing newer
  /// costs a directory listing; a newer file is verified, then loaded.
  StatusOr<bool> ReloadIfNewer() EXCLUDES(mu_);

  /// Registered callbacks run after every swap (initial load included),
  /// on the thread that performed it, with mu_ deliberately dropped — a
  /// listener may call back into snapshot()/the result cache. This is the
  /// hook the result cache's InvalidateAll() hangs off.
  void AddReloadListener(std::function<void(const ModelSnapshot&)> listener)
      EXCLUDES(mu_);

  /// Checks delta_dir for a delta newer than the one already live and
  /// hot-patches it: the delta's rows are applied IN PLACE to the standby
  /// model instance (cost proportional to changed rows, not table size) and
  /// the patched instance is published as a new snapshot. Returns true on a
  /// swap; false when there is nothing new, the delta targets a different
  /// base (epoch/CRC mismatch — the trainer hasn't caught up with a full
  /// reload yet), or the standby is still referenced by in-flight requests
  /// (retried next poll). Two model instances alternate as active/standby,
  /// and because deltas are cumulative against their base, patching the
  /// standby — whatever delta it last carried — with only the newest delta
  /// reproduces the trainer's exact state.
  StatusOr<bool> ApplyDeltaIfNewer() EXCLUDES(mu_, delta_mu_);

  /// Like reload listeners, but for delta swaps only: run after every
  /// ApplyDeltaIfNewer() swap with the new snapshot and the delta that
  /// produced it. Row-level cache invalidation (InvalidateForDelta) hangs
  /// off this instead of the wholesale-flush reload hook.
  void AddDeltaListener(
      std::function<void(const ModelSnapshot&, const DeltaCheckpoint&)>
          listener) EXCLUDES(mu_);

  /// Background polling via ReloadIfNewer() every poll_interval. Start and
  /// Stop are safe to call concurrently: exactly one stopper ever joins the
  /// watcher, a Start racing an in-progress Stop is a no-op (never a second
  /// watcher), and a StopWatcher that loses the race blocks until the
  /// winner's shutdown completes — so by the time any StopWatcher returns,
  /// no watcher thread remains. (As with any object, destruction must still
  /// be externally ordered after all other calls *begin*; the destructor
  /// merely waits out a stop already in flight.)
  void StartWatcher() EXCLUDES(watcher_mu_);
  void StopWatcher() EXCLUDES(watcher_mu_);

  /// Successful swaps so far (1 after LoadInitial()).
  uint64_t reload_count() const;

 private:
  /// Newest checkpoint path eligible under config_.precision. `served` is
  /// the path of the snapshot being served ("" before the first load): it
  /// is returned without being re-read while nothing newer is valid.
  StatusOr<std::string> SelectCheckpoint(const std::string& served) const;
  std::string QuantDir() const;
  /// Prepare + fingerprint check + parameter load of the checkpoint at
  /// `path` under config_.precision: a v1 training checkpoint loads as is,
  /// a v2 artifact is dequantized. Fills `provenance`'s precision, path,
  /// epoch and (v1) model CRC. Also stocks the delta standby instances.
  StatusOr<std::shared_ptr<StTransRec>> LoadModel(
      const std::string& path, ModelSnapshot* provenance) const;
  StatusOr<std::shared_ptr<ModelSnapshot>> LoadSnapshot(
      const std::string& path) const;
  void Swap(std::shared_ptr<ModelSnapshot> next) EXCLUDES(mu_);
  /// Swap for delta patches: publishes `next` under mu_ and hands back the
  /// delta listeners (not the reload listeners — a delta must not trigger
  /// the wholesale cache flush those perform). The caller invokes them only
  /// after dropping every lock: a listener is foreign code (row-level cache
  /// invalidation takes the cache's own locks) and must never run under
  /// delta_mu_ or mu_.
  std::vector<std::function<void(const ModelSnapshot&, const DeltaCheckpoint&)>>
  SwapDelta(std::shared_ptr<ModelSnapshot> next) EXCLUDES(mu_);
  /// Failure-visibility accounting (no-op without config_.stats).
  void RecordReloadFailure(const Status& error) const;
  Env& env() const;
  void WatcherLoop() EXCLUDES(watcher_mu_);

  const Dataset& dataset_;
  const CrossCitySplit& split_;
  ModelBundleConfig config_;

  mutable Mutex mu_;
  std::shared_ptr<const ModelSnapshot> snapshot_ GUARDED_BY(mu_);
  std::vector<std::function<void(const ModelSnapshot&)>> listeners_
      GUARDED_BY(mu_);
  std::vector<std::function<void(const ModelSnapshot&, const DeltaCheckpoint&)>>
      delta_listeners_ GUARDED_BY(mu_);
  std::atomic<uint64_t> reloads_{0};

  /// Delta double-buffer state: two fp32 instances loaded from the current
  /// base; the one inside snapshot_ is active, the other is the standby the
  /// next delta patches in place. Serialized by delta_mu_ (lock order:
  /// delta_mu_ before mu_; nothing takes them in reverse).
  Mutex delta_mu_;
  std::shared_ptr<StTransRec> delta_instances_[2] GUARDED_BY(delta_mu_);
  size_t delta_standby_ GUARDED_BY(delta_mu_) = 0;
  std::string delta_base_path_ GUARDED_BY(delta_mu_);
  uint64_t applied_delta_seq_ GUARDED_BY(delta_mu_) = 0;
  std::string applied_delta_path_ GUARDED_BY(delta_mu_);

  Mutex watcher_mu_;
  CondVar watcher_cv_;       ///< wakes the watcher's poll sleep for shutdown
  CondVar watcher_stopped_;  ///< signalled once a stop has fully completed
  bool watcher_stop_ GUARDED_BY(watcher_mu_) = false;
  /// Lifecycle state (see StartWatcher/StopWatcher): running_ spans spawn
  /// through the end of the stopper's join; stopping_ marks the one caller
  /// allowed to join. Tracked explicitly because the handle below becomes
  /// non-joinable mid-stop.
  bool watcher_running_ GUARDED_BY(watcher_mu_) = false;
  bool watcher_stopping_ GUARDED_BY(watcher_mu_) = false;
  /// Joined via a local moved out under watcher_mu_ (StopWatcher), so two
  /// concurrent StopWatcher calls can never double-join.
  std::thread watcher_ GUARDED_BY(watcher_mu_);
};

}  // namespace sttr::serve

#endif  // STTR_SERVE_MODEL_BUNDLE_H_
