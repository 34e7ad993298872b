#include "serve/model_bundle.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "core/checkpoint.h"
#include "core/delta.h"
#include "core/quantized_model.h"
#include "serve/result_cache.h"
#include "util/logging.h"

namespace sttr::serve {

namespace {

/// A serving snapshot never trains, so its model must not write checkpoints
/// of its own; everything else has to match the training config for the
/// fingerprint check to pass.
StTransRecConfig ServingConfig(StTransRecConfig cfg, Env* env) {
  cfg.checkpoint_dir.clear();
  cfg.env = env;
  cfg.verbose = false;
  return cfg;
}

/// Epoch encoded in a checkpoint path's file name ("dir/ckpt-000042.sttr").
StatusOr<size_t> EpochOfPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return ParseCheckpointEpoch(slash == std::string::npos
                                  ? path
                                  : path.substr(slash + 1));
}

}  // namespace

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "unknown";
}

void InvalidateForDelta(const Dataset& dataset, const DeltaCheckpoint& delta,
                        ResultCache& cache, uint64_t version) {
  if (!delta.dense_params.empty()) {
    // A dense-layer refresh changes every score; row-level targeting is
    // unsound here, so fall back to the wholesale flush.
    cache.InvalidateAll(version);
    return;
  }
  // User rows kill that user's entries in every city; POI rows kill every
  // user's entries in the POI's city (any cached ranking there may contain
  // it). Word rows need nothing: cached /recommend scores never read the
  // word table — it feeds training and the uncached cold-start path only.
  std::vector<CityId> cities;
  cities.reserve(delta.poi.rows.size());
  for (int64_t row : delta.poi.rows) {
    if (row >= 0 && row < static_cast<int64_t>(dataset.num_pois())) {
      cities.push_back(dataset.poi(static_cast<PoiId>(row)).city);
    }
  }
  std::sort(cities.begin(), cities.end());
  cities.erase(std::unique(cities.begin(), cities.end()), cities.end());
  cache.InvalidateRows(delta.user.rows, cities, version);
}

ModelBundle::ModelBundle(const Dataset& dataset, const CrossCitySplit& split,
                         ModelBundleConfig config)
    : dataset_(dataset), split_(split), config_(std::move(config)) {}

ModelBundle::~ModelBundle() { StopWatcher(); }

Env& ModelBundle::env() const {
  return config_.env != nullptr ? *config_.env : *Env::Default();
}

std::string ModelBundle::QuantDir() const {
  return config_.quant_checkpoint_dir.empty()
             ? config_.checkpoint_dir + "/quant"
             : config_.quant_checkpoint_dir;
}

StatusOr<std::string> ModelBundle::SelectCheckpoint(
    const std::string& served) const {
  // Nothing older than the served file can replace it, and the served file
  // itself is returned unopened: a poll that finds nothing new only lists
  // the directories.
  size_t min_epoch = 0;
  if (!served.empty()) {
    StatusOr<size_t> epoch = EpochOfPath(served);
    if (epoch.ok()) min_epoch = *epoch;
  }
  switch (config_.precision) {
    case PrecisionMode::kFp32:
      return FindLatestValidCheckpoint(env(), config_.checkpoint_dir, served,
                                       min_epoch);
    case PrecisionMode::kInt8:
      return FindLatestValidCheckpoint(env(), QuantDir(), served, min_epoch);
    case PrecisionMode::kAuto:
      break;
  }
  // Ties go to the quantized artifact, so while one is served an fp32 file
  // must be strictly newer to matter.
  const bool serving_quant = served.rfind(QuantDir() + "/", 0) == 0;
  StatusOr<std::string> fp32 =
      FindLatestValidCheckpoint(env(), config_.checkpoint_dir, served,
                                serving_quant ? min_epoch + 1 : min_epoch);
  StatusOr<std::string> quant =
      FindLatestValidCheckpoint(env(), QuantDir(), served, min_epoch);
  if (!quant.ok()) return fp32;
  if (!fp32.ok()) return quant;
  StatusOr<size_t> fp32_epoch = EpochOfPath(*fp32);
  StatusOr<size_t> quant_epoch = EpochOfPath(*quant);
  if (!fp32_epoch.ok()) return quant;
  if (!quant_epoch.ok()) return fp32;
  // Newer epoch wins; ties go to the quantized artifact (it was distilled
  // from that very fp32 checkpoint, and picking it is the whole point of
  // landing one).
  return *quant_epoch >= *fp32_epoch ? quant : fp32;
}

StatusOr<std::shared_ptr<StTransRec>> ModelBundle::LoadModel(
    const std::string& path, ModelSnapshot* provenance) const {
  auto model = std::make_shared<StTransRec>(
      ServingConfig(config_.model, config_.env));
  STTR_RETURN_IF_ERROR(model->Prepare(dataset_, split_));

  StatusOr<CheckpointReader> reader = CheckpointReader::Open(env(), path);
  if (!reader.ok()) return reader.status();

  StatusOr<std::string> fingerprint = reader->Section("config");
  if (!fingerprint.ok()) return fingerprint.status();
  if (*fingerprint != model->ConfigFingerprint()) {
    return Status::FailedPrecondition(
        "checkpoint " + path + " was written under a different config or "
        "dataset than this bundle serves\n  checkpoint: " + *fingerprint +
        "\n  serving:    " + model->ConfigFingerprint());
  }

  const bool quantized = reader->version() == kQuantCheckpointFormatVersion;
  if (quantized && config_.precision == PrecisionMode::kFp32) {
    return Status::FailedPrecondition(
        "checkpoint " + path + " is a quantized artifact but this bundle "
        "serves fp32 only");
  }
  if (!quantized && config_.precision == PrecisionMode::kInt8) {
    return Status::FailedPrecondition(
        "checkpoint " + path + " is an fp32 training checkpoint but this "
        "bundle serves int8 only");
  }

  if (quantized) {
    // Int8 is a storage format: the artifact is dequantized into the
    // prepared model, which then scores like any other. Its word table is
    // not in the artifact and stays at Prepare()'s initialisation.
    StatusOr<QuantizedModel> quant = QuantizedModel::FromReader(*reader);
    if (!quant.ok()) return quant.status();
    STTR_RETURN_IF_ERROR(quant->DequantizeInto(*model));
    provenance->precision = Precision::kInt8;
  } else {
    StatusOr<std::string> params = reader->Section("model");
    if (!params.ok()) return params.status();
    std::istringstream in(*params, std::ios::binary);
    STTR_RETURN_IF_ERROR(model->Load(in));
    provenance->precision = Precision::kFp32;
    // The delta path refuses to patch any base whose model bytes don't
    // carry this exact checksum.
    for (const CheckpointSection& s : reader->sections()) {
      if (s.name == "model") provenance->model_crc = s.crc;
    }
  }
  provenance->checkpoint_path = path;
  StatusOr<std::string> meta = reader->Section("meta");
  if (meta.ok()) {
    std::string_view in(*meta);
    uint64_t epoch = 0;
    if (ReadU64(in, &epoch)) provenance->epoch = static_cast<size_t>(epoch);
  }
  return model;
}

StatusOr<std::shared_ptr<ModelSnapshot>> ModelBundle::LoadSnapshot(
    const std::string& path) const {
  auto snapshot = std::make_shared<ModelSnapshot>();
  StatusOr<std::shared_ptr<StTransRec>> model = LoadModel(path, snapshot.get());
  if (!model.ok()) return model.status();
  // Both formats are resident as fp32 parameters.
  for (const auto& p : (*model)->Parameters()) {
    snapshot->resident_bytes += p.value().size() * sizeof(float);
  }
  snapshot->model = *model;
  snapshot->scorer = *std::move(model);
  return snapshot;
}

Status ModelBundle::LoadInitial() {
  StatusOr<std::string> path = SelectCheckpoint("");
  if (!path.ok()) return path.status();
  StatusOr<std::shared_ptr<ModelSnapshot>> snapshot = LoadSnapshot(*path);
  if (!snapshot.ok()) return snapshot.status();
  Swap(std::move(*snapshot));
  return Status::OK();
}

std::shared_ptr<const ModelSnapshot> ModelBundle::snapshot() const {
  MutexLock lock(mu_);
  return snapshot_;
}

StatusOr<bool> ModelBundle::ReloadIfNewer() {
  const std::shared_ptr<const ModelSnapshot> cur = snapshot();
  StatusOr<std::string> path =
      SelectCheckpoint(cur != nullptr ? cur->checkpoint_path : "");
  if (!path.ok()) {
    // NotFound is the steady state before the trainer lands anything;
    // everything else (ListDir IO error) is a real failure worth counting.
    if (path.status().code() != StatusCode::kNotFound) {
      RecordReloadFailure(path.status());
    }
    return path.status();
  }
  {
    MutexLock lock(mu_);
    if (snapshot_ != nullptr && snapshot_->checkpoint_path == *path) {
      return false;
    }
  }
  // Load outside the lock: Prepare() + parameter IO takes long enough that
  // requests must keep reading the current snapshot meanwhile.
  StatusOr<std::shared_ptr<ModelSnapshot>> snapshot = LoadSnapshot(*path);
  if (!snapshot.ok()) {
    // A newer checkpoint exists but cannot be loaded (vanished mid-load,
    // disk error): the old snapshot keeps serving, and the failure must be
    // visible — a silent one looks exactly like "no new checkpoint yet".
    RecordReloadFailure(snapshot.status());
    return snapshot.status();
  }
  Swap(std::move(*snapshot));
  return true;
}

StatusOr<bool> ModelBundle::ApplyDeltaIfNewer() {
  if (config_.delta_dir.empty()) return false;
  std::shared_ptr<const ModelSnapshot> cur = snapshot();
  if (cur == nullptr) {
    return Status::FailedPrecondition("ApplyDeltaIfNewer() before LoadInitial()");
  }
  // A delta names the CRC of its v1 base's "model" section; a quantized
  // snapshot has none and waits for the next full artifact instead.
  if (cur->precision != Precision::kFp32) return false;

  // The delta already applied to this base is not opened again, so a poll
  // with no newer delta only lists the directory.
  std::string applied_path;
  {
    MutexLock lock(delta_mu_);
    if (delta_base_path_ == cur->checkpoint_path) {
      applied_path = applied_delta_path_;
    }
  }
  StatusOr<std::string> path =
      FindLatestValidDelta(env(), config_.delta_dir, applied_path);
  if (!path.ok()) return path.status();  // NotFound = trainer idle so far

  // delta_mu_ serializes appliers and guards the double-buffer bookkeeping,
  // but never covers IO, sleeps, or listener callbacks: everything slow
  // happens between short lock scopes, each of which re-validates that no
  // concurrent applier moved the state while the lock was dropped (in which
  // case this attempt just defers to the next poll).
  bool need_fresh_base;
  {
    MutexLock lock(delta_mu_);
    if (*path == applied_delta_path_ &&
        delta_base_path_ == cur->checkpoint_path) {
      return false;  // fast path: nothing new since the last poll
    }
    need_fresh_base = delta_base_path_ != cur->checkpoint_path;
  }

  StatusOr<DeltaCheckpoint> delta = ReadDeltaCheckpoint(env(), *path);
  if (!delta.ok()) return delta.status();
  if (delta->base_epoch != cur->epoch || delta->base_model_crc != cur->model_crc) {
    // The trainer is publishing against a different base than the one being
    // served — typical right after a full reload, before the trainer
    // re-anchors. Not an error; ignored until provenance lines up.
    STTR_LOG(Debug) << "model bundle: delta " << *path << " targets base epoch "
                    << delta->base_epoch << " crc " << delta->base_model_crc
                    << ", serving epoch " << cur->epoch << " crc "
                    << cur->model_crc << "; skipping";
    return false;
  }

  // New base since the buffers were last stocked (or first delta ever):
  // load two fresh fp32 instances from it. The active one is published
  // below; its twin becomes the standby the next delta patches. Loading is
  // a pure function of the (immutable) checkpoint path, so it needs no
  // lock; if a racing applier stocks the buffers first, these are dropped.
  std::shared_ptr<StTransRec> fresh[2];
  if (need_fresh_base) {
    for (size_t i = 0; i < 2; ++i) {
      ModelSnapshot provenance;
      StatusOr<std::shared_ptr<StTransRec>> inst =
          LoadModel(cur->checkpoint_path, &provenance);
      if (!inst.ok()) return inst.status();
      fresh[i] = *std::move(inst);
    }
  }

  std::shared_ptr<StTransRec> standby;
  {
    MutexLock lock(delta_mu_);
    if (delta_base_path_ != cur->checkpoint_path) {
      if (!need_fresh_base) return false;  // base moved under us; next poll
      delta_instances_[0] = std::move(fresh[0]);
      delta_instances_[1] = std::move(fresh[1]);
      delta_standby_ = 0;
      delta_base_path_ = cur->checkpoint_path;
      applied_delta_seq_ = 0;
      applied_delta_path_.clear();
    } else if (delta->seq <= applied_delta_seq_) {
      return false;  // rotation republished an already-applied sequence
    }
    standby = delta_instances_[delta_standby_];
  }

  // The standby is safe to mutate only once no in-flight request still
  // scores against it: its array slot plus the copy above must be the only
  // references. Bounded wait with no lock held (other pollers and the full
  // reloader stay free to run); on timeout the patch is retried next poll.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (standby.use_count() > 2) {
    if (std::chrono::steady_clock::now() >= deadline) {
      STTR_LOG(Debug) << "model bundle: standby model still referenced; "
                         "deferring delta " << *path;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto next = std::make_shared<ModelSnapshot>();
  std::vector<std::function<void(const ModelSnapshot&, const DeltaCheckpoint&)>>
      listeners;
  const auto t0 = std::chrono::steady_clock::now();
  {
    MutexLock lock(delta_mu_);
    if (delta_base_path_ != cur->checkpoint_path ||
        delta->seq <= applied_delta_seq_ ||
        delta_instances_[delta_standby_] != standby ||
        standby.use_count() > 2) {
      // A racing applier advanced the state (or a request grabbed the
      // standby) while the wait above ran unlocked; retried next poll.
      return false;
    }

    Status applied = standby->ApplyDelta(*delta);
    if (!applied.ok()) {
      if (config_.stats != nullptr) {
        config_.stats->delta_apply_failures.fetch_add(
            1, std::memory_order_relaxed);
      }
      STTR_LOG(Warning) << "model bundle: delta " << *path
                        << " failed to apply: " << applied.ToString();
      return applied;
    }

    next->scorer = standby;
    next->model = standby;
    next->precision = Precision::kFp32;
    next->resident_bytes = cur->resident_bytes;
    // Base provenance is inherited unchanged: the snapshot still serves the
    // same checkpoint (so the full-reload watcher stays quiet), merely
    // patched up to delta_seq.
    next->checkpoint_path = cur->checkpoint_path;
    next->epoch = cur->epoch;
    next->model_crc = cur->model_crc;
    next->delta_seq = delta->seq;
    next->delta_path = *path;
    listeners = SwapDelta(next);

    // The previously active instance becomes the standby; because deltas
    // are cumulative against the base, the next one overwrites every row
    // this one (and all before it) touched.
    delta_standby_ = 1 - delta_standby_;
    applied_delta_seq_ = delta->seq;
    applied_delta_path_ = *path;
  }

  // Same ordering contract as Swap(): listeners (row-level cache
  // invalidation) run after the new snapshot is visible, so a refill can
  // only come from patched parameters — and with delta_mu_ and mu_ both
  // dropped, so a listener may take any lock of its own (the ResultCache
  // invalidation path takes floor_mu_) without creating a cross-subsystem
  // lock order.
  for (const auto& listener : listeners) listener(*next, *delta);

  if (config_.stats != nullptr) {
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    config_.stats->deltas_applied.fetch_add(1, std::memory_order_relaxed);
    config_.stats->rows_patched.fetch_add(delta->total_rows(),
                                          std::memory_order_relaxed);
    config_.stats->delta_apply_latency.Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }
  STTR_LOG(Info) << "model bundle: applied delta seq " << delta->seq << " ("
                 << delta->total_rows() << " rows, "
                 << delta->events_applied << " events) onto "
                 << next->checkpoint_path << " (version " << next->version
                 << ")";
  return true;
}

std::vector<std::function<void(const ModelSnapshot&, const DeltaCheckpoint&)>>
ModelBundle::SwapDelta(std::shared_ptr<ModelSnapshot> next) {
  MutexLock lock(mu_);
  next->version = reloads_.fetch_add(1, std::memory_order_acq_rel) + 1;
  snapshot_ = std::move(next);
  return delta_listeners_;
}

void ModelBundle::AddDeltaListener(
    std::function<void(const ModelSnapshot&, const DeltaCheckpoint&)>
        listener) {
  MutexLock lock(mu_);
  delta_listeners_.push_back(std::move(listener));
}

void ModelBundle::RecordReloadFailure(const Status& error) const {
  if (config_.stats == nullptr) return;
  config_.stats->model_reload_failures.fetch_add(1,
                                                 std::memory_order_relaxed);
  config_.stats->RecordReloadError(error.ToString());
}

void ModelBundle::Swap(std::shared_ptr<ModelSnapshot> next) {
  std::vector<std::function<void(const ModelSnapshot&)>> listeners;
  {
    MutexLock lock(mu_);
    next->version = reloads_.fetch_add(1, std::memory_order_acq_rel) + 1;
    snapshot_ = next;
    listeners = listeners_;
  }
  if (config_.stats != nullptr) {
    config_.stats->RecordReloadError("");  // healthy again
  }
  // Listeners run on a copy with mu_ dropped, after the swap is visible: a
  // cache invalidated here can only be refilled from the new snapshot, and
  // a listener calling back into snapshot() cannot self-deadlock.
  for (const auto& listener : listeners) listener(*next);
  STTR_LOG(Info) << "model bundle: serving " << next->checkpoint_path
                 << " (epoch " << next->epoch << ", version "
                 << next->version << ", "
                 << PrecisionName(next->precision) << ", "
                 << next->resident_bytes << " bytes)";
}

void ModelBundle::AddReloadListener(
    std::function<void(const ModelSnapshot&)> listener) {
  MutexLock lock(mu_);
  listeners_.push_back(std::move(listener));
}

uint64_t ModelBundle::reload_count() const {
  return reloads_.load(std::memory_order_acquire);
}

void ModelBundle::StartWatcher() {
  MutexLock lock(watcher_mu_);
  // Lifecycle is tracked by watcher_running_, not the handle's joinable():
  // a stopper moves the handle out before joining, and keying Start off
  // joinable() in that window would reset watcher_stop_ and spawn a second
  // watcher while the old loop — which would then re-read
  // watcher_stop_ == false and never exit — is still running.
  // watcher_running_ stays true until the joining stopper clears it, so a
  // Start racing a Stop is a no-op, as it was before the handle moved.
  if (watcher_running_) return;
  watcher_running_ = true;
  watcher_stop_ = false;
  watcher_ = std::thread([this] { WatcherLoop(); });
}

void ModelBundle::StopWatcher() {
  // Exactly one caller — the one that flips watcher_stopping_ — moves the
  // handle out and joins it; the old shape (joinable() check under the
  // lock, join() on the member after dropping it) let two concurrent
  // StopWatcher calls both reach watcher_.join(), which is undefined
  // behaviour on the second join. Latecomers block until the winner has
  // fully finished: if they returned early, a latecoming destructor could
  // tear down watcher_mu_/the condvars while the winner still uses them.
  std::thread to_join;
  {
    MutexLock lock(watcher_mu_);
    while (watcher_stopping_) watcher_stopped_.Wait(watcher_mu_);
    if (!watcher_running_) return;
    watcher_stopping_ = true;
    watcher_stop_ = true;
    to_join = std::move(watcher_);
    watcher_cv_.NotifyAll();
  }
  to_join.join();
  // Notify under the lock: a latecomer woken here still has to reacquire
  // watcher_mu_, so it cannot observe the stop as complete (and let the
  // destructor run) until our MutexLock has released the mutex — the last
  // time this call touches the object.
  MutexLock lock(watcher_mu_);
  watcher_running_ = false;
  watcher_stopping_ = false;
  watcher_stopped_.NotifyAll();
}

void ModelBundle::WatcherLoop() {
  watcher_mu_.Lock();
  while (!watcher_stop_) {
    const auto deadline =
        std::chrono::steady_clock::now() + config_.poll_interval;
    // Sleep one poll period, leaving early only when StopWatcher fires
    // (WaitUntil returning false means the deadline passed).
    while (!watcher_stop_ && watcher_cv_.WaitUntil(watcher_mu_, deadline)) {
    }
    if (watcher_stop_) break;
    watcher_mu_.Unlock();
    StatusOr<bool> swapped = ReloadIfNewer();
    if (!swapped.ok()) {
      // NotFound just means the trainer hasn't written anything new; a
      // checkpoint deleted by rotation mid-load lands here too and is
      // retried next poll.
      STTR_LOG(Debug) << "model bundle: reload attempt: "
                      << swapped.status().ToString();
    }
    if (!config_.delta_dir.empty()) {
      StatusOr<bool> patched = ApplyDeltaIfNewer();
      if (!patched.ok()) {
        // Same steady-state tolerance as full reloads: NotFound before the
        // first publish, torn files mid-write — all retried next poll.
        STTR_LOG(Debug) << "model bundle: delta apply attempt: "
                        << patched.status().ToString();
      }
    }
    watcher_mu_.Lock();
  }
  watcher_mu_.Unlock();
}

}  // namespace sttr::serve
