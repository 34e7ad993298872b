#ifndef STTR_CORE_ST_TRANSREC_H_
#define STTR_CORE_ST_TRANSREC_H_

#include <atomic>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "geo/density_resampler.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "text/context_graph.h"
#include "util/fs.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace sttr {

struct DeltaCheckpoint;

/// STTR_TRAIN_WORKERS when set to a positive integer, else 1. The default
/// number of data-parallel training workers (StTransRecConfig below).
size_t DefaultTrainWorkers();

/// Hyper-parameters of ST-TransRec (paper §3 and §4.1 "Implementation
/// Details"). Defaults follow the Foursquare settings.
struct StTransRecConfig {
  // -- Architecture ------------------------------------------------------------
  size_t embedding_dim = 64;
  /// Stddev of the Gaussian embedding initialisation.
  float embedding_init_stddev = 0.01f;
  /// Hidden widths of the MLP tower, e.g. {128, 64, 32, 16}; the final
  /// 1-logit prediction layer is implicit.
  std::vector<size_t> hidden_dims = {128, 64, 32, 16};
  float dropout_rate = 0.1f;

  // -- Optimisation -------------------------------------------------------------
  /// The paper grid-searches {1e-5..5e-3} on the real data; on the smaller
  /// synthetic worlds 1e-2 converges in the epoch budget (see
  /// EXPERIMENTS.md, calibration).
  float learning_rate = 1e-2f;
  size_t batch_size = 128;
  size_t num_epochs = 8;
  /// Uniform negatives per observed interaction (paper: 4, after NCF).
  size_t negatives_per_positive = 4;
  /// Negative word contexts per positive edge in the skip-gram loss.
  size_t word_negatives = 4;

  // -- Transfer (MMD) -------------------------------------------------------------
  /// Weight lambda of the MMD term in Eq. 3. use_mmd=false gives
  /// ST-TransRec-1.
  bool use_mmd = true;
  double lambda_mmd = 1.0;
  /// Gaussian-kernel bandwidth. <= 0 selects the median heuristic per batch
  /// (the paper fixes it by grid search; the heuristic removes that knob --
  /// recorded as a substitution in DESIGN.md).
  double mmd_sigma = 0.0;
  /// POIs sampled per city per step for the MMD estimate.
  size_t mmd_batch = 64;
  /// Linear-time estimator (the paper's O(D) variant) vs full quadratic.
  bool use_linear_mmd = true;

  // -- Text --------------------------------------------------------------------
  /// Textual context prediction; use_text=false gives ST-TransRec-2.
  bool use_text = true;
  /// Weight of the context-prediction loss L_G in the joint objective.
  /// Eq. 3 uses 1.0; on the synthetic worlds the word bridge needs more
  /// gradient signal relative to the interaction loss (calibrated to 3.0,
  /// recorded in EXPERIMENTS.md).
  float text_loss_weight = 3.0f;

  // -- Geographic context (used by the PACE baseline, off for ST-TransRec) -----
  /// Adds a context-prediction loss over each POI's k nearest same-city
  /// neighbours (PACE's "geographical relations among POIs within a limited
  /// distance").
  bool use_geo_context = false;
  size_t geo_neighbors = 10;

  // -- Spatial resampling ---------------------------------------------------------
  /// Resampling rate alpha in [0,1]; 0 gives ST-TransRec-3.
  double resample_alpha = 0.10;
  /// n1 x n2 grid of the region segmentation.
  size_t grid_rows = 16;
  size_t grid_cols = 16;
  /// User-overlap merge threshold delta of Eq. 5.
  double region_delta = 0.10;
  /// When false, skip Algorithm 1 entirely and treat every grid cell as its
  /// own region (the naive baseline the segmentation is compared against in
  /// extra_segmentation_ablation).
  bool use_region_merging = true;

  // -- Checkpointing -------------------------------------------------------------
  /// When non-empty, Fit()/Resume() write a crash-safe checkpoint (model +
  /// optimizer state + RNG streams + loss history) into this directory at
  /// epoch boundaries. See core/checkpoint.h for the container format.
  std::string checkpoint_dir;
  /// Checkpoint after every n completed epochs (the final epoch is always
  /// checkpointed). Values < 1 behave like 1.
  size_t checkpoint_every_n_epochs = 1;
  /// Keep-last-K rotation: older checkpoints beyond the K newest are deleted
  /// after each successful write.
  size_t checkpoint_keep_last = 3;
  /// Filesystem used for checkpoint IO; null means Env::Default(). Tests
  /// inject a FaultInjectionEnv here.
  Env* env = nullptr;

  // -- Misc --------------------------------------------------------------------
  uint64_t seed = 123;
  /// Data-parallel training workers (the multi-GPU stand-in, Table 2).
  /// Fit() routes through ParallelTrainer when > 1; 1 trains in-process.
  size_t num_train_workers = DefaultTrainWorkers();
  bool verbose = false;
};

/// One sampled training step: the interaction batch (with negatives), the
/// skip-gram batch and the two MMD pools. Separated from gradient
/// computation so the data-parallel trainer can shard it.
struct TrainingBatch {
  std::vector<int64_t> users;
  std::vector<int64_t> pois;
  Tensor labels;

  std::vector<int64_t> sg_pois;
  std::vector<int64_t> sg_words;
  Tensor sg_labels;

  std::vector<int64_t> mmd_source;
  std::vector<int64_t> mmd_target;

  std::vector<int64_t> geo_pois_a;
  std::vector<int64_t> geo_pois_b;
  Tensor geo_labels;
};

/// Loss values of one step (diagnostics).
struct StepLosses {
  double interaction = 0.0;
  double text = 0.0;
  double mmd = 0.0;
  double geo = 0.0;
  double total = 0.0;
};

/// ST-TransRec (paper §3): joint deep model with user/POI/word embeddings,
/// an MLP interaction tower, skip-gram textual context prediction, MMD
/// transfer between source and target POI embedding distributions, and
/// density-based spatial resampling feeding the MMD sample pools.
///
/// Ablation variants map to config flags: -1 use_mmd=false,
/// -2 use_text=false, -3 resample_alpha=0.
class StTransRec : public Recommender {
 public:
  explicit StTransRec(StTransRecConfig config);

  Status Fit(const Dataset& dataset, const CrossCitySplit& split) override;

  /// Restores the newest valid checkpoint in `dir` (default:
  /// config.checkpoint_dir) and continues training to config.num_epochs.
  /// Everything is restored — parameters, optimizer moments and step count,
  /// every RNG stream (including per-worker streams when
  /// num_train_workers > 1) and loss_history() — so a run killed at a
  /// checkpointed epoch and resumed here produces bit-identical
  /// loss_history() and eval metrics to an uninterrupted Fit(). A checkpoint
  /// written under a different config or dataset is rejected via the stored
  /// config fingerprint (FailedPrecondition).
  Status Resume(const Dataset& dataset, const CrossCitySplit& split,
                const std::string& dir = "");

  /// The one inference function (Eq. 11-12), behind Score, ScoreBatch and
  /// ScorePairs: out[i] = sigmoid(tower(users[i], pois[i])), where `users`
  /// holds one id per POI or a single id shared by all of them. The tower
  /// is factorized (DESIGN.md): layer 0 on [x_u | x_v] is x_u·W0u + x_v·W0v,
  /// where the POI share P = poi_table·W0v is precomputed (by the first
  /// score after the parameters become final, then patched by ApplyDelta)
  /// and the user share is computed once per run of equal users. Layer 0 is
  /// then relu(P[v] + x_u·W0u + b0); the remaining layers run as fused
  /// GEMM + bias + ReLU kernels in per-thread buffers. Every row is
  /// computed independently of the rest of the batch, which is how this
  /// model keeps PoiScorer's bit-exactness contract, and a warmed thread
  /// allocates nothing. Scoring aborts after ComputeGradients() until
  /// Fit()/Load()/ApplyDelta() marks the parameters final again.
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override;

  /// Scores pre-gathered (user, poi) embedding pairs: row i of the (n, 2d)
  /// block `h` is [user_row | poi_row]. Both layer-0 shares are computed
  /// from `h` with the kernel that builds P, so for rows copied bit-exactly
  /// out of the tables the results are bit-identical to ScorePairsInto. Serving
  /// never calls it; its only caller outside the tests is perfbench's
  /// traced replay of a cold request.
  std::vector<double> ScoreGatheredPairs(const Tensor& h) const;

  /// Row-major learned embedding tables (after Fit()/Load()):
  /// InProcessEmbeddingStore gathers rows out of these.
  const Tensor& UserEmbeddingTable() const;
  const Tensor& PoiEmbeddingTable() const;
  /// The word table is the transfer bridge (Eq. 4); cold-start serving
  /// scores unseen (user, city) pairs through it.
  const Tensor& WordEmbeddingTable() const;

  std::string name() const override;

  const StTransRecConfig& config() const { return config_; }

  /// Mean total loss per epoch, filled by Fit().
  const std::vector<double>& loss_history() const { return loss_history_; }

  /// Learned POI embedding row (after Fit()).
  std::vector<float> PoiEmbedding(PoiId poi) const;

  /// Learned word embedding row (after Fit()); words are the bridge the
  /// transfer rides on, so inspecting their neighbourhoods explains
  /// recommendations (see examples/embedding_inspector.cpp).
  std::vector<float> WordEmbedding(WordId word) const;

  /// Region segmentation + resampler diagnostics per city (after Fit()).
  const std::vector<DensityResampler>& resamplers() const {
    return resamplers_;
  }

  // -- Building blocks exposed for ParallelTrainer and tests ------------------

  /// Prepares training state (id spaces, pools, parameters) without
  /// training. Fit() == Prepare() + num_epochs of epoch loops.
  Status Prepare(const Dataset& dataset, const CrossCitySplit& split);

  /// Prepare() has been called: parameters exist and Parameters() /
  /// ConfigFingerprint() are safe to call.
  bool prepared() const { return user_emb_ != nullptr; }

  /// Samples one step's batch using `rng`.
  TrainingBatch SampleBatch(Rng& rng) const;

  /// Runs forward/backward for `batch`, accumulating parameter gradients
  /// (does not step). `rng` drives dropout. The parameters are about to
  /// move, so this drops the precomputed POI share of layer 0 and scoring
  /// is refused until the next Fit()/Load()/ApplyDelta().
  StepLosses ComputeGradients(const TrainingBatch& batch, Rng& rng);

  /// Applies and clears accumulated gradients.
  void OptimizerStep();

  /// Steps per epoch implied by the training set and batch size.
  size_t StepsPerEpoch() const;

  /// All trainable parameters. The first NumEmbeddingParameters() entries
  /// are the embedding tables; the rest are dense MLP weights/biases.
  std::vector<ag::Variable> Parameters() const;

  /// Number of leading Parameters() entries that are embedding tables with
  /// sparse (row-touched) gradients: user, POI and word tables.
  size_t NumEmbeddingParameters() const { return 3; }

  /// Serialises all parameters (after Prepare()/Fit()).
  Status Save(std::ostream& out) const;

  /// Restores parameters written by Save() into a model that has been
  /// Prepare()d with the same config and dataset; marks the model fitted.
  Status Load(std::istream& in);

  /// Marks the parameters final after they moved wholesale — by Fit(),
  /// Load(), a dense delta, or a caller writing them through Parameters()
  /// (QuantizedModel::DequantizeInto). The POI share of layer 0 is rebuilt
  /// on the next score.
  void MarkFitted();

  /// Patches embedding rows in place from a streaming delta checkpoint
  /// (core/delta.h). Requires Prepare() with the same config and dataset as
  /// the delta's producer (verified via the stored config fingerprint); row
  /// indices are bounds-checked against the table shapes. Because deltas
  /// are cumulative against their base, applying a newer delta on top of an
  /// older one yields exactly base + newer. A delta carrying a dense-param
  /// refresh also restores the MLP tower from it. Marks the model fitted.
  Status ApplyDelta(const DeltaCheckpoint& delta);

  /// Canonical string of every config field that affects training plus the
  /// id-space sizes of the prepared dataset. Stored in each checkpoint and
  /// compared on restore so a checkpoint cannot be resumed under a different
  /// config or dataset. Requires Prepare(). num_epochs is deliberately
  /// excluded: resuming with a larger epoch budget is the normal
  /// train-longer workflow.
  std::string ConfigFingerprint() const;

  /// Writes a full training checkpoint for the current state (epoch counter
  /// is loss_history().size()). `worker_rngs` carries the data-parallel
  /// trainer's per-worker streams; null in the serial path. Exposed for
  /// ParallelTrainer and tests; Fit() calls this at epoch boundaries.
  Status WriteCheckpoint(const std::vector<Rng>* worker_rngs = nullptr) const;

  /// Restores the checkpoint at `path` into this Prepare()d model:
  /// parameters, optimizer state, loss history and RNG streams.
  /// `worker_rngs` must be sized to the worker count the checkpoint was
  /// written with (null in the serial path).
  Status RestoreFromCheckpoint(const std::string& path,
                               std::vector<Rng>* worker_rngs = nullptr);

 private:
  friend class ParallelTrainer;

  /// Drops the POI share of layer 0 (the parameters moved).
  void DropPoiLayer0();

  /// The POI share of layer 0, built from the current tables on first use.
  /// Thread-safe: concurrent first scorers publish it once.
  const Tensor& PoiLayer0() const;

  /// Rows [begin, end) of `p` = the same POI table rows · W0v.
  void ComputePoiLayer0Rows(size_t begin, size_t end, Tensor& p) const;

  /// Shared body of Fit()/Resume(): Prepare, optionally restore from
  /// `resume_dir`, then train the remaining epochs with checkpointing.
  Status TrainInternal(const Dataset& dataset, const CrossCitySplit& split,
                       const std::string& resume_dir);

  /// Checkpoints when checkpoint_dir is set and the epoch boundary matches
  /// checkpoint_every_n_epochs (or training just finished).
  Status MaybeWriteCheckpoint(const std::vector<Rng>* worker_rngs) const;

  /// config.env or the process default.
  Env& env() const;

  void BuildRegionPools(const Dataset& dataset, const CrossCitySplit& split);

  StTransRecConfig config_;
  Rng rng_;
  mutable Rng eval_rng_;  // dropout source for (non-training) eval paths

  const Dataset* dataset_ = nullptr;

  // Parameters.
  std::unique_ptr<nn::Embedding> user_emb_;
  std::unique_ptr<nn::Embedding> poi_emb_;
  std::unique_ptr<nn::Embedding> word_emb_;
  std::unique_ptr<nn::Mlp> mlp_;
  std::unique_ptr<nn::Adam> optimizer_;

  /// False from ComputeGradients() until the parameters are final again.
  bool params_final_ = false;

  /// P = poi_table · W0v (num_pois, layer-0 width): the POI share of the
  /// factorized layer 0. Built by the first score (PoiLayer0), so a model
  /// that is only trained or held as a standby costs no memory for it;
  /// ApplyDelta recomputes exactly the patched POI rows of a built P.
  /// Published once under poi_layer0_mu_ (then poi_layer0_ready_), or
  /// written by the non-const methods that own the model.
  mutable Mutex poi_layer0_mu_;
  mutable std::atomic<bool> poi_layer0_ready_{false};
  mutable Tensor poi_layer0_;

  // Training state.
  std::vector<std::pair<int64_t, int64_t>> positives_;  // (user, poi)
  std::vector<std::vector<int64_t>> user_visited_;      // sorted vectors
  std::vector<std::vector<int64_t>> city_pois_;         // per city
  std::vector<CityId> poi_city_;
  std::unique_ptr<TextualContextGraph> context_graph_;
  std::unique_ptr<UnigramNegativeSampler> word_sampler_;
  std::vector<int64_t> mmd_pool_source_;
  std::vector<int64_t> mmd_pool_target_;
  std::vector<int64_t> geo_edge_a_;
  std::vector<int64_t> geo_edge_b_;
  std::vector<DensityResampler> resamplers_;
  CityId target_city_ = -1;

  std::vector<double> loss_history_;
  bool fitted_ = false;
};

/// Convenience factories for the paper's ablation variants (§4.1).
StTransRecConfig MakeVariant1(StTransRecConfig base);  ///< no MMD
StTransRecConfig MakeVariant2(StTransRecConfig base);  ///< no text
StTransRecConfig MakeVariant3(StTransRecConfig base);  ///< no resampling

}  // namespace sttr

#endif  // STTR_CORE_ST_TRANSREC_H_
