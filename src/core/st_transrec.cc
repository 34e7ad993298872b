#include "core/st_transrec.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "autograd/ops.h"
#include "core/checkpoint.h"
#include "core/delta.h"
#include "core/parallel_trainer.h"
#include "geo/grid.h"
#include "geo/region_segmentation.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "transfer/mmd.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sttr {

namespace {

/// Seeds the eval-path dropout stream apart from the training stream.
constexpr uint64_t kEvalRngSalt = 0xE5A1u;

bool SortedContains(const std::vector<int64_t>& v, int64_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

}  // namespace

size_t DefaultTrainWorkers() {
  if (const char* env = std::getenv("STTR_TRAIN_WORKERS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<size_t>(v);
    STTR_LOG(Warning) << "STTR_TRAIN_WORKERS='" << env
                      << "' is not a positive integer; falling back to 1 "
                         "training worker";
  }
  return 1;
}

StTransRec::StTransRec(StTransRecConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      eval_rng_(config_.seed ^ kEvalRngSalt) {
  STTR_CHECK_GT(config_.embedding_dim, 0u);
  STTR_CHECK_GT(config_.batch_size, 0u);
  STTR_CHECK_GE(config_.resample_alpha, 0.0);
  STTR_CHECK_LE(config_.resample_alpha, 1.0);
}

std::string StTransRec::name() const {
  if (!config_.use_mmd && config_.use_text) return "ST-TransRec-1";
  if (!config_.use_text) return "ST-TransRec-2";
  if (config_.resample_alpha == 0.0) return "ST-TransRec-3";
  return "ST-TransRec";
}

Status StTransRec::Prepare(const Dataset& dataset,
                           const CrossCitySplit& split) {
  // Regions, resampling pools and initial parameters are a function of the
  // config and dataset alone, also for a model prepared before (Resume()
  // after Load()): a restored checkpoint then continues the very run that
  // wrote it.
  rng_ = Rng(config_.seed);
  eval_rng_ = Rng(config_.seed ^ kEvalRngSalt);
  dataset_ = &dataset;
  target_city_ = split.target_city;
  if (split.train.empty()) {
    return Status::InvalidArgument("empty training split");
  }

  // ---- Interaction data. ------------------------------------------------------
  positives_.clear();
  positives_.reserve(split.train.size());
  user_visited_.assign(dataset.num_users(), {});
  for (size_t idx : split.train) {
    const CheckinRecord& rec = dataset.checkins()[idx];
    positives_.emplace_back(rec.user, rec.poi);
    user_visited_[static_cast<size_t>(rec.user)].push_back(rec.poi);
  }
  for (auto& v : user_visited_) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  poi_city_.resize(dataset.num_pois());
  city_pois_.assign(dataset.num_cities(), {});
  for (const Poi& p : dataset.pois()) {
    poi_city_[static_cast<size_t>(p.id)] = p.city;
    city_pois_[static_cast<size_t>(p.city)].push_back(p.id);
  }

  // ---- Textual context graph (Definition 2). -----------------------------------
  context_graph_ = std::make_unique<TextualContextGraph>(
      dataset.num_pois(), dataset.vocabulary().size());
  for (const Poi& p : dataset.pois()) {
    for (WordId w : p.words) context_graph_->AddEdge(p.id, w);
  }
  if (config_.use_text) {
    if (context_graph_->num_edges() == 0) {
      return Status::FailedPrecondition(
          "use_text requires POIs with textual descriptions");
    }
    word_sampler_ = std::make_unique<UnigramNegativeSampler>(
        context_graph_->word_counts());
  }

  // ---- Region segmentation + resampling pools. ----------------------------------
  BuildRegionPools(dataset, split);

  // ---- Geographic context edges (PACE): k nearest same-city neighbours. -----
  geo_edge_a_.clear();
  geo_edge_b_.clear();
  if (config_.use_geo_context) {
    for (size_t c = 0; c < dataset.num_cities(); ++c) {
      const auto& pois = city_pois_[c];
      const size_t k = std::min(config_.geo_neighbors,
                                pois.empty() ? size_t{0} : pois.size() - 1);
      if (k == 0) continue;
      for (size_t i = 0; i < pois.size(); ++i) {
        std::vector<std::pair<double, int64_t>> dists;
        dists.reserve(pois.size() - 1);
        const GeoPoint& pi = dataset.poi(pois[i]).location;
        for (size_t j = 0; j < pois.size(); ++j) {
          if (i == j) continue;
          dists.emplace_back(HaversineKm(pi, dataset.poi(pois[j]).location),
                             pois[j]);
        }
        std::partial_sort(dists.begin(),
                          dists.begin() + static_cast<long>(k), dists.end());
        for (size_t j = 0; j < k; ++j) {
          geo_edge_a_.push_back(pois[i]);
          geo_edge_b_.push_back(dists[j].second);
        }
      }
    }
  }

  // ---- Parameters. ---------------------------------------------------------------
  const size_t d = config_.embedding_dim;
  const float init = config_.embedding_init_stddev;
  user_emb_ =
      std::make_unique<nn::Embedding>(dataset.num_users(), d, rng_, init);
  poi_emb_ =
      std::make_unique<nn::Embedding>(dataset.num_pois(), d, rng_, init);
  word_emb_ = std::make_unique<nn::Embedding>(dataset.vocabulary().size(), d,
                                              rng_, init);
  mlp_ = std::make_unique<nn::Mlp>(2 * d, config_.hidden_dims,
                                   config_.dropout_rate, rng_);
  optimizer_.reset();
  loss_history_.clear();
  fitted_ = false;
  params_final_ = false;
  DropPoiLayer0();
  return Status::OK();
}

void StTransRec::BuildRegionPools(const Dataset& dataset,
                                  const CrossCitySplit& split) {
  mmd_pool_source_.clear();
  mmd_pool_target_.clear();
  resamplers_.clear();

  // Group training check-ins per city.
  std::vector<std::vector<size_t>> city_checkins(dataset.num_cities());
  for (size_t idx : split.train) {
    city_checkins[static_cast<size_t>(dataset.checkins()[idx].city)]
        .push_back(idx);
  }

  for (size_t c = 0; c < dataset.num_cities(); ++c) {
    auto& pool = (static_cast<CityId>(c) == target_city_) ? mmd_pool_target_
                                                          : mmd_pool_source_;
    if (city_checkins[c].empty()) {
      // Still need a resampler slot to keep indices aligned with city ids.
      resamplers_.emplace_back(std::vector<size_t>{1}, std::vector<int>{},
                               std::vector<int64_t>{});
      continue;
    }

    // Segment the city into uniformly accessible regions (Algorithm 1).
    GridIndex grid(dataset.city(static_cast<CityId>(c)).box,
                   config_.grid_rows, config_.grid_cols);
    RegionSegmenter segmenter(grid, config_.region_delta);
    for (size_t idx : city_checkins[c]) {
      const CheckinRecord& rec = dataset.checkins()[idx];
      segmenter.AddVisit(grid.CellOf(dataset.poi(rec.poi).location), rec.user);
    }
    RegionAssignment regions;
    if (config_.use_region_merging) {
      regions = segmenter.Segment(rng_);
    } else {
      // Naive baseline: every cell is a singleton region.
      regions.cell_to_region.resize(grid.NumCells());
      regions.region_cells.resize(grid.NumCells());
      for (size_t cell = 0; cell < grid.NumCells(); ++cell) {
        regions.cell_to_region[cell] = static_cast<int>(cell);
        regions.region_cells[cell] = {cell};
      }
    }

    std::vector<size_t> region_sizes(regions.num_regions());
    for (size_t r = 0; r < regions.num_regions(); ++r) {
      region_sizes[r] = regions.region_cells[r].size();
    }
    std::vector<int> checkin_regions;
    std::vector<int64_t> checkin_pois;
    checkin_regions.reserve(city_checkins[c].size());
    for (size_t idx : city_checkins[c]) {
      const CheckinRecord& rec = dataset.checkins()[idx];
      const size_t cell = grid.CellOf(dataset.poi(rec.poi).location);
      checkin_regions.push_back(regions.cell_to_region[cell]);
      checkin_pois.push_back(rec.poi);
    }
    resamplers_.emplace_back(std::move(region_sizes), checkin_regions,
                             checkin_pois);

    // The MMD pool: raw check-ins plus alpha-scaled synthetic draws (Eq. 9).
    pool.insert(pool.end(), checkin_pois.begin(), checkin_pois.end());
    const std::vector<int64_t> extra =
        resamplers_.back().SampleExtra(config_.resample_alpha, rng_);
    pool.insert(pool.end(), extra.begin(), extra.end());
    if (config_.verbose) {
      STTR_LOG(Info) << dataset.city(static_cast<CityId>(c)).name << ": "
                     << regions.num_regions() << " regions, "
                     << checkin_pois.size() << " raw + " << extra.size()
                     << " resampled check-ins in MMD pool";
    }
  }
}

size_t StTransRec::StepsPerEpoch() const {
  STTR_CHECK(!positives_.empty()) << "Prepare() not called";
  return (positives_.size() + config_.batch_size - 1) / config_.batch_size;
}

TrainingBatch StTransRec::SampleBatch(Rng& rng) const {
  STTR_CHECK(!positives_.empty()) << "Prepare() not called";
  TrainingBatch batch;

  // ---- Interaction batch with uniform unvisited negatives. ---------------------
  const size_t rows =
      config_.batch_size * (1 + config_.negatives_per_positive);
  batch.users.reserve(rows);
  batch.pois.reserve(rows);
  std::vector<float> labels;
  labels.reserve(rows);
  for (size_t b = 0; b < config_.batch_size; ++b) {
    const auto& [u, v] = positives_[rng.UniformInt(positives_.size())];
    batch.users.push_back(u);
    batch.pois.push_back(v);
    labels.push_back(1.0f);
    const auto& pool = city_pois_[static_cast<size_t>(
        poi_city_[static_cast<size_t>(v)])];
    for (size_t k = 0; k < config_.negatives_per_positive; ++k) {
      int64_t neg = static_cast<int64_t>(pool[rng.UniformInt(pool.size())]);
      for (int tries = 0;
           tries < 8 &&
           SortedContains(user_visited_[static_cast<size_t>(u)], neg);
           ++tries) {
        neg = static_cast<int64_t>(pool[rng.UniformInt(pool.size())]);
      }
      batch.users.push_back(u);
      batch.pois.push_back(neg);
      labels.push_back(0.0f);
    }
  }
  const size_t n_labels = labels.size();
  batch.labels = Tensor({n_labels}, std::move(labels));

  // ---- Skip-gram batch over the textual context graph (Eq. 4). ----------------
  if (config_.use_text && context_graph_->num_edges() > 0) {
    const size_t n_edges = config_.batch_size;
    std::vector<float> sg_labels;
    sg_labels.reserve(n_edges * (1 + config_.word_negatives));
    for (size_t b = 0; b < n_edges; ++b) {
      const size_t e = rng.UniformInt(context_graph_->num_edges());
      const int64_t v = context_graph_->edge_pois()[e];
      batch.sg_pois.push_back(v);
      batch.sg_words.push_back(context_graph_->edge_words()[e]);
      sg_labels.push_back(1.0f);
      for (size_t k = 0; k < config_.word_negatives; ++k) {
        batch.sg_pois.push_back(v);
        batch.sg_words.push_back(
            word_sampler_->SampleNegativeFor(*context_graph_, v, rng));
        sg_labels.push_back(0.0f);
      }
    }
    const size_t n_sg = sg_labels.size();
    batch.sg_labels = Tensor({n_sg}, std::move(sg_labels));
  }

  // ---- Geographic context batch (PACE). ----------------------------------------
  if (config_.use_geo_context && !geo_edge_a_.empty()) {
    std::vector<float> geo_labels;
    geo_labels.reserve(config_.batch_size * 2);
    for (size_t b = 0; b < config_.batch_size; ++b) {
      const size_t e = rng.UniformInt(geo_edge_a_.size());
      const int64_t a = geo_edge_a_[e];
      batch.geo_pois_a.push_back(a);
      batch.geo_pois_b.push_back(geo_edge_b_[e]);
      geo_labels.push_back(1.0f);
      const auto& pool =
          city_pois_[static_cast<size_t>(poi_city_[static_cast<size_t>(a)])];
      batch.geo_pois_a.push_back(a);
      batch.geo_pois_b.push_back(
          static_cast<int64_t>(pool[rng.UniformInt(pool.size())]));
      geo_labels.push_back(0.0f);
    }
    const size_t n_geo = geo_labels.size();
    batch.geo_labels = Tensor({n_geo}, std::move(geo_labels));
  }

  // ---- MMD pools (Eq. 10 on a minibatch). -------------------------------------
  if (config_.use_mmd && !mmd_pool_source_.empty() &&
      !mmd_pool_target_.empty()) {
    batch.mmd_source.reserve(config_.mmd_batch);
    batch.mmd_target.reserve(config_.mmd_batch);
    for (size_t i = 0; i < config_.mmd_batch; ++i) {
      batch.mmd_source.push_back(
          mmd_pool_source_[rng.UniformInt(mmd_pool_source_.size())]);
      batch.mmd_target.push_back(
          mmd_pool_target_[rng.UniformInt(mmd_pool_target_.size())]);
    }
  }
  return batch;
}

StepLosses StTransRec::ComputeGradients(const TrainingBatch& batch, Rng& rng) {
  STTR_CHECK(user_emb_ != nullptr) << "Prepare() not called";
  params_final_ = false;
  DropPoiLayer0();
  StepLosses losses;

  // Interaction tower: L_I (Eq. 11-13).
  ag::Variable xu = user_emb_->Forward(batch.users);
  ag::Variable xv = poi_emb_->Forward(batch.pois);
  ag::Variable logits =
      mlp_->Forward(ag::ConcatCols(xu, xv), /*training=*/true, rng);
  ag::Variable total = ag::BceWithLogits(logits, batch.labels);
  losses.interaction = total.value()[0];

  // Textual context prediction: L_G (Eq. 4).
  if (!batch.sg_pois.empty()) {
    ag::Variable pv = poi_emb_->Forward(batch.sg_pois);
    ag::Variable wv = word_emb_->Forward(batch.sg_words);
    ag::Variable lg =
        ag::BceWithLogits(ag::RowwiseDot(pv, wv), batch.sg_labels);
    losses.text = lg.value()[0];
    total = ag::Add(total, ag::Scale(lg, config_.text_loss_weight));
  }

  // Geographic context prediction (PACE).
  if (!batch.geo_pois_a.empty()) {
    ag::Variable pa = poi_emb_->Forward(batch.geo_pois_a);
    ag::Variable pb = poi_emb_->Forward(batch.geo_pois_b);
    ag::Variable lgeo =
        ag::BceWithLogits(ag::RowwiseDot(pa, pb), batch.geo_labels);
    losses.geo = lgeo.value()[0];
    total = ag::Add(total, lgeo);
  }

  // Transfer: lambda * D(P, Q) (Eq. 10).
  if (!batch.mmd_source.empty() && !batch.mmd_target.empty()) {
    ag::Variable xs = poi_emb_->Forward(batch.mmd_source);
    ag::Variable xt = poi_emb_->Forward(batch.mmd_target);
    double sigma = config_.mmd_sigma;
    if (sigma <= 0.0) {
      sigma = MedianHeuristicSigma(xs.value(), xt.value(), 256, rng);
    }
    ag::Variable mmd =
        config_.use_linear_mmd
            ? ag_ops::MmdLossLinear(xs, xt, {sigma})
            : ag_ops::MmdLoss(xs, xt, {sigma});
    losses.mmd = mmd.value()[0];
    total = ag::Add(total, ag::Scale(mmd, static_cast<float>(
                                              config_.lambda_mmd)));
  }

  losses.total = total.value()[0];
  ag::Backward(total);
  return losses;
}

void StTransRec::OptimizerStep() { Optimizer().Step(); }

nn::Adam& StTransRec::Optimizer() {
  if (optimizer_ == nullptr) {
    optimizer_ =
        std::make_unique<nn::Adam>(Parameters(), config_.learning_rate);
  }
  return *optimizer_;
}

std::vector<ag::Variable> StTransRec::Parameters() const {
  STTR_CHECK(user_emb_ != nullptr) << "Prepare() not called";
  std::vector<ag::Variable> params;
  for (auto& p : user_emb_->Parameters()) params.push_back(p);
  for (auto& p : poi_emb_->Parameters()) params.push_back(p);
  for (auto& p : word_emb_->Parameters()) params.push_back(p);
  for (auto& p : mlp_->Parameters()) params.push_back(p);
  return params;
}

Status StTransRec::Fit(const Dataset& dataset, const CrossCitySplit& split) {
  return TrainInternal(dataset, split, /*resume_dir=*/"");
}

Status StTransRec::Resume(const Dataset& dataset, const CrossCitySplit& split,
                          const std::string& dir) {
  const std::string resume_dir = dir.empty() ? config_.checkpoint_dir : dir;
  if (resume_dir.empty()) {
    return Status::InvalidArgument(
        "Resume: no checkpoint directory (set config.checkpoint_dir or pass "
        "dir)");
  }
  return TrainInternal(dataset, split, resume_dir);
}

Status StTransRec::TrainInternal(const Dataset& dataset,
                                 const CrossCitySplit& split,
                                 const std::string& resume_dir) {
  if (config_.num_train_workers > 1) {
    // Data-parallel path: ParallelTrainer shards every batch across worker
    // replicas and trains *this* model as the master (it calls Prepare()
    // and fills loss_history_ exactly like the serial loop below).
    const size_t workers =
        std::min(config_.num_train_workers, config_.batch_size);
    ParallelTrainer trainer(config_, workers);
    STTR_RETURN_IF_ERROR(trainer.InitWithMaster(this, dataset, split));
    if (!resume_dir.empty()) {
      STTR_RETURN_IF_ERROR(trainer.RestoreLatest(resume_dir));
    }
    const size_t done = loss_history_.size();
    if (done >= config_.num_epochs) {
      MarkFitted();
      return Status::OK();
    }
    return trainer.TrainEpochs(config_.num_epochs - done);
  }
  STTR_RETURN_IF_ERROR(Prepare(dataset, split));
  if (!resume_dir.empty()) {
    StatusOr<std::string> path = FindLatestValidCheckpoint(env(), resume_dir);
    if (!path.ok()) return path.status();
    STTR_RETURN_IF_ERROR(RestoreFromCheckpoint(*path, nullptr));
  }
  const size_t steps = StepsPerEpoch();
  // Completed epochs == loss_history_.size(): a restored history resumes the
  // loop exactly where the checkpointed run stopped.
  for (size_t epoch = loss_history_.size(); epoch < config_.num_epochs;
       ++epoch) {
    double epoch_loss = 0;
    for (size_t s = 0; s < steps; ++s) {
      const TrainingBatch batch = SampleBatch(rng_);
      epoch_loss += ComputeGradients(batch, rng_).total;
      OptimizerStep();
    }
    loss_history_.push_back(epoch_loss / static_cast<double>(steps));
    if (config_.verbose) {
      STTR_LOG(Info) << name() << " epoch " << epoch + 1 << "/"
                     << config_.num_epochs
                     << " mean loss=" << loss_history_.back();
    }
    STTR_RETURN_IF_ERROR(MaybeWriteCheckpoint(nullptr));
  }
  MarkFitted();
  return Status::OK();
}

namespace {

// Rows per tower block. A block runs every layer while its activations
// (kTowerBlockRows x 128 floats = 128 KiB at the paper's widths) stay in
// cache, and blocks are the unit the pool shards.
constexpr size_t kTowerBlockRows = 256;

// A thread's tower scratch: the two ping-pong block buffers of
// Mlp::InferenceForward. They hold one block, so a warmed thread (the
// caller or a pool worker) runs blocks without allocating.
struct BlockBuffers {
  std::vector<float> a;
  std::vector<float> b;
};
thread_local BlockBuffers t_block;

// The calling thread's staging for ScorePairsInto: user-run bounds, the runs'
// user rows and their layer-0 shares, grown to the largest call so far.
struct RunStaging {
  std::vector<size_t> starts;
  std::vector<float> user_rows;
  std::vector<float> user_share;
};
thread_local RunStaging t_runs;

float* Reserve(std::vector<float>& buf, size_t floats) {
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

// Scalar sigmoid per logit on purpose: the vector kernel's polynomial exp
// differs from the scalar one by ulps across batch positions, which would
// break the per-pair exactness contract.
void SigmoidInto(const float* logits, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = SigmoidScalar(logits[i]);
}

// Scores rows [0, n) into `out` block by block: layer0(i0, i1, act,
// scratch) writes layer 0's output for rows [i0, i1) into `act` (row
// stride layer0_width()) and may use `scratch`; both hold a block of
// max_width()-wide rows. The rest of the tower and the sigmoid follow per
// block. Blocks are sharded over the global pool (inline for one block or
// on a pool worker); the shard callable holds one pointer, so dispatch
// does not allocate.
template <typename Layer0Fn>
void RunTower(const nn::Mlp& mlp, size_t n, const Layer0Fn& layer0,
              double* out) {
  const size_t block_floats = kTowerBlockRows * mlp.max_width();
  const auto shard = [&](size_t begin, size_t end) {
    float* a = Reserve(t_block.a, block_floats);
    float* b = Reserve(t_block.b, block_floats);
    for (size_t i0 = begin; i0 < end; i0 += kTowerBlockRows) {
      const size_t i1 = std::min(end, i0 + kTowerBlockRows);
      layer0(i0, i1, a, b);
      SigmoidInto(mlp.InferenceForward(a, b, i1 - i0), i1 - i0, out + i0);
    }
  };
  const auto* run = &shard;
  GlobalThreadPool().ParallelForChunked(
      n, kTowerBlockRows,
      [run](size_t begin, size_t end) { (*run)(begin, end); });
}

}  // namespace

void StTransRec::ScorePairsInto(std::span<const UserId> users,
                                std::span<const PoiId> pois,
                                std::span<double> out) const {
  STTR_CHECK(fitted_) << "scoring before Fit()";
  STTR_CHECK(params_final_)
      << "scoring after the parameters moved; Fit(), Load() or ApplyDelta() "
         "must mark them final first";
  const size_t n = pois.size();
  STTR_CHECK_EQ(out.size(), n);
  if (n == 0) return;
  STTR_CHECK(users.size() == n || users.size() == 1);
  const Tensor& user_table = user_emb_->table().value();
  const size_t d = user_table.cols();
  for (UserId u : users) {
    STTR_CHECK_GE(u, 0);
    STTR_CHECK_LT(static_cast<size_t>(u), user_table.rows());
  }
  for (PoiId v : pois) {
    STTR_CHECK_GE(v, 0);
    STTR_CHECK_LT(static_cast<size_t>(v), poi_emb_->num_rows());
  }

  // Runs of equal users: run r covers rows [starts[r], starts[r + 1]).
  std::vector<size_t>& starts = t_runs.starts;
  starts.clear();
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || (users.size() > 1 && users[i] != users[i - 1])) {
      starts.push_back(i);
    }
  }
  starts.push_back(n);
  const size_t runs = starts.size() - 1;

  // User shares, one per run, as one product over the runs' user rows.
  const size_t h0 = mlp_->layer0_width();
  float* user_rows = Reserve(t_runs.user_rows, runs * d);
  for (size_t r = 0; r < runs; ++r) {
    const auto u =
        static_cast<size_t>(users[users.size() == 1 ? 0 : starts[r]]);
    std::memcpy(user_rows + r * d, user_table.data() + u * d,
                d * sizeof(float));
  }
  float* user_share = Reserve(t_runs.user_share, runs * h0);
  mlp_->Layer0Share(user_rows, d, runs, d, /*w0_row=*/0, user_share);

  // Layer 0 proper: gathered POI share + the run's user share, bias, ReLU.
  const float* p = PoiLayer0().data();
  RunTower(
      *mlp_, n,
      [&](size_t i0, size_t i1, float* act, float*) {
        auto r = static_cast<size_t>(
            std::upper_bound(starts.begin(), starts.end(), i0) -
            starts.begin() - 1);
        for (size_t i = i0; i < i1; ++i) {
          if (i == starts[r + 1]) ++r;
          mlp_->Layer0Finish(p + static_cast<size_t>(pois[i]) * h0,
                             user_share + r * h0, act + (i - i0) * h0);
        }
      },
      out.data());
}

std::vector<double> StTransRec::ScoreGatheredPairs(const Tensor& h) const {
  STTR_CHECK(fitted_) << "ScoreGatheredPairs() before Fit()";
  const size_t d = user_emb_->table().value().cols();
  STTR_CHECK_EQ(h.cols(), 2 * d);
  const size_t n = h.rows();
  if (n == 0) return {};
  const size_t h0 = mlp_->layer0_width();
  std::vector<double> out(n);
  RunTower(
      *mlp_, n,
      [&](size_t i0, size_t i1, float* act, float* scratch) {
        // Both layer-0 shares from the gathered rows, with the kernel that
        // builds P: act = POI share, scratch = user share.
        const float* rows = h.data() + i0 * 2 * d;
        mlp_->Layer0Share(rows + d, 2 * d, i1 - i0, d, /*w0_row=*/d, act);
        mlp_->Layer0Share(rows, 2 * d, i1 - i0, d, /*w0_row=*/0, scratch);
        for (size_t i = 0; i < i1 - i0; ++i) {
          mlp_->Layer0Finish(act + i * h0, scratch + i * h0, act + i * h0);
        }
      },
      out.data());
  return out;
}

void StTransRec::MarkFitted() {
  fitted_ = true;
  params_final_ = true;
  DropPoiLayer0();
}

void StTransRec::DropPoiLayer0() {
  poi_layer0_ready_.store(false, std::memory_order_relaxed);
  poi_layer0_ = Tensor();
}

const Tensor& StTransRec::PoiLayer0() const {
  if (!poi_layer0_ready_.load(std::memory_order_acquire)) {
    // Computed outside the lock: the product may use the global pool,
    // whose workers can themselves be first scorers of this model waiting
    // here. Concurrent first scorers may each compute P; the first to
    // publish wins and the copies are identical.
    Tensor p({poi_emb_->num_rows(), mlp_->layer0_width()});
    ComputePoiLayer0Rows(0, p.rows(), p);
    MutexLock lock(poi_layer0_mu_);
    if (!poi_layer0_ready_.load(std::memory_order_relaxed)) {
      poi_layer0_ = std::move(p);
      poi_layer0_ready_.store(true, std::memory_order_release);
    }
  }
  return poi_layer0_;
}

void StTransRec::ComputePoiLayer0Rows(size_t begin, size_t end,
                                      Tensor& p) const {
  const Tensor& poi_table = poi_emb_->table().value();
  const size_t d = poi_table.cols();
  mlp_->Layer0Share(poi_table.data() + begin * d, d, end - begin, d,
                    /*w0_row=*/d, p.data() + begin * p.cols());
}

const Tensor& StTransRec::UserEmbeddingTable() const {
  STTR_CHECK(fitted_) << "UserEmbeddingTable() before Fit()";
  return user_emb_->table().value();
}

const Tensor& StTransRec::PoiEmbeddingTable() const {
  STTR_CHECK(fitted_) << "PoiEmbeddingTable() before Fit()";
  return poi_emb_->table().value();
}

const Tensor& StTransRec::WordEmbeddingTable() const {
  STTR_CHECK(fitted_) << "WordEmbeddingTable() before Fit()";
  return word_emb_->table().value();
}

std::vector<float> StTransRec::PoiEmbedding(PoiId poi) const {
  STTR_CHECK(fitted_);
  const Tensor& table = poi_emb_->table().value();
  STTR_CHECK_GE(poi, 0);
  STTR_CHECK_LT(static_cast<size_t>(poi), table.rows());
  const float* row = table.row(static_cast<size_t>(poi));
  return std::vector<float>(row, row + table.cols());
}

Status StTransRec::Save(std::ostream& out) const {
  if (user_emb_ == nullptr) {
    return Status::FailedPrecondition("Save() before Prepare()");
  }
  for (const auto& p : Parameters()) {
    STTR_RETURN_IF_ERROR(p.value().Serialize(out));
  }
  return Status::OK();
}

Status StTransRec::Load(std::istream& in) {
  if (user_emb_ == nullptr) {
    return Status::FailedPrecondition("Load() before Prepare()");
  }
  // All-or-nothing: a truncated stream or shape mismatch partway through
  // must not leave earlier parameters already replaced.
  STTR_RETURN_IF_ERROR(nn::LoadParametersAtomic(in, Parameters()));
  MarkFitted();
  return Status::OK();
}

Status StTransRec::ApplyDelta(const DeltaCheckpoint& delta) {
  if (user_emb_ == nullptr) {
    return Status::FailedPrecondition("ApplyDelta() before Prepare()");
  }
  if (delta.config_fingerprint != ConfigFingerprint()) {
    return Status::FailedPrecondition(
        "ApplyDelta: delta was produced under a different config/dataset "
        "(delta '" +
        delta.config_fingerprint + "' vs model '" + ConfigFingerprint() +
        "')");
  }
  std::vector<ag::Variable> params = Parameters();
  const EmbeddingRowDelta* tables[3] = {&delta.user, &delta.poi, &delta.word};
  const char* names[3] = {"user", "poi", "word"};
  // Validate every table up front: a bad delta must not leave the model
  // half-patched.
  for (size_t t = 0; t < 3; ++t) {
    const EmbeddingRowDelta& d = *tables[t];
    if (d.num_rows() == 0) continue;
    const Tensor& table = params[t].value();
    if (d.dim != table.cols()) {
      return Status::InvalidArgument(
          "ApplyDelta: " + std::string(names[t]) + " row dim " +
          std::to_string(d.dim) + " does not match table dim " +
          std::to_string(table.cols()));
    }
    for (int64_t row : d.rows) {
      if (row < 0 || static_cast<size_t>(row) >= table.rows()) {
        return Status::InvalidArgument(
            "ApplyDelta: " + std::string(names[t]) + " row " +
            std::to_string(row) + " out of range [0, " +
            std::to_string(table.rows()) + ")");
      }
    }
  }
  if (!delta.dense_params.empty()) {
    // Dense refresh first — LoadParametersAtomic already guarantees
    // all-or-nothing, so a truncated dense blob fails before any embedding
    // row has been touched.
    std::istringstream in(delta.dense_params);
    STTR_RETURN_IF_ERROR(nn::LoadParametersAtomic(in, mlp_->Parameters()));
  }
  for (size_t t = 0; t < 3; ++t) {
    const EmbeddingRowDelta& d = *tables[t];
    if (d.num_rows() == 0) continue;
    Tensor& table = params[t].mutable_value();
    for (size_t i = 0; i < d.num_rows(); ++i) {
      std::memcpy(table.row(static_cast<size_t>(d.rows[i])), d.row_values(i),
                  d.dim * sizeof(float));
    }
  }
  if (!delta.dense_params.empty()) {
    MarkFitted();  // the tower moved: P is rebuilt on the next score
    return Status::OK();
  }
  // Only patched POI rows move P; user and word rows touch nothing in it.
  // Row-wise recomputation keeps the cost proportional to the delta. An
  // unbuilt P is left to the next score, which reads the patched table.
  if (poi_layer0_ready_.load(std::memory_order_acquire)) {
    for (int64_t row : delta.poi.rows) {
      ComputePoiLayer0Rows(static_cast<size_t>(row),
                           static_cast<size_t>(row) + 1, poi_layer0_);
    }
  }
  fitted_ = true;
  params_final_ = true;
  return Status::OK();
}

Env& StTransRec::env() const {
  return config_.env != nullptr ? *config_.env : *Env::Default();
}

std::string StTransRec::ConfigFingerprint() const {
  STTR_CHECK(dataset_ != nullptr) << "ConfigFingerprint() before Prepare()";
  std::ostringstream os;
  os.precision(17);
  os << "fp1";
  os << ";dim=" << config_.embedding_dim;
  os << ";init=" << config_.embedding_init_stddev;
  os << ";hidden=";
  for (size_t i = 0; i < config_.hidden_dims.size(); ++i) {
    os << (i ? "," : "") << config_.hidden_dims[i];
  }
  os << ";dropout=" << config_.dropout_rate;
  os << ";lr=" << config_.learning_rate;
  os << ";batch=" << config_.batch_size;
  os << ";negatives=" << config_.negatives_per_positive;
  os << ";word_negatives=" << config_.word_negatives;
  os << ";mmd=" << config_.use_mmd << "," << config_.lambda_mmd << ","
     << config_.mmd_sigma << "," << config_.mmd_batch << ","
     << config_.use_linear_mmd;
  os << ";text=" << config_.use_text << "," << config_.text_loss_weight;
  os << ";geo=" << config_.use_geo_context << "," << config_.geo_neighbors;
  os << ";resample=" << config_.resample_alpha << "," << config_.grid_rows
     << "," << config_.grid_cols << "," << config_.region_delta << ","
     << config_.use_region_merging;
  os << ";seed=" << config_.seed;
  os << ";workers=" << config_.num_train_workers;
  os << ";target=" << target_city_;
  os << ";data=" << dataset_->num_users() << "," << dataset_->num_pois()
     << "," << dataset_->vocabulary().size() << "," << dataset_->num_cities();
  return os.str();
}

namespace {

constexpr char kSectionMeta[] = "meta";
constexpr char kSectionConfig[] = "config";
constexpr char kSectionModel[] = "model";
constexpr char kSectionOptimizer[] = "optimizer";
constexpr char kSectionRng[] = "rng";
constexpr char kSectionLossHistory[] = "loss_history";

void AppendRngState(std::string& out, const Rng& rng) {
  for (uint64_t word : rng.state()) AppendU64(out, word);
}

bool ReadRngState(std::string_view& in, Rng* rng) {
  std::array<uint64_t, 4> state;
  for (uint64_t& word : state) {
    if (!ReadU64(in, &word)) return false;
  }
  rng->set_state(state);
  return true;
}

}  // namespace

Status StTransRec::WriteCheckpoint(const std::vector<Rng>* worker_rngs) {
  if (user_emb_ == nullptr) {
    return Status::FailedPrecondition("WriteCheckpoint() before Prepare()");
  }
  if (config_.checkpoint_dir.empty()) {
    return Status::InvalidArgument("WriteCheckpoint: checkpoint_dir not set");
  }
  const size_t completed = loss_history_.size();
  CheckpointWriter writer;
  {
    std::string meta;
    AppendU64(meta, completed);
    writer.AddSection(kSectionMeta, std::move(meta));
  }
  writer.AddSection(kSectionConfig, ConfigFingerprint());
  {
    std::ostringstream os(std::ios::binary);
    STTR_RETURN_IF_ERROR(Save(os));
    writer.AddSection(kSectionModel, std::move(os).str());
  }
  {
    std::ostringstream os(std::ios::binary);
    STTR_RETURN_IF_ERROR(Optimizer().SaveState(os));
    writer.AddSection(kSectionOptimizer, std::move(os).str());
  }
  {
    std::string rngs;
    const size_t num_workers = worker_rngs != nullptr ? worker_rngs->size() : 0;
    AppendU32(rngs, static_cast<uint32_t>(2 + num_workers));
    AppendRngState(rngs, rng_);
    AppendRngState(rngs, eval_rng_);
    for (size_t w = 0; w < num_workers; ++w) {
      AppendRngState(rngs, (*worker_rngs)[w]);
    }
    writer.AddSection(kSectionRng, std::move(rngs));
  }
  {
    std::string losses;
    AppendU64(losses, loss_history_.size());
    for (double l : loss_history_) AppendDouble(losses, l);
    writer.AddSection(kSectionLossHistory, std::move(losses));
  }
  Env& e = env();
  STTR_RETURN_IF_ERROR(e.CreateDir(config_.checkpoint_dir));
  STTR_RETURN_IF_ERROR(writer.WriteTo(
      e, config_.checkpoint_dir + "/" + CheckpointFileName(completed)));
  return RotateCheckpoints(e, config_.checkpoint_dir,
                           std::max<size_t>(1, config_.checkpoint_keep_last));
}

Status StTransRec::MaybeWriteCheckpoint(
    const std::vector<Rng>* worker_rngs) {
  if (config_.checkpoint_dir.empty()) return Status::OK();
  const size_t completed = loss_history_.size();
  const size_t every = std::max<size_t>(1, config_.checkpoint_every_n_epochs);
  if (completed % every != 0 && completed != config_.num_epochs) {
    return Status::OK();
  }
  return WriteCheckpoint(worker_rngs);
}

Status StTransRec::RestoreFromCheckpoint(const std::string& path,
                                         std::vector<Rng>* worker_rngs) {
  if (user_emb_ == nullptr) {
    return Status::FailedPrecondition("RestoreFromCheckpoint before Prepare()");
  }
  StatusOr<CheckpointReader> reader = CheckpointReader::Open(env(), path);
  if (!reader.ok()) return reader.status();
  if (reader->version() != kCheckpointFormatVersion) {
    // v2 files are quantized serving artifacts: no optimizer/RNG state, int8
    // tables. There is nothing to resume training from.
    return Status::FailedPrecondition(
        "checkpoint " + path + " is a v" + std::to_string(reader->version()) +
        " quantized serving artifact, not a training checkpoint; training "
        "resumes only from v1 files");
  }

  StatusOr<std::string> fp = reader->Section(kSectionConfig);
  if (!fp.ok()) return fp.status();
  if (*fp != ConfigFingerprint()) {
    return Status::FailedPrecondition(
        "checkpoint " + path + " was written under a different config or "
        "dataset\n  checkpoint: " + *fp + "\n  current:    " +
        ConfigFingerprint());
  }

  StatusOr<std::string> model = reader->Section(kSectionModel);
  if (!model.ok()) return model.status();
  {
    std::istringstream in(*model, std::ios::binary);
    STTR_RETURN_IF_ERROR(nn::LoadParametersAtomic(in, Parameters()));
  }

  StatusOr<std::string> opt = reader->Section(kSectionOptimizer);
  if (!opt.ok()) return opt.status();
  {
    std::istringstream in(*opt, std::ios::binary);
    STTR_RETURN_IF_ERROR(Optimizer().LoadState(in));
  }

  StatusOr<std::string> rngs = reader->Section(kSectionRng);
  if (!rngs.ok()) return rngs.status();
  {
    std::string_view in(*rngs);
    uint32_t count = 0;
    if (!ReadU32(in, &count)) {
      return Status::IOError("checkpoint: truncated rng section");
    }
    const size_t expected =
        2 + (worker_rngs != nullptr ? worker_rngs->size() : 0);
    if (count != expected) {
      return Status::FailedPrecondition(
          "checkpoint holds " + std::to_string(count) +
          " RNG streams, resume expects " + std::to_string(expected) +
          " (train-worker count changed?)");
    }
    bool ok = ReadRngState(in, &rng_) && ReadRngState(in, &eval_rng_);
    if (worker_rngs != nullptr) {
      for (Rng& rng : *worker_rngs) ok = ok && ReadRngState(in, &rng);
    }
    if (!ok || !in.empty()) {
      return Status::IOError("checkpoint: malformed rng section");
    }
  }

  StatusOr<std::string> losses = reader->Section(kSectionLossHistory);
  if (!losses.ok()) return losses.status();
  {
    std::string_view in(*losses);
    uint64_t n = 0;
    if (!ReadU64(in, &n) || in.size() != n * sizeof(double)) {
      return Status::IOError("checkpoint: malformed loss_history section");
    }
    std::vector<double> history(n);
    for (double& l : history) ReadDouble(in, &l);
    loss_history_ = std::move(history);
  }

  StatusOr<std::string> meta = reader->Section(kSectionMeta);
  if (!meta.ok()) return meta.status();
  {
    std::string_view in(*meta);
    uint64_t epoch = 0;
    if (!ReadU64(in, &epoch) || epoch != loss_history_.size()) {
      return Status::IOError(
          "checkpoint: epoch counter disagrees with loss history");
    }
  }
  return Status::OK();
}

std::vector<float> StTransRec::WordEmbedding(WordId word) const {
  STTR_CHECK(fitted_);
  const Tensor& table = word_emb_->table().value();
  STTR_CHECK_GE(word, 0);
  STTR_CHECK_LT(static_cast<size_t>(word), table.rows());
  const float* row = table.row(static_cast<size_t>(word));
  return std::vector<float>(row, row + table.cols());
}

StTransRecConfig MakeVariant1(StTransRecConfig base) {
  base.use_mmd = false;
  return base;
}

StTransRecConfig MakeVariant2(StTransRecConfig base) {
  base.use_text = false;
  return base;
}

StTransRecConfig MakeVariant3(StTransRecConfig base) {
  base.resample_alpha = 0.0;
  return base;
}

}  // namespace sttr
