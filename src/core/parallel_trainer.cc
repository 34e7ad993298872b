#include "core/parallel_trainer.h"

#include <algorithm>

#include "core/checkpoint.h"
#include "tensor/simd.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/timer.h"

namespace sttr {

namespace {

// Rows per chunk when sharding row-wise reduce/broadcast over the pool.
// Chunks partition the row list, so results do not depend on the grain (every
// row is reduced start-to-finish inside exactly one chunk).
constexpr size_t kSparseGrain = 64;
constexpr size_t kDenseGrain = 256;

}  // namespace

ParallelTrainer::ParallelTrainer(StTransRecConfig config, size_t num_workers)
    : config_(std::move(config)), num_workers_(num_workers) {
  STTR_CHECK_GE(num_workers, 1u);
  STTR_CHECK_GE(config_.batch_size, num_workers)
      << "batch must be shardable across workers";
}

Status ParallelTrainer::Init(const Dataset& dataset,
                             const CrossCitySplit& split) {
  owned_master_ = std::make_unique<StTransRec>(config_);
  master_ = owned_master_.get();
  STTR_RETURN_IF_ERROR(master_->Prepare(dataset, split));
  return InitReplicas(dataset, split);
}

Status ParallelTrainer::InitWithMaster(StTransRec* master,
                                       const Dataset& dataset,
                                       const CrossCitySplit& split) {
  STTR_CHECK(master != nullptr);
  owned_master_.reset();
  master_ = master;
  STTR_RETURN_IF_ERROR(master_->Prepare(dataset, split));
  return InitReplicas(dataset, split);
}

Status ParallelTrainer::InitReplicas(const Dataset& dataset,
                                     const CrossCitySplit& split) {
  StTransRecConfig worker_cfg = config_;
  worker_cfg.batch_size = config_.batch_size / num_workers_;
  // Shard every per-step workload so total work per iteration is constant
  // across worker counts (that is what Table 2 compares).
  worker_cfg.mmd_batch =
      std::max<size_t>(2, config_.mmd_batch / num_workers_);
  worker_cfg.num_train_workers = 1;
  replicas_.clear();
  worker_rngs_.clear();
  for (size_t w = 0; w < num_workers_; ++w) {
    worker_cfg.seed = config_.seed + 1000 + w;
    auto replica = std::make_unique<StTransRec>(worker_cfg);
    STTR_RETURN_IF_ERROR(replica->Prepare(dataset, split));
    replicas_.push_back(std::move(replica));
    worker_rngs_.emplace_back(config_.seed + 77 * (w + 1));
  }

  master_params_ = master_->Parameters();
  replica_params_.clear();
  for (auto& replica : replicas_) {
    replica_params_.push_back(replica->Parameters());
    STTR_CHECK_EQ(replica_params_.back().size(), master_params_.size());
  }
  // Broadcast the master initialisation so all replicas agree.
  for (auto& params : replica_params_) {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].mutable_value() = master_params_[i].value();
    }
  }

  worker_losses_.assign(num_workers_, 0.0);
  replica_rows_.assign(num_workers_, {});
  merged_rows_.assign(master_params_.size(), {});
  pool_ = std::make_unique<ThreadPool>(num_workers_);
  return Status::OK();
}

double ParallelTrainer::OneIteration() {
  const size_t num_params = master_params_.size();
  const size_t num_emb = master_->NumEmbeddingParameters();
  const float inv_workers = 1.0f / static_cast<float>(num_workers_);

  // 1. Each worker computes gradients on its own shard (own replica, own
  //    rng: no shared mutable state, so the workers run lock-free).
  pool_->ParallelFor(num_workers_, [this](size_t w) {
    const TrainingBatch batch = replicas_[w]->SampleBatch(worker_rngs_[w]);
    worker_losses_[w] =
        replicas_[w]->ComputeGradients(batch, worker_rngs_[w]).total;
  });

  // 2. All-reduce: average replica gradients into the master. Embedding
  //    tables reduce row-wise over the union of touched rows (or every row
  //    in kDense reference mode); per row, replicas are always folded in
  //    worker order with the same kernel, so the two modes and any pool
  //    size produce bit-identical sums.
  for (size_t i = 0; i < num_params; ++i) {
    const bool is_embedding = i < num_emb;
    if (!is_embedding) {
      // Dense MLP parameters are tiny; reduce them whole.
      for (auto& params : replica_params_) {
        master_params_[i].mutable_grad().Axpy(inv_workers, params[i].grad());
      }
      continue;
    }

    // Sorted, de-duplicated touched rows per replica (GatherRows appends
    // raw indices, so duplicates are expected), then their union.
    std::vector<int64_t>& merged = merged_rows_[i];
    merged.clear();
    for (size_t w = 0; w < num_workers_; ++w) {
      std::vector<int64_t>& rows = replica_rows_[w];
      const auto& touched = replica_params_[w][i].touched_rows();
      rows.assign(touched.begin(), touched.end());
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
      merged.insert(merged.end(), rows.begin(), rows.end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());

    const size_t d = master_params_[i].value().cols();
    float* mg = master_params_[i].mutable_grad().data();
    if (reduce_mode_ == ReduceMode::kSparse) {
      pool_->ParallelForChunked(
          merged.size(), kSparseGrain, [&](size_t begin, size_t end) {
            if (begin == end) return;
            for (size_t w = 0; w < num_workers_; ++w) {
              const std::vector<int64_t>& rows = replica_rows_[w];
              const float* rg = replica_params_[w][i].grad().data();
              auto it = std::lower_bound(rows.begin(), rows.end(),
                                         merged[begin]);
              for (size_t idx = begin; idx < end; ++idx) {
                const int64_t r = merged[idx];
                if (it != rows.end() && *it == r) {
                  const size_t off = static_cast<size_t>(r) * d;
                  simd::Axpy(mg + off, rg + off, inv_workers, d);
                  ++it;
                }
              }
            }
          });
    } else {
      // Reference mode: walk every table row. Untouched replica rows are
      // all-zero, so folding them in changes nothing — bitwise included,
      // since x + (+0.0f) == x for the values the accumulator can hold.
      const size_t table_rows = master_params_[i].value().rows();
      pool_->ParallelForChunked(
          table_rows, kDenseGrain, [&](size_t begin, size_t end) {
            for (size_t w = 0; w < num_workers_; ++w) {
              const float* rg = replica_params_[w][i].grad().data();
              for (size_t r = begin; r < end; ++r) {
                simd::Axpy(mg + r * d, rg + r * d, inv_workers, d);
              }
            }
          });
    }
    // Hand the optimiser the merged rows so its lazy (row-wise) update runs
    // over exactly the rows the reduce filled — the master never sees
    // gradients through GatherRows, so without this it would fall back to
    // dense whole-table sweeps every step.
    master_params_[i].node()->touched_rows = merged;
  }
  // Clear replica gradients for the next iteration (row-wise for the
  // embedding tables, dense for the rest).
  for (auto& params : replica_params_) {
    for (auto& p : params) p.ZeroGradSparse();
  }

  // 3. Master applies the update (lazy row-wise Adam on the tables).
  master_->OptimizerStep();

  // 4. Broadcast updated weights: only the rows the optimiser moved for the
  //    embedding tables (replicas match the master everywhere else by
  //    induction), whole tensors for the dense MLP parameters.
  for (size_t i = 0; i < num_params; ++i) {
    const bool row_delta =
        i < num_emb && reduce_mode_ == ReduceMode::kSparse;
    if (!row_delta) {
      for (auto& params : replica_params_) {
        params[i].mutable_value() = master_params_[i].value();
      }
      continue;
    }
    const std::vector<int64_t>& merged = merged_rows_[i];
    const size_t d = master_params_[i].value().cols();
    const float* src = master_params_[i].value().data();
    pool_->ParallelForChunked(
        merged.size(), kSparseGrain, [&](size_t begin, size_t end) {
          for (size_t idx = begin; idx < end; ++idx) {
            const size_t off = static_cast<size_t>(merged[idx]) * d;
            for (auto& params : replica_params_) {
              float* dst = params[i].mutable_value().data();
              std::copy(src + off, src + off + d, dst + off);
            }
          }
        });
  }

  double sum = 0.0;
  for (double l : worker_losses_) sum += l;
  return sum * static_cast<double>(inv_workers);
}

double ParallelTrainer::RunIterations(size_t iterations) {
  STTR_CHECK(master_ != nullptr) << "Init() not called";
  Timer timer;
  for (size_t i = 0; i < iterations; ++i) OneIteration();
  return timer.ElapsedSeconds();
}

Status ParallelTrainer::TrainEpochs(size_t epochs) {
  STTR_CHECK(master_ != nullptr) << "Init() not called";
  const size_t steps = master_->StepsPerEpoch();
  for (size_t e = 0; e < epochs; ++e) {
    double epoch_loss = 0.0;
    for (size_t s = 0; s < steps; ++s) epoch_loss += OneIteration();
    master_->loss_history_.push_back(epoch_loss / static_cast<double>(steps));
    if (config_.verbose) {
      STTR_LOG(Info) << master_->name() << " [x" << num_workers_
                     << " workers] epoch " << e + 1 << "/" << epochs
                     << " mean loss=" << master_->loss_history_.back();
    }
    // Checkpoint the master plus the worker RNG streams: the replica
    // parameters equal the master's after broadcast and replica gradients
    // are zero between iterations, so this is the complete training state.
    STTR_RETURN_IF_ERROR(master_->MaybeWriteCheckpoint(&worker_rngs_));
  }
  master_->MarkFitted();
  return Status::OK();
}

Status ParallelTrainer::RestoreLatest(const std::string& dir) {
  STTR_CHECK(master_ != nullptr) << "Init() not called";
  StatusOr<std::string> path =
      FindLatestValidCheckpoint(master_->env(), dir);
  if (!path.ok()) return path.status();
  STTR_RETURN_IF_ERROR(master_->RestoreFromCheckpoint(*path, &worker_rngs_));
  // InitReplicas broadcast the freshly-initialised master; broadcast again
  // now that the master holds the checkpointed parameters.
  for (auto& params : replica_params_) {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].mutable_value() = master_params_[i].value();
    }
  }
  return Status::OK();
}

}  // namespace sttr
