#ifndef STTR_EVAL_PROTOCOL_H_
#define STTR_EVAL_PROTOCOL_H_

#include <map>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "eval/metrics.h"

namespace sttr {

/// Scoring interface every recommender (ST-TransRec, its variants and all
/// baselines) implements. Higher scores rank earlier.
///
/// Score()/ScoreBatch() must be safe to call concurrently from multiple
/// threads after fitting: the evaluation protocol and RecommendTopK shard
/// candidate scoring across a thread pool.
class PoiScorer {
 public:
  virtual ~PoiScorer() = default;

  /// Preference score of `user` for `poi` in the target city.
  virtual double Score(UserId user, PoiId poi) const = 0;

  /// Scores one user against many candidate POIs, returned in input order.
  /// The default loops over Score(); models with a batched inference path
  /// (ST-TransRec runs the candidate set through its MLP tower as one
  /// matrix product) override this with something much faster. Overrides
  /// must return exactly the values the per-pair path would.
  virtual std::vector<double> ScoreBatch(UserId user,
                                         std::span<const PoiId> pois) const {
    std::vector<double> out;
    out.reserve(pois.size());
    for (PoiId v : pois) out.push_back(Score(user, v));
    return out;
  }

  /// Scores heterogeneous (user, poi) pairs, returned in input order. This
  /// is the entry point the online server scores each request's candidates
  /// through. The default loops over Score(); overrides must return exactly
  /// the per-pair values Score() would, so batch composition is invisible
  /// to callers. Precondition: equal span lengths.
  virtual std::vector<double> ScorePairs(std::span<const UserId> users,
                                         std::span<const PoiId> pois) const {
    std::vector<double> out;
    out.reserve(pois.size());
    for (size_t i = 0; i < pois.size(); ++i) {
      out.push_back(Score(users[i], pois[i]));
    }
    return out;
  }
};

/// Configuration of the paper's §4.1 ranking protocol.
struct EvalConfig {
  /// Cutoffs reported (paper: 2, 4, 6, 8, 10).
  std::vector<size_t> ks = {2, 4, 6, 8, 10};
  /// Unvisited target-city POIs sampled per test user (paper: 100).
  size_t num_negatives = 100;
  uint64_t seed = 7;
  /// Worker threads for the scoring phase. 0 = DefaultNumThreads() (the
  /// STTR_NUM_THREADS environment variable, else hardware concurrency);
  /// 1 = fully sequential. Results are bit-identical across thread counts:
  /// negative sampling stays serial and per-user metrics are reduced in
  /// test-user order.
  size_t num_threads = 0;
};

/// Averaged metrics per cutoff, plus bookkeeping.
struct EvalResult {
  std::map<size_t, RankingMetrics> at_k;
  size_t num_users_evaluated = 0;

  const RankingMetrics& At(size_t k) const;
};

/// Runs the protocol: for each crossing-city test user, samples
/// `num_negatives` target-city POIs the user never visited, pools them with
/// the ground truth, ranks by scorer and averages the metrics over users.
/// Deterministic for a fixed config.seed (scorer permitting).
EvalResult EvaluateRanking(const Dataset& dataset, const CrossCitySplit& split,
                           const PoiScorer& scorer, const EvalConfig& config);

}  // namespace sttr

#endif  // STTR_EVAL_PROTOCOL_H_
