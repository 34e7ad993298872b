#ifndef STTR_EVAL_PROTOCOL_H_
#define STTR_EVAL_PROTOCOL_H_

#include <map>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "util/check.h"

namespace sttr {

/// Scoring interface every recommender (ST-TransRec, its variants and all
/// baselines) implements. Higher scores rank earlier.
///
/// A scorer defines one function, ScorePairsInto(). Score(), ScoreBatch()
/// and ScorePairs() are wrappers over it. Each out[i] depends only on its
/// own (user, poi) pair, never on the rest of the batch, so every entry
/// point returns the same bits for the same pair. Scoring must be safe to
/// call concurrently after fitting: the evaluation protocol and the server
/// score from several threads at once.
class PoiScorer {
 public:
  virtual ~PoiScorer() = default;

  /// Writes the score of (users[i], pois[i]) into out[i]. `users` holds one
  /// id per POI, or a single id shared by all of them. Precondition:
  /// out.size() == pois.size().
  virtual void ScorePairsInto(std::span<const UserId> users,
                              std::span<const PoiId> pois,
                              std::span<double> out) const = 0;

  /// Preference score of `user` for `poi` in the target city.
  double Score(UserId user, PoiId poi) const {
    double score = 0.0;
    ScorePairsInto({&user, 1}, {&poi, 1}, {&score, 1});
    return score;
  }

  /// Scores one user against many candidate POIs, returned in input order.
  std::vector<double> ScoreBatch(UserId user,
                                 std::span<const PoiId> pois) const {
    std::vector<double> out(pois.size());
    ScorePairsInto({&user, 1}, pois, out);
    return out;
  }

  /// Scores heterogeneous (user, poi) pairs, returned in input order.
  /// Precondition: equal span lengths.
  std::vector<double> ScorePairs(std::span<const UserId> users,
                                 std::span<const PoiId> pois) const {
    STTR_CHECK_EQ(users.size(), pois.size());
    std::vector<double> out(pois.size());
    ScorePairsInto(users, pois, out);
    return out;
  }
};

/// ScorePairsInto() body of a scorer defined per pair:
/// out[i] = score(user of pair i, pois[i]).
template <typename PairScore>
void ScoreEachPair(std::span<const UserId> users, std::span<const PoiId> pois,
                   std::span<double> out, const PairScore& score) {
  STTR_CHECK(users.size() == pois.size() || users.size() == 1);
  STTR_CHECK_EQ(out.size(), pois.size());
  for (size_t i = 0; i < pois.size(); ++i) {
    out[i] = score(users[users.size() == 1 ? 0 : i], pois[i]);
  }
}

/// Bounded top-k selection over parallel (poi, score) arrays under the
/// canonical ranking order: higher score first, ties broken by smaller POI
/// id. The one definition of that order: the protocol, the fidelity
/// harness, RecommendTopK and the server all rank through it. Writes at
/// most k entries, best first, into `*out`, reusing its capacity.
void TopKByScoreInto(std::span<const PoiId> pois,
                     std::span<const double> scores, size_t k,
                     std::vector<std::pair<PoiId, double>>* out);

/// TopKByScoreInto() into a new vector.
std::vector<std::pair<PoiId, double>> TopKByScore(
    std::span<const PoiId> pois, std::span<const double> scores, size_t k);

/// relevance[r] = is the POI at rank r of `ranked` in `truth`: the list the
/// metrics in eval/metrics.h read.
std::vector<bool> RelevanceOf(
    const std::vector<std::pair<PoiId, double>>& ranked,
    const std::unordered_set<PoiId>& truth);

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
