#ifndef STTR_EVAL_FIDELITY_H_
#define STTR_EVAL_FIDELITY_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "eval/protocol.h"

namespace sttr {

/// Configuration of the quantization fidelity harness.
struct FidelityConfig {
  /// Cutoffs of the full-city ranking comparison.
  std::vector<size_t> ks = {5, 10};
  /// Settings of the sampled-negatives protocol run for both scorers
  /// (EvaluateRanking; deterministic for a fixed seed, so ref and candidate
  /// see identical negative samples).
  EvalConfig protocol;
  /// Cap on test users in the full-city sweep; 0 = all of them.
  size_t max_users = 0;
};

/// Per-cutoff comparison of a reference scorer against a candidate.
struct FidelityAtK {
  double hr_ref = 0.0;
  double hr_cand = 0.0;
  double ndcg_ref = 0.0;
  double ndcg_cand = 0.0;
  /// Mean |top-k(ref) intersect top-k(cand)| / k across users: 1.0 means the
  /// candidate surfaces exactly the same POIs.
  double overlap = 0.0;

  double hr_delta() const { return hr_cand - hr_ref; }
  double ndcg_delta() const { return ndcg_cand - ndcg_ref; }
};

/// Result of CompareScorers: how faithfully `cand` reproduces `ref`.
struct FidelityReport {
  std::map<size_t, FidelityAtK> at_k;
  size_t num_users = 0;
  /// All (user, candidate) scores compared for the delta statistics.
  size_t num_pairs_scored = 0;
  double max_abs_score_delta = 0.0;
  double mean_abs_score_delta = 0.0;
  /// The paper's sampled-negatives protocol, run for both scorers.
  EvalResult protocol_ref;
  EvalResult protocol_cand;

  /// Human-readable multi-line summary (the table EXPERIMENTS.md quotes).
  std::string ToString() const;
};

/// Fidelity harness for approximate inference paths (int8 quantization):
/// ranks EVERY target-city POI for each crossing-city test user under both
/// scorers and reports HR@K / NDCG@K for each, their deltas, top-k overlap,
/// and raw score-delta statistics, plus a run of the standard sampled-
/// negatives protocol for both. Rankings go through TopKByScore
/// (eval/protocol.h), the order the server ranks in.
FidelityReport CompareScorers(const Dataset& dataset,
                              const CrossCitySplit& split,
                              const PoiScorer& ref, const PoiScorer& cand,
                              const FidelityConfig& config = {});

}  // namespace sttr

#endif  // STTR_EVAL_FIDELITY_H_
