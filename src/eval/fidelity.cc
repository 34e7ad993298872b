#include "eval/fidelity.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "eval/metrics.h"
#include "util/check.h"

namespace sttr {

FidelityReport CompareScorers(const Dataset& dataset,
                              const CrossCitySplit& split,
                              const PoiScorer& ref, const PoiScorer& cand,
                              const FidelityConfig& config) {
  STTR_CHECK(!config.ks.empty()) << "FidelityConfig.ks must not be empty";
  const std::vector<PoiId>& candidates = dataset.PoisInCity(split.target_city);
  const size_t max_k = *std::max_element(config.ks.begin(), config.ks.end());

  FidelityReport report;
  for (size_t k : config.ks) report.at_k[k] = FidelityAtK{};

  double sum_abs_delta = 0.0;
  for (const CrossCitySplit::TestUser& tu : split.test_users) {
    if (config.max_users > 0 && report.num_users >= config.max_users) break;
    if (tu.ground_truth.empty() || candidates.empty()) continue;

    const std::vector<double> ref_scores = ref.ScoreBatch(tu.user, candidates);
    const std::vector<double> cand_scores =
        cand.ScoreBatch(tu.user, candidates);
    STTR_CHECK_EQ(ref_scores.size(), cand_scores.size());
    for (size_t i = 0; i < ref_scores.size(); ++i) {
      const double d = std::fabs(ref_scores[i] - cand_scores[i]);
      sum_abs_delta += d;
      report.max_abs_score_delta = std::max(report.max_abs_score_delta, d);
    }
    report.num_pairs_scored += ref_scores.size();

    const auto ref_top = TopKByScore(candidates, ref_scores, max_k);
    const auto cand_top = TopKByScore(candidates, cand_scores, max_k);
    const std::unordered_set<PoiId> truth(tu.ground_truth.begin(),
                                          tu.ground_truth.end());
    const std::vector<bool> ref_rel = RelevanceOf(ref_top, truth);
    const std::vector<bool> cand_rel = RelevanceOf(cand_top, truth);

    for (size_t k : config.ks) {
      FidelityAtK& at = report.at_k[k];
      at.hr_ref += HitRateAtK(ref_rel, k);
      at.hr_cand += HitRateAtK(cand_rel, k);
      at.ndcg_ref += NdcgAtK(ref_rel, truth.size(), k);
      at.ndcg_cand += NdcgAtK(cand_rel, truth.size(), k);
      const size_t depth = std::min(k, ref_top.size());
      std::unordered_set<PoiId> ref_set;
      ref_set.reserve(depth);
      for (size_t r = 0; r < depth; ++r) ref_set.insert(ref_top[r].first);
      size_t hits = 0;
      for (size_t r = 0; r < depth; ++r) {
        if (ref_set.count(cand_top[r].first) > 0) ++hits;
      }
      if (depth > 0) {
        at.overlap += static_cast<double>(hits) / static_cast<double>(depth);
      }
    }
    ++report.num_users;
  }

  if (report.num_users > 0) {
    const double denom = static_cast<double>(report.num_users);
    for (auto& [k, at] : report.at_k) {
      at.hr_ref /= denom;
      at.hr_cand /= denom;
      at.ndcg_ref /= denom;
      at.ndcg_cand /= denom;
      at.overlap /= denom;
    }
  }
  if (report.num_pairs_scored > 0) {
    report.mean_abs_score_delta =
        sum_abs_delta / static_cast<double>(report.num_pairs_scored);
  }

  report.protocol_ref = EvaluateRanking(dataset, split, ref, config.protocol);
  report.protocol_cand =
      EvaluateRanking(dataset, split, cand, config.protocol);
  return report;
}

std::string FidelityReport::ToString() const {
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "fidelity over %zu users, %zu scored pairs\n"
                "score delta: max=%.3e mean=%.3e\n",
                num_users, num_pairs_scored, max_abs_score_delta,
                mean_abs_score_delta);
  os << buf;
  os << "   k    HR(ref)   HR(cand)   dHR     NDCG(ref) NDCG(cand) dNDCG"
        "    overlap\n";
  for (const auto& [k, at] : at_k) {
    std::snprintf(buf, sizeof(buf),
                  "%4zu   %8.4f   %8.4f  %+7.4f   %8.4f   %8.4f  %+7.4f"
                  "   %7.4f\n",
                  k, at.hr_ref, at.hr_cand, at.hr_delta(), at.ndcg_ref,
                  at.ndcg_cand, at.ndcg_delta(), at.overlap);
    os << buf;
  }
  for (const auto& [k, m] : protocol_ref.at_k) {
    const RankingMetrics& c = protocol_cand.At(k);
    std::snprintf(buf, sizeof(buf),
                  "protocol@%-2zu  recall %.4f -> %.4f   ndcg %.4f -> %.4f\n",
                  k, m.recall, c.recall, m.ndcg, c.ndcg);
    os << buf;
  }
  return os.str();
}

}  // namespace sttr
