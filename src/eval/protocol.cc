#include "eval/protocol.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sttr {

namespace {

/// One test user's fully sampled candidate pool: everything the scoring
/// phase needs, so that phase is free of shared mutable state and can run
/// on any thread.
struct UserEvalTask {
  UserId user = -1;
  std::vector<PoiId> candidates;
  std::unordered_set<PoiId> truth;
};

/// Ranking order: higher score first, ties broken by smaller POI id. Total
/// order, so the top-k result is independent of candidate enumeration order.
inline bool RanksBefore(const std::pair<PoiId, double>& a,
                        const std::pair<PoiId, double>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

}  // namespace

void TopKByScoreInto(std::span<const PoiId> pois,
                     std::span<const double> scores, size_t k,
                     std::vector<std::pair<PoiId, double>>* out) {
  // Bounded selection: a size-k heap under RanksBefore, whose front is the
  // *worst* kept entry, so memory stays O(k) instead of materialising and
  // partial_sort-ing every candidate's (poi, score) pair.
  std::vector<std::pair<PoiId, double>>& heap = *out;
  heap.clear();
  if (k == 0 || pois.empty()) return;
  heap.reserve(std::min(k, pois.size()));
  for (size_t i = 0; i < pois.size(); ++i) {
    const std::pair<PoiId, double> entry{pois[i], scores[i]};
    if (heap.size() < k) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end(), RanksBefore);
    } else if (RanksBefore(entry, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), RanksBefore);
      heap.back() = entry;
      std::push_heap(heap.begin(), heap.end(), RanksBefore);
    }
  }
  // sort_heap yields ascending order under the comparator, which for
  // RanksBefore means best first — exactly the output contract.
  std::sort_heap(heap.begin(), heap.end(), RanksBefore);
}

std::vector<std::pair<PoiId, double>> TopKByScore(
    std::span<const PoiId> pois, std::span<const double> scores, size_t k) {
  std::vector<std::pair<PoiId, double>> top;
  TopKByScoreInto(pois, scores, k, &top);
  return top;
}

std::vector<bool> RelevanceOf(
    const std::vector<std::pair<PoiId, double>>& ranked,
    const std::unordered_set<PoiId>& truth) {
  std::vector<bool> relevance(ranked.size());
  for (size_t r = 0; r < ranked.size(); ++r) {
    relevance[r] = truth.count(ranked[r].first) > 0;
  }
  return relevance;
}

const RankingMetrics& EvalResult::At(size_t k) const {
  auto it = at_k.find(k);
  STTR_CHECK(it != at_k.end()) << "no metrics at k=" << k;
  return it->second;
}

EvalResult EvaluateRanking(const Dataset& dataset, const CrossCitySplit& split,
                           const PoiScorer& scorer, const EvalConfig& config) {
  STTR_CHECK(!config.ks.empty());
  STTR_CHECK_GT(config.num_negatives, 0u);
  Rng rng(config.seed);

  EvalResult result;
  for (size_t k : config.ks) result.at_k[k] = RankingMetrics{};

  const auto& target_pois = dataset.PoisInCity(split.target_city);
  // MetricsAtK reads only the first k ranks, so ranking the deepest cutoff
  // is enough.
  const size_t max_k = *std::max_element(config.ks.begin(), config.ks.end());

  // ---- Phase 1 (serial): sample each user's candidate pool. ------------------
  // Negative sampling consumes the single protocol RNG in test-user order,
  // exactly as the historical sequential loop did, so the pools — and hence
  // every downstream number — are independent of the thread count.
  std::vector<UserEvalTask> tasks;
  tasks.reserve(split.test_users.size());
  for (const auto& test_user : split.test_users) {
    if (test_user.ground_truth.empty()) continue;

    // POIs this user ever touched (train or test) are not negatives.
    std::unordered_set<PoiId> visited;
    for (size_t idx : dataset.CheckinsOfUser(test_user.user)) {
      visited.insert(dataset.checkins()[idx].poi);
    }

    UserEvalTask task;
    task.user = test_user.user;
    task.truth.insert(test_user.ground_truth.begin(),
                      test_user.ground_truth.end());

    // Candidate pool: ground truth + sampled unvisited target POIs.
    task.candidates = test_user.ground_truth;
    std::unordered_set<PoiId> chosen(task.truth.begin(), task.truth.end());
    size_t attempts = 0;
    const size_t max_attempts = 50 * config.num_negatives + target_pois.size();
    while (chosen.size() < task.truth.size() + config.num_negatives &&
           attempts < max_attempts) {
      ++attempts;
      const PoiId cand = target_pois[rng.UniformInt(target_pois.size())];
      if (visited.count(cand) || !chosen.insert(cand).second) continue;
      task.candidates.push_back(cand);
    }
    tasks.push_back(std::move(task));
  }

  // ---- Phase 2 (parallel): score and rank every user independently. ----------
  // Each task writes only its own per-user accumulator slot.
  std::vector<std::vector<RankingMetrics>> per_user(
      tasks.size(), std::vector<RankingMetrics>(config.ks.size()));
  const auto eval_one = [&](size_t t) {
    const UserEvalTask& task = tasks[t];
    const std::vector<double> scores =
        scorer.ScoreBatch(task.user, task.candidates);
    const std::vector<bool> relevance =
        RelevanceOf(TopKByScore(task.candidates, scores, max_k), task.truth);
    for (size_t ki = 0; ki < config.ks.size(); ++ki) {
      per_user[t][ki] = MetricsAtK(relevance, task.truth.size(),
                                   config.ks[ki]);
    }
  };

  const size_t threads =
      config.num_threads > 0 ? config.num_threads : DefaultNumThreads();
  if (threads <= 1 || tasks.size() <= 1 || ThreadPool::InWorker()) {
    for (size_t t = 0; t < tasks.size(); ++t) eval_one(t);
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(tasks.size(), eval_one);
  }

  // ---- Phase 3 (serial): reduce in test-user order. --------------------------
  // Same addition order as the sequential loop: bit-identical averages.
  for (size_t t = 0; t < tasks.size(); ++t) {
    for (size_t ki = 0; ki < config.ks.size(); ++ki) {
      result.at_k[config.ks[ki]] += per_user[t][ki];
    }
    result.num_users_evaluated += 1;
  }
  if (result.num_users_evaluated > 0) {
    for (auto& [k, m] : result.at_k) {
      m = m / static_cast<double>(result.num_users_evaluated);
    }
  }
  return result;
}

}  // namespace sttr
