#include "eval/protocol.h"

#include <unordered_set>
#include <utility>

#include <gtest/gtest.h>

#include "data/synth/world_generator.h"
#include "util/rng.h"

namespace sttr {
namespace {

struct Fixture {
  synth::SynthWorld world;
  CrossCitySplit split;
};

Fixture MakeFixture() {
  auto cfg = synth::SynthWorldConfig::FoursquareLike(synth::Scale::kTiny);
  Fixture f{synth::GenerateWorld(cfg), {}};
  f.split = MakeCrossCitySplit(f.world.dataset, cfg.target_city);
  return f;
}

/// Scores ground truth items above everything else.
class OracleScorer : public PoiScorer {
 public:
  explicit OracleScorer(const CrossCitySplit& split) {
    for (const auto& tu : split.test_users) {
      for (PoiId v : tu.ground_truth) truth_.insert({tu.user, v});
    }
  }
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override {
    ScoreEachPair(users, pois, out, [this](UserId user, PoiId poi) {
      return truth_.count({user, poi}) ? 1.0 : 0.0;
    });
  }

 private:
  struct Hash {
    size_t operator()(const std::pair<UserId, PoiId>& p) const {
      return std::hash<int64_t>()(p.first * 1000003 + p.second);
    }
  };
  std::unordered_set<std::pair<UserId, PoiId>, Hash> truth_;
};

/// Deterministic pseudo-random scores independent of relevance.
class RandomScorer : public PoiScorer {
 public:
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override {
    ScoreEachPair(users, pois, out, [](UserId user, PoiId poi) {
      uint64_t x = static_cast<uint64_t>(user) * 2654435761u +
                   static_cast<uint64_t>(poi) * 40503u;
      x ^= x >> 13;
      x *= 0x2545F4914F6CDD1DULL;
      return static_cast<double>(x >> 11) * 0x1.0p-53;
    });
  }
};

/// Scores worst-possible: ground truth at the bottom.
class AntiOracleScorer : public PoiScorer {
 public:
  explicit AntiOracleScorer(const CrossCitySplit& split)
      : oracle_(split) {}
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override {
    oracle_.ScorePairsInto(users, pois, out);
    for (double& score : out) score = -score;
  }

 private:
  OracleScorer oracle_;
};

TEST(ProtocolTest, OracleScoresPerfectly) {
  auto f = MakeFixture();
  EvalConfig cfg;
  const EvalResult r =
      EvaluateRanking(f.world.dataset, f.split, OracleScorer(f.split), cfg);
  EXPECT_EQ(r.num_users_evaluated, f.split.test_users.size());
  // Every ground-truth item ranks above all negatives.
  EXPECT_NEAR(r.At(10).ndcg, 1.0, 1e-9);
  EXPECT_NEAR(r.At(10).map, 1.0, 1e-9);
  EXPECT_GT(r.At(10).recall, 0.95);
}

TEST(ProtocolTest, AntiOracleScoresNearZeroAtSmallK) {
  auto f = MakeFixture();
  EvalConfig cfg;
  const EvalResult r = EvaluateRanking(f.world.dataset, f.split,
                                       AntiOracleScorer(f.split), cfg);
  EXPECT_LT(r.At(2).recall, 0.01);
  EXPECT_LT(r.At(2).ndcg, 0.01);
}

TEST(ProtocolTest, RandomScorerNearChance) {
  auto f = MakeFixture();
  EvalConfig cfg;
  const EvalResult r =
      EvaluateRanking(f.world.dataset, f.split, RandomScorer(), cfg);
  // With ~100 negatives + ~4 truths, Recall@10 for a random ranking is
  // roughly 10 / 104.
  EXPECT_NEAR(r.At(10).recall, 10.0 / 104.0, 0.08);
}

TEST(ProtocolTest, DeterministicForFixedSeed) {
  auto f = MakeFixture();
  EvalConfig cfg;
  const EvalResult a =
      EvaluateRanking(f.world.dataset, f.split, RandomScorer(), cfg);
  const EvalResult b =
      EvaluateRanking(f.world.dataset, f.split, RandomScorer(), cfg);
  for (size_t k : cfg.ks) {
    EXPECT_DOUBLE_EQ(a.At(k).recall, b.At(k).recall);
    EXPECT_DOUBLE_EQ(a.At(k).ndcg, b.At(k).ndcg);
  }
}

TEST(ProtocolTest, SeedChangesNegativeSamples) {
  auto f = MakeFixture();
  // Use few negatives: the tiny world's target city is small enough that
  // 100 negatives would deterministically exhaust the candidate pool.
  EvalConfig a_cfg;
  a_cfg.num_negatives = 15;
  EvalConfig b_cfg;
  b_cfg.num_negatives = 15;
  b_cfg.seed = a_cfg.seed + 1;
  const EvalResult a =
      EvaluateRanking(f.world.dataset, f.split, RandomScorer(), a_cfg);
  const EvalResult b =
      EvaluateRanking(f.world.dataset, f.split, RandomScorer(), b_cfg);
  bool any_diff = false;
  for (size_t k : a_cfg.ks) {
    any_diff |= a.At(k).recall != b.At(k).recall;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ProtocolTest, FewerNegativesRaisesScores) {
  auto f = MakeFixture();
  EvalConfig many;
  many.num_negatives = 100;
  EvalConfig few;
  few.num_negatives = 10;
  const EvalResult a =
      EvaluateRanking(f.world.dataset, f.split, RandomScorer(), many);
  const EvalResult b =
      EvaluateRanking(f.world.dataset, f.split, RandomScorer(), few);
  EXPECT_GT(b.At(10).recall, a.At(10).recall);
}

TEST(ProtocolTest, ParallelEvalBitIdenticalToSerial) {
  auto f = MakeFixture();
  EvalConfig serial;
  serial.num_threads = 1;
  EvalConfig sharded;
  sharded.num_threads = 4;
  const EvalResult a =
      EvaluateRanking(f.world.dataset, f.split, RandomScorer(), serial);
  const EvalResult b =
      EvaluateRanking(f.world.dataset, f.split, RandomScorer(), sharded);
  EXPECT_EQ(a.num_users_evaluated, b.num_users_evaluated);
  for (size_t k : serial.ks) {
    // Bit-identical, not just close: sampling stays serial and the metric
    // reduction runs in test-user order regardless of thread count.
    EXPECT_EQ(a.At(k).recall, b.At(k).recall);
    EXPECT_EQ(a.At(k).precision, b.At(k).precision);
    EXPECT_EQ(a.At(k).ndcg, b.At(k).ndcg);
    EXPECT_EQ(a.At(k).map, b.At(k).map);
  }
}

TEST(ProtocolTest, DefaultThreadCountMatchesSerial) {
  auto f = MakeFixture();
  EvalConfig serial;
  serial.num_threads = 1;
  EvalConfig defaulted;  // num_threads = 0 -> DefaultNumThreads()
  const EvalResult a =
      EvaluateRanking(f.world.dataset, f.split, RandomScorer(), serial);
  const EvalResult b =
      EvaluateRanking(f.world.dataset, f.split, RandomScorer(), defaulted);
  for (size_t k : serial.ks) {
    EXPECT_EQ(a.At(k).recall, b.At(k).recall);
    EXPECT_EQ(a.At(k).ndcg, b.At(k).ndcg);
  }
}

TEST(ProtocolTest, ScoreBatchMatchesScoreLoop) {
  // Both wrappers reach ScorePairsInto: the batch broadcasts one user, the
  // single score is a batch of one.
  RandomScorer scorer;
  std::vector<PoiId> pois = {4, 1, 9, 1, 0, 32};
  const std::vector<double> batch = scorer.ScoreBatch(7, pois);
  ASSERT_EQ(batch.size(), pois.size());
  const std::vector<UserId> users(pois.size(), 7);
  EXPECT_EQ(scorer.ScorePairs(users, pois), batch);
  for (size_t i = 0; i < pois.size(); ++i) {
    EXPECT_EQ(batch[i], scorer.Score(7, pois[i])) << "index " << i;
  }
}

TEST(ProtocolTest, CustomKs) {
  auto f = MakeFixture();
  EvalConfig cfg;
  cfg.ks = {1, 3};
  const EvalResult r =
      EvaluateRanking(f.world.dataset, f.split, OracleScorer(f.split), cfg);
  EXPECT_EQ(r.at_k.size(), 2u);
  EXPECT_NO_FATAL_FAILURE(r.At(1));
  EXPECT_DEATH(r.At(10), "no metrics");
}

}  // namespace
}  // namespace sttr
