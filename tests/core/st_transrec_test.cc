#include "core/st_transrec.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/synth/world_generator.h"

namespace sttr {
namespace {

struct Fixture {
  synth::SynthWorld world;
  CrossCitySplit split;
};

const Fixture& SharedFixture() {
  static const Fixture* f = [] {
    auto cfg = synth::SynthWorldConfig::FoursquareLike(synth::Scale::kTiny);
    auto* out = new Fixture{synth::GenerateWorld(cfg), {}};
    out->split = MakeCrossCitySplit(out->world.dataset, cfg.target_city);
    return out;
  }();
  return *f;
}

/// Small/fast config for tests.
StTransRecConfig TestConfig() {
  StTransRecConfig cfg;
  cfg.embedding_dim = 16;
  cfg.hidden_dims = {32, 16};
  cfg.num_epochs = 2;
  cfg.batch_size = 64;
  cfg.mmd_batch = 16;
  cfg.learning_rate = 1e-2f;
  return cfg;
}

TEST(StTransRecTest, VariantNames) {
  EXPECT_EQ(StTransRec(TestConfig()).name(), "ST-TransRec");
  EXPECT_EQ(StTransRec(MakeVariant1(TestConfig())).name(), "ST-TransRec-1");
  EXPECT_EQ(StTransRec(MakeVariant2(TestConfig())).name(), "ST-TransRec-2");
  EXPECT_EQ(StTransRec(MakeVariant3(TestConfig())).name(), "ST-TransRec-3");
}

TEST(StTransRecTest, VariantFactoriesFlipExactlyOneSwitch) {
  const auto base = TestConfig();
  const auto v1 = MakeVariant1(base);
  EXPECT_FALSE(v1.use_mmd);
  EXPECT_TRUE(v1.use_text);
  EXPECT_EQ(v1.resample_alpha, base.resample_alpha);
  const auto v2 = MakeVariant2(base);
  EXPECT_FALSE(v2.use_text);
  EXPECT_TRUE(v2.use_mmd);
  const auto v3 = MakeVariant3(base);
  EXPECT_EQ(v3.resample_alpha, 0.0);
  EXPECT_TRUE(v3.use_mmd);
}

TEST(StTransRecTest, FitProducesDecreasingLoss) {
  const auto& f = SharedFixture();
  auto cfg = TestConfig();
  cfg.num_epochs = 4;
  StTransRec model(cfg);
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  const auto& hist = model.loss_history();
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_LT(hist.back(), hist.front());
}

TEST(StTransRecTest, ScoresAreProbabilities) {
  const auto& f = SharedFixture();
  StTransRec model(TestConfig());
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  const UserId u = f.split.test_users.front().user;
  for (PoiId v : f.world.dataset.PoisInCity(0)) {
    const double s = model.Score(u, v);
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
  }
}

TEST(StTransRecTest, ScoreIsDeterministicAfterFit) {
  const auto& f = SharedFixture();
  StTransRec model(TestConfig());
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  const UserId u = f.split.test_users.front().user;
  const PoiId v = f.world.dataset.PoisInCity(0).front();
  EXPECT_DOUBLE_EQ(model.Score(u, v), model.Score(u, v));
}

TEST(StTransRecTest, BeatsRandomRanking) {
  const auto& f = SharedFixture();
  auto cfg = TestConfig();
  cfg.num_epochs = 10;
  StTransRec model(cfg);
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  EvalConfig ec;
  const EvalResult r = EvaluateRanking(f.world.dataset, f.split, model, ec);
  // Chance level for Recall@10 with 100 negatives is ~0.096.
  EXPECT_GT(r.At(10).recall, 0.11);
}

TEST(StTransRecTest, AllVariantsTrainAndScore) {
  const auto& f = SharedFixture();
  for (auto make : {&MakeVariant1, &MakeVariant2, &MakeVariant3}) {
    StTransRec model(make(TestConfig()));
    ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok()) << model.name();
    const UserId u = f.split.test_users.front().user;
    const PoiId v = f.world.dataset.PoisInCity(0).front();
    EXPECT_TRUE(std::isfinite(model.Score(u, v))) << model.name();
  }
}

TEST(StTransRecTest, GeoContextVariantTrains) {
  const auto& f = SharedFixture();
  auto cfg = TestConfig();
  cfg.use_geo_context = true;
  cfg.geo_neighbors = 3;
  StTransRec model(cfg);
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  Rng rng(1);
  const TrainingBatch batch = model.SampleBatch(rng);
  EXPECT_FALSE(batch.geo_pois_a.empty());
  EXPECT_EQ(batch.geo_pois_a.size(), batch.geo_pois_b.size());
}

TEST(StTransRecTest, SampleBatchShapes) {
  const auto& f = SharedFixture();
  auto cfg = TestConfig();
  StTransRec model(cfg);
  ASSERT_TRUE(model.Prepare(f.world.dataset, f.split).ok());
  Rng rng(2);
  const TrainingBatch batch = model.SampleBatch(rng);
  const size_t rows = cfg.batch_size * (1 + cfg.negatives_per_positive);
  EXPECT_EQ(batch.users.size(), rows);
  EXPECT_EQ(batch.pois.size(), rows);
  EXPECT_EQ(batch.labels.size(), rows);
  EXPECT_EQ(batch.sg_pois.size(),
            cfg.batch_size * (1 + cfg.word_negatives));
  EXPECT_EQ(batch.mmd_source.size(), cfg.mmd_batch);
  EXPECT_EQ(batch.mmd_target.size(), cfg.mmd_batch);
  // One in (1 + negatives) labels are positive.
  EXPECT_NEAR(batch.labels.Mean(), 1.0 / (1 + cfg.negatives_per_positive),
              1e-6);
}

TEST(StTransRecTest, NegativesAreUnvisitedSameCity) {
  const auto& f = SharedFixture();
  StTransRec model(TestConfig());
  ASSERT_TRUE(model.Prepare(f.world.dataset, f.split).ok());
  Rng rng(3);
  const TrainingBatch batch = model.SampleBatch(rng);
  for (size_t i = 0; i + 1 < batch.pois.size(); i += 5) {
    const CityId city = f.world.dataset.poi(batch.pois[i]).city;
    for (size_t j = 1; j <= 4; ++j) {
      EXPECT_EQ(f.world.dataset.poi(batch.pois[i + j]).city, city);
    }
  }
}

TEST(StTransRecTest, VariantThreeHasNoResampledPool) {
  const auto& f = SharedFixture();
  StTransRec with(TestConfig());
  StTransRec without(MakeVariant3(TestConfig()));
  ASSERT_TRUE(with.Prepare(f.world.dataset, f.split).ok());
  ASSERT_TRUE(without.Prepare(f.world.dataset, f.split).ok());
  // alpha=0 -> pool has exactly the raw check-ins; alpha>0 adds extras
  // whenever any region is below max density.
  size_t with_extra = 0;
  for (const auto& rs : with.resamplers()) with_extra += rs.TotalDeficit();
  EXPECT_GT(with_extra, 0u);
}

TEST(StTransRecTest, NaiveSegmentationUsesPerCellRegions) {
  const auto& f = SharedFixture();
  auto cfg = TestConfig();
  cfg.use_region_merging = false;
  StTransRec model(cfg);
  ASSERT_TRUE(model.Prepare(f.world.dataset, f.split).ok());
  // Every city with check-ins gets exactly grid_rows*grid_cols regions.
  const auto& rs = model.resamplers()[0];
  EXPECT_EQ(rs.stats().size(), cfg.grid_rows * cfg.grid_cols);
}

TEST(StTransRecTest, ComputeGradientsPopulatesLosses) {
  const auto& f = SharedFixture();
  StTransRec model(TestConfig());
  ASSERT_TRUE(model.Prepare(f.world.dataset, f.split).ok());
  Rng rng(4);
  const StepLosses losses = model.ComputeGradients(model.SampleBatch(rng),
                                                   rng);
  EXPECT_GT(losses.interaction, 0.0);
  EXPECT_GT(losses.text, 0.0);
  EXPECT_TRUE(std::isfinite(losses.mmd));
  const auto& cfg = TestConfig();
  EXPECT_NEAR(losses.total,
              losses.interaction + cfg.text_loss_weight * losses.text +
                  cfg.lambda_mmd * losses.mmd,
              0.05);
}

TEST(StTransRecTest, PoiEmbeddingHasConfiguredWidth) {
  const auto& f = SharedFixture();
  StTransRec model(TestConfig());
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  EXPECT_EQ(model.PoiEmbedding(0).size(), TestConfig().embedding_dim);
}

TEST(StTransRecTest, TextEmbeddingsClusterByTopic) {
  // After training, POIs sharing a topic should be closer in embedding
  // space than POIs of different topics (the word bridge at work).
  const auto& f = SharedFixture();
  auto cfg = TestConfig();
  cfg.num_epochs = 6;
  StTransRec model(cfg);
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());

  auto cosine = [](const std::vector<float>& a, const std::vector<float>& b) {
    double dot = 0, na = 0, nb = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      dot += static_cast<double>(a[i]) * b[i];
      na += static_cast<double>(a[i]) * a[i];
      nb += static_cast<double>(b[i]) * b[i];
    }
    return dot / (std::sqrt(na * nb) + 1e-12);
  };
  double same = 0, diff = 0;
  size_t n_same = 0, n_diff = 0;
  const auto& pois = f.world.dataset.pois();
  for (size_t i = 0; i < pois.size(); i += 3) {
    for (size_t j = i + 1; j < pois.size(); j += 7) {
      const double c = cosine(model.PoiEmbedding(pois[i].id),
                              model.PoiEmbedding(pois[j].id));
      if (f.world.truth.poi_topic[i] == f.world.truth.poi_topic[j]) {
        same += c;
        ++n_same;
      } else {
        diff += c;
        ++n_diff;
      }
    }
  }
  ASSERT_GT(n_same, 0u);
  ASSERT_GT(n_diff, 0u);
  EXPECT_GT(same / n_same, diff / n_diff);
}

TEST(StTransRecTest, EmptySplitIsInvalidArgument) {
  const auto& f = SharedFixture();
  CrossCitySplit empty;
  empty.target_city = 0;
  StTransRec model(TestConfig());
  const Status s = model.Fit(f.world.dataset, empty);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(StTransRecDeathTest, ScoreBeforeFitAborts) {
  StTransRec model(TestConfig());
  EXPECT_DEATH(model.Score(0, 0), "Fit");
}

TEST(StTransRecTest, ScoreBatchMatchesPerPairScoreExactly) {
  const auto& f = SharedFixture();
  StTransRec model(TestConfig());
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  const UserId u = f.split.test_users.front().user;
  const std::vector<PoiId>& candidates = f.world.dataset.PoisInCity(0);
  ASSERT_GT(candidates.size(), 1u);

  // The batched MLP tower (one N x D matmul per layer) must reproduce the
  // per-pair path bit for bit — the ranking protocol depends on it.
  const std::vector<double> batched = model.ScoreBatch(u, candidates);
  ASSERT_EQ(batched.size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(batched[i], model.Score(u, candidates[i])) << "poi index " << i;
  }
  // And against the mixed-user form, the user spelled out once per pair.
  const std::vector<UserId> users(candidates.size(), u);
  EXPECT_EQ(batched, model.ScorePairs(users, candidates));
}

TEST(StTransRecTest, ScoreBatchHandlesDegenerateSpans) {
  const auto& f = SharedFixture();
  StTransRec model(TestConfig());
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  const UserId u = f.split.test_users.front().user;
  EXPECT_TRUE(model.ScoreBatch(u, {}).empty());
  const PoiId v = f.world.dataset.PoisInCity(0).front();
  const std::vector<double> one = model.ScoreBatch(u, {&v, 1});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], model.Score(u, v));
}

TEST(StTransRecTest, RecommendTopKExcludes) {
  const auto& f = SharedFixture();
  StTransRec model(TestConfig());
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  const UserId u = f.split.test_users.front().user;
  auto top = model.RecommendTopK(f.world.dataset, 0, u, 5);
  EXPECT_EQ(top.size(), 5u);
  std::unordered_set<PoiId> exclude{top[0].first};
  auto filtered = model.RecommendTopK(f.world.dataset, 0, u, 5, &exclude);
  for (const auto& [poi, score] : filtered) EXPECT_NE(poi, top[0].first);
  // Scores sorted descending.
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
}

}  // namespace
}  // namespace sttr
