#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/common.h"
#include "baselines/crcf.h"
#include "baselines/ctlm.h"
#include "baselines/item_pop.h"
#include "baselines/lce.h"
#include "baselines/pace.h"
#include "baselines/pr_uidt.h"
#include "baselines/registry.h"
#include "baselines/sh_cdl.h"
#include "baselines/st_lda.h"
#include "data/synth/world_generator.h"
#include "util/string_util.h"

namespace sttr::baselines {
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

double Recall10(const Recommender& rec, const Fixture& f) {
  EvalConfig ec;
  return EvaluateRanking(f.world.dataset, f.split, rec, ec).At(10).recall;
}

TEST(TrainViewTest, CountsMatchSplit) {
  const auto& f = SharedFixture();
  const TrainView view = MakeTrainView(f.world.dataset, f.split);
  EXPECT_EQ(view.positives.size(), f.split.train.size());
  size_t pop_total = 0;
  for (size_t p : view.poi_popularity) pop_total += p;
  EXPECT_EQ(pop_total, f.split.train.size());
  EXPECT_EQ(view.city_pois.size(), f.world.dataset.num_cities());
}

TEST(TrainViewTest, UserPoisDeduplicated) {
  const auto& f = SharedFixture();
  const TrainView view = MakeTrainView(f.world.dataset, f.split);
  for (const auto& pois : view.user_pois) {
    for (size_t i = 1; i < pois.size(); ++i) {
      EXPECT_LT(pois[i - 1], pois[i]);
    }
  }
}

TEST(TfIdfTest, PoiVectorsAreUnitNorm) {
  const auto& f = SharedFixture();
  TfIdfModel tfidf(f.world.dataset);
  for (PoiId v = 0; v < 20; ++v) {
    double norm = 0;
    for (const auto& [w, x] : tfidf.PoiVector(v)) norm += x * x;
    EXPECT_NEAR(norm, 1.0, 1e-9);
  }
}

TEST(TfIdfTest, CosineOfIdenticalVectorsIsOne) {
  const auto& f = SharedFixture();
  TfIdfModel tfidf(f.world.dataset);
  EXPECT_NEAR(TfIdfModel::Cosine(tfidf.PoiVector(0), tfidf.PoiVector(0)),
              1.0, 1e-9);
}

TEST(TfIdfTest, UserProfileReflectsVisits) {
  const auto& f = SharedFixture();
  TfIdfModel tfidf(f.world.dataset);
  auto profile = tfidf.UserProfile({0});
  // Profile of just POI 0 must align best with POI 0 itself.
  EXPECT_NEAR(TfIdfModel::Cosine(profile, tfidf.PoiVector(0)), 1.0, 1e-9);
}

TEST(DocumentsTest, TokensCarryCityTags) {
  const auto& f = SharedFixture();
  const auto docs = BuildUserDocuments(f.world.dataset, f.split);
  EXPECT_EQ(docs.size(), f.world.dataset.num_users());
  size_t total = 0;
  for (const auto& d : docs) {
    for (const DocToken& t : d) {
      EXPECT_GE(t.word, 0);
      EXPECT_GE(t.city, 0);
      ++total;
    }
  }
  EXPECT_GT(total, f.split.train.size());  // several words per check-in
}

TEST(ItemPopTest, ScoreEqualsTrainPopularity) {
  const auto& f = SharedFixture();
  ItemPop pop;
  ASSERT_TRUE(pop.Fit(f.world.dataset, f.split).ok());
  std::vector<size_t> counts(f.world.dataset.num_pois(), 0);
  for (size_t idx : f.split.train) {
    counts[static_cast<size_t>(f.world.dataset.checkins()[idx].poi)] += 1;
  }
  for (PoiId v = 0; v < 30; ++v) {
    EXPECT_DOUBLE_EQ(pop.Score(1, v),
                     static_cast<double>(counts[static_cast<size_t>(v)]));
  }
}

TEST(ItemPopTest, UserIndependent) {
  const auto& f = SharedFixture();
  ItemPop pop;
  ASSERT_TRUE(pop.Fit(f.world.dataset, f.split).ok());
  EXPECT_DOUBLE_EQ(pop.Score(0, 5), pop.Score(42, 5));
}

TEST(ItemPopTest, BeatsRandom) {
  const auto& f = SharedFixture();
  ItemPop pop;
  ASSERT_TRUE(pop.Fit(f.world.dataset, f.split).ok());
  EXPECT_GT(Recall10(pop, f), 0.10);
}

TEST(CrcfTest, BeatsRandomAndIsPersonalised) {
  const auto& f = SharedFixture();
  Crcf crcf;
  ASSERT_TRUE(crcf.Fit(f.world.dataset, f.split).ok());
  EXPECT_GT(Recall10(crcf, f), 0.12);
  // Different users get different content scores somewhere.
  bool differs = false;
  for (PoiId v = 0; v < 20 && !differs; ++v) {
    differs = crcf.Score(f.split.test_users[0].user, v) !=
              crcf.Score(f.split.test_users[1].user, v);
  }
  EXPECT_TRUE(differs);
}

TEST(CrcfTest, LocationComponentFlatForCrossingUsers) {
  // The location preference needs the user's own target-city history;
  // crossing-city test users have none, so a pure-location CRCF cannot
  // distinguish target candidates for them (the paper's stated weakness).
  const auto& f = SharedFixture();
  Crcf pure_location(0.0);
  ASSERT_TRUE(pure_location.Fit(f.world.dataset, f.split).ok());
  const UserId crossing = f.split.test_users.front().user;
  const auto& pois = f.world.dataset.PoisInCity(0);
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(pure_location.Score(crossing, pois[0]),
                     pure_location.Score(crossing, pois[i]));
  }
}

TEST(CrcfTest, LocalsGetInformativeLocationScores) {
  const auto& f = SharedFixture();
  Crcf pure_location(0.0);
  ASSERT_TRUE(pure_location.Fit(f.world.dataset, f.split).ok());
  // Find a target-city local with training check-ins there.
  UserId local = -1;
  for (const User& u : f.world.dataset.users()) {
    if (u.home_city == 0) {
      local = u.id;
      break;
    }
  }
  ASSERT_GE(local, 0);
  const auto& pois = f.world.dataset.PoisInCity(0);
  bool differs = false;
  for (size_t i = 1; i < pois.size() && !differs; ++i) {
    differs = pure_location.Score(local, pois[0]) !=
              pure_location.Score(local, pois[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(LceTest, FitsAndImprovesReconstruction) {
  const auto& f = SharedFixture();
  Lce lce(16, 25, 1.0, 7);
  ASSERT_TRUE(lce.Fit(f.world.dataset, f.split).ok());
  const auto& hist = lce.loss_history();
  ASSERT_GE(hist.size(), 2u);
  EXPECT_LT(hist.back(), hist.front());
  EXPECT_GT(Recall10(lce, f), 0.10);
}

TEST(LceTest, ScoresNonNegative) {
  const auto& f = SharedFixture();
  Lce lce(8, 10, 1.0, 7);
  ASSERT_TRUE(lce.Fit(f.world.dataset, f.split).ok());
  for (PoiId v = 0; v < 25; ++v) {
    EXPECT_GE(lce.Score(0, v), 0.0);  // NMF factors are non-negative
  }
}

TEST(PrUidtTest, FitsAndScores) {
  const auto& f = SharedFixture();
  PrUidt model(16, 4);
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  const double s = model.Score(0, 0);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
  EXPECT_GT(Recall10(model, f), 0.10);
}

TEST(StLdaTest, TopicsSumToOne) {
  const auto& f = SharedFixture();
  StLda lda(8, 40);
  ASSERT_TRUE(lda.Fit(f.world.dataset, f.split).ok());
  for (const auto& theta : lda.user_topics()) {
    double sum = 0;
    for (double t : theta) sum += t;
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
  EXPECT_GT(Recall10(lda, f), 0.10);
}

TEST(CtlmTest, CommonProbabilityInUnitInterval) {
  const auto& f = SharedFixture();
  Ctlm ctlm(8, 40);
  ASSERT_TRUE(ctlm.Fit(f.world.dataset, f.split).ok());
  for (size_t t = 0; t < 8; ++t) {
    for (CityId c = 0; c < 2; ++c) {
      const double p = ctlm.CommonProbability(t, c);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(CtlmTest, CityWordsPreferSpecificDistributions) {
  // Landmark words appear in one city only, so the common distributions
  // should put less mass on them than on shared topic words.
  const auto& f = SharedFixture();
  Ctlm ctlm(8, 60);
  ASSERT_TRUE(ctlm.Fit(f.world.dataset, f.split).ok());
  const auto& vocab = f.world.dataset.vocabulary();
  double city_mass = 0, topic_mass = 0;
  size_t n_city = 0, n_topic = 0;
  for (size_t w = 0; w < vocab.size(); ++w) {
    double best = 0;
    for (const auto& phi : ctlm.common_phi()) {
      best = std::max(best, phi[w]);
    }
    const bool is_city_word =
        vocab.WordOf(static_cast<int64_t>(w)).find('_') != std::string::npos;
    if (is_city_word) {
      city_mass += best;
      ++n_city;
    } else {
      topic_mass += best;
      ++n_topic;
    }
  }
  ASSERT_GT(n_city, 0u);
  ASSERT_GT(n_topic, 0u);
  EXPECT_GT(topic_mass / static_cast<double>(n_topic),
            city_mass / static_cast<double>(n_city));
}

TEST(ShCdlTest, RepresentationsLearned) {
  const auto& f = SharedFixture();
  ShCdl::Config cfg;
  cfg.dae_epochs = 4;
  cfg.mf_epochs = 3;
  ShCdl model(cfg);
  ASSERT_TRUE(model.Fit(f.world.dataset, f.split).ok());
  const auto rep = model.PoiRepresentation(0);
  EXPECT_EQ(rep.size(), cfg.representation_dim);
  double norm = 0;
  for (float x : rep) norm += static_cast<double>(x) * x;
  EXPECT_GT(norm, 0.0);
  EXPECT_GT(Recall10(model, f), 0.10);
}

TEST(PaceTest, DisablesTransferAndResampling) {
  Pace pace;
  EXPECT_EQ(pace.name(), "PACE");
  EXPECT_FALSE(pace.inner().config().use_mmd);
  EXPECT_EQ(pace.inner().config().resample_alpha, 0.0);
  EXPECT_TRUE(pace.inner().config().use_geo_context);
  EXPECT_TRUE(pace.inner().config().use_text);
}

TEST(RegistryTest, AllComparisonMethodsConstruct) {
  for (const auto& name : ComparisonMethodNames()) {
    auto rec = MakeRecommender(name);
    ASSERT_TRUE(rec.ok()) << name;
    EXPECT_EQ((*rec)->name(), name);
  }
}

TEST(RegistryTest, AblationRosterConstructs) {
  for (const auto& name : AblationMethodNames()) {
    auto rec = MakeRecommender(name);
    ASSERT_TRUE(rec.ok()) << name;
    EXPECT_EQ((*rec)->name(), name);
  }
}

TEST(RegistryTest, EveryEntryPointAgreesBitForBit) {
  // Each method defines one function, ScorePairsInto; Score, ScoreBatch and
  // ScorePairs wrap it, and a single user id broadcasts over the POIs.
  const auto& f = SharedFixture();
  StTransRecConfig deep;
  deep.embedding_dim = 16;
  deep.hidden_dims = {32, 16};
  deep.num_epochs = 1;
  deep.batch_size = 64;
  deep.mmd_batch = 16;
  std::vector<std::string> names = ComparisonMethodNames();
  for (const auto& name : AblationMethodNames()) {
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
  const std::vector<PoiId>& pois =
      f.world.dataset.PoisInCity(f.split.target_city);
  const UserId u = f.split.test_users.front().user;
  const std::vector<UserId> same(pois.size(), u);
  std::vector<UserId> mixed(pois.size());
  for (size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = f.split.test_users[i % f.split.test_users.size()].user;
  }

  for (const auto& name : names) {
    SCOPED_TRACE(name);
    auto made = MakeRecommender(name, deep);
    ASSERT_TRUE(made.ok());
    const Recommender& rec = **made;
    ASSERT_TRUE((*made)->Fit(f.world.dataset, f.split).ok());

    const std::vector<double> batch = rec.ScoreBatch(u, pois);
    ASSERT_EQ(batch.size(), pois.size());
    std::vector<double> broadcast(pois.size(), -1.0);
    rec.ScorePairsInto({&u, 1}, pois, broadcast);
    EXPECT_EQ(broadcast, batch);
    EXPECT_EQ(rec.ScorePairs(same, pois), batch);
    const std::vector<double> pairs = rec.ScorePairs(mixed, pois);
    for (size_t i = 0; i < pois.size(); ++i) {
      ASSERT_EQ(batch[i], rec.Score(u, pois[i])) << "poi index " << i;
      ASSERT_EQ(pairs[i], rec.Score(mixed[i], pois[i])) << "pair " << i;
    }

    EXPECT_TRUE(rec.ScoreBatch(u, {}).empty());
    EXPECT_TRUE(rec.ScorePairs({}, {}).empty());
    rec.ScorePairsInto({&u, 1}, {}, {});
  }
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  auto rec = MakeRecommender("DeepFM");
  EXPECT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace sttr::baselines
