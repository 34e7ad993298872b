// StTransRec inference is the factorized, fused tower (st_transrec.h): the
// POI share of layer 0 precomputed per POI, the user share once per run of
// equal users, the remaining layers as fused GEMM + bias + ReLU in
// per-thread buffers. These tests pin its contracts: every entry point
// agrees bit for bit, the precomputed share tracks deltas exactly, the
// factorized form ranks like the concatenated form of Eq. (11), and a
// warmed thread allocates nothing but the returned scores.

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/delta.h"
#include "core/st_transrec.h"
#include "data/synth/world_generator.h"
#include "eval/fidelity.h"
#include "serve/alloc_hook.h"
#include "tensor/tensor_ops.h"

namespace sttr {
namespace {

struct Fixture {
  synth::SynthWorld world;
  CrossCitySplit split;
  std::unique_ptr<StTransRec> model;
};

/// A tiny world and a model with a four-layer tower, trained briefly.
const Fixture& Trained() {
  static const Fixture* f = [] {
    auto cfg = synth::SynthWorldConfig::FoursquareLike(synth::Scale::kTiny);
    auto* out = new Fixture{synth::GenerateWorld(cfg), {}, nullptr};
    out->split = MakeCrossCitySplit(out->world.dataset, cfg.target_city);
    StTransRecConfig mc;
    mc.embedding_dim = 16;
    mc.hidden_dims = {32, 16, 8};
    mc.num_epochs = 2;
    mc.batch_size = 64;
    mc.mmd_batch = 8;
    mc.num_train_workers = 1;
    out->model = std::make_unique<StTransRec>(mc);
    STTR_CHECK_OK(out->model->Fit(out->world.dataset, out->split));
    return out;
  }();
  return *f;
}

/// Every (test user, target-city POI) pair, users in runs.
void ServingPairs(const Fixture& f, std::vector<UserId>* users,
                  std::vector<PoiId>* pois) {
  for (const CrossCitySplit::TestUser& tu : f.split.test_users) {
    for (PoiId p : f.world.dataset.PoisInCity(f.split.target_city)) {
      users->push_back(tu.user);
      pois->push_back(p);
    }
  }
}

/// The (n, 2d) [user_row | poi_row] block of the concatenated input.
Tensor GatherConcat(const StTransRec& model, std::span<const UserId> users,
                    std::span<const PoiId> pois) {
  const Tensor& ut = model.UserEmbeddingTable();
  const Tensor& pt = model.PoiEmbeddingTable();
  const size_t d = ut.cols();
  Tensor h({pois.size(), 2 * d});
  for (size_t i = 0; i < pois.size(); ++i) {
    std::copy_n(ut.row(static_cast<size_t>(users[i])), d, h.row(i));
    std::copy_n(pt.row(static_cast<size_t>(pois[i])), d, h.row(i) + d);
  }
  return h;
}

/// The concatenated form of Eq. (11)-(12), kept only as this oracle: one
/// GEMM per layer over [x_u | x_v], then bias, ReLU and the sigmoid.
class ConcatOracle : public PoiScorer {
 public:
  explicit ConcatOracle(const StTransRec& model) : model_(model) {}

  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override {
    std::vector<UserId> each(pois.size());
    for (size_t i = 0; i < each.size(); ++i) {
      each[i] = users[users.size() == 1 ? 0 : i];
    }
    Tensor x = GatherConcat(model_, each, pois);
    const std::vector<ag::Variable> params = model_.Parameters();
    for (size_t p = model_.NumEmbeddingParameters(); p < params.size();
         p += 2) {
      x = AddRowBroadcast(ParallelMatMul(x, params[p].value()),
                          params[p + 1].value());
      if (p + 2 < params.size()) x = Relu(x);
    }
    for (size_t i = 0; i < out.size(); ++i) out[i] = SigmoidScalar(x[i]);
  }

 private:
  const StTransRec& model_;
};

TEST(InferenceTest, AllEntryPointsAgreeBitForBit) {
  const Fixture& f = Trained();
  const StTransRec& model = *f.model;
  std::vector<UserId> users;
  std::vector<PoiId> pois;
  ServingPairs(f, &users, &pois);
  // Interleave the users too, so runs of equal users are short.
  std::vector<UserId> mixed = users;
  std::vector<PoiId> mixed_pois = pois;
  for (size_t i = 1; i + 1 < mixed.size(); i += 3) {
    std::swap(mixed[i], mixed[mixed.size() - i]);
    std::swap(mixed_pois[i], mixed_pois[mixed_pois.size() - i]);
  }

  const std::vector<double> pairs = model.ScorePairs(users, pois);
  const std::vector<double> gathered =
      model.ScoreGatheredPairs(GatherConcat(model, users, pois));
  const std::vector<double> mixed_scores =
      model.ScorePairs(mixed, mixed_pois);
  const std::vector<double> mixed_gathered =
      model.ScoreGatheredPairs(GatherConcat(model, mixed, mixed_pois));
  ASSERT_EQ(pairs.size(), pois.size());
  for (size_t i = 0; i < pois.size(); ++i) {
    ASSERT_EQ(pairs[i], gathered[i]) << "pair " << i;
    ASSERT_EQ(mixed_scores[i], mixed_gathered[i]) << "mixed pair " << i;
    ASSERT_EQ(mixed_scores[i], model.Score(mixed[i], mixed_pois[i]));
  }
  const std::span<const PoiId> city =
      f.world.dataset.PoisInCity(f.split.target_city);
  for (size_t t = 0; t < f.split.test_users.size(); ++t) {
    const UserId u = f.split.test_users[t].user;
    const std::vector<double> batch = model.ScoreBatch(u, city);
    for (size_t j = 0; j < city.size(); ++j) {
      ASSERT_EQ(batch[j], pairs[t * city.size() + j]);
      ASSERT_EQ(batch[j], model.Score(u, city[j]));
    }
  }
}

TEST(InferenceTest, FactorizedMatchesConcatOracle) {
  const Fixture& f = Trained();
  const ConcatOracle oracle(*f.model);
  FidelityConfig cfg;
  cfg.ks = {10};
  const FidelityReport report = CompareScorers(
      f.world.dataset, f.split, oracle, *f.model, cfg);
  ASSERT_GT(report.num_pairs_scored, 0u);
  EXPECT_LE(report.max_abs_score_delta, 1e-5) << report.ToString();
  EXPECT_GE(report.at_k.at(10).overlap, 0.99) << report.ToString();
}

TEST(InferenceTest, PrecomputedShareAfterDeltaEqualsFullRebuild) {
  const Fixture& f = Trained();
  std::stringstream base;
  ASSERT_TRUE(f.model->Save(base).ok());
  const std::string base_bytes = base.str();

  auto load = [&](const std::string& bytes) {
    auto m = std::make_unique<StTransRec>(f.model->config());
    STTR_CHECK_OK(m->Prepare(f.world.dataset, f.split));
    std::istringstream in(bytes);
    STTR_CHECK_OK(m->Load(in));
    return m;
  };

  // Patch every third target-city POI and one user row.
  const std::span<const PoiId> city =
      f.world.dataset.PoisInCity(f.split.target_city);
  const size_t d = f.model->config().embedding_dim;
  DeltaCheckpoint delta;
  delta.config_fingerprint = f.model->ConfigFingerprint();
  delta.poi.dim = d;
  for (size_t j = 0; j < city.size(); j += 3) {
    delta.poi.rows.push_back(city[j]);
    for (size_t c = 0; c < d; ++c) {
      delta.poi.values.push_back(0.05f * std::sin(static_cast<float>(j + c)));
    }
  }
  delta.user.dim = d;
  delta.user.rows.push_back(f.split.test_users[0].user);
  for (size_t c = 0; c < d; ++c) delta.user.values.push_back(0.01f * c);

  std::unique_ptr<StTransRec> patched = load(base_bytes);
  // Score once so P exists and the delta patches its rows in place; the
  // rebuilt model computes all of P from the patched tables.
  patched->Score(f.split.test_users[0].user, city[0]);
  ASSERT_TRUE(patched->ApplyDelta(delta).ok());
  std::stringstream patched_params;
  ASSERT_TRUE(patched->Save(patched_params).ok());
  const std::unique_ptr<StTransRec> rebuilt = load(patched_params.str());

  std::vector<UserId> users;
  std::vector<PoiId> pois;
  ServingPairs(f, &users, &pois);
  const std::vector<double> before = f.model->ScorePairs(users, pois);
  const std::vector<double> after = patched->ScorePairs(users, pois);
  const std::vector<double> want = rebuilt->ScorePairs(users, pois);
  size_t moved = 0;
  for (size_t i = 0; i < pois.size(); ++i) {
    ASSERT_EQ(after[i], want[i]) << "pair " << i;
    moved += after[i] != before[i];
  }
  EXPECT_GT(moved, pois.size() / 4) << "the delta must move patched rows";
}

TEST(InferenceTest, ConcurrentFirstScorersAgree) {
  // A freshly loaded model has no P yet: several threads race to build
  // and publish it while scoring.
  const Fixture& f = Trained();
  std::stringstream params;
  ASSERT_TRUE(f.model->Save(params).ok());
  StTransRec model(f.model->config());
  ASSERT_TRUE(model.Prepare(f.world.dataset, f.split).ok());
  ASSERT_TRUE(model.Load(params).ok());
  std::vector<UserId> users;
  std::vector<PoiId> pois;
  ServingPairs(f, &users, &pois);
  const std::vector<double> want = f.model->ScorePairs(users, pois);

  std::vector<std::vector<double>> got(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] { got[t] = model.ScorePairs(users, pois); });
  }
  for (auto& t : threads) t.join();
  for (const auto& out : got) EXPECT_EQ(out, want);
}

TEST(InferenceDeathTest, ScoringAfterTrainingStepsWithoutReloadAborts) {
  const Fixture& f = Trained();
  StTransRec model(f.model->config());
  ASSERT_TRUE(model.Prepare(f.world.dataset, f.split).ok());
  std::stringstream params;
  ASSERT_TRUE(f.model->Save(params).ok());
  ASSERT_TRUE(model.Load(params).ok());
  Rng rng(5);
  model.ComputeGradients(model.SampleBatch(rng), rng);
  EXPECT_DEATH(model.Score(f.split.test_users[0].user, 0),
               "parameters moved");
}

TEST(InferenceTest, WarmedServingBatchAllocatesOnlyItsResult) {
  ASSERT_TRUE(serve::AllocHookActive());
  const Fixture& f = Trained();
  // The paper's tower at a full serving candidate set: 8,790 pairs.
  StTransRecConfig cfg = f.model->config();
  cfg.embedding_dim = 64;
  cfg.hidden_dims = {128, 64, 32, 16};
  StTransRec model(cfg);
  ASSERT_TRUE(model.Prepare(f.world.dataset, f.split).ok());
  std::stringstream params;
  ASSERT_TRUE(model.Save(params).ok());
  ASSERT_TRUE(model.Load(params).ok());

  constexpr size_t kPairs = 8790;
  const std::span<const PoiId> city =
      f.world.dataset.PoisInCity(f.split.target_city);
  std::vector<PoiId> pois(kPairs);
  for (size_t i = 0; i < kPairs; ++i) pois[i] = city[i % city.size()];
  const std::vector<UserId> one_user(kPairs, f.split.test_users[0].user);
  std::vector<UserId> two_users = one_user;
  std::fill(two_users.begin() + kPairs / 2, two_users.end(),
            f.split.test_users[1].user);

  for (const std::vector<UserId>& users : {one_user, two_users}) {
    const std::vector<double> warm = model.ScorePairs(users, pois);
    serve::ScopedAllocCount count;
    const std::vector<double> scores = model.ScorePairs(users, pois);
    EXPECT_EQ(count.Count(), 1u) << "only the returned vector";
    EXPECT_EQ(scores, warm);
  }
}

}  // namespace
}  // namespace sttr
