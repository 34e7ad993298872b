#include "baselines/st_lda.h"

#include <cmath>

#include "baselines/common.h"
#include "util/check.h"
#include "util/rng.h"

namespace sttr::baselines {

StLda::StLda(size_t num_topics, size_t gibbs_iterations, double alpha,
             double beta, double personal_weight, uint64_t seed)
    : num_topics_(num_topics),
      iterations_(gibbs_iterations),
      alpha_(alpha),
      beta_(beta),
      personal_weight_(personal_weight),
      seed_(seed) {
  STTR_CHECK_GT(num_topics, 0u);
  STTR_CHECK_GE(personal_weight, 0.0);
  STTR_CHECK_LE(personal_weight, 1.0);
}

Status StLda::Fit(const Dataset& dataset, const CrossCitySplit& split) {
  dataset_ = &dataset;
  const auto docs = BuildUserDocuments(dataset, split);
  const size_t num_users = dataset.num_users();
  const size_t num_words = dataset.vocabulary().size();
  const size_t k = num_topics_;

  // Flatten tokens for cache-friendly sweeps.
  struct Token {
    uint32_t doc;
    uint32_t word;
    uint8_t in_target;
    uint32_t topic;
  };
  std::vector<Token> tokens;
  for (size_t u = 0; u < docs.size(); ++u) {
    for (const DocToken& t : docs[u]) {
      tokens.push_back(Token{static_cast<uint32_t>(u),
                             static_cast<uint32_t>(t.word),
                             static_cast<uint8_t>(t.city == split.target_city),
                             0});
    }
  }
  if (tokens.empty()) return Status::InvalidArgument("no training tokens");

  Rng rng(seed_);
  std::vector<int> ndk(num_users * k, 0);   // doc-topic
  std::vector<int> nkw(k * num_words, 0);   // topic-word
  std::vector<int> nk(k, 0);                // topic totals
  for (Token& t : tokens) {
    t.topic = static_cast<uint32_t>(rng.UniformInt(k));
    ndk[t.doc * k + t.topic] += 1;
    nkw[t.topic * num_words + t.word] += 1;
    nk[t.topic] += 1;
  }

  // Collapsed Gibbs sweeps.
  const double wbeta = static_cast<double>(num_words) * beta_;
  std::vector<double> p(k);
  for (size_t it = 0; it < iterations_; ++it) {
    for (Token& t : tokens) {
      ndk[t.doc * k + t.topic] -= 1;
      nkw[t.topic * num_words + t.word] -= 1;
      nk[t.topic] -= 1;
      double total = 0;
      for (size_t z = 0; z < k; ++z) {
        p[z] = (ndk[t.doc * k + z] + alpha_) *
               (nkw[z * num_words + t.word] + beta_) / (nk[z] + wbeta);
        total += p[z];
      }
      double r = rng.Uniform() * total;
      size_t z = 0;
      for (; z + 1 < k; ++z) {
        r -= p[z];
        if (r <= 0) break;
      }
      t.topic = static_cast<uint32_t>(z);
      ndk[t.doc * k + z] += 1;
      nkw[z * num_words + t.word] += 1;
      nk[z] += 1;
    }
  }

  // Point estimates.
  theta_.assign(num_users, std::vector<double>(k, 0.0));
  for (size_t u = 0; u < num_users; ++u) {
    double len = 0;
    for (size_t z = 0; z < k; ++z) len += ndk[u * k + z];
    for (size_t z = 0; z < k; ++z) {
      theta_[u][z] =
          (ndk[u * k + z] + alpha_) / (len + static_cast<double>(k) * alpha_);
    }
  }
  phi_.assign(k, std::vector<double>(num_words, 0.0));
  for (size_t z = 0; z < k; ++z) {
    for (size_t w = 0; w < num_words; ++w) {
      phi_[z][w] = (nkw[z * num_words + w] + beta_) / (nk[z] + wbeta);
    }
  }

  // Target-city crowd preference: topic histogram of target tokens.
  crowd_.assign(k, 1.0 / static_cast<double>(k));
  double target_total = 0;
  std::vector<double> counts(k, 0.0);
  for (const Token& t : tokens) {
    if (t.in_target) {
      counts[t.topic] += 1;
      target_total += 1;
    }
  }
  if (target_total > 0) {
    for (size_t z = 0; z < k; ++z) {
      crowd_[z] = (counts[z] + alpha_) /
                  (target_total + static_cast<double>(k) * alpha_);
    }
  }
  fitted_ = true;
  return Status::OK();
}

void StLda::ScorePairsInto(std::span<const UserId> users,
                           std::span<const PoiId> pois,
                           std::span<double> out) const {
  STTR_CHECK(fitted_) << "scoring before Fit()";
  ScoreEachPair(users, pois, out, [&](UserId user, PoiId poi) -> double {
    const auto& words = dataset_->poi(poi).words;
    if (words.empty()) return 0.0;
    const auto& theta = theta_[static_cast<size_t>(user)];
    double score = 0;
    for (size_t z = 0; z < num_topics_; ++z) {
      double mean_phi = 0;
      for (WordId w : words) mean_phi += phi_[z][static_cast<size_t>(w)];
      mean_phi /= static_cast<double>(words.size());
      const double mix =
          personal_weight_ * theta[z] + (1.0 - personal_weight_) * crowd_[z];
      score += mix * mean_phi;
    }
    return score;
  });
}

}  // namespace sttr::baselines
