#include "baselines/ctlm.h"

#include "baselines/common.h"
#include "util/check.h"
#include "util/rng.h"

namespace sttr::baselines {

namespace {
/// Fixed prior probability that a token draws its word from the common
/// (transferable) distribution rather than the city-specific one.
constexpr double kCommonPrior = 0.7;
}  // namespace

Ctlm::Ctlm(size_t num_topics, size_t gibbs_iterations, double alpha,
           double beta, double gamma, double personal_weight, uint64_t seed)
    : num_topics_(num_topics),
      iterations_(gibbs_iterations),
      alpha_(alpha),
      beta_(beta),
      gamma_(gamma),
      personal_weight_(personal_weight),
      seed_(seed) {
  STTR_CHECK_GT(num_topics, 0u);
}

Status Ctlm::Fit(const Dataset& dataset, const CrossCitySplit& split) {
  dataset_ = &dataset;
  target_city_ = split.target_city;
  const auto docs = BuildUserDocuments(dataset, split);
  const size_t num_users = dataset.num_users();
  const size_t num_words = dataset.vocabulary().size();
  const size_t num_cities = dataset.num_cities();
  const size_t k = num_topics_;

  struct Token {
    uint32_t doc;
    uint32_t word;
    uint16_t city;
    uint16_t common;  // switch x: 1 = common distribution
    uint32_t topic;
  };
  std::vector<Token> tokens;
  for (size_t u = 0; u < docs.size(); ++u) {
    for (const DocToken& t : docs[u]) {
      tokens.push_back(Token{static_cast<uint32_t>(u),
                             static_cast<uint32_t>(t.word),
                             static_cast<uint16_t>(t.city), 0, 0});
    }
  }
  if (tokens.empty()) return Status::InvalidArgument("no training tokens");

  Rng rng(seed_);
  std::vector<int> ndk(num_users * k, 0);
  std::vector<int> n0kw(k * num_words, 0);  // common topic-word
  std::vector<int> n0k(k, 0);
  // Specific counts, flattened [city][topic][word].
  std::vector<int> nckw(num_cities * k * num_words, 0);
  std::vector<int> nck(num_cities * k, 0);
  // Switch counts per (city, topic).
  std::vector<int> s_common(num_cities * k, 0);
  std::vector<int> s_specific(num_cities * k, 0);

  auto add_token = [&](Token& t, int delta) {
    ndk[t.doc * k + t.topic] += delta;
    if (t.common) {
      n0kw[t.topic * num_words + t.word] += delta;
      n0k[t.topic] += delta;
      s_common[t.city * k + t.topic] += delta;
    } else {
      nckw[(t.city * k + t.topic) * num_words + t.word] += delta;
      nck[t.city * k + t.topic] += delta;
      s_specific[t.city * k + t.topic] += delta;
    }
  };

  for (Token& t : tokens) {
    t.topic = static_cast<uint32_t>(rng.UniformInt(k));
    t.common = static_cast<uint16_t>(rng.Bernoulli(0.5) ? 1 : 0);
    add_token(t, +1);
  }

  const double wbeta = static_cast<double>(num_words) * beta_;
  std::vector<double> p(2 * k);
  for (size_t it = 0; it < iterations_; ++it) {
    for (Token& t : tokens) {
      add_token(t, -1);
      double total = 0;
      for (size_t z = 0; z < k; ++z) {
        const double theta_term = ndk[t.doc * k + z] + alpha_;
        // Fixed switch prior P(common) = kCommonPrior. Inferring the switch
        // from counts is unstable here: a city-specific distribution has a
        // smaller support than the shared one, so its per-token likelihood
        // always wins and the chain collapses into per-city topic copies
        // (nothing transfers). A fixed prior keeps the common route alive;
        // genuinely city-bound words still prefer the specific route
        // because their common-likelihood is diluted across cities.
        p[2 * z] = theta_term * kCommonPrior *
                   (n0kw[z * num_words + t.word] + beta_) / (n0k[z] + wbeta);
        // x = city-specific.
        p[2 * z + 1] =
            theta_term * (1.0 - kCommonPrior) *
            (nckw[(t.city * k + z) * num_words + t.word] + beta_) /
            (nck[t.city * k + z] + wbeta);
        total += p[2 * z] + p[2 * z + 1];
      }
      double r = rng.Uniform() * total;
      size_t pick = 0;
      for (; pick + 1 < 2 * k; ++pick) {
        r -= p[pick];
        if (r <= 0) break;
      }
      t.topic = static_cast<uint32_t>(pick / 2);
      t.common = static_cast<uint16_t>(pick % 2 == 0 ? 1 : 0);
      add_token(t, +1);
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
  phi0_.assign(k, std::vector<double>(num_words, 0.0));
  for (size_t z = 0; z < k; ++z) {
    for (size_t w = 0; w < num_words; ++w) {
      phi0_[z][w] = (n0kw[z * num_words + w] + beta_) / (n0k[z] + wbeta);
    }
  }
  phi_spec_.assign(num_cities,
                   std::vector<std::vector<double>>(
                       k, std::vector<double>(num_words, 0.0)));
  p_common_.assign(num_cities, std::vector<double>(k, 0.5));
  for (size_t c = 0; c < num_cities; ++c) {
    for (size_t z = 0; z < k; ++z) {
      for (size_t w = 0; w < num_words; ++w) {
        phi_spec_[c][z][w] =
            (nckw[(c * k + z) * num_words + w] + beta_) /
            (nck[c * k + z] + wbeta);
      }
      const double sc = s_common[c * k + z];
      const double ss = s_specific[c * k + z];
      p_common_[c][z] = (sc + gamma_) / (sc + ss + 2.0 * gamma_);
    }
  }
  // Target-city crowd topic preferences (like ST-LDA's crowd term: the
  // original CTLM also mixes the local crowd's interests when ranking for
  // out-of-town visitors).
  crowd_.assign(k, 1.0 / static_cast<double>(k));
  double target_total = 0;
  std::vector<double> counts(k, 0.0);
  for (const Token& t : tokens) {
    if (static_cast<CityId>(t.city) == target_city_) {
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

double Ctlm::CommonProbability(size_t topic, CityId city) const {
  STTR_CHECK(fitted_);
  STTR_CHECK_LT(topic, num_topics_);
  return p_common_[static_cast<size_t>(city)][topic];
}

void Ctlm::ScorePairsInto(std::span<const UserId> users,
                          std::span<const PoiId> pois,
                          std::span<double> out) const {
  STTR_CHECK(fitted_) << "scoring before Fit()";
  ScoreEachPair(users, pois, out, [&](UserId user, PoiId poi) -> double {
    const auto& words = dataset_->poi(poi).words;
    if (words.empty()) return 0.0;
    const auto& theta = theta_[static_cast<size_t>(user)];
    double score = 0;
    for (size_t z = 0; z < num_topics_; ++z) {
      // Rank through the *common* distributions only: user interests live in
      // the transferable topics, while the target-specific distributions
      // mostly hold local landmark words that carry no preference signal
      // (this is the "transfer via common topics" mechanism of the original;
      // blending the specific distributions back in only adds noise).
      double mean_word = 0;
      for (WordId w : words) {
        mean_word += phi0_[z][static_cast<size_t>(w)];
      }
      mean_word /= static_cast<double>(words.size());
      const double mix =
          personal_weight_ * theta[z] + (1.0 - personal_weight_) * crowd_[z];
      score += mix * mean_word;
    }
    return score;
  });
}

}  // namespace sttr::baselines
