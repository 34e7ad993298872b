
#include <cstdio>
#include "baselines/ctlm.h"
#include "baselines/st_lda.h"
#include "bench/bench_util.h"
using namespace sttr;

// Scores with pluggable formula to isolate the CTLM defect.
class CtlmProbe : public PoiScorer {
 public:
  CtlmProbe(const baselines::Ctlm& m, const Dataset& d, int mode)
      : m_(m), d_(d), mode_(mode) {}
  void ScorePairsInto(std::span<const UserId> users,
                      std::span<const PoiId> pois,
                      std::span<double> out) const override {
    ScoreEachPair(users, pois, out, [this](UserId user, PoiId poi) {
      return ScoreOne(user, poi);
    });
  }

 private:
  double ScoreOne(UserId user, PoiId poi) const {
    const auto& words = d_.poi(poi).words;
    const auto& theta = m_.user_topics()[static_cast<size_t>(user)];
    const size_t K = theta.size();
    double score = 0;
    for (size_t z = 0; z < K; ++z) {
      double mean_word = 0;
      for (WordId w : words) {
        const size_t wi = static_cast<size_t>(w);
        double phi = 0;
        if (mode_ == 0) {                       // common only
          phi = m_.common_phi()[z][wi];
        } else if (mode_ == 1) {                // spec only (target city 0)
          phi = m_.specific_phi()[0][z][wi];
        } else {                                // blend
          const double pc = m_.CommonProbability(z, 0);
          phi = pc * m_.common_phi()[z][wi] +
                (1 - pc) * m_.specific_phi()[0][z][wi];
        }
        mean_word += phi;
      }
      mean_word /= static_cast<double>(words.size());
      const double mix = 0.7 * theta[z] + 0.3 * m_.crowd()[z];
      score += mix * mean_word;
    }
    return score;
  }

  const baselines::Ctlm& m_;
  const Dataset& d_;
  int mode_;
};

int main(int argc, char** argv) {
  auto opts = bench::BenchOptions::Parse(argc, argv);
  auto ws = bench::MakeWorld("foursquare", opts);
  EvalConfig ec;
  baselines::Ctlm m(16, 120);
  STTR_CHECK_OK(m.Fit(ws.world.dataset, ws.split));
  for (int mode : {0, 1, 2}) {
    CtlmProbe probe(m, ws.world.dataset, mode);
    auto r = EvaluateRanking(ws.world.dataset, ws.split, probe, ec);
    std::printf("mode=%d R@10=%.4f\n", mode, r.At(10).recall);
  }
  // How much switch mass is common, per city?
  for (CityId c = 0; c < 2; ++c) {
    double avg = 0;
    for (size_t z = 0; z < 16; ++z) avg += m.CommonProbability(z, c);
    std::printf("city %d mean p_common = %.3f\n", c, avg / 16);
  }
  return 0;
}
