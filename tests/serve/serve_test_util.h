#ifndef STTR_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define STTR_TESTS_SERVE_SERVE_TEST_UTIL_H_

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/st_transrec.h"
#include "data/split.h"
#include "data/synth/world_generator.h"
#include "scratch_dir.h"
#include "util/check.h"

namespace sttr::serve {

/// Per-test scratch directory private to this process (outside a test
/// body, e.g. in SetUpTestSuite, one per suite). See ScratchDir.
inline std::string ServeTestDir() {
  return testing_util::TestScratchDir("sttr_serve");
}

struct ServeFixture {
  synth::SynthWorld world;
  CrossCitySplit split;
};

inline ServeFixture MakeServeFixture() {
  auto cfg = synth::SynthWorldConfig::FoursquareLike(synth::Scale::kTiny);
  ServeFixture f{synth::GenerateWorld(cfg), {}};
  f.split = MakeCrossCitySplit(f.world.dataset, cfg.target_city);
  return f;
}

/// Small-and-deterministic model config (one in-process worker) that trains
/// on the tiny world in well under a second.
inline StTransRecConfig SmallServingModelConfig() {
  StTransRecConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_dims = {16};
  cfg.num_epochs = 2;
  cfg.batch_size = 32;
  cfg.mmd_batch = 8;
  cfg.num_train_workers = 1;
  return cfg;
}

/// Parses the "results" array of a /recommend response.
inline std::vector<std::pair<PoiId, double>> ParseResults(const std::string& body) {
  std::vector<std::pair<PoiId, double>> out;
  size_t pos = body.find("\"results\"");
  STTR_CHECK_NE(pos, std::string::npos) << body;
  while ((pos = body.find("{\"poi\": ", pos)) != std::string::npos) {
    long long poi = 0;
    double score = 0;
    STTR_CHECK_EQ(std::sscanf(body.c_str() + pos, "{\"poi\": %lld, \"score\": %lf",
                              &poi, &score),
                  2)
        << body.substr(pos, 60);
    out.emplace_back(static_cast<PoiId>(poi), score);
    ++pos;
  }
  return out;
}

/// Trains a model, writing checkpoints into `ckpt_dir` when non-empty.
inline std::shared_ptr<StTransRec> TrainSmallModel(
    const ServeFixture& f, const std::string& ckpt_dir = "") {
  StTransRecConfig cfg = SmallServingModelConfig();
  cfg.checkpoint_dir = ckpt_dir;
  auto model = std::make_shared<StTransRec>(cfg);
  STTR_CHECK_OK(model->Fit(f.world.dataset, f.split));
  return model;
}

}  // namespace sttr::serve

#endif  // STTR_TESTS_SERVE_SERVE_TEST_UTIL_H_
