// Tests for the benchmark harness library itself (bench_util/sweep_util):
// the experiment drivers must be trustworthy before their outputs are.

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "bench/sweep_util.h"

namespace sttr::bench {
namespace {

TEST(BenchOptionsTest, ParsesAllFlags) {
  std::vector<const char*> argv = {"prog",           "--scale=tiny",
                                   "--seed=99",      "--epochs=3",
                                   "--negatives=50", "--out=out/x",
                                   "--verbose"};
  const BenchOptions opts = BenchOptions::Parse(
      static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  EXPECT_EQ(opts.scale, synth::Scale::kTiny);
  EXPECT_EQ(opts.seed, 99u);
  EXPECT_EQ(opts.epochs, 3u);
  EXPECT_EQ(opts.eval_negatives, 50u);
  EXPECT_EQ(opts.out_prefix, "out/x");
  EXPECT_TRUE(opts.verbose);
  EXPECT_EQ(opts.DeepConfig().num_epochs, 3u);
  EXPECT_EQ(opts.Eval().num_negatives, 50u);
}

TEST(BenchOptionsTest, DefaultsAreSaneForTheSuite) {
  std::vector<const char*> argv = {"prog"};
  const BenchOptions opts = BenchOptions::Parse(1, const_cast<char**>(argv.data()));
  EXPECT_EQ(opts.scale, synth::Scale::kSmall);
  EXPECT_EQ(opts.eval_negatives, 100u);  // the paper's protocol
}

TEST(BenchWorldTest, SeedOverrideChangesWorld) {
  BenchOptions a;
  a.scale = synth::Scale::kTiny;
  BenchOptions b = a;
  b.seed = 12345;
  const auto wa = MakeWorld("foursquare", a);
  const auto wb = MakeWorld("foursquare", b);
  bool differ = wa.world.dataset.num_checkins() !=
                wb.world.dataset.num_checkins();
  for (size_t i = 0;
       !differ && i < wa.world.dataset.num_checkins() &&
       i < wb.world.dataset.num_checkins();
       ++i) {
    differ = wa.world.dataset.checkins()[i].poi !=
             wb.world.dataset.checkins()[i].poi;
  }
  EXPECT_TRUE(differ);
}

TEST(RunMethodsTest, CollectsTimingAndMetrics) {
  BenchOptions opts;
  opts.scale = synth::Scale::kTiny;
  const auto ws = MakeWorld("foursquare", opts);
  const auto runs = RunMethods(ws.world.dataset, ws.split,
                               {"ItemPop", "CRCF"}, StTransRecConfig{},
                               opts.Eval(), /*verbose=*/false);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].name, "ItemPop");
  EXPECT_GE(runs[0].fit_seconds, 0.0);
  EXPECT_GT(runs[1].result.At(10).recall, 0.0);
}

TEST(SweepTest, RunsTinyParameterSweep) {
  BenchOptions opts;
  opts.scale = synth::Scale::kTiny;
  const auto ws = MakeWorld("foursquare", opts);
  StTransRecConfig base;
  base.embedding_dim = 4;
  base.hidden_dims = {8};
  base.num_epochs = 1;
  base.batch_size = 64;
  base.mmd_batch = 4;
  // Must complete without aborting and print a table for both points.
  RunParameterSweep(
      ws.world.dataset, ws.split, base, opts.Eval(), "alpha", {0.0, 0.1},
      [](double v, StTransRecConfig& cfg) { cfg.resample_alpha = v; }, {2},
      /*out_prefix=*/"", /*verbose=*/false);
  SUCCEED();
}

TEST(FormatMetricTest, FourDecimals) {
  EXPECT_EQ(FormatMetric(0.125), "0.1250");
  EXPECT_EQ(FormatMetric(0.0), "0.0000");
  EXPECT_EQ(FormatMetric(1.0), "1.0000");
  EXPECT_EQ(FormatMetric(0.33333333), "0.3333");
}

}  // namespace
}  // namespace sttr::bench
