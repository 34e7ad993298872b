#include "tensor/tensor_ops.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace sttr {
namespace {

// Force a multi-worker global pool (unless the environment already pins
// one) so the ParallelMatMul tests exercise real cross-thread sharding
// even on single-core CI runners. Runs before main(), i.e. before the
// lazily-constructed pool reads the variable.
const int kForcePoolThreads = [] {
  setenv("STTR_NUM_THREADS", "4", /*overwrite=*/0);
  return 0;
}();

Tensor Naive(const Tensor& a, const Tensor& b) {
  Tensor c({a.rows(), b.cols()});
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (size_t k = 0; k < a.cols(); ++k) {
        s += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      c.at(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

Tensor Transpose(const Tensor& a) {
  Tensor t({a.cols(), a.rows()});
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

TEST(MatMulTest, SmallKnownProduct) {
  Tensor a({2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor b({2, 2}, std::vector<float>{5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 19);
  EXPECT_EQ(c.at(0, 1), 22);
  EXPECT_EQ(c.at(1, 0), 43);
  EXPECT_EQ(c.at(1, 1), 50);
}

struct MatDims {
  size_t n, k, m;
};

class MatMulSweep : public ::testing::TestWithParam<MatDims> {};

TEST_P(MatMulSweep, MatchesNaive) {
  const auto [n, k, m] = GetParam();
  Rng rng(n * 100 + k * 10 + m);
  Tensor a = Tensor::RandomNormal({n, k}, rng);
  Tensor b = Tensor::RandomNormal({k, m}, rng);
  EXPECT_TRUE(MatMul(a, b).AllClose(Naive(a, b), 1e-4, 1e-5));
}

TEST_P(MatMulSweep, TransAEqualsExplicitTranspose) {
  const auto [n, k, m] = GetParam();
  Rng rng(7 * n + k + m);
  Tensor a = Tensor::RandomNormal({n, k}, rng);
  Tensor b = Tensor::RandomNormal({n, m}, rng);
  EXPECT_TRUE(
      MatMulTransA(a, b).AllClose(Naive(Transpose(a), b), 1e-4, 1e-5));
}

TEST_P(MatMulSweep, TransBEqualsExplicitTranspose) {
  const auto [n, k, m] = GetParam();
  Rng rng(13 * n + k + m);
  Tensor a = Tensor::RandomNormal({n, k}, rng);
  Tensor b = Tensor::RandomNormal({m, k}, rng);
  EXPECT_TRUE(
      MatMulTransB(a, b).AllClose(Naive(a, Transpose(b)), 1e-4, 1e-5));
}

INSTANTIATE_TEST_SUITE_P(
    Dims, MatMulSweep,
    ::testing::Values(MatDims{1, 1, 1}, MatDims{2, 3, 4}, MatDims{5, 1, 7},
                      MatDims{8, 8, 8}, MatDims{17, 31, 9},
                      MatDims{64, 16, 32}));

// Shapes chosen to land on every path of the blocked kernel: exact
// row/column tile multiples, ragged row remainders, ragged column edges,
// and both at once.
INSTANTIATE_TEST_SUITE_P(
    TileEdges, MatMulSweep,
    ::testing::Values(MatDims{8, 8, 32}, MatDims{16, 5, 64},
                      MatDims{9, 7, 33}, MatDims{23, 31, 40},
                      MatDims{7, 12, 31}, MatDims{1, 64, 32},
                      MatDims{106, 13, 1}));

TEST(MatMulTest, DegenerateShapes) {
  // 0-row and 0-column operands must produce empty (but shaped) results.
  Rng rng(3);
  const Tensor b = Tensor::RandomNormal({4, 5}, rng);
  const Tensor c0 = MatMul(Tensor({0, 4}), b);
  EXPECT_EQ(c0.rows(), 0u);
  EXPECT_EQ(c0.cols(), 5u);
  const Tensor p0 = ParallelMatMul(Tensor({0, 4}), b);
  EXPECT_EQ(p0.rows(), 0u);

  const Tensor a = Tensor::RandomNormal({3, 4}, rng);
  const Tensor cm0 = MatMul(a, Tensor({4, 0}));
  EXPECT_EQ(cm0.rows(), 3u);
  EXPECT_EQ(cm0.cols(), 0u);

  // A single row exercises the remainder-row micro-kernel end to end.
  const Tensor one = Tensor::RandomNormal({1, 4}, rng);
  EXPECT_TRUE(MatMul(one, b).AllClose(Naive(one, b), 1e-5, 1e-6));
}

TEST(ParallelMatMulTest, BitIdenticalToSerialBelowGrain) {
  Rng rng(11);
  const Tensor a = Tensor::RandomNormal({13, 24}, rng);
  const Tensor b = Tensor::RandomNormal({24, 37}, rng);
  const Tensor serial = MatMul(a, b);
  const Tensor parallel = ParallelMatMul(a, b);
  ASSERT_TRUE(serial.SameShape(parallel));
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "element " << i;
  }
}

TEST(ParallelMatMulTest, BitIdenticalToSerialAboveGrain) {
  // 128*128*128 = 2M multiply-adds: over the dispatch threshold, so this
  // goes through the sharded path whenever the pool has >1 worker. Row
  // shards are kRowTile-aligned, so results must match serial bit for bit.
  Rng rng(12);
  const Tensor a = Tensor::RandomNormal({128, 128}, rng);
  const Tensor b = Tensor::RandomNormal({128, 128}, rng);
  const Tensor serial = MatMul(a, b);
  const Tensor parallel = ParallelMatMul(a, b);
  ASSERT_TRUE(serial.SameShape(parallel));
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "element " << i;
  }
}

TEST(ParallelMatMulTest, RaggedShapeAboveGrain) {
  // Non-multiple-of-tile rows and columns through the parallel dispatch.
  Rng rng(13);
  const Tensor a = Tensor::RandomNormal({107, 129}, rng);
  const Tensor b = Tensor::RandomNormal({129, 83}, rng);
  const Tensor serial = MatMul(a, b);
  const Tensor parallel = ParallelMatMul(a, b);
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "element " << i;
  }
  EXPECT_TRUE(serial.AllClose(Naive(a, b), 1e-3, 1e-4));
}

// The fused epilogue against the unfused chain it replaces, over row counts
// around the 8-row tile (and a full serving candidate set) and column
// counts around the 32-wide tile.
class GemmIntoTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(GemmIntoTest, FusedBiasReluEqualsUnfusedChainBitForBit) {
  const size_t n = std::get<0>(GetParam());
  const size_t m = std::get<1>(GetParam());
  const size_t k = 64;
  Rng rng(17 + n + m);
  // Operands are the right half of a (n, 2k) block (lda = 2k), as in the
  // factorized layer 0.
  const Tensor wide = Tensor::RandomNormal({n, 2 * k}, rng);
  const Tensor a = SliceCols(wide, k, 2 * k);
  const Tensor w = Tensor::RandomNormal({k, m}, rng);
  const Tensor bias = Tensor::RandomNormal({m}, rng);
  const Tensor product = ParallelMatMul(a, w);
  const Tensor with_bias = AddRowBroadcast(product, bias);
  const Tensor with_relu = Relu(with_bias);

  struct Case {
    GemmEpilogue epilogue;
    const Tensor* want;
  };
  const Case cases[] = {{{}, &product},
                        {{bias.data(), false}, &with_bias},
                        {{bias.data(), true}, &with_relu}};
  for (const Case& c : cases) {
    std::vector<float> pooled(n * m, -1.0f);
    GemmInto(wide.data() + k, 2 * k, n, k, w.data(), m, c.epilogue,
             pooled.data());
    // On a pool worker GemmInto takes its serial path at every size.
    std::vector<float> serial(n * m, -1.0f);
    ThreadPool one(1);
    one.Submit([&] {
      GemmInto(wide.data() + k, 2 * k, n, k, w.data(), m, c.epilogue,
               serial.data());
    });
    one.Wait();
    for (size_t i = 0; i < n * m; ++i) {
      ASSERT_EQ(pooled[i], c.want->data()[i]) << "pooled, element " << i;
      ASSERT_EQ(serial[i], c.want->data()[i]) << "serial, element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmIntoTest,
    ::testing::Combine(::testing::Values(1, 7, 8, 9, 8790),
                       ::testing::Values(1, 16, 32, 33, 128)));

// GemmInto against the per-element contract written out as a plain triple
// loop: C[i][j] = MulAdd chain over increasing k from 0, then + bias[j],
// then ReLU. Every column count from 1 to 40 (each mix of 32-wide and
// 16/8/4/2/1-wide strips) plus 64 and 128, row counts around the row tiles,
// a row stride wider than k, and a k large enough that the pooled call
// really shards.
class GemmContractTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GemmContractTest, EqualsMulAddTripleLoopBitForBit) {
  const size_t m = GetParam();
  for (const size_t k : {size_t{5}, size_t{600}}) {
    const size_t lda = k + 3;
    for (const size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                           size_t{257}}) {
      Rng rng(1000 * m + 10 * n + k);
      const Tensor a = Tensor::RandomNormal({n, lda}, rng);
      const Tensor w = Tensor::RandomNormal({k, m}, rng);
      const Tensor bias = Tensor::RandomNormal({m}, rng);
      std::vector<float> want(n * m);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < m; ++j) {
          float acc = 0.0f;
          for (size_t kk = 0; kk < k; ++kk) {
            acc = MulAdd(a.data()[i * lda + kk], w.data()[kk * m + j], acc);
          }
          float x = acc + bias.data()[j];
          if (x < 0) x = 0;
          want[i * m + j] = x;
        }
      }
      const GemmEpilogue epilogue{bias.data(), true};
      std::vector<float> pooled(n * m, -1.0f);
      GemmInto(a.data(), lda, n, k, w.data(), m, epilogue, pooled.data());
      // On a pool worker GemmInto takes its serial path at every size.
      std::vector<float> serial(n * m, -1.0f);
      ThreadPool one(1);
      one.Submit([&] {
        GemmInto(a.data(), lda, n, k, w.data(), m, epilogue, serial.data());
      });
      one.Wait();
      for (size_t i = 0; i < n * m; ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(pooled[i]),
                  std::bit_cast<uint32_t>(want[i]))
            << "pooled n=" << n << " k=" << k << " element " << i;
        ASSERT_EQ(std::bit_cast<uint32_t>(serial[i]),
                  std::bit_cast<uint32_t>(want[i]))
            << "serial n=" << n << " k=" << k << " element " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, GemmContractTest,
    ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                      17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
                      31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 64, 128));

TEST(MatMulTest, ShapeMismatchAborts) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_DEATH(MatMul(a, b), "inner");
}

TEST(ElementwiseTest, AddSubMulScale) {
  Tensor a({2}, std::vector<float>{1, 2});
  Tensor b({2}, std::vector<float>{3, 5});
  EXPECT_EQ(Add(a, b)[1], 7);
  EXPECT_EQ(Sub(a, b)[0], -2);
  EXPECT_EQ(Mul(a, b)[1], 10);
  EXPECT_EQ(Scale(a, -2.0f)[0], -2);
}

TEST(BroadcastTest, AddRowBroadcast) {
  Tensor x({2, 3}, std::vector<float>{0, 0, 0, 1, 1, 1});
  Tensor bias({3}, std::vector<float>{10, 20, 30});
  Tensor y = AddRowBroadcast(x, bias);
  EXPECT_EQ(y.at(0, 2), 30);
  EXPECT_EQ(y.at(1, 0), 11);
}

TEST(ReduceTest, ColSum) {
  Tensor x({3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor s = ColSum(x);
  EXPECT_EQ(s[0], 9);
  EXPECT_EQ(s[1], 12);
}

TEST(RowwiseDotTest, MatchesManual) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b({2, 3}, std::vector<float>{1, 0, 1, 0, 1, 0});
  Tensor d = RowwiseDot(a, b);
  EXPECT_EQ(d[0], 4);
  EXPECT_EQ(d[1], 5);
}

TEST(ConcatSliceTest, RoundTrip) {
  Rng rng(5);
  Tensor a = Tensor::RandomNormal({4, 3}, rng);
  Tensor b = Tensor::RandomNormal({4, 2}, rng);
  Tensor c = ConcatCols(a, b);
  EXPECT_EQ(c.cols(), 5u);
  EXPECT_TRUE(SliceCols(c, 0, 3).AllClose(a, 0, 0));
  EXPECT_TRUE(SliceCols(c, 3, 5).AllClose(b, 0, 0));
}

TEST(GatherScatterTest, GatherPicksRows) {
  Tensor table({3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(table, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.at(0, 1), 6);
  EXPECT_EQ(g.at(1, 0), 1);
  EXPECT_EQ(g.at(2, 0), 5);
}

TEST(GatherScatterTest, ScatterAccumulatesDuplicates) {
  Tensor dest({3, 2});
  Tensor src({2, 2}, std::vector<float>{1, 1, 2, 2});
  ScatterRowsAdd(dest, {1, 1}, src);
  EXPECT_EQ(dest.at(1, 0), 3);
  EXPECT_EQ(dest.at(0, 0), 0);
}

TEST(GatherScatterTest, AdjointProperty) {
  // <Gather(T, idx), S> == <T, Scatter(idx, S)> — gather/scatter must be
  // adjoint for the autograd embedding backward to be correct.
  Rng rng(9);
  Tensor table = Tensor::RandomNormal({6, 4}, rng);
  std::vector<int64_t> idx = {5, 0, 3, 3, 1};
  Tensor s = Tensor::RandomNormal({5, 4}, rng);
  const Tensor g = GatherRows(table, idx);
  double lhs = 0;
  for (size_t i = 0; i < g.size(); ++i) lhs += static_cast<double>(g[i]) * s[i];
  Tensor scat({6, 4});
  ScatterRowsAdd(scat, idx, s);
  double rhs = 0;
  for (size_t i = 0; i < scat.size(); ++i) {
    rhs += static_cast<double>(scat[i]) * table[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(GatherScatterTest, OutOfRangeAborts) {
  Tensor table({3, 2});
  EXPECT_DEATH(GatherRows(table, {3}), "");
  EXPECT_DEATH(GatherRows(table, {-1}), "");
}

TEST(ActivationTest, ReluClampsNegatives) {
  Tensor x({4}, std::vector<float>{-1, 0, 2, -0.5});
  Tensor y = Relu(x);
  EXPECT_EQ(y[0], 0);
  EXPECT_EQ(y[1], 0);
  EXPECT_EQ(y[2], 2);
  EXPECT_EQ(y[3], 0);
}

TEST(ActivationTest, SigmoidValues) {
  EXPECT_FLOAT_EQ(SigmoidScalar(0.0f), 0.5f);
  EXPECT_NEAR(SigmoidScalar(2.0f), 1.0f / (1.0f + std::exp(-2.0f)), 1e-6);
  // Extreme inputs must not overflow.
  EXPECT_NEAR(SigmoidScalar(100.0f), 1.0f, 1e-6);
  EXPECT_NEAR(SigmoidScalar(-100.0f), 0.0f, 1e-6);
}

TEST(ActivationTest, LogSigmoidStable) {
  EXPECT_NEAR(LogSigmoid(0.0f), std::log(0.5), 1e-6);
  // Large negative arguments: log sigmoid(x) ~ x.
  EXPECT_NEAR(LogSigmoid(-50.0f), -50.0f, 1e-4);
  // Large positive arguments: ~ 0 but finite.
  EXPECT_GT(LogSigmoid(80.0f), -1e-6);
  EXPECT_LE(LogSigmoid(80.0f), 0.0f);
}

TEST(ActivationTest, TanhMatchesStd) {
  Tensor x({3}, std::vector<float>{-1, 0, 1});
  Tensor y = TanhT(x);
  EXPECT_NEAR(y[0], std::tanh(-1.0f), 1e-6);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_NEAR(y[2], std::tanh(1.0f), 1e-6);
}

}  // namespace
}  // namespace sttr
