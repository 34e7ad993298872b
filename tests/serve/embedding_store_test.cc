// EmbeddingStore oracle properties: the in-process backend must hand back
// the snapshot's embedding rows byte-for-byte, scoring through gathered
// rows must equal the direct ScoreBatch path exactly, and BuildShardSlice
// must partition the tables so that reassembling shard rows reproduces the
// original bytes — the foundation the sharded backend's bit-identity
// guarantee is proven against.

#include <chrono>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "serve/embedding_store.h"
#include "serve/shard_server.h"
#include "serve_test_util.h"
#include "tensor/tensor.h"

namespace sttr::serve {
namespace {

class EmbeddingStoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new ServeFixture(MakeServeFixture());
    model_ = new std::shared_ptr<StTransRec>(TrainSmallModel(*fixture_));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete fixture_;
    model_ = nullptr;
    fixture_ = nullptr;
  }

  static std::chrono::steady_clock::time_point Deadline() {
    return std::chrono::steady_clock::now() + std::chrono::seconds(5);
  }

  static ServeFixture* fixture_;
  static std::shared_ptr<StTransRec>* model_;
};

ServeFixture* EmbeddingStoreTest::fixture_ = nullptr;
std::shared_ptr<StTransRec>* EmbeddingStoreTest::model_ = nullptr;

TEST_F(EmbeddingStoreTest, InProcessGatherIsBitIdenticalToTables) {
  InProcessEmbeddingStore store(*model_);
  const Tensor& users = (*model_)->UserEmbeddingTable();
  const Tensor& pois = (*model_)->PoiEmbeddingTable();
  ASSERT_EQ(store.dim(), users.cols());
  ASSERT_EQ(store.num_rows(EmbeddingTable::kUser), users.rows());
  ASSERT_EQ(store.num_rows(EmbeddingTable::kPoi), pois.rows());

  // Out-of-order, with repeats: rows must land in request order.
  const std::vector<int64_t> ids = {
      3, 0, static_cast<int64_t>(pois.rows()) - 1, 3, 7};
  std::vector<float> out(ids.size() * store.dim());
  ASSERT_TRUE(store.Gather(EmbeddingTable::kPoi, ids, out.data(), Deadline())
                  .ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(std::memcmp(out.data() + i * store.dim(),
                          pois.row(static_cast<size_t>(ids[i])),
                          store.dim() * sizeof(float)),
              0)
        << "row " << i << " (id " << ids[i] << ")";
  }
}

TEST_F(EmbeddingStoreTest, OutOfRangeIdsAreRejected) {
  InProcessEmbeddingStore store(*model_);
  std::vector<float> out(2 * store.dim());
  const auto deadline = Deadline();
  const std::vector<int64_t> past_end = {
      0, static_cast<int64_t>(store.num_rows(EmbeddingTable::kUser))};
  EXPECT_FALSE(store.Gather(EmbeddingTable::kUser, past_end, out.data(),
                            deadline)
                   .ok());
  const std::vector<int64_t> negative = {-1};
  EXPECT_FALSE(store.Gather(EmbeddingTable::kUser, negative, out.data(),
                            deadline)
                   .ok());
}

// The serving decomposition: gather [user | poi] rows through the store,
// score the assembled matrix with ScoreGatheredPairs. Must equal the
// resident ScoreBatch path double-for-double — the equivalence any
// store-backed scorer (and perfbench's traced replay) relies on.
TEST_F(EmbeddingStoreTest, ScoreViaGatherEqualsScoreBatch) {
  InProcessEmbeddingStore store(*model_);
  const size_t d = store.dim();
  const UserId user = 3;
  std::vector<PoiId> candidates;
  for (PoiId p = 0;
       p < static_cast<PoiId>(store.num_rows(EmbeddingTable::kPoi));
       p += 3) {
    candidates.push_back(p);
  }

  std::vector<float> user_row(d);
  const std::vector<int64_t> user_ids = {user};
  ASSERT_TRUE(store.Gather(EmbeddingTable::kUser, user_ids, user_row.data(),
                           Deadline())
                  .ok());
  std::vector<float> poi_rows(candidates.size() * d);
  const std::vector<int64_t> poi_ids(candidates.begin(), candidates.end());
  ASSERT_TRUE(store.Gather(EmbeddingTable::kPoi, poi_ids, poi_rows.data(),
                           Deadline())
                  .ok());

  Tensor h({candidates.size(), 2 * d});
  for (size_t i = 0; i < candidates.size(); ++i) {
    float* dst = h.row(i);
    std::memcpy(dst, user_row.data(), d * sizeof(float));
    std::memcpy(dst + d, poi_rows.data() + i * d, d * sizeof(float));
  }

  const std::vector<double> via_store = (*model_)->ScoreGatheredPairs(h);
  const std::vector<double> direct = (*model_)->ScoreBatch(
      user, {candidates.data(), candidates.size()});
  ASSERT_EQ(via_store.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_store[i], direct[i]) << "candidate " << i;
  }
}

// Slices must partition each table: every global row in exactly one slice,
// at its quotient index, byte-identical to the source table.
TEST_F(EmbeddingStoreTest, BuildShardSlicePartitionsTheTables) {
  const Tensor& users = (*model_)->UserEmbeddingTable();
  const Tensor& pois = (*model_)->PoiEmbeddingTable();
  for (size_t num_shards : {1u, 2u, 3u}) {
    std::vector<ShardSlice> slices;
    slices.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      slices.push_back(BuildShardSlice(**model_, s, num_shards));
      EXPECT_EQ(slices.back().dim, users.cols());
      EXPECT_EQ(slices.back().total_users, users.rows());
      EXPECT_EQ(slices.back().total_pois, pois.rows());
      EXPECT_EQ(slices.back().user_rows.size(),
                ShardRowCount(users.rows(), s, num_shards) * users.cols());
      EXPECT_EQ(slices.back().poi_rows.size(),
                ShardRowCount(pois.rows(), s, num_shards) * pois.cols());
    }
    const size_t d = users.cols();
    for (size_t g = 0; g < pois.rows(); ++g) {
      const ShardSlice& slice =
          slices[ShardOfId(static_cast<int64_t>(g), num_shards)];
      const size_t local =
          ShardLocalIndex(static_cast<int64_t>(g), num_shards);
      ASSERT_EQ(std::memcmp(slice.poi_rows.data() + local * d, pois.row(g),
                            d * sizeof(float)),
                0)
          << "poi row " << g << " across " << num_shards << " shards";
    }
    for (size_t g = 0; g < users.rows(); ++g) {
      const ShardSlice& slice =
          slices[ShardOfId(static_cast<int64_t>(g), num_shards)];
      const size_t local =
          ShardLocalIndex(static_cast<int64_t>(g), num_shards);
      ASSERT_EQ(std::memcmp(slice.user_rows.data() + local * d, users.row(g),
                            d * sizeof(float)),
                0)
          << "user row " << g << " across " << num_shards << " shards";
    }
  }
}

}  // namespace
}  // namespace sttr::serve
