// InProcessEmbeddingStore properties: it must hand back the snapshot's
// embedding rows byte-for-byte, and scoring through gathered rows must
// equal the direct ScoreBatch path exactly — what perfbench's traced
// replay of a cold request relies on.

#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "serve/embedding_store.h"
#include "serve_test_util.h"
#include "tensor/tensor.h"

namespace sttr::serve {
namespace {

/// The suite's small trained model, trained on first use and kept for the
/// life of the process (with the world it was trained on).
const std::shared_ptr<StTransRec>& Model() {
  static const ServeFixture* fixture = new ServeFixture(MakeServeFixture());
  static const auto* model =
      new std::shared_ptr<StTransRec>(TrainSmallModel(*fixture));
  return *model;
}

std::chrono::steady_clock::time_point Deadline() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(5);
}

TEST(EmbeddingStoreTest, InProcessGatherIsBitIdenticalToTables) {
  InProcessEmbeddingStore store(Model());
  const Tensor& users = Model()->UserEmbeddingTable();
  const Tensor& pois = Model()->PoiEmbeddingTable();
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

TEST(EmbeddingStoreTest, OutOfRangeIdsAreRejected) {
  InProcessEmbeddingStore store(Model());
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
// resident ScoreBatch path double-for-double — the equivalence
// perfbench's traced replay relies on.
TEST(EmbeddingStoreTest, ScoreViaGatherEqualsScoreBatch) {
  InProcessEmbeddingStore store(Model());
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

  const std::vector<double> via_store = Model()->ScoreGatheredPairs(h);
  const std::vector<double> direct = Model()->ScoreBatch(
      user, {candidates.data(), candidates.size()});
  ASSERT_EQ(via_store.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_store[i], direct[i]) << "candidate " << i;
  }
}

}  // namespace
}  // namespace sttr::serve
