#ifndef STTR_SERVE_EMBEDDING_STORE_H_
#define STTR_SERVE_EMBEDDING_STORE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>

#include "core/st_transrec.h"
#include "util/status.h"

namespace sttr::serve {

/// Which embedding table a gather addresses.
enum class EmbeddingTable : uint8_t { kUser = 0, kPoi = 1 };

/// Row gather over a resident fp32 model: Gather memcpys rows straight out
/// of the model's tables, so scoring gathered rows with
/// StTransRec::ScoreGatheredPairs is bit-identical to ScorePairsInto. Holds
/// a shared_ptr keepalive, mirroring how requests pin their snapshot.
///
/// Serving does not use it: `/recommend` scores in-process against the
/// snapshot's tables. It remains because perfbench's traced replay times a
/// cold request as gather -> ScoreGatheredPairs through it; it goes with
/// ScoreGatheredPairs once that replay times the served path instead.
class InProcessEmbeddingStore {
 public:
  explicit InProcessEmbeddingStore(std::shared_ptr<const StTransRec> model);

  /// Embedding dimension (columns of every row).
  size_t dim() const { return dim_; }

  /// Rows in `table`.
  size_t num_rows(EmbeddingTable table) const;

  /// Gathers rows `ids[i]` of `table` into `out + i * dim()`, in request
  /// order. Returns OutOfRange for an id outside the table; `out` contents
  /// are then unspecified. Never blocks, so `deadline` is not consulted.
  Status Gather(EmbeddingTable table, std::span<const int64_t> ids,
                float* out, std::chrono::steady_clock::time_point deadline);

 private:
  std::shared_ptr<const StTransRec> model_;
  const Tensor* user_table_;
  const Tensor* poi_table_;
  size_t dim_;
};

}  // namespace sttr::serve

#endif  // STTR_SERVE_EMBEDDING_STORE_H_
