#ifndef STTR_SERVE_EMBEDDING_STORE_H_
#define STTR_SERVE_EMBEDDING_STORE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>

#include "core/st_transrec.h"
#include "util/status.h"

namespace sttr::serve {

/// Which embedding table a gather addresses. The wire protocol
/// (shard_protocol.h) carries this as one byte.
enum class EmbeddingTable : uint8_t { kUser = 0, kPoi = 1 };

/// Sparse embedding lookup split out of the scoring path — the DeepRecSys /
/// DLRM decomposition: embedding tables too big for one node live behind
/// this interface while the (tiny) MLP tower stays with the request.
///
/// Two backends:
///   - InProcessEmbeddingStore: direct views over the snapshot's tables.
///     Bit-identical to the pre-store direct table access by construction —
///     the oracle every remote behaviour is tested against.
///   - ShardedEmbeddingStore (sharded_store.h): hash-sharded gather RPCs to
///     N shard-server processes, with deadlines, bounded retry and per-shard
///     health tracking. Returns either exactly the oracle's bytes or a
///     non-OK Status — never silently different rows.
///
/// Gather is the whole API on purpose: the narrower the seam, the easier
/// it is to prove the remote path equivalent. The recommend server does not
/// use a store (it scores in-process against the snapshot's tables); the
/// benchmarks and the tests drive it as a library.
class EmbeddingStore {
 public:
  virtual ~EmbeddingStore() = default;

  /// Embedding dimension (columns of every row this store serves).
  virtual size_t dim() const = 0;

  /// Rows in `table` across all shards.
  virtual size_t num_rows(EmbeddingTable table) const = 0;

  /// Gathers rows `ids[i]` of `table` into `out + i * dim()`, in request
  /// order. Returns non-OK when the rows could not all be fetched by
  /// `deadline` (remote backend: shard down or stalled, after bounded
  /// retries) — the caller owns the degradation policy; `out` contents are
  /// unspecified on failure. Thread-safe; never blocks past `deadline`.
  virtual Status Gather(EmbeddingTable table, std::span<const int64_t> ids,
                        float* out,
                        std::chrono::steady_clock::time_point deadline) = 0;
};

/// Direct-access backend over a resident fp32 model: Gather memcpys rows
/// straight out of the model's tables, so store-backed scoring is
/// bit-identical to the snapshot->scorer->ScorePairs path. Holds
/// a shared_ptr keepalive, mirroring how requests pin their snapshot.
class InProcessEmbeddingStore final : public EmbeddingStore {
 public:
  explicit InProcessEmbeddingStore(std::shared_ptr<const StTransRec> model);

  size_t dim() const override { return dim_; }
  size_t num_rows(EmbeddingTable table) const override;
  Status Gather(EmbeddingTable table, std::span<const int64_t> ids,
                float* out,
                std::chrono::steady_clock::time_point deadline) override;

 private:
  std::shared_ptr<const StTransRec> model_;
  const Tensor* user_table_;
  const Tensor* poi_table_;
  size_t dim_;
};

}  // namespace sttr::serve

#endif  // STTR_SERVE_EMBEDDING_STORE_H_
