#ifndef STTR_CORE_DELTA_H_
#define STTR_CORE_DELTA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.h"
#include "util/fs.h"
#include "util/status.h"

namespace sttr {

/// Changed rows of one embedding table inside a delta checkpoint. `values`
/// is row-major with `rows.size() * dim` floats: values[i*dim .. i*dim+dim)
/// is the full new content of table row rows[i].
struct EmbeddingRowDelta {
  uint64_t dim = 0;
  std::vector<int64_t> rows;
  std::vector<float> values;

  size_t num_rows() const { return rows.size(); }
  const float* row_values(size_t i) const { return values.data() + i * dim; }
};

/// A v3 delta checkpoint: the rows of the user/POI/word embedding tables
/// the incremental trainer has touched since the base checkpoint, plus the
/// provenance needed to refuse applying it to anything else. Deltas are
/// *cumulative* against their base — delta seq N carries every row touched
/// since the base, so applying only the newest delta to a pristine copy of
/// the base (in any order, any number of times) reproduces the trainer's
/// exact state. That is what makes the serving-side double-buffered apply
/// idempotent and lets rotation delete older deltas freely.
struct DeltaCheckpoint {
  /// Completed epochs of the base checkpoint this delta patches.
  uint64_t base_epoch = 0;
  /// CRC32 of the base checkpoint's "model" section payload: binds the
  /// delta to the exact parameter bytes it was trained from, so a delta
  /// can never be applied to (or diffed against) a different base that
  /// happens to share the epoch number.
  uint32_t base_model_crc = 0;
  /// Delta sequence number, 1-based and strictly increasing per base.
  uint64_t seq = 0;
  /// Cumulative check-in events consumed since the base.
  uint64_t events_applied = 0;
  /// StTransRec::ConfigFingerprint() of the trainer; verified on apply.
  std::string config_fingerprint;

  EmbeddingRowDelta user;
  EmbeddingRowDelta poi;
  EmbeddingRowDelta word;

  /// When non-empty: a full refresh of the dense MLP parameters
  /// (concatenated Tensor::Serialize bytes, same layout as the tail of a
  /// v1 "model" section). Row-level cache invalidation is unsound for a
  /// dense refresh — every cached score depends on the tower — so a
  /// consumer seeing this must fall back to a wholesale flush. The default
  /// embedding-only incremental trainer never emits it.
  std::string dense_params;

  size_t total_rows() const {
    return user.num_rows() + poi.num_rows() + word.num_rows();
  }
};

/// Serialises `delta` as a v3 container (sections "delta_meta", "config",
/// "delta_rows_user"/"delta_rows_poi"/"delta_rows_word" and, when present,
/// "delta_dense") and writes it via AtomicWriteFile.
Status WriteDeltaCheckpoint(Env& env, const std::string& path,
                            const DeltaCheckpoint& delta);

/// Encodes without touching the filesystem (tests, ckpt_inspect).
std::string EncodeDeltaCheckpoint(const DeltaCheckpoint& delta);

/// Decodes a parsed v3 container. Rejects other versions, malformed row
/// sections, and row/value count mismatches.
StatusOr<DeltaCheckpoint> ParseDeltaCheckpoint(const CheckpointReader& reader);

/// Open + Parse + decode in one step.
StatusOr<DeltaCheckpoint> ReadDeltaCheckpoint(Env& env,
                                              const std::string& path);

// -- Delta directories -----------------------------------------------------------
// Deltas live in their own directory (conventionally "<ckpt_dir>/delta")
// with their own file-name shape, so FindLatestValidCheckpoint and
// checkpoint rotation never mistake one for a full checkpoint.

/// "delta-000007.sttr" for delta sequence number 7.
std::string DeltaFileName(uint64_t seq);

/// Parses the sequence number out of a DeltaFileName-shaped name; error for
/// temp files and foreign names.
StatusOr<uint64_t> ParseDeltaSeq(const std::string& filename);

/// Full path of the newest delta in `dir` that parses and passes every
/// checksum, newest-first with torn files skipped — the same crash-safety
/// contract as FindLatestValidCheckpoint. `applied` names a delta the
/// caller already read and applied: reaching it ends the scan, and it is
/// returned without being opened again.
StatusOr<std::string> FindLatestValidDelta(Env& env, const std::string& dir,
                                           std::string_view applied = {});

/// Deletes all but the `keep` newest deltas plus leftover temp files. Safe
/// because deltas are cumulative: the newest one alone reproduces the full
/// trainer state. keep == 0 is rejected.
Status RotateDeltas(Env& env, const std::string& dir, size_t keep);

}  // namespace sttr

#endif  // STTR_CORE_DELTA_H_
