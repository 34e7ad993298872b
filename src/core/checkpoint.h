#ifndef STTR_CORE_CHECKPOINT_H_
#define STTR_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/fs.h"
#include "util/status.h"

namespace sttr {

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `data`, continuing from
/// `seed` (pass the previous result to checksum in pieces).
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

// -- Little-endian scalar packing -------------------------------------------------
// Helpers shared by everything that builds or parses checkpoint sections.
// Readers consume from the front of a string_view and return false on
// truncation instead of reading past the end.

void AppendU32(std::string& out, uint32_t v);
void AppendU64(std::string& out, uint64_t v);
void AppendDouble(std::string& out, double v);
bool ReadU32(std::string_view& in, uint32_t* v);
bool ReadU64(std::string_view& in, uint64_t* v);
bool ReadDouble(std::string_view& in, double* v);
bool ReadBytes(std::string_view& in, size_t n, std::string_view* v);

// -- Container format versions ----------------------------------------------------
// v1: fp32 training checkpoints (model + optimizer + RNG streams + loss
//     history). Every pre-quantization file is v1 and always will be —
//     training keeps writing v1 so older builds can still read it.
// v2: quantized serving artifacts (int8 tables + quant MLP sections, no
//     optimizer/RNG state). Bumped so a pre-quantization reader rejects
//     them cleanly ("unsupported format version 2") instead of
//     misinterpreting sections it has never heard of.
// v3: delta checkpoints (core/delta.h): row-level embedding updates against
//     a named v1 base, published by the streaming ingest trainer. Same
//     bump rationale — a pre-streaming reader refuses them instead of
//     mistaking the row sections for a full model.
inline constexpr uint32_t kCheckpointFormatVersion = 1;
inline constexpr uint32_t kQuantCheckpointFormatVersion = 2;
inline constexpr uint32_t kDeltaCheckpointFormatVersion = 3;
inline constexpr uint32_t kMaxSupportedCheckpointVersion = 3;

/// One named blob inside a checkpoint file.
struct CheckpointSection {
  std::string name;
  std::string payload;
  uint32_t crc = 0;  // CRC32 of payload (filled by Writer/Reader)
};

/// Builds a versioned checkpoint container:
///
///   magic "STTRCKP1" | u32 version | u32 section_count |
///   per section: u32 name_len | name | u64 payload_len | payload | u32 crc32
///
/// Every section is length-prefixed and checksummed so that truncation and
/// bit-rot anywhere in the file surface as Status errors on read, never as
/// silently wrong parameters.
class CheckpointWriter {
 public:
  /// `version` is the container format version stamped into the header;
  /// training checkpoints use the v1 default, quantized serving artifacts
  /// pass kQuantCheckpointFormatVersion.
  explicit CheckpointWriter(uint32_t version = kCheckpointFormatVersion)
      : version_(version) {}

  void AddSection(std::string name, std::string payload);

  /// Serialised container bytes.
  std::string Encode() const;

  /// Encodes and writes atomically via AtomicWriteFile.
  Status WriteTo(Env& env, const std::string& path) const;

 private:
  uint32_t version_ = kCheckpointFormatVersion;
  std::vector<CheckpointSection> sections_;
};

/// Parses and fully verifies a checkpoint container: magic, version, every
/// section header, every length, every CRC. A reader that parses OK
/// guarantees all payloads are intact.
class CheckpointReader {
 public:
  /// `max_supported_version` rejects containers newer than the caller
  /// understands ("unsupported format version N"). The default accepts
  /// everything this build knows; passing kCheckpointFormatVersion
  /// reproduces (and tests) the pre-quantization reader's behaviour on a
  /// v2 file.
  static StatusOr<CheckpointReader> Parse(
      std::string bytes,
      uint32_t max_supported_version = kMaxSupportedCheckpointVersion);
  static StatusOr<CheckpointReader> Open(
      Env& env, const std::string& path,
      uint32_t max_supported_version = kMaxSupportedCheckpointVersion);

  const std::vector<CheckpointSection>& sections() const { return sections_; }
  bool HasSection(std::string_view name) const;

  /// Payload of section `name`; NotFound when absent.
  StatusOr<std::string> Section(std::string_view name) const;

  uint32_t version() const { return version_; }

 private:
  uint32_t version_ = 0;
  std::vector<CheckpointSection> sections_;
};

// -- Checkpoint directories -------------------------------------------------------

/// "ckpt-000042.sttr" for epoch 42. Epochs count completed training epochs.
std::string CheckpointFileName(size_t epoch);

/// Parses the epoch out of a CheckpointFileName-shaped name; error for
/// temp files and foreign names.
StatusOr<size_t> ParseCheckpointEpoch(const std::string& filename);

/// Full path of the newest checkpoint in `dir` that parses and passes every
/// checksum. Corrupt or torn files are skipped (newest-first), so after a
/// crash this finds the last durable state. NotFound when the directory
/// holds no valid checkpoint.
///
/// A poller passes what it already holds, so that a poll with nothing new
/// opens no file. `verified` names a file the caller read and checked
/// earlier (the one it serves): reaching it ends the scan, and it is
/// returned without being opened again. Files with an epoch below
/// `min_epoch` are not considered. Every newer file is still fully
/// verified. The price is that a served file corrupted in place on disk
/// goes unnoticed: the scan does not fall back past it to an older
/// checkpoint, so the caller keeps what it loaded instead of rolling back.
StatusOr<std::string> FindLatestValidCheckpoint(Env& env,
                                                const std::string& dir,
                                                std::string_view verified = {},
                                                size_t min_epoch = 0);

/// Deletes all but the `keep` newest checkpoints (by epoch) plus any
/// leftover temp files. keep == 0 is rejected.
Status RotateCheckpoints(Env& env, const std::string& dir, size_t keep);

}  // namespace sttr

#endif  // STTR_CORE_CHECKPOINT_H_
