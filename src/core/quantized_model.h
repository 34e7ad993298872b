#ifndef STTR_CORE_QUANTIZED_MODEL_H_
#define STTR_CORE_QUANTIZED_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/st_transrec.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/fs.h"
#include "util/status.h"

namespace sttr {

/// Post-training quantization knobs.
struct QuantizationConfig {
  /// Scheme of the user/POI embedding tables. The layer-0 MLP weight is
  /// always symmetric (the v2 format stores no zero points for it).
  QuantScheme embedding_scheme = QuantScheme::kAffine;
  /// Store the fp32 MLP tail as fp16 in the checkpoint (halves its bytes;
  /// relative error <= 2^-11 per weight). The tail is widened back to fp32
  /// at load time — scoring maths is unchanged, only storage shrinks.
  bool fp16_tail = true;
  /// Completed-epoch count recorded in the artifact. -1 takes
  /// model.loss_history().size(), which is correct when quantizing straight
  /// after Fit(); a tool quantizing a *loaded* checkpoint (where the loss
  /// history was not restored) passes the source checkpoint's meta epoch.
  int64_t epoch = -1;
};

/// The int8 serving artifact of a fitted StTransRec: the in-memory form of
/// a v2 checkpoint. Int8 is a storage format only; nothing scores this
/// class. DequantizeInto() writes it back into a Prepare()d StTransRec,
/// which scores through the same tower as a model loaded from a training
/// checkpoint.
///
/// What is stored:
///   - user and POI embedding tables: per-row int8 (tensor/quant.h), the
///     dominant share of model bytes,
///   - the layer-0 MLP weight: per-output-column symmetric int8, stored
///     transposed so each output's column is one contiguous int8 row, plus
///     each row's sums over its user and POI halves (written and checked
///     on read; they are the artifact's consistency check on layer 0),
///   - layer 0's bias and the rest of the tower, fp32 or fp16.
/// The word table is dropped: it feeds the textual training loss, never
/// user x POI scoring.
///
/// Dequantized, the tables and W0 take their fp32 size again: the artifact
/// shrinks what is shipped and stored, not what a server holds resident.
class QuantizedModel {
 public:
  /// Quantizes a fitted model. When config.fp16_tail is set the tail is
  /// round-tripped through fp16 immediately, so the returned artifact
  /// dequantizes bit-identically to one loaded back from its own file.
  static StatusOr<QuantizedModel> Quantize(const StTransRec& model,
                                           const QuantizationConfig& config = {});

  /// Overwrites the user/POI tables (RowQuantizedMatrix::DequantizeRowInto),
  /// layer 0 (W0[c][j] = scale_j * q[j][c], b0) and the tail of `model`,
  /// which must be Prepare()d under the config and dataset the artifact was
  /// quantized from (same fingerprint), then marks the parameters final.
  /// The word table keeps whatever `model` held. All-or-nothing: a shape
  /// mismatch leaves `model` untouched.
  Status DequantizeInto(StTransRec& model) const;

  size_t num_users() const { return user_q_.rows; }
  size_t num_pois() const { return poi_q_.rows; }
  size_t embedding_dim() const { return dim_; }
  QuantScheme embedding_scheme() const { return user_q_.scheme; }
  bool fp16_tail() const { return fp16_tail_; }

  /// Completed training epochs of the source model (v1 "meta" semantics).
  uint64_t epoch() const { return epoch_; }

  /// ConfigFingerprint() of the source model, carried through the
  /// checkpoint so a quantized artifact can be matched against the config
  /// and dataset a server is configured for.
  const std::string& config_fingerprint() const { return fingerprint_; }

  /// Bytes of the two quantized embedding tables (the number to compare
  /// against fp32's 4 * rows * dim).
  size_t EmbeddingBytes() const;

  /// Writes a v2 serving checkpoint (kQuantCheckpointFormatVersion):
  /// sections "meta" and "config" keep their v1 meaning; the model lives in
  /// "quant_user" / "quant_poi" / "quant_mlp0" / "quant_tail". No
  /// optimizer/RNG state — this artifact serves, it does not resume.
  Status WriteCheckpointFile(Env& env, const std::string& path) const;

  /// Rebuilds the artifact from an already-parsed v2 container.
  static StatusOr<QuantizedModel> FromReader(const CheckpointReader& reader);

  /// Open + FromReader.
  static StatusOr<QuantizedModel> LoadFromCheckpoint(Env& env,
                                                     const std::string& path);

 private:
  QuantizedModel() = default;

  /// Shape/consistency checks shared by Quantize() and FromReader().
  Status Validate() const;

  RowQuantizedMatrix user_q_;
  RowQuantizedMatrix poi_q_;

  // Layer 0 of the tower: weight (2d, h0) stored TRANSPOSED as h0 int8 rows
  // of length 2d, symmetric per row (== per output column).
  RowQuantizedMatrix w0t_;
  std::vector<float> b0_;

  // fp32 tail, alternating (in,out) weight and (out) bias, ending with the
  // 1-logit output layer. Empty when hidden_dims is empty.
  std::vector<Tensor> tail_weights_;
  std::vector<Tensor> tail_biases_;

  size_t dim_ = 0;
  uint64_t epoch_ = 0;
  std::string fingerprint_;
  bool fp16_tail_ = false;
};

}  // namespace sttr

#endif  // STTR_CORE_QUANTIZED_MODEL_H_
