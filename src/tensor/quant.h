#ifndef STTR_TENSOR_QUANT_H_
#define STTR_TENSOR_QUANT_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace sttr {

/// Per-row quantization scheme of a RowQuantizedMatrix.
enum class QuantScheme : uint8_t {
  /// x ~ scale * q, zero point fixed at 0. Best for zero-centred data
  /// (Gaussian-initialised embeddings); wastes half the range on skewed
  /// rows.
  kSymmetric = 0,
  /// x ~ scale * (q - zero_point): the full int8 range covers exactly
  /// [row_min, row_max].
  kAffine = 1,
};

const char* QuantSchemeName(QuantScheme scheme);

/// A row-major fp32 matrix quantized to int8 with one scale (and, for
/// kAffine, one zero point) per row. Values are clamped to [-127, 127] —
/// never -128 — so the code range is symmetric about zero.
///
/// Dequantization: x = scale[r] * (q - zero_point[r]), with zero_point == 0
/// everywhere under kSymmetric (the vector is not stored).
struct RowQuantizedMatrix {
  size_t rows = 0;
  size_t cols = 0;
  QuantScheme scheme = QuantScheme::kSymmetric;
  std::vector<int8_t> data;        ///< rows * cols, row-major
  std::vector<float> scales;       ///< per row, > 0
  std::vector<int32_t> zero_points;  ///< per row (empty under kSymmetric)

  const int8_t* row(size_t r) const { return data.data() + r * cols; }
  float scale(size_t r) const { return scales[r]; }
  int32_t zero_point(size_t r) const {
    return scheme == QuantScheme::kAffine ? zero_points[r] : 0;
  }

  /// Resident bytes of the quantized representation (data + per-row
  /// metadata), the number the fp32 4*rows*cols is compared against.
  size_t ByteSize() const;

  /// Dequantizes row `r` into out[0..cols).
  void DequantizeRowInto(size_t r, float* out) const;

  /// Whole-matrix dequantization (tests / inspection; a serving load
  /// dequantizes row by row straight into the model's tables).
  Tensor Dequantize() const;

  /// Binary write/read, same stream style as Tensor::Serialize.
  Status Serialize(std::ostream& out) const;
  static StatusOr<RowQuantizedMatrix> Deserialize(std::istream& in);
};

/// Quantizes a 2-D fp32 tensor per row. Round-trip error per entry is
/// bounded by scale[r]/2 (round-to-nearest), where scale[r] is max|row|/127
/// (symmetric) or (row_max-row_min)/254 (affine) — except that under
/// kAffine a row's extreme values can lose one extra step to the clamp when
/// the zero-point rounding and the value rounding collide, for a worst case
/// of 1.5 * scale[r]. Degenerate rows (constant, or all zero) encode
/// exactly.
RowQuantizedMatrix QuantizeRows(const Tensor& m, QuantScheme scheme);

/// IEEE 754 binary16 storage conversions, round-to-nearest-even on the way
/// down (overflow to inf, subnormals handled on both sides). Software-only
/// on purpose — no F16C dependency — since they run at checkpoint
/// write/load time, never in the scoring hot path.
uint16_t FloatToHalf(float f);
float HalfToFloat(uint16_t h);

}  // namespace sttr

#endif  // STTR_TENSOR_QUANT_H_
