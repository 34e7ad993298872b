#include "tensor/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

namespace sttr {

namespace {

/// round-to-nearest, clamped into the symmetric int8 range [-127, 127].
int8_t ClampToI8(float v) {
  const long r = std::lround(v);
  return static_cast<int8_t>(std::clamp<long>(r, -127, 127));
}

template <typename T>
bool WritePod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  return static_cast<bool>(out);
}

template <typename T>
bool ReadPod(std::istream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return static_cast<bool>(in);
}

}  // namespace

const char* QuantSchemeName(QuantScheme scheme) {
  switch (scheme) {
    case QuantScheme::kSymmetric:
      return "symmetric";
    case QuantScheme::kAffine:
      return "affine";
  }
  return "unknown";
}

size_t RowQuantizedMatrix::ByteSize() const {
  return data.size() * sizeof(int8_t) + scales.size() * sizeof(float) +
         zero_points.size() * sizeof(int32_t);
}

void RowQuantizedMatrix::DequantizeRowInto(size_t r, float* out) const {
  const int8_t* q = row(r);
  const float s = scales[r];
  const int32_t z = zero_point(r);
  for (size_t c = 0; c < cols; ++c) {
    out[c] = s * static_cast<float>(static_cast<int32_t>(q[c]) - z);
  }
}

Tensor RowQuantizedMatrix::Dequantize() const {
  Tensor out({rows, cols});
  for (size_t r = 0; r < rows; ++r) DequantizeRowInto(r, out.row(r));
  return out;
}

RowQuantizedMatrix QuantizeRows(const Tensor& m, QuantScheme scheme) {
  const size_t rows = m.rows();
  const size_t cols = m.cols();
  RowQuantizedMatrix out;
  out.rows = rows;
  out.cols = cols;
  out.scheme = scheme;
  out.data.resize(rows * cols);
  out.scales.resize(rows);
  if (scheme == QuantScheme::kAffine) out.zero_points.resize(rows);

  for (size_t r = 0; r < rows; ++r) {
    const float* src = m.row(r);
    int8_t* dst = out.data.data() + r * cols;
    if (scheme == QuantScheme::kSymmetric) {
      float amax = 0.0f;
      for (size_t c = 0; c < cols; ++c) amax = std::max(amax, std::fabs(src[c]));
      const float s = amax > 0.0f ? amax / 127.0f : 1.0f;
      out.scales[r] = s;
      for (size_t c = 0; c < cols; ++c) dst[c] = ClampToI8(src[c] / s);
    } else {
      float mn = src[0], mx = src[0];
      for (size_t c = 1; c < cols; ++c) {
        mn = std::min(mn, src[c]);
        mx = std::max(mx, src[c]);
      }
      float s;
      int32_t z;
      if (mx - mn > 0.0f) {
        s = (mx - mn) / 254.0f;
        z = static_cast<int32_t>(std::lround(-127.0 - mn / s));
      } else if (mn != 0.0f) {
        // Constant non-zero row: land it exactly on +/-127.
        s = std::fabs(mn) / 127.0f;
        z = 0;
      } else {
        s = 1.0f;
        z = 0;
      }
      out.scales[r] = s;
      out.zero_points[r] = z;
      for (size_t c = 0; c < cols; ++c) {
        dst[c] = ClampToI8(src[c] / s + static_cast<float>(z));
      }
    }
  }
  return out;
}

Status RowQuantizedMatrix::Serialize(std::ostream& out) const {
  const uint64_t r = rows, c = cols;
  const uint8_t sch = static_cast<uint8_t>(scheme);
  if (!WritePod(out, r) || !WritePod(out, c) || !WritePod(out, sch)) {
    return Status::IOError("quantized matrix header write failed");
  }
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  out.write(reinterpret_cast<const char*>(scales.data()),
            static_cast<std::streamsize>(scales.size() * sizeof(float)));
  out.write(reinterpret_cast<const char*>(zero_points.data()),
            static_cast<std::streamsize>(zero_points.size() * sizeof(int32_t)));
  if (!out) return Status::IOError("quantized matrix payload write failed");
  return Status::OK();
}

StatusOr<RowQuantizedMatrix> RowQuantizedMatrix::Deserialize(std::istream& in) {
  uint64_t r = 0, c = 0;
  uint8_t sch = 0;
  if (!ReadPod(in, &r) || !ReadPod(in, &c) || !ReadPod(in, &sch)) {
    return Status::IOError("quantized matrix header read failed");
  }
  if (sch > static_cast<uint8_t>(QuantScheme::kAffine)) {
    return Status::IOError("quantized matrix: unknown scheme " +
                           std::to_string(sch));
  }
  // Reject implausible dims before allocating r*c (bit-rot in the header
  // must not become a bad_alloc).
  if (r > (uint64_t{1} << 32) || c > (uint64_t{1} << 24)) {
    return Status::IOError("quantized matrix: implausible shape");
  }
  RowQuantizedMatrix out;
  out.rows = static_cast<size_t>(r);
  out.cols = static_cast<size_t>(c);
  out.scheme = static_cast<QuantScheme>(sch);
  out.data.resize(out.rows * out.cols);
  out.scales.resize(out.rows);
  if (out.scheme == QuantScheme::kAffine) out.zero_points.resize(out.rows);
  in.read(reinterpret_cast<char*>(out.data.data()),
          static_cast<std::streamsize>(out.data.size()));
  in.read(reinterpret_cast<char*>(out.scales.data()),
          static_cast<std::streamsize>(out.scales.size() * sizeof(float)));
  in.read(
      reinterpret_cast<char*>(out.zero_points.data()),
      static_cast<std::streamsize>(out.zero_points.size() * sizeof(int32_t)));
  if (!in) return Status::IOError("quantized matrix payload read failed");
  for (float s : out.scales) {
    if (!(s > 0.0f) || !std::isfinite(s)) {
      return Status::IOError("quantized matrix: non-positive scale");
    }
  }
  return out;
}

uint16_t FloatToHalf(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  const uint32_t sign = (bits >> 16) & 0x8000u;
  const uint32_t exp = (bits >> 23) & 0xFFu;
  uint32_t mant = bits & 0x7FFFFFu;
  if (exp == 255u) {  // inf / nan (nan keeps a non-zero payload)
    return static_cast<uint16_t>(sign | 0x7C00u | (mant != 0 ? 0x200u : 0));
  }
  const int e = static_cast<int>(exp) - 127 + 15;
  if (e >= 31) return static_cast<uint16_t>(sign | 0x7C00u);  // overflow
  if (e <= 0) {
    if (e < -10) return static_cast<uint16_t>(sign);  // underflows to zero
    mant |= 0x800000u;  // make the implicit bit explicit
    const int shift = 14 - e;  // 14..24
    uint32_t half_mant = mant >> shift;
    const uint32_t rem = mant & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) ++half_mant;
    return static_cast<uint16_t>(sign | half_mant);
  }
  uint32_t half =
      sign | (static_cast<uint32_t>(e) << 10) | (mant >> 13);
  const uint32_t rem = mant & 0x1FFFu;
  // Round to nearest even; a carry out of the mantissa bumps the exponent,
  // which is exactly the right answer (up to and including rounding to inf).
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
  return static_cast<uint16_t>(half);
}

float HalfToFloat(uint16_t h) {
  const uint32_t sign = (static_cast<uint32_t>(h) & 0x8000u) << 16;
  uint32_t exp = (static_cast<uint32_t>(h) >> 10) & 0x1Fu;
  uint32_t mant = static_cast<uint32_t>(h) & 0x3FFu;
  uint32_t bits;
  if (exp == 0u) {
    if (mant == 0u) {
      bits = sign;  // +/- 0
    } else {
      // Subnormal half: normalise into a regular float.
      uint32_t e = 127 - 15 + 1;
      while ((mant & 0x400u) == 0u) {
        mant <<= 1;
        --e;
      }
      mant &= 0x3FFu;
      bits = sign | (e << 23) | (mant << 13);
    }
  } else if (exp == 31u) {
    bits = sign | 0x7F800000u | (mant << 13);  // inf / nan
  } else {
    bits = sign | ((exp - 15u + 127u) << 23) | (mant << 13);
  }
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

}  // namespace sttr
