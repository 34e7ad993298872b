#include "core/quantized_model.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "tensor/simd.h"

namespace sttr {

namespace {

constexpr char kSectionMeta[] = "meta";
constexpr char kSectionConfig[] = "config";
constexpr char kSectionQuantUser[] = "quant_user";
constexpr char kSectionQuantPoi[] = "quant_poi";
constexpr char kSectionQuantMlp0[] = "quant_mlp0";
constexpr char kSectionQuantTail[] = "quant_tail";

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

/// Tensor write in Tensor::Serialize's framing (ndim, dims, payload) except
/// the payload is u16 halves when `as_half` is set.
Status WriteTensorMaybeHalf(std::ostream& out, const Tensor& t, bool as_half) {
  if (!as_half) return t.Serialize(out);
  const uint64_t ndim = t.ndim();
  if (!WritePod(out, ndim)) return Status::IOError("fp16 tensor write failed");
  for (size_t d = 0; d < t.ndim(); ++d) {
    const uint64_t dim = t.shape()[d];
    if (!WritePod(out, dim)) return Status::IOError("fp16 tensor write failed");
  }
  for (size_t i = 0; i < t.size(); ++i) {
    const uint16_t h = FloatToHalf(t[i]);
    if (!WritePod(out, h)) return Status::IOError("fp16 tensor write failed");
  }
  return Status::OK();
}

StatusOr<Tensor> ReadTensorMaybeHalf(std::istream& in, bool as_half) {
  if (!as_half) return Tensor::Deserialize(in);
  uint64_t ndim = 0;
  if (!ReadPod(in, &ndim) || ndim == 0 || ndim > 8) {
    return Status::IOError("fp16 tensor: bad rank");
  }
  std::vector<size_t> shape(ndim);
  size_t total = 1;
  for (uint64_t d = 0; d < ndim; ++d) {
    uint64_t dim = 0;
    if (!ReadPod(in, &dim) || dim == 0 || dim > (uint64_t{1} << 32)) {
      return Status::IOError("fp16 tensor: bad dimension");
    }
    shape[d] = static_cast<size_t>(dim);
    total *= shape[d];
  }
  Tensor t(std::move(shape));
  for (size_t i = 0; i < total; ++i) {
    uint16_t h = 0;
    if (!ReadPod(in, &h)) return Status::IOError("fp16 tensor: truncated");
    t[i] = HalfToFloat(h);
  }
  return t;
}

/// Per row j of `w0t`: the sum of its `n` quantized entries from column
/// `begin` (the user and POI halves of output j's layer-0 column).
std::vector<int32_t> ColumnSums(const RowQuantizedMatrix& w0t, size_t begin,
                                size_t n) {
  std::vector<int32_t> sums(w0t.rows);
  for (size_t j = 0; j < w0t.rows; ++j) {
    sums[j] = simd::SumI8Scalar(w0t.row(j) + begin, n);
  }
  return sums;
}

/// Round-trips a tensor through fp16 in place (quantize-time, so the
/// in-memory artifact matches a checkpoint-reloaded one bit for bit).
void HalfRoundTrip(Tensor& t) {
  for (size_t i = 0; i < t.size(); ++i) t[i] = HalfToFloat(FloatToHalf(t[i]));
}

}  // namespace

StatusOr<QuantizedModel> QuantizedModel::Quantize(
    const StTransRec& model, const QuantizationConfig& config) {
  if (!model.prepared()) {
    return Status::FailedPrecondition(
        "Quantize: model has no parameters (call Prepare()/Fit() first)");
  }
  const std::vector<ag::Variable> params = model.Parameters();
  const std::vector<size_t>& hidden = model.config().hidden_dims;
  // user, poi, word tables, then (weight, bias) per hidden layer + output.
  const size_t expected = 3 + 2 * (hidden.size() + 1);
  if (params.size() != expected) {
    return Status::Internal("Quantize: expected " + std::to_string(expected) +
                            " parameters, got " +
                            std::to_string(params.size()));
  }
  QuantizedModel qm;
  const Tensor& user_t = params[0].value();
  const Tensor& poi_t = params[1].value();
  // params[2] is the word table: it only feeds the textual training loss,
  // never the user x POI scoring path, so the serving artifact drops it.
  qm.dim_ = user_t.cols();
  qm.user_q_ = QuantizeRows(user_t, config.embedding_scheme);
  qm.poi_q_ = QuantizeRows(poi_t, config.embedding_scheme);

  // Layer 0: transpose (2d, h0) -> (h0, 2d) so each output column becomes a
  // contiguous int8 row, then quantize symmetric per row.
  const Tensor& w0 = params[3].value();
  const size_t two_d = w0.rows();
  const size_t h0 = w0.cols();
  if (two_d != 2 * qm.dim_) {
    return Status::Internal("Quantize: layer-0 weight rows " +
                            std::to_string(two_d) + " != 2*dim " +
                            std::to_string(2 * qm.dim_));
  }
  Tensor w0t({h0, two_d});
  for (size_t r = 0; r < two_d; ++r) {
    const float* src = w0.row(r);
    for (size_t j = 0; j < h0; ++j) w0t.row(j)[r] = src[j];
  }
  qm.w0t_ = QuantizeRows(w0t, QuantScheme::kSymmetric);
  const Tensor& b0 = params[4].value();
  qm.b0_.assign(b0.data(), b0.data() + b0.size());

  for (size_t p = 5; p + 1 < params.size(); p += 2) {
    qm.tail_weights_.push_back(params[p].value());
    qm.tail_biases_.push_back(params[p + 1].value());
  }
  if (config.fp16_tail) {
    for (Tensor& w : qm.tail_weights_) HalfRoundTrip(w);
    for (Tensor& b : qm.tail_biases_) HalfRoundTrip(b);
  }
  qm.fp16_tail_ = config.fp16_tail;
  qm.fingerprint_ = model.ConfigFingerprint();
  qm.epoch_ = config.epoch >= 0 ? static_cast<uint64_t>(config.epoch)
                                : model.loss_history().size();
  STTR_RETURN_IF_ERROR(qm.Validate());
  return qm;
}

Status QuantizedModel::Validate() const {
  if (user_q_.cols != dim_ || poi_q_.cols != dim_ || dim_ == 0) {
    return Status::IOError("quantized model: embedding width mismatch");
  }
  if (w0t_.scheme != QuantScheme::kSymmetric) {
    return Status::IOError("quantized model: layer-0 weight must be symmetric");
  }
  if (w0t_.cols != 2 * dim_) {
    return Status::IOError("quantized model: layer-0 weight width " +
                           std::to_string(w0t_.cols) + " != 2*dim");
  }
  const size_t h0 = w0t_.rows;
  if (h0 == 0 || b0_.size() != h0) {
    return Status::IOError("quantized model: layer-0 metadata size mismatch");
  }
  if (tail_weights_.size() != tail_biases_.size()) {
    return Status::IOError("quantized model: tail weight/bias count mismatch");
  }
  size_t prev = h0;
  for (size_t l = 0; l < tail_weights_.size(); ++l) {
    const Tensor& w = tail_weights_[l];
    const Tensor& b = tail_biases_[l];
    if (w.ndim() != 2 || w.rows() != prev || b.size() != w.cols()) {
      return Status::IOError("quantized model: tail layer " +
                             std::to_string(l) + " shape mismatch");
    }
    prev = w.cols();
  }
  if (prev != 1) {
    return Status::IOError("quantized model: final width " +
                           std::to_string(prev) + " != 1 logit");
  }
  return Status::OK();
}

Status QuantizedModel::DequantizeInto(StTransRec& model) const {
  if (!model.prepared()) {
    return Status::FailedPrecondition("DequantizeInto() before Prepare()");
  }
  if (model.ConfigFingerprint() != fingerprint_) {
    return Status::FailedPrecondition(
        "quantized artifact was written under a different config or "
        "dataset\n  artifact: " + fingerprint_ +
        "\n  model:    " + model.ConfigFingerprint());
  }
  // user, poi, word tables, then (weight, bias) for layer 0 and the tail.
  std::vector<ag::Variable> params = model.Parameters();
  const size_t h0 = w0t_.rows;
  const auto same_shape = [](const Tensor& t, std::vector<size_t> shape) {
    return t.shape() == shape;
  };
  bool fits = params.size() == 5 + 2 * tail_weights_.size() &&
              same_shape(params[0].value(), {user_q_.rows, dim_}) &&
              same_shape(params[1].value(), {poi_q_.rows, dim_}) &&
              same_shape(params[3].value(), {2 * dim_, h0}) &&
              same_shape(params[4].value(), {h0});
  for (size_t l = 0; fits && l < tail_weights_.size(); ++l) {
    fits = params[5 + 2 * l].value().shape() == tail_weights_[l].shape() &&
           params[6 + 2 * l].value().shape() == tail_biases_[l].shape();
  }
  if (!fits) {
    return Status::FailedPrecondition(
        "quantized artifact does not fit the prepared model's shapes");
  }

  Tensor& users = params[0].mutable_value();
  for (size_t r = 0; r < user_q_.rows; ++r) {
    user_q_.DequantizeRowInto(r, users.row(r));
  }
  Tensor& pois = params[1].mutable_value();
  for (size_t r = 0; r < poi_q_.rows; ++r) {
    poi_q_.DequantizeRowInto(r, pois.row(r));
  }
  // Symmetric rows: scale_j * q[j][c], transposed back to (2d, h0).
  Tensor& w0 = params[3].mutable_value();
  for (size_t j = 0; j < h0; ++j) {
    const int8_t* q = w0t_.row(j);
    const float scale = w0t_.scale(j);
    for (size_t c = 0; c < 2 * dim_; ++c) {
      w0.row(c)[j] = scale * static_cast<float>(q[c]);
    }
  }
  std::copy(b0_.begin(), b0_.end(), params[4].mutable_value().data());
  for (size_t l = 0; l < tail_weights_.size(); ++l) {
    params[5 + 2 * l].mutable_value() = tail_weights_[l];
    params[6 + 2 * l].mutable_value() = tail_biases_[l];
  }
  model.MarkFitted();
  return Status::OK();
}

size_t QuantizedModel::EmbeddingBytes() const {
  return user_q_.ByteSize() + poi_q_.ByteSize();
}

Status QuantizedModel::WriteCheckpointFile(Env& env,
                                           const std::string& path) const {
  CheckpointWriter writer(kQuantCheckpointFormatVersion);
  {
    std::string meta;
    AppendU64(meta, epoch_);
    writer.AddSection(kSectionMeta, std::move(meta));
  }
  writer.AddSection(kSectionConfig, fingerprint_);
  {
    std::ostringstream os(std::ios::binary);
    STTR_RETURN_IF_ERROR(user_q_.Serialize(os));
    writer.AddSection(kSectionQuantUser, std::move(os).str());
  }
  {
    std::ostringstream os(std::ios::binary);
    STTR_RETURN_IF_ERROR(poi_q_.Serialize(os));
    writer.AddSection(kSectionQuantPoi, std::move(os).str());
  }
  {
    std::ostringstream os(std::ios::binary);
    STTR_RETURN_IF_ERROR(w0t_.Serialize(os));
    const std::vector<int32_t> top = ColumnSums(w0t_, 0, dim_);
    const std::vector<int32_t> bot = ColumnSums(w0t_, dim_, dim_);
    os.write(reinterpret_cast<const char*>(top.data()),
             static_cast<std::streamsize>(top.size() * sizeof(int32_t)));
    os.write(reinterpret_cast<const char*>(bot.data()),
             static_cast<std::streamsize>(bot.size() * sizeof(int32_t)));
    os.write(reinterpret_cast<const char*>(b0_.data()),
             static_cast<std::streamsize>(b0_.size() * sizeof(float)));
    if (!os) return Status::IOError("quant_mlp0 section write failed");
    writer.AddSection(kSectionQuantMlp0, std::move(os).str());
  }
  {
    std::ostringstream os(std::ios::binary);
    const uint8_t half = fp16_tail_ ? 1 : 0;
    const uint64_t layers = tail_weights_.size();
    if (!WritePod(os, half) || !WritePod(os, layers)) {
      return Status::IOError("quant_tail section write failed");
    }
    for (size_t l = 0; l < tail_weights_.size(); ++l) {
      STTR_RETURN_IF_ERROR(
          WriteTensorMaybeHalf(os, tail_weights_[l], fp16_tail_));
      STTR_RETURN_IF_ERROR(
          WriteTensorMaybeHalf(os, tail_biases_[l], fp16_tail_));
    }
    writer.AddSection(kSectionQuantTail, std::move(os).str());
  }
  return writer.WriteTo(env, path);
}

StatusOr<QuantizedModel> QuantizedModel::FromReader(
    const CheckpointReader& reader) {
  if (reader.version() != kQuantCheckpointFormatVersion) {
    return Status::FailedPrecondition(
        "not a quantized checkpoint (format version " +
        std::to_string(reader.version()) + ", expected " +
        std::to_string(kQuantCheckpointFormatVersion) + ")");
  }
  QuantizedModel qm;
  {
    StatusOr<std::string> meta = reader.Section(kSectionMeta);
    if (!meta.ok()) return meta.status();
    std::string_view in(*meta);
    uint64_t epoch = 0;
    if (!ReadU64(in, &epoch)) {
      return Status::IOError("quantized checkpoint: bad meta section");
    }
    qm.epoch_ = epoch;
  }
  {
    StatusOr<std::string> fp = reader.Section(kSectionConfig);
    if (!fp.ok()) return fp.status();
    qm.fingerprint_ = *std::move(fp);
  }
  {
    StatusOr<std::string> payload = reader.Section(kSectionQuantUser);
    if (!payload.ok()) return payload.status();
    std::istringstream is(*payload, std::ios::binary);
    StatusOr<RowQuantizedMatrix> m = RowQuantizedMatrix::Deserialize(is);
    if (!m.ok()) return m.status();
    qm.user_q_ = *std::move(m);
  }
  {
    StatusOr<std::string> payload = reader.Section(kSectionQuantPoi);
    if (!payload.ok()) return payload.status();
    std::istringstream is(*payload, std::ios::binary);
    StatusOr<RowQuantizedMatrix> m = RowQuantizedMatrix::Deserialize(is);
    if (!m.ok()) return m.status();
    qm.poi_q_ = *std::move(m);
  }
  {
    StatusOr<std::string> payload = reader.Section(kSectionQuantMlp0);
    if (!payload.ok()) return payload.status();
    std::istringstream is(*payload, std::ios::binary);
    StatusOr<RowQuantizedMatrix> m = RowQuantizedMatrix::Deserialize(is);
    if (!m.ok()) return m.status();
    qm.w0t_ = *std::move(m);
    const size_t h0 = qm.w0t_.rows;
    std::vector<int32_t> top(h0), bot(h0);
    qm.b0_.resize(h0);
    is.read(reinterpret_cast<char*>(top.data()),
            static_cast<std::streamsize>(h0 * sizeof(int32_t)));
    is.read(reinterpret_cast<char*>(bot.data()),
            static_cast<std::streamsize>(h0 * sizeof(int32_t)));
    is.read(reinterpret_cast<char*>(qm.b0_.data()),
            static_cast<std::streamsize>(h0 * sizeof(float)));
    if (!is) return Status::IOError("quantized checkpoint: bad quant_mlp0");
    // The stored column sums must be those of the stored weight halves.
    const size_t d = qm.w0t_.cols / 2;
    if (qm.w0t_.cols % 2 != 0 || top != ColumnSums(qm.w0t_, 0, d) ||
        bot != ColumnSums(qm.w0t_, d, d)) {
      return Status::IOError(
          "quantized checkpoint: layer-0 column sums do not match weights");
    }
  }
  {
    StatusOr<std::string> payload = reader.Section(kSectionQuantTail);
    if (!payload.ok()) return payload.status();
    std::istringstream is(*payload, std::ios::binary);
    uint8_t half = 0;
    uint64_t layers = 0;
    if (!ReadPod(is, &half) || !ReadPod(is, &layers) || layers > 64) {
      return Status::IOError("quantized checkpoint: bad quant_tail header");
    }
    qm.fp16_tail_ = half != 0;
    for (uint64_t l = 0; l < layers; ++l) {
      StatusOr<Tensor> w = ReadTensorMaybeHalf(is, qm.fp16_tail_);
      if (!w.ok()) return w.status();
      StatusOr<Tensor> b = ReadTensorMaybeHalf(is, qm.fp16_tail_);
      if (!b.ok()) return b.status();
      qm.tail_weights_.push_back(*std::move(w));
      qm.tail_biases_.push_back(*std::move(b));
    }
  }
  qm.dim_ = qm.user_q_.cols;
  STTR_RETURN_IF_ERROR(qm.Validate());
  return qm;
}

StatusOr<QuantizedModel> QuantizedModel::LoadFromCheckpoint(
    Env& env, const std::string& path) {
  StatusOr<CheckpointReader> reader = CheckpointReader::Open(env, path);
  if (!reader.ok()) return reader.status();
  return FromReader(*reader);
}

}  // namespace sttr
