#include "nn/layers.h"

#include <algorithm>
#include <utility>

#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace sttr::nn {

Embedding::Embedding(size_t num_rows, size_t dim, Rng& rng, float init_stddev)
    : table_(Tensor::RandomNormal({num_rows, dim}, rng, 0.0f, init_stddev),
             /*requires_grad=*/true) {
  STTR_CHECK_GT(num_rows, 0u);
  STTR_CHECK_GT(dim, 0u);
  table_.set_name("embedding_table");
}

ag::Variable Embedding::Forward(const std::vector<int64_t>& indices) const {
  return ag::GatherRows(table_, indices);
}

Linear::Linear(size_t in_dim, size_t out_dim, Rng& rng)
    : weight_(Tensor::GlorotUniform(in_dim, out_dim, rng),
              /*requires_grad=*/true),
      bias_(Tensor({out_dim}), /*requires_grad=*/true) {
  weight_.set_name("linear_weight");
  bias_.set_name("linear_bias");
}

ag::Variable Linear::Forward(const ag::Variable& x) const {
  return ag::AddRowBroadcast(ag::MatMul(x, weight_), bias_);
}

Mlp::Mlp(size_t input_dim, const std::vector<size_t>& dims, float dropout_rate,
         Rng& rng)
    : output_((dims.empty() ? input_dim : dims.back()), 1, rng),
      dropout_rate_(dropout_rate) {
  size_t prev = input_dim;
  hidden_.reserve(dims.size());
  for (size_t width : dims) {
    hidden_.emplace_back(prev, width, rng);
    prev = width;
  }
}

ag::Variable Mlp::Forward(const ag::Variable& x, bool training,
                          Rng& rng) const {
  ag::Variable h = ag::Dropout(x, dropout_rate_, training, rng);
  for (const Linear& layer : hidden_) {
    h = ag::Relu(layer.Forward(h));
    h = ag::Dropout(h, dropout_rate_, training, rng);
  }
  return output_.Forward(h);
}

void Mlp::Layer0Share(const float* x, size_t ldx, size_t n, size_t k,
                      size_t w0_row, float* out) const {
  const Tensor& w = layer0().weight();
  STTR_CHECK_LE(w0_row + k, w.rows()) << "Layer0Share weight rows";
  GemmInto(x, ldx, n, k, w.data() + w0_row * w.cols(), w.cols(), {}, out);
}

void Mlp::Layer0Finish(const float* share_a, const float* share_b,
                       float* out) const {
  const float* bias = layer0().bias().data();
  const size_t m = layer0_width();
  const bool relu = !hidden_.empty();
  for (size_t j = 0; j < m; ++j) {
    float v = share_a[j] + share_b[j];
    v += bias[j];
    if (relu && v < 0) v = 0;
    out[j] = v;
  }
}

const float* Mlp::InferenceForward(float* x, float* spare, size_t n) const {
  if (hidden_.empty()) return x;  // layer 0 was the output layer
  auto run = [&](const Linear& layer, bool relu) {
    GemmInto(x, layer.in_dim(), n, layer.in_dim(), layer.weight().data(),
             layer.out_dim(), GemmEpilogue{layer.bias().data(), relu}, spare);
    std::swap(x, spare);
  };
  for (size_t l = 1; l < hidden_.size(); ++l) run(hidden_[l], /*relu=*/true);
  run(output_, /*relu=*/false);
  return x;
}

size_t Mlp::layer0_width() const { return layer0().out_dim(); }

size_t Mlp::max_width() const {
  size_t width = output_.out_dim();
  for (const Linear& layer : hidden_) width = std::max(width, layer.out_dim());
  return width;
}

std::vector<ag::Variable> Mlp::Parameters() const {
  std::vector<ag::Variable> params;
  for (const Linear& layer : hidden_) {
    for (auto& p : layer.Parameters()) params.push_back(p);
  }
  for (auto& p : output_.Parameters()) params.push_back(p);
  return params;
}

}  // namespace sttr::nn
