#ifndef STTR_NN_LAYERS_H_
#define STTR_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "nn/module.h"
#include "util/rng.h"

namespace sttr::nn {

/// Lookup table of `num_rows` embeddings of width `dim`, initialised
/// N(0, init_stddev) per the paper ("initializing parameters with a Gaussian
/// distribution"). Lookups record touched rows for lazy optimiser updates.
class Embedding : public Module {
 public:
  Embedding(size_t num_rows, size_t dim, Rng& rng, float init_stddev = 0.01f);

  /// Rows at `indices` as a (batch, dim) Variable.
  ag::Variable Forward(const std::vector<int64_t>& indices) const;

  /// The raw table Variable (shape {num_rows, dim}).
  const ag::Variable& table() const { return table_; }

  size_t num_rows() const { return table_.value().rows(); }
  size_t dim() const { return table_.value().cols(); }

  std::vector<ag::Variable> Parameters() const override { return {table_}; }

 private:
  ag::Variable table_;
};

/// Fully connected layer: y = x W + b, Glorot-uniform W, zero b.
class Linear : public Module {
 public:
  Linear(size_t in_dim, size_t out_dim, Rng& rng);

  ag::Variable Forward(const ag::Variable& x) const;

  size_t in_dim() const { return weight_.value().rows(); }
  size_t out_dim() const { return weight_.value().cols(); }

  /// Parameter values, read by inference without copying.
  const Tensor& weight() const { return weight_.value(); }
  const Tensor& bias() const { return bias_.value(); }

  std::vector<ag::Variable> Parameters() const override {
    return {weight_, bias_};
  }

 private:
  ag::Variable weight_;  // (in, out)
  ag::Variable bias_;    // (out)
};

/// The ReLU tower of Eq. (11)-(12): hidden layers given by `dims`
/// (e.g. {128, 64, 32, 16}) followed by a single-logit output layer.
/// Dropout with the configured rate is applied to the input and after every
/// hidden activation, as in the paper ("dropout on the embedding layer and
/// each hidden layer").
class Mlp : public Module {
 public:
  /// `input_dim` -> dims[0] -> ... -> dims.back() -> 1 logit.
  Mlp(size_t input_dim, const std::vector<size_t>& dims, float dropout_rate,
      Rng& rng);

  /// Returns per-row logits with shape (batch, 1). `training` enables dropout.
  ag::Variable Forward(const ag::Variable& x, bool training, Rng& rng) const;

  // -- Inference (no autograd graph, no dropout; thread-safe, the weights
  // are only read; allocates nothing) -------------------------------------
  //
  // Layer 0 is factorized: for an input made of column blocks [x_a | x_b],
  // W0·[x_a; x_b] = W0a·x_a + W0b·x_b, so a block shared by many rows (or
  // precomputable once per row of an embedding table) is multiplied once.

  /// One input block's share of layer 0's pre-activation: x (n rows of k
  /// floats, `ldx` floats apart) times rows [w0_row, w0_row + k) of layer
  /// 0's weight, without bias, into `out` (n rows of layer0_width()).
  void Layer0Share(const float* x, size_t ldx, size_t n, size_t k,
                   size_t w0_row, float* out) const;

  /// One row of layer 0's output from its two shares, per element in this
  /// order: share_a + share_b, + bias, then ReLU (none when layer 0 is the
  /// output layer). `out` may alias either share.
  void Layer0Finish(const float* share_a, const float* share_b,
                    float* out) const;

  /// The tower after layer 0: `x` holds n rows of layer 0's output (width
  /// layer0_width()). Runs every further layer as one fused GEMM + bias +
  /// ReLU (GemmInto), ping-ponging between `x` and `spare`, which both hold
  /// n * max_width() floats and are overwritten. Returns the n logits,
  /// which live in `x` or `spare`.
  const float* InferenceForward(float* x, float* spare, size_t n) const;

  /// Output width of layer 0 (the first hidden layer, else the output).
  size_t layer0_width() const;
  /// Widest layer output: the row width the inference buffers need.
  size_t max_width() const;

  size_t depth() const { return hidden_.size(); }

  std::vector<ag::Variable> Parameters() const override;

 private:
  const Linear& layer0() const {
    return hidden_.empty() ? output_ : hidden_.front();
  }

  std::vector<Linear> hidden_;
  Linear output_;
  float dropout_rate_;
};

}  // namespace sttr::nn

#endif  // STTR_NN_LAYERS_H_
