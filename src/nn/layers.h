#ifndef DELREC_NN_LAYERS_H_
#define DELREC_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace delrec::nn {

/// One sequence of a row-stacked inference batch: rows [begin, begin+length)
/// of a (total, D) buffer holding several sequences back to back. Ragged
/// concatenation (no padding) keeps every GEMM row a real row, which is what
/// makes a batched forward bit-identical to per-sequence forwards (each GEMM
/// output row depends only on its own input row — nn/gemm.h).
///
/// `prefix` declares a frozen prompt head (PrefixLM-style boundary) for
/// TinyLm's bidirectional attention: rows [0, prefix) of the sequence attend
/// only among themselves, while rows [prefix, length) attend over the whole
/// sequence. prefix == 0 is full attention. The boundary is what makes the
/// head's hidden states — and therefore its per-layer K/V rows — independent
/// of the suffix, so a snapshot can precompute them once
/// (TinyLm::PrefixState) and serve only the suffix, bit-identically. Causal
/// attention (ForwardCausalInference) has no frozen head and requires 0.
struct RowSpan {
  int64_t begin = 0;
  int64_t length = 0;
  int64_t prefix = 0;
};

/// Affine layer y = x·W + b with W stored (in, out).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, util::Rng& rng,
         bool use_bias = true);

  /// x: (N, in) → (N, out).
  Tensor Forward(const Tensor& x) const;

  /// Inference-only raw forward over row-major buffers: writes x·W + b into
  /// `out` (rows × out_features, must not alias x). Bit-identical per row to
  /// Forward() for any row count (the GEMM contract in nn/gemm.h makes each
  /// output row depend only on its input row), builds no autograd tape.
  void ForwardInference(const float* x, int64_t rows, float* out) const;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }
  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;
  Tensor bias_;  // Undefined when use_bias == false.
};

/// Lookup table (V, D) with scatter-add gradients.
class Embedding : public Module {
 public:
  Embedding(int64_t count, int64_t dim, util::Rng& rng, float stddev = 0.02f);

  /// indices → (n, D).
  Tensor Forward(const std::vector<int64_t>& indices) const;

  Tensor table() const { return table_; }
  int64_t count() const { return count_; }
  int64_t dim() const { return dim_; }

 private:
  int64_t count_;
  int64_t dim_;
  Tensor table_;
};

/// Row-wise layer normalization with learned affine.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim);

  Tensor Forward(const Tensor& x) const;

  /// Inference-only raw row-wise forward (same arithmetic order and epsilon
  /// as LayerNormOp, so bit-identical to Forward()); `out` may alias x.
  void ForwardInference(const float* x, int64_t rows, float* out) const;

 private:
  Tensor gamma_;
  Tensor beta_;
};

/// Gated recurrent unit cell (GRU4Rec substrate). Gates follow Cho et al.:
///   z = σ(x·W_z + h·U_z + b_z), r = σ(x·W_r + h·U_r + b_r)
///   ĥ = tanh(x·W_h + (r⊙h)·U_h + b_h),  h' = (1-z)⊙h + z⊙ĥ
class GruCell : public Module {
 public:
  GruCell(int64_t input_dim, int64_t hidden_dim, util::Rng& rng);

  /// x: (N, input_dim), h: (N, hidden_dim) → new hidden (N, hidden_dim).
  Tensor Forward(const Tensor& x, const Tensor& h) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t hidden_dim_;
  Tensor w_x_;  // (input_dim, 3·hidden) — z | r | h blocks.
  Tensor w_h_;  // (hidden_dim, 3·hidden)
  Tensor bias_;  // (3·hidden)
};

/// Multi-head self/cross attention over a single sequence (no batch dim).
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int64_t model_dim, int64_t num_heads, util::Rng& rng);

  /// query: (Tq, D), key/value source: (Tk, D). `additive_mask` is an
  /// optional (Tq, Tk) tensor added to the attention logits (use -1e9 to
  /// block positions); pass an undefined Tensor for no mask.
  Tensor Forward(const Tensor& query, const Tensor& keys_values,
                 const Tensor& additive_mask, util::Rng& rng,
                 float dropout_p) const;

  /// Graph-free causal self-attention over a row-stacked batch `x`
  /// (spans.back().begin + spans.back().length rows of D). Each span
  /// attends only within itself, over the same L key columns and -1e9
  /// causal mask as Forward(x, x, CausalMask(L)), so every output row is
  /// bit-identical to the same row of that per-sequence call. With
  /// `last_row_only`, only each span's last position is queried and `out`
  /// holds one row per span; otherwise one row per input row.
  void ForwardCausalInference(const float* x,
                              const std::vector<RowSpan>& spans,
                              bool last_row_only, float* out,
                              util::ScopedArena& arena) const;

  int64_t num_heads() const { return num_heads_; }
  int64_t model_dim() const { return model_dim_; }

 private:
  int64_t model_dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

/// Two-layer position-wise feed-forward block with GELU.
class FeedForward : public Module {
 public:
  FeedForward(int64_t model_dim, int64_t hidden_dim, util::Rng& rng);

  Tensor Forward(const Tensor& x, util::Rng& rng, float dropout_p,
                 bool training) const;

  /// Graph-free Forward() without dropout, row by row: (rows, D) → `out`.
  void ForwardInference(const float* x, int64_t rows, float* out,
                        util::ScopedArena& arena) const;

 private:
  Linear in_;
  Linear out_;
};

/// Pre-LN transformer encoder block: x + MHA(LN(x)); x + FF(LN(x)).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(int64_t model_dim, int64_t num_heads,
                          int64_t ffn_dim, util::Rng& rng);

  /// x: (T, D); additive_mask optional (T, T).
  Tensor Forward(const Tensor& x, const Tensor& additive_mask,
                 util::Rng& rng, float dropout_p) const;

  /// Graph-free Forward(x, CausalMask(L), rng, 0) over a row-stacked batch
  /// of sequences (see MultiHeadAttention::ForwardCausalInference), with
  /// the same rows bit for bit. With `last_row_only`, `out` holds only each
  /// span's last row: attention queries, the residual and the FFN run on
  /// those rows alone, which is exact because every stage after the keys
  /// and values is row-local.
  void ForwardCausalInference(const float* x,
                              const std::vector<RowSpan>& spans,
                              bool last_row_only, float* out,
                              util::ScopedArena& arena) const;

 private:
  LayerNorm ln_attention_;
  MultiHeadAttention attention_;
  LayerNorm ln_ffn_;
  FeedForward ffn_;
};

/// Builds a causal additive mask (T,T): 0 on/below diagonal, -1e9 above.
Tensor CausalMask(int64_t length);

}  // namespace delrec::nn

#endif  // DELREC_NN_LAYERS_H_
