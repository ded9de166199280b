#ifndef DELREC_SRMODELS_SASREC_H_
#define DELREC_SRMODELS_SASREC_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "srmodels/recommender.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace delrec::srmodels {

/// SASRec (Kang & McAuley, ICDM 2018): causal self-attention over the item
/// embedding sequence with learned positions; the representation at the last
/// position scores all items against the tied embedding table.
///
/// Two forwards, one per purpose. TrainingLogits() builds the autograd graph
/// for one history (training, distillation, and the test reference). Every
/// inference entry point — ScoreAllItems, ScoreAllItemsBatch, EncodeHistory,
/// and the base class's candidate scoring on top of ScoreAllItems — runs one
/// graph-free forward over the stacked windows of a batch (a batch of one
/// for the single-history calls), whose rows are bit-identical to
/// TrainingLogits under NoGradGuard (DESIGN.md §11).
class SasRec : public nn::Module, public SequentialRecommender {
 public:
  SasRec(int64_t num_items, int64_t embedding_dim, int64_t max_length,
         int64_t num_blocks, int64_t num_heads, uint64_t seed);

  std::string name() const override { return "SASRec"; }
  util::Status Train(const std::vector<data::Example>& examples,
                     const TrainConfig& config) override;
  std::vector<float> ScoreAllItems(
      const std::vector<int64_t>& history) const override;
  std::vector<float> ScoreAllItemsBatch(
      const std::vector<std::vector<int64_t>>& histories) const override;
  nn::Tensor TrainingLogits(const std::vector<int64_t>& history,
                            float dropout, util::Rng& rng) const override;
  int64_t ParameterCount() const override {
    return nn::Module::ParameterCount();
  }
  int64_t item_count() const override { return num_items_; }

  std::vector<float> EncodeHistory(
      const std::vector<int64_t>& history) const override;
  std::vector<float> ItemEmbedding(int64_t item) const override;
  int64_t embedding_dim() const { return embedding_dim_; }
  int64_t representation_dim() const override { return embedding_dim_; }

 private:
  nn::Tensor LastHidden(const std::vector<int64_t>& history, float dropout,
                        util::Rng& rng) const;

  /// The graph-free inference forward over histories[begin, end): writes
  /// each history's final-norm last-position row into `hidden`
  /// ((end - begin) × D). Windows stack into one (ΣL × D) buffer, so every
  /// projection is one GEMM; the last block runs only the last rows.
  void LastHiddenBatch(const std::vector<std::vector<int64_t>>& histories,
                       int64_t begin, int64_t end, float* hidden,
                       util::ScopedArena& arena) const;
  /// LastHiddenBatch plus the item head: (end - begin) × num_items logits.
  void LogitsBatch(const std::vector<std::vector<int64_t>>& histories,
                   int64_t begin, int64_t end, float* logits,
                   util::ScopedArena& arena) const;

  int64_t num_items_;
  int64_t embedding_dim_;
  int64_t max_length_;
  util::Rng scratch_rng_;  // Parameter initialization only.
  nn::Embedding item_embedding_;
  nn::Embedding position_embedding_;
  std::vector<std::unique_ptr<nn::TransformerEncoderLayer>> blocks_;
  nn::LayerNorm final_norm_;
  nn::Tensor item_bias_;
};

}  // namespace delrec::srmodels

#endif  // DELREC_SRMODELS_SASREC_H_
