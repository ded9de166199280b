#include "srmodels/sasrec.h"

#include <algorithm>

#include "nn/gemm.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "srmodels/trainer.h"
#include "util/check.h"
#include "util/threadpool.h"

namespace delrec::srmodels {

SasRec::SasRec(int64_t num_items, int64_t embedding_dim, int64_t max_length,
               int64_t num_blocks, int64_t num_heads, uint64_t seed)
    : num_items_(num_items),
      embedding_dim_(embedding_dim),
      max_length_(max_length),
      scratch_rng_(seed),
      item_embedding_(num_items, embedding_dim, scratch_rng_),
      position_embedding_(max_length, embedding_dim, scratch_rng_),
      final_norm_(embedding_dim) {
  DELREC_CHECK_GT(num_blocks, 0);  // The last block yields the last rows.
  RegisterModule("item_embedding", &item_embedding_);
  RegisterModule("position_embedding", &position_embedding_);
  for (int64_t b = 0; b < num_blocks; ++b) {
    blocks_.push_back(std::make_unique<nn::TransformerEncoderLayer>(
        embedding_dim, num_heads, 2 * embedding_dim, scratch_rng_));
    RegisterModule("block" + std::to_string(b), blocks_.back().get());
  }
  RegisterModule("final_norm", &final_norm_);
  item_bias_ = nn::Tensor::Zeros({num_items}, /*requires_grad=*/true);
  RegisterParameter("item_bias", item_bias_);
}

nn::Tensor SasRec::LastHidden(const std::vector<int64_t>& history,
                              float dropout, util::Rng& rng) const {
  DELREC_CHECK(!history.empty());
  // Keep the most recent max_length_ interactions.
  std::vector<int64_t> window = history;
  if (static_cast<int64_t>(window.size()) > max_length_) {
    window.assign(history.end() - max_length_, history.end());
  }
  const int64_t length = static_cast<int64_t>(window.size());
  std::vector<int64_t> positions(length);
  for (int64_t i = 0; i < length; ++i) positions[i] = i;
  nn::Tensor x = nn::Add(item_embedding_.Forward(window),
                         position_embedding_.Forward(positions));
  x = nn::Dropout(x, dropout, rng, training());
  nn::Tensor mask = nn::CausalMask(length);
  for (const auto& block : blocks_) {
    x = block->Forward(x, mask, rng, dropout);
  }
  x = final_norm_.Forward(x);
  return nn::SliceRows(x, length - 1, 1);  // (1, D)
}

nn::Tensor SasRec::TrainingLogits(const std::vector<int64_t>& history,
                                  float dropout, util::Rng& rng) const {
  nn::Tensor hidden = LastHidden(history, dropout, rng);
  return nn::AddBias(
      nn::MatMul(hidden, item_embedding_.table(), false, true), item_bias_);
}

util::Status SasRec::Train(const std::vector<data::Example>& examples,
                           const TrainConfig& config) {
  SetTraining(true);
  util::Rng rng(config.seed);
  nn::Adam optimizer(Parameters(), config.learning_rate);
  const auto loop_result = RunTrainingLoop(
      examples, config, optimizer, Parameters(), rng,
      [&](const data::Example& example) {
        return nn::CrossEntropyWithLogits(
            TrainingLogits(example.history, config.dropout, rng),
            {example.target});
      },
      "SASRec");
  SetTraining(false);
  return loop_result.status();
}

void SasRec::LastHiddenBatch(
    const std::vector<std::vector<int64_t>>& histories, int64_t begin,
    int64_t end, float* hidden, util::ScopedArena& arena) const {
  const int64_t d = embedding_dim_;
  const int64_t count = end - begin;
  DELREC_CHECK_GT(count, 0);
  // Each history keeps its most recent max_length_ items, as LastHidden().
  std::vector<nn::RowSpan> spans(count);
  int64_t total = 0;
  for (int64_t b = 0; b < count; ++b) {
    const std::vector<int64_t>& history = histories[begin + b];
    DELREC_CHECK(!history.empty());
    const int64_t length =
        std::min<int64_t>(static_cast<int64_t>(history.size()), max_length_);
    spans[b] = {total, length};
    total += length;
  }
  // x = item rows + position rows, the autograd Add's one rounding per cell.
  const float* items = item_embedding_.table().data().data();
  const float* positions = position_embedding_.table().data().data();
  float* x = arena.Alloc(total * d);
  for (int64_t b = 0; b < count; ++b) {
    const std::vector<int64_t>& history = histories[begin + b];
    const int64_t skip = static_cast<int64_t>(history.size()) - spans[b].length;
    for (int64_t i = 0; i < spans[b].length; ++i) {
      const int64_t item = history[skip + i];
      DELREC_CHECK_GE(item, 0);
      DELREC_CHECK_LT(item, num_items_);
      const float* irow = items + item * d;
      const float* prow = positions + i * d;
      float* xrow = x + (spans[b].begin + i) * d;
      for (int64_t j = 0; j < d; ++j) xrow[j] = irow[j] + prow[j];
    }
  }
  // Only the last position reaches the head, so the last block queries
  // only those rows; earlier blocks must produce every row for its keys.
  const float* cur = x;
  for (size_t k = 0; k < blocks_.size(); ++k) {
    const bool last = k + 1 == blocks_.size();
    float* next = arena.Alloc((last ? count : total) * d);
    blocks_[k]->ForwardCausalInference(cur, spans, last, next, arena);
    cur = next;
  }
  final_norm_.ForwardInference(cur, count, hidden);
}

void SasRec::LogitsBatch(const std::vector<std::vector<int64_t>>& histories,
                         int64_t begin, int64_t end, float* logits,
                         util::ScopedArena& arena) const {
  const int64_t count = end - begin;
  float* hidden = arena.Alloc(count * embedding_dim_);
  LastHiddenBatch(histories, begin, end, hidden, arena);
  // One (count × items × D) GEMM against the tied table, then the bias —
  // TrainingLogits' MatMul + AddBias, row for row.
  nn::GemmNT(hidden, item_embedding_.table().data().data(), logits, count,
             num_items_, embedding_dim_, /*accumulate=*/false);
  const float* bias = item_bias_.data().data();
  for (int64_t b = 0; b < count; ++b) {
    float* row = logits + b * num_items_;
    for (int64_t j = 0; j < num_items_; ++j) row[j] += bias[j];
  }
}

std::vector<float> SasRec::ScoreAllItemsBatch(
    const std::vector<std::vector<int64_t>>& histories) const {
  const int64_t n = static_cast<int64_t>(histories.size());
  std::vector<float> out(n * num_items_);
  // Chunks run the stacked forward on their own sub-batches; rows depend
  // only on their own history, so the partition never shows in the bits.
  util::ParallelFor(n, [&](int64_t begin, int64_t end, int) {
    util::ScopedArena arena;
    LogitsBatch(histories, begin, end, out.data() + begin * num_items_, arena);
  });
  return out;
}

std::vector<float> SasRec::ScoreAllItems(
    const std::vector<int64_t>& history) const {
  return ScoreAllItemsBatch({history});
}

std::vector<float> SasRec::EncodeHistory(
    const std::vector<int64_t>& history) const {
  util::ScopedArena arena;
  std::vector<float> hidden(embedding_dim_);
  LastHiddenBatch({history}, 0, 1, hidden.data(), arena);
  return hidden;
}

std::vector<float> SasRec::ItemEmbedding(int64_t item) const {
  DELREC_CHECK_GE(item, 0);
  DELREC_CHECK_LT(item, num_items_);
  const auto& table = item_embedding_.table().data();
  return std::vector<float>(table.begin() + item * embedding_dim_,
                            table.begin() + (item + 1) * embedding_dim_);
}

}  // namespace delrec::srmodels
