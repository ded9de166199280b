#include "srmodels/recommender.h"

#include <algorithm>

#include "eval/topk.h"
#include "util/check.h"
#include "util/threadpool.h"

namespace delrec::srmodels {

std::vector<float> SequentialRecommender::ScoreCandidates(
    const std::vector<int64_t>& history,
    const std::vector<int64_t>& candidates) const {
  const std::vector<float> all = ScoreAllItems(history);
  std::vector<float> out;
  out.reserve(candidates.size());
  for (int64_t candidate : candidates) {
    DELREC_CHECK_GE(candidate, 0);
    DELREC_CHECK_LT(candidate, static_cast<int64_t>(all.size()));
    out.push_back(all[candidate]);
  }
  return out;
}

std::vector<std::vector<float>> SequentialRecommender::ScoreCandidatesBatch(
    const std::vector<std::vector<int64_t>>& histories,
    const std::vector<std::vector<int64_t>>& candidates) const {
  DELREC_CHECK_EQ(histories.size(), candidates.size());
  std::vector<std::vector<float>> out(histories.size());
  util::ParallelFor(static_cast<int64_t>(histories.size()),
                    [&](int64_t begin, int64_t end, int) {
                      for (int64_t i = begin; i < end; ++i) {
                        out[i] = ScoreCandidates(histories[i], candidates[i]);
                      }
                    });
  return out;
}

std::vector<float> SequentialRecommender::ScoreAllItemsBatch(
    const std::vector<std::vector<int64_t>>& histories) const {
  std::vector<std::vector<float>> rows(histories.size());
  util::ParallelFor(static_cast<int64_t>(histories.size()),
                    [&](int64_t begin, int64_t end, int) {
                      for (int64_t i = begin; i < end; ++i) {
                        rows[i] = ScoreAllItems(histories[i]);
                      }
                    });
  if (rows.empty()) return {};
  const size_t width = rows.front().size();
  std::vector<float> out;
  out.reserve(rows.size() * width);
  for (const std::vector<float>& row : rows) {
    DELREC_CHECK_EQ(row.size(), width);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

std::vector<int64_t> SequentialRecommender::TopK(
    const std::vector<int64_t>& history, int64_t k) const {
  return TopKFromScores(ScoreAllItems(history), k);
}

std::vector<std::vector<int64_t>> SequentialRecommender::TopKBatch(
    const std::vector<std::vector<int64_t>>& histories, int64_t k) const {
  if (histories.empty()) return {};
  const std::vector<float> scores = ScoreAllItemsBatch(histories);
  const int64_t width =
      static_cast<int64_t>(scores.size() / histories.size());
  std::vector<std::vector<int64_t>> out(histories.size());
  for (size_t i = 0; i < histories.size(); ++i) {
    out[i] = eval::TopK(scores.data() + i * width, width, k);
  }
  return out;
}

std::vector<int64_t> TopKFromScores(const std::vector<float>& scores,
                                    int64_t k) {
  // Full-catalog scores are indexed by item id, so positional tie-breaking
  // is id tie-breaking; the shared helper keeps this ordering in one place.
  return eval::TopK(scores, k);
}

}  // namespace delrec::srmodels
