#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "eval/protocol.h"
#include "eval/stats.h"
#include "eval/topk.h"

namespace delrec::eval {
namespace {

TEST(MetricsTest, RankOfTarget) {
  EXPECT_EQ(RankOfTarget({0.1f, 0.9f, 0.5f}, 1), 0);
  EXPECT_EQ(RankOfTarget({0.1f, 0.9f, 0.5f}, 0), 2);
  EXPECT_EQ(RankOfTarget({0.1f, 0.9f, 0.5f}, 2), 1);
  // Ties: earlier index outranks the target.
  EXPECT_EQ(RankOfTarget({0.5f, 0.5f}, 1), 1);
  EXPECT_EQ(RankOfTarget({0.5f, 0.5f}, 0), 0);
}

TEST(MetricsTest, RankOfTargetTieBreakStableByItemId) {
  // Equal scores rank by ascending item id: with ids {30, 10, 20} all tied,
  // id 10 ranks first, then 20, then 30 — independent of list position.
  EXPECT_EQ(RankOfTarget({0.5f, 0.5f, 0.5f}, {30, 10, 20}, 1), 0);
  EXPECT_EQ(RankOfTarget({0.5f, 0.5f, 0.5f}, {30, 10, 20}, 2), 1);
  EXPECT_EQ(RankOfTarget({0.5f, 0.5f, 0.5f}, {30, 10, 20}, 0), 2);
  // Score still dominates the id tie-break.
  EXPECT_EQ(RankOfTarget({0.9f, 0.5f}, {100, 1}, 0), 0);
  EXPECT_EQ(RankOfTarget({0.9f, 0.5f}, {100, 1}, 1), 1);
  // Partial tie: one strictly better candidate plus one tied smaller id.
  EXPECT_EQ(RankOfTarget({0.7f, 0.5f, 0.5f, 0.1f}, {4, 2, 9, 1}, 2), 2);
}

TEST(MetricsTest, RankOfTargetTieBreakIsPermutationInvariant) {
  // The regression the positional tie-break missed: presenting the same
  // (item, score) set in a different candidate order changed the rank.
  const std::vector<float> scores = {0.5f, 0.5f, 0.5f, 0.2f};
  EXPECT_EQ(RankOfTarget(scores, {10, 20, 30, 40}, 1),
            RankOfTarget({0.5f, 0.5f, 0.5f, 0.2f}, {30, 20, 10, 40}, 1));
  EXPECT_EQ(RankOfTarget(scores, {10, 20, 30, 40}, 0),
            RankOfTarget({0.2f, 0.5f, 0.5f, 0.5f}, {40, 30, 20, 10}, 3));
}

TEST(ProtocolTest, TiedScoresRankDeterministically) {
  // A constant scorer ties every candidate; the protocol must still produce
  // reproducible metrics (stable by item id), identical run to run.
  data::Dataset dataset = data::GenerateDataset(data::KuaiRecConfig());
  data::Splits splits = data::MakeSplits(dataset, 10);
  EvalConfig config;
  config.max_examples = 50;
  auto constant = [](const data::Example&,
                     const std::vector<int64_t>& candidates) {
    return std::vector<float>(candidates.size(), 1.0f);
  };
  auto a = EvaluateCandidates(splits.test, dataset.catalog.size(), constant,
                              config);
  auto b = EvaluateCandidates(splits.test, dataset.catalog.size(), constant,
                              config);
  EXPECT_EQ(a.hit_at_1_samples(), b.hit_at_1_samples());
  EXPECT_EQ(a.ndcg_at_10_samples(), b.ndcg_at_10_samples());
  // With all scores tied the target's rank equals the number of candidates
  // whose id is smaller — on average (m-1)/2, so HR@1 sits near 1/m rather
  // than collapsing to 0 or 1.
  EXPECT_GT(a.Result().hr_at_10, 0.0);
  EXPECT_LT(a.Result().hr_at_1, 0.5);
}

// Reference full order: std::partial_sort over every position with the
// documented comparator (score descending, then the smaller tie key).
std::vector<int64_t> PartialSortOrder(const std::vector<float>& scores,
                                      const std::vector<int64_t>& keys) {
  std::vector<int64_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.end(), order.end(),
                    [&](int64_t a, int64_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return keys[a] < keys[b];
                    });
  return order;
}

// k >= n takes the full-sort path; it must return exactly the partial_sort
// order, with heavy ties and +0.0/-0.0 (equal under ==, so they tie and
// break by position or id) in the scores.
TEST(TopKTest, FullOrderMatchesPartialSortReference) {
  const std::vector<float> palette = {0.5f, -0.0f, 0.0f, -1.25f, 0.5f, 3.0f};
  std::mt19937_64 rng(5);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{64},
                   size_t{550}}) {
    std::vector<float> scores(n);
    for (float& score : scores) score = palette[rng() % palette.size()];
    std::vector<int64_t> positions(n);
    std::iota(positions.begin(), positions.end(), 0);
    std::vector<int64_t> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int64_t>(3 * i + 1);
    std::shuffle(ids.begin(), ids.end(), rng);

    const std::vector<int64_t> by_position = PartialSortOrder(scores, positions);
    const std::vector<int64_t> by_id = PartialSortOrder(scores, ids);
    const int64_t size = static_cast<int64_t>(n);
    for (int64_t k : {size, size + 1, size + 100}) {
      EXPECT_EQ(TopK(scores, k), by_position) << "n=" << n << " k=" << k;
      EXPECT_EQ(TopKByIds(scores, ids, k), by_id) << "n=" << n << " k=" << k;
    }
    // k < n stays the partial_sort prefix of the same order.
    if (n > 1) {
      const std::vector<int64_t> head(by_position.begin(),
                                      by_position.end() - 1);
      EXPECT_EQ(TopK(scores, size - 1), head) << "n=" << n;
    }
  }
}

TEST(MetricsTest, AccumulatorValues) {
  MetricsAccumulator acc;
  acc.Add(0);   // Hit at 1.
  acc.Add(4);   // Hit at 5/10 only.
  acc.Add(11);  // Miss everywhere.
  RankedMetrics m = acc.Result();
  EXPECT_EQ(m.count, 3);
  EXPECT_NEAR(m.hr_at_1, 1.0 / 3, 1e-9);
  EXPECT_NEAR(m.hr_at_5, 2.0 / 3, 1e-9);
  EXPECT_NEAR(m.hr_at_10, 2.0 / 3, 1e-9);
  // NDCG@5: (1 + 1/log2(6) + 0) / 3.
  EXPECT_NEAR(m.ndcg_at_5, (1.0 + 1.0 / std::log2(6.0)) / 3.0, 1e-9);
  EXPECT_GE(m.hr_at_5, m.ndcg_at_5);
}

TEST(MetricsTest, PerfectAndWorst) {
  MetricsAccumulator perfect;
  for (int i = 0; i < 5; ++i) perfect.Add(0);
  EXPECT_DOUBLE_EQ(perfect.Result().hr_at_1, 1.0);
  EXPECT_DOUBLE_EQ(perfect.Result().ndcg_at_10, 1.0);
  MetricsAccumulator worst;
  for (int i = 0; i < 5; ++i) worst.Add(14);
  EXPECT_DOUBLE_EQ(worst.Result().hr_at_10, 0.0);
}

TEST(StatsTest, StudentTCdfKnownValues) {
  EXPECT_NEAR(StudentTCdf(0.0, 10), 0.5, 1e-9);
  // t(ν=30) at 2.042 ≈ 0.975 (classic table value).
  EXPECT_NEAR(StudentTCdf(2.042, 30), 0.975, 2e-3);
  EXPECT_NEAR(StudentTCdf(-2.042, 30), 0.025, 2e-3);
}

TEST(StatsTest, PairedTTestDetectsDifference) {
  std::vector<double> a, b;
  for (int i = 0; i < 100; ++i) {
    a.push_back(1.0 + 0.01 * (i % 7));
    b.push_back(0.5 + 0.01 * (i % 7));
  }
  TTestResult r = PairedTTest(a, b);
  EXPECT_LT(r.p_value, 0.001);
  EXPECT_GT(r.t_statistic, 0.0);
}

TEST(StatsTest, PairedTTestNullCase) {
  std::vector<double> a, b;
  // Symmetric, zero-mean differences.
  for (int i = 0; i < 40; ++i) {
    const double noise = (i % 2 == 0) ? 0.1 : -0.1;
    a.push_back(1.0 + noise);
    b.push_back(1.0 - noise + (i % 4 < 2 ? 0.2 : -0.2));
  }
  TTestResult r = PairedTTest(a, b);
  EXPECT_GT(r.p_value, 0.2);
}

TEST(StatsTest, SignificanceStars) {
  EXPECT_EQ(SignificanceStars(0.005), "*");
  EXPECT_EQ(SignificanceStars(0.03), "**");
  EXPECT_EQ(SignificanceStars(0.2), "");
}

TEST(StatsTest, PcaRecoversDominantDirection) {
  // Points on a line y = 2x with small noise: first PC ∝ (1,2)/√5.
  std::vector<std::vector<float>> rows;
  for (int i = -20; i <= 20; ++i) {
    const float t = static_cast<float>(i);
    rows.push_back({t, 2.0f * t + 0.01f * ((i * 13) % 5)});
  }
  auto projected = PcaReduce(rows, 1);
  ASSERT_EQ(projected.size(), rows.size());
  // Projection should preserve the ordering of t and have much larger
  // variance than the residual direction.
  double variance = 0;
  for (const auto& p : projected) variance += p[0] * p[0];
  EXPECT_GT(variance / rows.size(), 100.0);
  EXPECT_LT(projected[0][0] * projected.back()[0], 0.0);  // Opposite signs.
}

TEST(StatsTest, PcaOutputWidth) {
  std::vector<std::vector<float>> rows(10, std::vector<float>(6, 0.0f));
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < 6; ++j) rows[i][j] = static_cast<float>((i * j) % 7);
  }
  auto projected = PcaReduce(rows, 3);
  EXPECT_EQ(projected[0].size(), 3u);
}

TEST(StatsTest, CosineSimilarity) {
  EXPECT_NEAR(CosineSimilarity({1, 0}, {0, 1}), 0.0f, 1e-6f);
  EXPECT_NEAR(CosineSimilarity({1, 2}, {2, 4}), 1.0f, 1e-6f);
  EXPECT_NEAR(CosineSimilarity({1, 0}, {-1, 0}), -1.0f, 1e-6f);
  EXPECT_EQ(CosineSimilarity({0, 0}, {1, 1}), 0.0f);
}

TEST(ProtocolTest, OracleScorerGetsPerfectMetrics) {
  data::Dataset dataset = data::GenerateDataset(data::KuaiRecConfig());
  data::Splits splits = data::MakeSplits(dataset, 10);
  EvalConfig config;
  auto oracle = [](const data::Example& example,
                   const std::vector<int64_t>& candidates) {
    std::vector<float> scores(candidates.size(), 0.0f);
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i] == example.target) scores[i] = 1.0f;
    }
    return scores;
  };
  auto acc = EvaluateCandidates(splits.test, dataset.catalog.size(), oracle,
                                config);
  EXPECT_DOUBLE_EQ(acc.Result().hr_at_1, 1.0);
}

TEST(ProtocolTest, RandomScorerNearChance) {
  data::Dataset dataset = data::GenerateDataset(data::MovieLens100KConfig());
  data::Splits splits = data::MakeSplits(dataset, 10);
  EvalConfig config;
  uint64_t state = 1;
  auto random_scorer = [&state](const data::Example&,
                                const std::vector<int64_t>& candidates) {
    std::vector<float> scores(candidates.size());
    for (auto& s : scores) {
      state = state * 6364136223846793005ULL + 1;
      s = static_cast<float>(state >> 40);
    }
    return scores;
  };
  auto acc = EvaluateCandidates(splits.test, dataset.catalog.size(),
                                random_scorer, config);
  // HR@1 chance level = 1/15 ≈ 0.067; HR@5 = 1/3; HR@10 = 2/3.
  EXPECT_NEAR(acc.Result().hr_at_1, 1.0 / 15, 0.05);
  EXPECT_NEAR(acc.Result().hr_at_10, 10.0 / 15, 0.1);
}

TEST(ProtocolTest, MaxExamplesCap) {
  data::Dataset dataset = data::GenerateDataset(data::KuaiRecConfig());
  data::Splits splits = data::MakeSplits(dataset, 10);
  EvalConfig config;
  config.max_examples = 7;
  auto acc = EvaluateCandidates(
      splits.test, dataset.catalog.size(),
      [](const data::Example&, const std::vector<int64_t>& candidates) {
        return std::vector<float>(candidates.size(), 0.0f);
      },
      config);
  EXPECT_EQ(acc.Result().count, 7);
}

TEST(ProtocolTest, CandidateSetsIdenticalAcrossScorers) {
  // Two scorers observing candidates must see the same sets (fair compare).
  data::Dataset dataset = data::GenerateDataset(data::KuaiRecConfig());
  data::Splits splits = data::MakeSplits(dataset, 10);
  std::vector<std::vector<int64_t>> seen_a, seen_b;
  EvalConfig config;
  auto observer = [](std::vector<std::vector<int64_t>>& sink) {
    return [&sink](const data::Example&,
                   const std::vector<int64_t>& candidates) {
      sink.push_back(candidates);
      return std::vector<float>(candidates.size(), 0.0f);
    };
  };
  EvaluateCandidates(splits.test, dataset.catalog.size(), observer(seen_a),
                     config);
  EvaluateCandidates(splits.test, dataset.catalog.size(), observer(seen_b),
                     config);
  EXPECT_EQ(seen_a, seen_b);
}

}  // namespace
}  // namespace delrec::eval
