// The two-tier composition contract (DESIGN.md §16): a TwoTierScorer's head
// is bit-identical to re-ranking the retriever's top-h directly, the tail
// preserves retriever order strictly below the head, and the composed
// scorer honors the full Scorer batch-invariance contract so it drops into
// the engine/sharded-server machinery unchanged. Uses deterministic fake
// tiers; the embedded-student / real-snapshot side lives in serve_test.cc.
// Run with `ctest -L distill`.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "eval/topk.h"
#include "serve/scorer.h"
#include "serve/two_tier.h"
#include "srmodels/gru4rec.h"
#include "util/status.h"
#include "util/threadpool.h"

namespace delrec {
namespace {

using util::Status;

constexpr int64_t kCatalog = 24;

/// Cheap tier: full-catalog capable, score = deterministic hash of
/// (candidate, history tail). Distinct from the reranker's formula so a
/// tier mix-up cannot cancel out.
class FakeRetriever : public serve::Scorer {
 public:
  std::string name() const override { return "fake-retriever"; }

  std::vector<float> Score(
      const serve::ScoreRequest& request) const override {
    std::vector<float> scores;
    scores.reserve(request.candidates.size());
    for (int64_t candidate : request.candidates) {
      scores.push_back(ScoreOne(request.history, candidate));
    }
    return scores;
  }

  serve::ScorerCapabilities Capabilities() const override {
    return {/*full_catalog=*/true, /*catalog_size=*/kCatalog};
  }

  std::vector<float> ScoreCatalog(
      const std::vector<int64_t>& history) const override {
    std::vector<float> scores;
    scores.reserve(kCatalog);
    for (int64_t item = 0; item < kCatalog; ++item) {
      scores.push_back(ScoreOne(history, item));
    }
    return scores;
  }

  static float ScoreOne(const std::vector<int64_t>& history,
                        int64_t candidate) {
    const int64_t tail = history.empty() ? -1 : history.back();
    return 0.01f * static_cast<float>((candidate * 13 + tail * 7) % 53);
  }
};

/// Expensive tier: candidate re-scoring only (default capabilities), with a
/// nonzero cached-prefix length so forwarding is observable.
class FakeReranker : public serve::Scorer {
 public:
  std::string name() const override { return "fake-reranker"; }

  std::vector<float> Score(
      const serve::ScoreRequest& request) const override {
    const int64_t tail = request.history.empty() ? -1 : request.history.back();
    std::vector<float> scores;
    scores.reserve(request.candidates.size());
    for (int64_t candidate : request.candidates) {
      scores.push_back(
          100.0f + 0.5f * static_cast<float>((candidate * 29 + tail) % 31));
    }
    return scores;
  }

  int64_t CachedPrefixLength() const override { return 42; }
};

serve::ScoreRequest PoolRequest(uint64_t seed) {
  serve::ScoreRequest request;
  request.history = {static_cast<int64_t>(seed % kCatalog),
                     static_cast<int64_t>((seed * 5 + 1) % kCatalog)};
  // A shuffled, distinct pool whose composition varies with the seed.
  for (int64_t i = 0; i < kCatalog; ++i) {
    if ((i * 11 + static_cast<int64_t>(seed)) % 3 != 0) {
      request.candidates.push_back((i * 7 + static_cast<int64_t>(seed)) %
                                   kCatalog);
    }
  }
  std::sort(request.candidates.begin(), request.candidates.end());
  request.candidates.erase(
      std::unique(request.candidates.begin(), request.candidates.end()),
      request.candidates.end());
  // Deterministic non-sorted order: rotate by the seed.
  std::rotate(request.candidates.begin(),
              request.candidates.begin() +
                  static_cast<int64_t>(seed) %
                      static_cast<int64_t>(request.candidates.size()),
              request.candidates.end());
  return request;
}

std::unique_ptr<serve::Scorer> MakeTwoTier(int64_t h) {
  serve::TwoTierOptions options;
  options.rerank_top_h = h;
  auto two_tier = serve::MakeTwoTierScorer(std::make_shared<FakeRetriever>(),
                                           std::make_shared<FakeReranker>(),
                                           options);
  EXPECT_TRUE(two_tier.ok()) << two_tier.status().ToString();
  return std::move(two_tier.value());
}

TEST(TwoTierTest, ConstructionValidation) {
  auto retriever = std::make_shared<FakeRetriever>();
  auto reranker = std::make_shared<FakeReranker>();
  serve::TwoTierOptions options;

  options.rerank_top_h = 0;
  EXPECT_EQ(serve::MakeTwoTierScorer(retriever, reranker, options)
                .status()
                .code(),
            Status::Code::kInvalidArgument);

  options.rerank_top_h = 4;
  EXPECT_EQ(serve::MakeTwoTierScorer(nullptr, reranker, options)
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(serve::MakeTwoTierScorer(retriever, nullptr, options)
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  // A candidate-only backend cannot be the retriever tier.
  EXPECT_EQ(serve::MakeTwoTierScorer(std::make_shared<FakeReranker>(),
                                     reranker, options)
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_TRUE(serve::MakeTwoTierScorer(retriever, reranker, options).ok());

  EXPECT_EQ(serve::MakeSnapshotTwoTier(nullptr, options).status().code(),
            Status::Code::kInvalidArgument);
}

// The central pin: head scores are the re-ranker's scores over the
// retriever's top-h, verbatim — composing through TwoTierScorer is
// bit-identical to running the two stages by hand.
TEST(TwoTierTest, HeadIsBitIdenticalToDirectRerank) {
  const FakeRetriever retriever;
  const FakeReranker reranker;
  for (int64_t h : {1, 3, 8, 64}) {  // 64 > pool: degenerates to full rerank.
    const auto two_tier = MakeTwoTier(h);
    for (uint64_t seed = 0; seed < 6; ++seed) {
      const serve::ScoreRequest request = PoolRequest(seed);
      const std::vector<float> composed = two_tier->Score(request);
      ASSERT_EQ(composed.size(), request.candidates.size());

      // By hand: retrieve, order by ids, re-rank the head.
      const std::vector<float> pre = retriever.Score(request);
      const std::vector<int64_t> order = eval::TopKByIds(
          pre, request.candidates, static_cast<int64_t>(pre.size()));
      const int64_t head = std::min<int64_t>(
          h, static_cast<int64_t>(request.candidates.size()));
      serve::ScoreRequest head_request;
      head_request.history = request.history;
      for (int64_t j = 0; j < head; ++j) {
        head_request.candidates.push_back(request.candidates[order[j]]);
      }
      const std::vector<float> direct = reranker.Score(head_request);
      for (int64_t j = 0; j < head; ++j) {
        EXPECT_EQ(composed[order[j]], direct[j])
            << "head position " << j << " not verbatim (h=" << h
            << ", seed=" << seed << ")";
      }
    }
  }
}

TEST(TwoTierTest, TailStaysStrictlyBelowHeadInRetrieverOrder) {
  const FakeRetriever retriever;
  const int64_t h = 4;
  const auto two_tier = MakeTwoTier(h);
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const serve::ScoreRequest request = PoolRequest(seed);
    const std::vector<float> composed = two_tier->Score(request);
    const std::vector<float> pre = retriever.Score(request);
    const std::vector<int64_t> order = eval::TopKByIds(
        pre, request.candidates, static_cast<int64_t>(pre.size()));

    float head_min = composed[order[0]];
    for (int64_t j = 1; j < h; ++j) {
      head_min = std::min(head_min, composed[order[j]]);
    }
    // Tail: strictly decreasing along the retriever ordering, all below the
    // head minimum — so the final ranking is exactly (re-ranked head, then
    // retriever tail).
    for (size_t j = h; j < order.size(); ++j) {
      EXPECT_LT(composed[order[j]], head_min);
      if (j > static_cast<size_t>(h)) {
        EXPECT_LT(composed[order[j]], composed[order[j - 1]]);
      }
    }
    // No float absorption anywhere: every score distinct.
    std::set<float> distinct(composed.begin(), composed.end());
    EXPECT_EQ(distinct.size(), composed.size());
  }
}

// The Scorer batch-invariance contract: ScoreBatch row i ≡ Score(request i)
// for a mixed batch (explicit pools and full-catalog requests together).
TEST(TwoTierTest, ScoreBatchRowsMatchSingleScores) {
  const auto two_tier = MakeTwoTier(3);
  std::vector<serve::ScoreRequest> requests;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    requests.push_back(PoolRequest(seed));
  }
  serve::ScoreRequest catalog_request;  // Empty candidates = full catalog.
  catalog_request.history = {2, 9};
  requests.insert(requests.begin() + 2, catalog_request);

  const std::vector<std::vector<float>> batched =
      two_tier->ScoreBatch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], two_tier->Score(requests[i])) << "row " << i;
  }
}

TEST(TwoTierTest, CatalogRequestsUseRetrieverCatalogPath) {
  const auto two_tier = MakeTwoTier(5);
  const std::vector<int64_t> history = {1, 2, 3};
  // ScoreCatalog and an empty-candidates Score are the same path; both
  // return one score per catalog item.
  const std::vector<float> catalog = two_tier->ScoreCatalog(history);
  ASSERT_EQ(catalog.size(), static_cast<size_t>(kCatalog));
  serve::ScoreRequest request;
  request.history = history;
  EXPECT_EQ(two_tier->Score(request), catalog);

  // The head equals the re-ranker over the retriever's catalog top-h, with
  // item ids as candidates (catalog scores are indexed by id).
  const FakeRetriever retriever;
  const FakeReranker reranker;
  const std::vector<float> pre = retriever.ScoreCatalog(history);
  const std::vector<int64_t> order = eval::TopK(pre, kCatalog);
  serve::ScoreRequest head_request;
  head_request.history = history;
  for (int64_t j = 0; j < 5; ++j) {
    head_request.candidates.push_back(order[j]);
  }
  const std::vector<float> direct = reranker.Score(head_request);
  for (int64_t j = 0; j < 5; ++j) {
    EXPECT_EQ(catalog[order[j]], direct[j]);
  }
}

std::vector<uint32_t> Bits(const std::vector<float>& scores) {
  std::vector<uint32_t> bits;
  bits.reserve(scores.size());
  for (float score : scores) bits.push_back(std::bit_cast<uint32_t>(score));
  return bits;
}

/// Forwards to a retriever and counts the calls the composition makes, so
/// a test can pin how many times one batch reaches the retriever tier.
class CountingRetriever : public serve::Scorer {
 public:
  explicit CountingRetriever(std::shared_ptr<const serve::Scorer> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::vector<float> Score(
      const serve::ScoreRequest& request) const override {
    ++score_calls;
    return inner_->Score(request);
  }
  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<serve::ScoreRequest>& requests) const override {
    ++batch_calls;
    last_batch_size = requests.size();
    return inner_->ScoreBatch(requests);
  }
  serve::ScorerCapabilities Capabilities() const override {
    return inner_->Capabilities();
  }
  std::vector<float> ScoreCatalog(
      const std::vector<int64_t>& history) const override {
    ++catalog_calls;
    return inner_->ScoreCatalog(history);
  }

  mutable std::atomic<int> score_calls{0};
  mutable std::atomic<int> batch_calls{0};
  mutable std::atomic<int> catalog_calls{0};
  mutable std::atomic<size_t> last_batch_size{0};

 private:
  std::shared_ptr<const serve::Scorer> inner_;
};

TEST(TwoTierTest, OneBatchedRetrieverCallPerBatch) {
  auto retriever =
      std::make_shared<CountingRetriever>(std::make_shared<FakeRetriever>());
  serve::TwoTierOptions options;
  options.rerank_top_h = 3;
  auto two_tier = serve::MakeTwoTierScorer(
      retriever, std::make_shared<FakeReranker>(), options);
  ASSERT_TRUE(two_tier.ok()) << two_tier.status().ToString();

  std::vector<serve::ScoreRequest> requests = {PoolRequest(1), {}, {},
                                               PoolRequest(4)};
  requests[1].history = {3};
  requests[2].history = {5, 6, 7};
  const std::vector<std::vector<float>> batched =
      two_tier.value()->ScoreBatch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  EXPECT_EQ(batched[1].size(), static_cast<size_t>(kCatalog));
  EXPECT_EQ(retriever->batch_calls.load(), 1);
  EXPECT_EQ(retriever->last_batch_size.load(), requests.size());
  EXPECT_EQ(retriever->catalog_calls.load(), 0);
  EXPECT_EQ(retriever->score_calls.load(), 0);
}

// The batched retrieve with a real model behind the retriever tier: one
// batch mixing full-catalog requests, explicit pools and ragged history
// lengths (several lockstep groups in GRU4Rec's batched forward) scores
// every row bitwise like a per-request Score, at 1 and 4 threads and in any
// batch order. Catalog rows also match a hand composition over the
// retriever's per-history ScoreCatalog, which pins the identity-pool
// equivalence the batched path relies on.
TEST(TwoTierTest, BatchedRetrieveWithGru4RecMatchesPerRequestScores) {
  constexpr int64_t kItems = 57;
  constexpr int64_t kTopH = 5;
  const srmodels::Gru4Rec retriever_model(kItems, /*embedding_dim=*/12,
                                          /*seed=*/3);
  const srmodels::Gru4Rec reranker_model(kItems, /*embedding_dim=*/8,
                                         /*seed=*/11);
  std::shared_ptr<const serve::Scorer> retriever =
      serve::MakeSequentialScorer(&retriever_model);
  std::shared_ptr<const serve::Scorer> reranker =
      serve::MakeSequentialScorer(&reranker_model);
  serve::TwoTierOptions options;
  options.rerank_top_h = kTopH;
  auto made = serve::MakeTwoTierScorer(retriever, reranker, options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const serve::Scorer& two_tier = *made.value();

  std::mt19937_64 rng(17);
  std::vector<serve::ScoreRequest> requests;
  for (int64_t i = 0; i < 14; ++i) {
    serve::ScoreRequest request;
    const int64_t length = 1 + i % 4;  // Ragged: four lockstep groups.
    for (int64_t t = 0; t < length; ++t) {
      request.history.push_back(static_cast<int64_t>(rng() % kItems));
    }
    if (i % 3 != 0) {  // Two in three carry an explicit, shuffled pool.
      std::vector<int64_t> pool(kItems);
      std::iota(pool.begin(), pool.end(), 0);
      std::shuffle(pool.begin(), pool.end(), rng);
      pool.resize(3 + static_cast<size_t>(rng() % 20));
      request.candidates = pool;
    }
    requests.push_back(request);
  }

  std::vector<std::vector<float>> expected;
  {
    util::ScopedParallelism one(1);
    for (const serve::ScoreRequest& request : requests) {
      expected.push_back(two_tier.Score(request));
    }
  }
  for (const serve::ScoreRequest& request : requests) {
    if (!request.candidates.empty()) continue;
    const std::vector<float> composed = two_tier.Score(request);
    const std::vector<int64_t> order =
        eval::TopK(retriever->ScoreCatalog(request.history), kItems);
    serve::ScoreRequest head;
    head.history = request.history;
    head.candidates.assign(order.begin(), order.begin() + kTopH);
    const std::vector<float> direct = reranker->Score(head);
    for (int64_t j = 0; j < kTopH; ++j) {
      EXPECT_EQ(composed[order[j]], direct[j]) << "head position " << j;
    }
  }

  for (int threads : {1, 4}) {
    util::ScopedParallelism parallel(threads, /*min_work_per_dispatch=*/1);
    std::vector<size_t> permutation(requests.size());
    std::iota(permutation.begin(), permutation.end(), 0);
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<serve::ScoreRequest> batch;
      for (size_t index : permutation) batch.push_back(requests[index]);
      const std::vector<std::vector<float>> rows = two_tier.ScoreBatch(batch);
      ASSERT_EQ(rows.size(), batch.size());
      for (size_t b = 0; b < batch.size(); ++b) {
        EXPECT_EQ(Bits(rows[b]), Bits(expected[permutation[b]]))
            << "threads=" << threads << " trial=" << trial
            << " request=" << permutation[b];
      }
      std::shuffle(permutation.begin(), permutation.end(), rng);
    }
  }
}

TEST(TwoTierTest, ForwardsCapabilitiesAndPrefixLength) {
  const auto two_tier = MakeTwoTier(2);
  const serve::ScorerCapabilities capabilities = two_tier->Capabilities();
  EXPECT_TRUE(capabilities.full_catalog);
  EXPECT_EQ(capabilities.catalog_size, kCatalog);
  // Only re-ranked requests touch the teacher's prompt path, so the
  // composed per-request prefix skip is the re-ranker's.
  EXPECT_EQ(two_tier->CachedPrefixLength(), 42);
  EXPECT_NE(two_tier->name().find("fake-retriever"), std::string::npos);
  EXPECT_NE(two_tier->name().find("fake-reranker"), std::string::npos);
}

}  // namespace
}  // namespace delrec
