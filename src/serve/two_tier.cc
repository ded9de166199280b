#include "serve/two_tier.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "eval/topk.h"
#include "util/check.h"

namespace delrec::serve {
namespace {

class TwoTierScorer : public Scorer {
 public:
  TwoTierScorer(std::shared_ptr<const Scorer> retriever,
                std::shared_ptr<const Scorer> reranker,
                const TwoTierOptions& options)
      : retriever_(std::move(retriever)),
        reranker_(std::move(reranker)),
        options_(options) {}

  std::string name() const override {
    return "two-tier(" + retriever_->name() + " -> " + reranker_->name() +
           ", h=" + std::to_string(options_.rerank_top_h) + ")";
  }

  std::vector<float> Score(const ScoreRequest& request) const override {
    return ScoreImpl({request})[0];
  }

  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<ScoreRequest>& requests) const override {
    return ScoreImpl(requests);
  }

  // Both tiers read the history; re-ranked candidates are a subset of the
  // pool the retriever accepted.
  util::Status ValidateRequest(const ScoreRequest& request) const override {
    DELREC_RETURN_IF_ERROR(retriever_->ValidateRequest(request));
    return reranker_->ValidateRequest(request);
  }

  ScorerCapabilities Capabilities() const override {
    return retriever_->Capabilities();
  }

  std::vector<float> ScoreCatalog(
      const std::vector<int64_t>& history) const override {
    ScoreRequest request;
    request.history = history;
    return Score(request);  // Empty candidates = the full catalog.
  }

  int64_t CachedPrefixLength() const override {
    // Only re-ranked requests touch the teacher's prompt path, and each of
    // them is served from its prefix cache, so the per-request skip count
    // is the re-ranker's.
    return reranker_->CachedPrefixLength();
  }

 private:
  std::vector<std::vector<float>> ScoreImpl(
      const std::vector<ScoreRequest>& requests) const;

  std::shared_ptr<const Scorer> retriever_;
  std::shared_ptr<const Scorer> reranker_;
  TwoTierOptions options_;
};

std::vector<std::vector<float>> TwoTierScorer::ScoreImpl(
    const std::vector<ScoreRequest>& requests) const {
  const size_t count = requests.size();
  // Stage 1 — retrieve: one batched retriever call pre-ranks every pool.
  // An empty pool means the full catalog and becomes the explicit pool
  // [0, catalog_size): by the capability contract that scores exactly like
  // ScoreCatalog (legal because construction requires full_catalog), and
  // the whole batch reaches the retriever's batched path together.
  const int64_t catalog_size = retriever_->Capabilities().catalog_size;
  std::vector<ScoreRequest> pools = requests;
  for (ScoreRequest& pool : pools) {
    if (!pool.candidates.empty()) continue;
    pool.candidates.resize(catalog_size);
    std::iota(pool.candidates.begin(), pool.candidates.end(), 0);
  }
  const std::vector<std::vector<float>> retrieved =
      retriever_->ScoreBatch(pools);
  DELREC_CHECK_EQ(retrieved.size(), count);

  // Full retriever orderings (pool positions, best first), ties broken by
  // item id so the re-ranked set is pool-order invariant. Over an identity
  // pool this is exactly eval::TopK of the catalog scores.
  std::vector<std::vector<int64_t>> order(count);
  std::vector<ScoreRequest> rerank_requests(count);
  for (size_t i = 0; i < count; ++i) {
    const std::vector<int64_t>& pool = pools[i].candidates;
    DELREC_CHECK_EQ(retrieved[i].size(), pool.size());
    const int64_t n = static_cast<int64_t>(pool.size());
    order[i] = eval::TopKByIds(retrieved[i], pool, n);
    const int64_t h = std::min<int64_t>(options_.rerank_top_h, n);
    rerank_requests[i].history = std::move(pools[i].history);
    rerank_requests[i].candidates.reserve(h);
    for (int64_t j = 0; j < h; ++j) {
      rerank_requests[i].candidates.push_back(pool[order[i][j]]);
    }
  }

  // Stage 2 — re-rank the heads with the expensive tier, one batched call.
  const std::vector<std::vector<float>> reranked =
      reranker_->ScoreBatch(rerank_requests);
  DELREC_CHECK_EQ(reranked.size(), count);

  // Compose: re-ranker scores verbatim for the head (bit-identical to
  // re-ranking the retriever's top-h directly), tail mapped strictly below
  // the head in retriever order. The tail step exceeds one ulp of the head
  // minimum, so every tail score is distinct and strictly smaller — the
  // final ranking is exactly (teacher order over top-h, then retriever
  // order) with no float absorption.
  std::vector<std::vector<float>> results(count);
  for (size_t i = 0; i < count; ++i) {
    const int64_t n = static_cast<int64_t>(order[i].size());
    const int64_t h = static_cast<int64_t>(reranked[i].size());
    results[i].resize(n);
    float head_min = 0.0f;
    for (int64_t j = 0; j < h; ++j) {
      results[i][order[i][j]] = reranked[i][j];
      head_min = j == 0 ? reranked[i][j] : std::min(head_min, reranked[i][j]);
    }
    const double step =
        std::max(1.0, static_cast<double>(std::fabs(head_min)) * 1e-6);
    for (int64_t j = h; j < n; ++j) {
      results[i][order[i][j]] = static_cast<float>(
          static_cast<double>(head_min) -
          step * static_cast<double>(j - h + 1));
    }
  }
  return results;
}

}  // namespace

util::Status TwoTierOptions::Validate() const {
  if (rerank_top_h < 1) {
    return util::Status::InvalidArgument(
        "TwoTierOptions.rerank_top_h must be >= 1, got " +
        std::to_string(rerank_top_h));
  }
  return util::Status::Ok();
}

util::StatusOr<std::unique_ptr<Scorer>> MakeTwoTierScorer(
    std::shared_ptr<const Scorer> retriever,
    std::shared_ptr<const Scorer> reranker, const TwoTierOptions& options) {
  DELREC_RETURN_IF_ERROR(options.Validate());
  if (retriever == nullptr || reranker == nullptr) {
    return util::Status::InvalidArgument(
        "two-tier composition requires both tiers");
  }
  const ScorerCapabilities capabilities = retriever->Capabilities();
  if (!capabilities.full_catalog || capabilities.catalog_size < 1) {
    return util::Status::InvalidArgument(
        retriever->name() +
        " does not declare full-catalog capability; it cannot retrieve");
  }
  return std::unique_ptr<Scorer>(std::make_unique<TwoTierScorer>(
      std::move(retriever), std::move(reranker), options));
}

util::StatusOr<std::shared_ptr<const Scorer>> MakeSnapshotTwoTier(
    std::shared_ptr<const EngineSnapshot> snapshot,
    const TwoTierOptions& options) {
  if (snapshot == nullptr) {
    return util::Status::InvalidArgument("null snapshot");
  }
  if (!snapshot->has_student()) {
    return util::Status::InvalidArgument(
        "snapshot embeds no student blob; rebuild it with one attached");
  }
  // The retriever adapter borrows the snapshot's student; the re-ranker
  // tier IS the snapshot, and the composed scorer holds it by shared_ptr,
  // so the published artifact keeps both tiers alive and swaps them as one
  // version — there is no window where student and teacher mismatch.
  std::shared_ptr<const Scorer> retriever =
      MakeSequentialScorer(snapshot->student());
  DELREC_ASSIGN_OR_RETURN(
      std::unique_ptr<Scorer> two_tier,
      MakeTwoTierScorer(std::move(retriever), std::move(snapshot), options));
  return std::shared_ptr<const Scorer>(std::move(two_tier));
}

}  // namespace delrec::serve
