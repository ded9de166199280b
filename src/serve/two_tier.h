#ifndef DELREC_SERVE_TWO_TIER_H_
#define DELREC_SERVE_TWO_TIER_H_

#include <cstdint>
#include <memory>

#include "serve/scorer.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace delrec::serve {

struct TwoTierOptions {
  /// Candidates the re-ranker (teacher) re-scores after the retriever
  /// (student) pre-ranks. The quality/cost dial: h = pool size degenerates
  /// to teacher-only quality at teacher-only cost, h = 0 is rejected.
  int64_t rerank_top_h = 8;

  /// InvalidArgument when rerank_top_h < 1.
  util::Status Validate() const;
};

/// Composes a cheap full-catalog retriever with an expensive candidate
/// re-ranker behind the ordinary Scorer seam (DESIGN.md §16):
///
///  1. The retriever scores every request's candidate pool in one batched
///     call (a request with no explicit candidates pools the full catalog
///     [0, catalog_size) — allowed only because the retriever declares
///     full_catalog capability, which construction enforces).
///  2. The top-h of the retriever ordering (ties by item id, via
///     eval::TopKByIds, so the selected *set* is pool-order invariant) go
///     to the re-ranker in one batched call.
///  3. The response keeps the re-ranker's scores verbatim for those h
///     candidates — bit-identical to re-ranking the retriever's top-h
///     directly, the property tests/two_tier_test.cc pins — and maps the
///     remaining tail strictly below them, preserving the retriever's
///     relative order.
///
/// The result is itself a Scorer with the full batch-invariance contract,
/// so it drops into RecommendationEngine/ShardedServer untouched: a
/// two-tier artifact publishes, hot-swaps, and version-tags exactly like a
/// single-model snapshot. CachedPrefixLength forwards the re-ranker's
/// (only re-ranked requests touch the teacher's prefix cache).
///
/// Both tiers are held by shared_ptr; `MakeSnapshotTwoTier` below builds
/// the common production shape where both point into one EngineSnapshot.
util::StatusOr<std::unique_ptr<Scorer>> MakeTwoTierScorer(
    std::shared_ptr<const Scorer> retriever,
    std::shared_ptr<const Scorer> reranker, const TwoTierOptions& options);

/// Builds the atomic two-tier serving artifact from a snapshot that embeds
/// a distilled student blob: retriever = the snapshot's student, re-ranker
/// = the snapshot's teacher. The returned scorer shares ownership of the
/// snapshot, so publishing it to a SnapshotHandle swaps student and
/// teacher together as one version — no window where tiers mismatch.
/// InvalidArgument when the snapshot has no student.
util::StatusOr<std::shared_ptr<const Scorer>> MakeSnapshotTwoTier(
    std::shared_ptr<const EngineSnapshot> snapshot,
    const TwoTierOptions& options);

}  // namespace delrec::serve

#endif  // DELREC_SERVE_TWO_TIER_H_
