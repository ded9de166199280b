#ifndef DELREC_EVAL_TOPK_H_
#define DELREC_EVAL_TOPK_H_

#include <cstdint>
#include <vector>

namespace delrec::eval {

/// The repo's single top-k selection: positions of the k highest scores,
/// best first, ties broken toward the smaller position. This is the exact
/// ordering srmodels::TopKFromScores has always produced (it now delegates
/// here) and the positional RankOfTarget counts against, deduplicating the
/// partial-sort-with-tie-break logic that used to live in each caller.
/// k >= scores.size() returns the full order (a std::sort, not a heap sort).
std::vector<int64_t> TopK(const std::vector<float>& scores, int64_t k);
/// The same order over a raw row of `count` scores, e.g. one row of a
/// batched (B × catalog) score buffer.
std::vector<int64_t> TopK(const float* scores, int64_t count, int64_t k);

/// As above over a candidate pool with explicit item ids: returns positions
/// into `scores`/`item_ids`, but ties break by the smaller *item id* rather
/// than position, matching the id-aware RankOfTarget overload. The selected
/// set (as ids) is then invariant under any permutation of the pool — the
/// property the two-tier retriever needs so the teacher re-ranks the same
/// top-h whatever order the retriever saw candidates in. `item_ids` must be
/// distinct and parallel to `scores`.
std::vector<int64_t> TopKByIds(const std::vector<float>& scores,
                               const std::vector<int64_t>& item_ids,
                               int64_t k);

}  // namespace delrec::eval

#endif  // DELREC_EVAL_TOPK_H_
