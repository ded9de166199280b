#include "eval/topk.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace delrec::eval {
namespace {

// Positions of the k best entries under `better`, best first. `better` is a
// strict total order (score, then a distinct tie key), so the sorted prefix
// is unique: a full std::sort when k covers every entry — the two-tier
// retriever's whole-pool order, cheaper than a heap sort — and
// std::partial_sort otherwise return identical positions.
template <typename Better>
std::vector<int64_t> OrderedPositions(size_t n, int64_t k, Better better) {
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  k = std::clamp<int64_t>(k, 0, static_cast<int64_t>(n));
  if (k == static_cast<int64_t>(n)) {
    std::sort(order.begin(), order.end(), better);
  } else {
    std::partial_sort(order.begin(), order.begin() + k, order.end(), better);
    order.resize(k);
  }
  return order;
}

}  // namespace

std::vector<int64_t> TopK(const std::vector<float>& scores, int64_t k) {
  return TopK(scores.data(), static_cast<int64_t>(scores.size()), k);
}

std::vector<int64_t> TopK(const float* scores, int64_t count, int64_t k) {
  return OrderedPositions(static_cast<size_t>(count), k,
                          [&](int64_t a, int64_t b) {
                            if (scores[a] != scores[b]) {
                              return scores[a] > scores[b];
                            }
                            return a < b;
                          });
}

std::vector<int64_t> TopKByIds(const std::vector<float>& scores,
                               const std::vector<int64_t>& item_ids,
                               int64_t k) {
  DELREC_CHECK_EQ(scores.size(), item_ids.size());
  return OrderedPositions(scores.size(), k, [&](int64_t a, int64_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return item_ids[a] < item_ids[b];
  });
}

}  // namespace delrec::eval
