// Tracing from outside the program: spans recorded around calls into each
// layer's public functions, by decorators that sit behind the Scorer seam
// and by a replica of EngineSnapshot::ScoreBatch assembled from the public
// calls it makes. The replica and the decorated scorers are checked
// bitwise against their plain counterparts before a traced run uses them.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "llm/prompt.h"
#include "llm/verbalizer.h"
#include "nn/tensor.h"
#include "serve/scorer.h"
#include "serve/snapshot.h"

namespace perfbench {

int64_t NowNs();

/// Every layer a span can name. kScorerBatch is the root: the published
/// scorer's whole service time per batch.
enum class Layer : uint8_t {
  kScorerBatch,     // scorer.batch
  kTwoTierCompose,  // two_tier.compose
  kRetrieve,        // two_tier.retrieve
  kRerank,          // two_tier.rerank
  kSnapshotBatch,   // snapshot.score_batch (replica root)
  kPrompt,          // llm.prompt (one request)
  kSrHint,          // core.sr_hint (one request)
  kSplit,           // llm.split
  kEncode,          // llm.encode
  kHead,            // llm.head
  kVerbalize,       // llm.verbalize (one request)
  kCount,
};
constexpr int kLayerCount = static_cast<int>(Layer::kCount);
const char* LayerName(Layer layer);

struct Span {
  int64_t id = 0;
  int64_t parent = -1;  // -1 for a root span.
  int64_t batch = -1;   // Id of the enclosing scorer.batch span.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t request = -1;  // Index within the batch; -1 for batch-level spans.
  int32_t requests = 0;  // Requests this call covers.
  int64_t work = 0;      // Tokens encoded (encode) or rows computed (head).
  double flops = 0.0;    // Arithmetic of the call, from tensor shapes.
  Layer layer = Layer::kScorerBatch;
};

/// Process-wide span recorder. Spans go to per-thread buffers; nothing is
/// written out until the run ends.
class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool enabled();
  /// Moves every recorded span out of the per-thread buffers. Call only
  /// when no traced call is in flight.
  static std::vector<Span> Drain();
};

class ScopedSpan {
 public:
  ScopedSpan(Layer layer, int64_t requests, int32_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_work(int64_t work, double flops) {
    span_.work = work;
    span_.flops = flops;
  }

 private:
  bool active_ = false;
  Span span_;
};

/// Per-layer sums over a set of spans. Self time is a span's duration minus
/// the durations of its child spans.
struct LayerTotals {
  double self_ns = 0.0;
  double inclusive_ns = 0.0;
  int64_t calls = 0;
  int64_t requests = 0;
  int64_t work = 0;
  double flops = 0.0;
};
std::array<LayerTotals, kLayerCount> Aggregate(const std::vector<Span>& spans);

/// Writes spans as JSON lines (one span per line). Returns false on an I/O
/// error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// Records one span per call into `inner` and forwards everything else.
class TimedScorer : public delrec::serve::Scorer {
 public:
  TimedScorer(std::shared_ptr<const delrec::serve::Scorer> inner, Layer layer);

  std::string name() const override { return inner_->name(); }
  std::vector<float> Score(
      const delrec::serve::ScoreRequest& request) const override;
  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<delrec::serve::ScoreRequest>& requests) const override;
  delrec::serve::ScorerCapabilities Capabilities() const override {
    return inner_->Capabilities();
  }
  std::vector<float> ScoreCatalog(
      const std::vector<int64_t>& history) const override;
  int64_t CachedPrefixLength() const override {
    return inner_->CachedPrefixLength();
  }

 private:
  std::shared_ptr<const delrec::serve::Scorer> inner_;
  Layer layer_;
};

/// EngineSnapshot::ScoreBatch rebuilt from the public calls it makes
/// (core::inference prompt building, PromptBuilder::Split,
/// TinyLm::EncodeBatchWithPrefix, TinyLm::LogitsAtRows,
/// Verbalizer::ScoresFromRow), with a span around each. Runs the batch as
/// one chunk, which the snapshot's composition-invariance contract makes
/// bit-identical to its own partitioned run. Requires a prefix-cached
/// snapshot.
class ReplicaScorer : public delrec::serve::Scorer {
 public:
  ReplicaScorer(std::shared_ptr<const delrec::serve::EngineSnapshot> snapshot,
                const delrec::serve::EngineSnapshot::Sources& sources);

  std::string name() const override { return "replica of " + snapshot_->name(); }
  std::vector<float> Score(
      const delrec::serve::ScoreRequest& request) const override;
  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<delrec::serve::ScoreRequest>& requests) const override;
  int64_t CachedPrefixLength() const override {
    return snapshot_->CachedPrefixLength();
  }

 private:
  std::shared_ptr<const delrec::serve::EngineSnapshot> snapshot_;
  delrec::serve::EngineSnapshot::Sources sources_;
  delrec::llm::PromptBuilder builder_;
  delrec::llm::Verbalizer verbalizer_;
  delrec::nn::Tensor table_;  // Undefined when the table is int8.
};

/// The traced form of a served scorer: a scorer.batch root over either the
/// replica (teacher-only) or a two-tier composition, re-ranking the top
/// `rerank_top_h` (0 = teacher-only), whose retriever and re-ranker are
/// decorated and whose re-ranker is the replica.
std::shared_ptr<const delrec::serve::Scorer> MakeTracedScorer(
    std::shared_ptr<const delrec::serve::EngineSnapshot> snapshot,
    const delrec::serve::EngineSnapshot::Sources& sources,
    int64_t rerank_top_h);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
