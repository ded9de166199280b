#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/delrec.h"
#include "serve/two_tier.h"
#include "util/check.h"

namespace perfbench {

using namespace delrec;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kScorerBatch: return "scorer.batch";
    case Layer::kTwoTierCompose: return "two_tier.compose";
    case Layer::kRetrieve: return "two_tier.retrieve";
    case Layer::kRerank: return "two_tier.rerank";
    case Layer::kSnapshotBatch: return "snapshot.score_batch";
    case Layer::kPrompt: return "llm.prompt";
    case Layer::kSrHint: return "core.sr_hint";
    case Layer::kSplit: return "llm.split";
    case Layer::kEncode: return "llm.encode";
    case Layer::kHead: return "llm.head";
    case Layer::kVerbalize: return "llm.verbalize";
    case Layer::kCount: break;
  }
  return "?";
}

namespace {

std::atomic<bool> g_enabled{false};

// One per thread that ever recorded a span; owned by the registry so spans
// outlive their thread until Drain().
struct ThreadBuffer {
  std::mutex mutex;  // Guards spans against a concurrent Drain().
  std::vector<Span> spans;
  std::vector<int64_t> open;  // Ids of this thread's open spans.
  int64_t batch = -1;
  int64_t next_id = 0;
};

std::mutex g_registry_mutex;
std::vector<std::shared_ptr<ThreadBuffer>>& Registry() {
  static auto* registry = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *registry;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto created = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    created->next_id = static_cast<int64_t>(Registry().size()) << 40;
    Registry().push_back(created);
    return created;
  }();
  return *buffer;
}

// Multiply-adds x2 of one suffix-only encode, from tensor shapes: per block
// the Q/K/V and output projections, attention scores and the weighted sum
// over prefix + suffix keys, and the two FFN projections. Norms, softmax,
// adapters and the gather are left out.
double EncodeFlops(const llm::TinyLmConfig& config, int64_t prefix,
                   const std::vector<llm::SequenceSpan>& spans) {
  const double d = static_cast<double>(config.model_dim);
  const double f = static_cast<double>(config.ffn_dim);
  double per_layer = 0.0;
  for (const llm::SequenceSpan& span : spans) {
    const double s = static_cast<double>(span.length);
    const double keys = static_cast<double>(prefix) + s;
    per_layer += 2.0 * s * d * d * 4.0 + 2.0 * 2.0 * s * keys * d +
                 2.0 * 2.0 * s * d * f;
  }
  return per_layer * static_cast<double>(config.num_layers);
}

}  // namespace

void Tracer::SetEnabled(bool enabled) { g_enabled.store(enabled); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> Tracer::Drain() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buffer : Registry()) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return all;
}

ScopedSpan::ScopedSpan(Layer layer, int64_t requests, int32_t request) {
  if (!Tracer::enabled()) return;
  active_ = true;
  ThreadBuffer& buffer = LocalBuffer();
  span_.id = buffer.next_id++;
  span_.parent = buffer.open.empty() ? -1 : buffer.open.back();
  if (layer == Layer::kScorerBatch) buffer.batch = span_.id;
  span_.batch = buffer.batch;
  span_.layer = layer;
  span_.request = request;
  span_.requests = static_cast<int32_t>(requests);
  buffer.open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.open.pop_back();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.spans.push_back(span_);
}

std::array<LayerTotals, kLayerCount> Aggregate(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    auto it = index.find(span.parent);
    if (it == index.end()) continue;  // Parent drained in another window.
    self[it->second] -= static_cast<double>(span.end_ns - span.start_ns);
  }
  std::array<LayerTotals, kLayerCount> totals{};
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = totals[static_cast<int>(spans[i].layer)];
    t.self_ns += self[i];
    t.inclusive_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    t.calls += 1;
    t.requests += spans[i].requests;
    t.work += spans[i].work;
    t.flops += spans[i].flops;
  }
  return totals;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"batch\":%lld,"
                 "\"request\":%d,\"requests\":%d,\"work\":%lld,\"flops\":%.0f,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 LayerName(s.layer), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.batch), s.request, s.requests,
                 static_cast<long long>(s.work), s.flops,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

TimedScorer::TimedScorer(std::shared_ptr<const serve::Scorer> inner,
                         Layer layer)
    : inner_(std::move(inner)), layer_(layer) {
  DELREC_CHECK(inner_ != nullptr);
}

std::vector<float> TimedScorer::Score(const serve::ScoreRequest& request) const {
  ScopedSpan span(layer_, 1);
  return inner_->Score(request);
}

std::vector<std::vector<float>> TimedScorer::ScoreBatch(
    const std::vector<serve::ScoreRequest>& requests) const {
  ScopedSpan span(layer_, static_cast<int64_t>(requests.size()));
  return inner_->ScoreBatch(requests);
}

std::vector<float> TimedScorer::ScoreCatalog(
    const std::vector<int64_t>& history) const {
  ScopedSpan span(layer_, 1);
  return inner_->ScoreCatalog(history);
}

ReplicaScorer::ReplicaScorer(
    std::shared_ptr<const serve::EngineSnapshot> snapshot,
    const serve::EngineSnapshot::Sources& sources)
    : snapshot_(std::move(snapshot)),
      sources_(sources),
      builder_(sources.catalog, sources.vocab),
      verbalizer_(*sources.catalog, *sources.vocab) {
  DELREC_CHECK(snapshot_->prefix_state().defined())
      << "the replica serves the prefix-cached path only";
  // The snapshot materializes the fp32 effective table once at build time;
  // with an int8 table it keeps none and the kernels read the packed form.
  if (!snapshot_->llm().embedding_table_quantized()) {
    table_ = snapshot_->llm().MaterializeTokenTable();
  }
}

std::vector<float> ReplicaScorer::Score(
    const serve::ScoreRequest& request) const {
  return ScoreBatch({request}).front();
}

std::vector<std::vector<float>> ReplicaScorer::ScoreBatch(
    const std::vector<serve::ScoreRequest>& requests) const {
  if (requests.empty()) return {};
  const int64_t n = static_cast<int64_t>(requests.size());
  ScopedSpan root(Layer::kSnapshotBatch, n);
  const core::DelRecConfig& config = snapshot_->config();
  const llm::TinyLm& lm = snapshot_->llm();
  const llm::TinyLm::PrefixState& prefix = snapshot_->prefix_state();

  std::vector<llm::Prompt> prompts;
  prompts.reserve(requests.size());
  for (int64_t i = 0; i < n; ++i) {
    const serve::ScoreRequest& request = requests[i];
    ScopedSpan span(Layer::kPrompt, 1, static_cast<int32_t>(i));
    const std::vector<int64_t> window =
        core::inference::WindowHistory(config, request.history);
    std::vector<int64_t> hints;
    {
      ScopedSpan hint(Layer::kSrHint, 1, static_cast<int32_t>(i));
      hints = core::inference::ActiveHintTokens(config, builder_,
                                                *sources_.sr_model, window);
    }
    prompts.push_back(builder_.BuildRecommendation(
        window, core::inference::PromptCandidates(config, request.candidates),
        core::inference::ActiveSoftPrompts(config, snapshot_->soft_prompts()),
        hints, nn::Tensor()));
  }

  std::vector<llm::SplitPrompt> splits(requests.size());
  std::vector<const std::vector<llm::PromptPiece>*> pieces;
  pieces.reserve(requests.size());
  {
    ScopedSpan span(Layer::kSplit, n);
    for (int64_t i = 0; i < n; ++i) {
      DELREC_CHECK_EQ(prompts[i].prefix_length, prefix.length);
      splits[i] = llm::PromptBuilder::Split(prompts[i]);
      pieces.push_back(&splits[i].suffix);
    }
  }

  std::vector<llm::SequenceSpan> spans;
  nn::Tensor hidden;
  {
    ScopedSpan span(Layer::kEncode, n);
    hidden = lm.EncodeBatchWithPrefix(prefix, pieces, table_, &spans);
    span.set_work(hidden.shape()[0], EncodeFlops(lm.config(), prefix.length,
                                                 spans));
  }
  std::vector<int64_t> mask_rows;
  mask_rows.reserve(requests.size());
  for (int64_t i = 0; i < n; ++i) {
    mask_rows.push_back(spans[i].begin + prompts[i].mask_position -
                        prefix.length);
  }

  nn::Tensor logits;
  {
    ScopedSpan span(Layer::kHead, n);
    logits = lm.LogitsAtRows(hidden, mask_rows, table_);
    span.set_work(n, 2.0 * static_cast<double>(n) * lm.model_dim() *
                         lm.vocab_size());
  }
  std::vector<std::vector<float>> results(requests.size());
  const float* rows = logits.data().data();
  const int64_t vocab = lm.vocab_size();
  for (int64_t i = 0; i < n; ++i) {
    ScopedSpan span(Layer::kVerbalize, 1, static_cast<int32_t>(i));
    results[i] =
        verbalizer_.ScoresFromRow(rows + i * vocab, requests[i].candidates);
  }
  return results;
}

std::shared_ptr<const serve::Scorer> MakeTracedScorer(
    std::shared_ptr<const serve::EngineSnapshot> snapshot,
    const serve::EngineSnapshot::Sources& sources, int64_t rerank_top_h) {
  auto replica = std::make_shared<const ReplicaScorer>(snapshot, sources);
  if (rerank_top_h == 0) {
    return std::make_shared<const TimedScorer>(replica, Layer::kScorerBatch);
  }
  // The retriever adapter borrows the student from `snapshot`, which the
  // replica (the re-ranker tier) keeps alive.
  std::shared_ptr<const serve::Scorer> retriever =
      serve::MakeSequentialScorer(snapshot->student());
  serve::TwoTierOptions options;
  options.rerank_top_h = rerank_top_h;
  auto composed = serve::MakeTwoTierScorer(
      std::make_shared<const TimedScorer>(retriever, Layer::kRetrieve),
      std::make_shared<const TimedScorer>(replica, Layer::kRerank), options);
  DELREC_CHECK(composed.ok()) << composed.status().ToString();
  std::shared_ptr<const serve::Scorer> compose =
      std::make_shared<const TimedScorer>(
          std::shared_ptr<const serve::Scorer>(std::move(composed.value())),
          Layer::kTwoTierCompose);
  return std::make_shared<const TimedScorer>(compose, Layer::kScorerBatch);
}

}  // namespace perfbench
