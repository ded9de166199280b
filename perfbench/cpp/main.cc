// perfbench: the repo benchmark binary. One process per run: it generates
// the workload's catalog from --seed, trains and freezes the real stack,
// serves it through serve::ShardedServer under a self-generated load, checks
// every output it can, and prints its metrics. Normally driven by
// perfbench/run.py, which builds it and passes the per-workload settings
// from perfbench/workloads.json.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --nominal-rps R --ladder r1,r2,... --latency-limit-ms L
//             --bound B [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the separate
// traced pass and reports the per-layer metrics. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/protocol.h"
#include "load.h"
#include "nn/gemm.h"
#include "pipeline.h"
#include "serve/sharded_server.h"
#include "trace.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace perfbench {

// Serve tier under test: fixed for every workload.
constexpr int kShards = 2;

namespace {

using namespace delrec;

constexpr int64_t kMaxBatch = 16;
constexpr double kLingerMs = 1.0;
constexpr int64_t kMaxQueueDepth = 256;
// Closed loop: enough outstanding requests for both shards' batches to fill.
constexpr int kClosedWindow = 2 * kShards * static_cast<int>(kMaxBatch);
// Latencies of non-ok responses, so they miss any limit and stay finite JSON.
constexpr double kFailedLatencyMs = 1e6;
constexpr int kMinEvalExamples = 300;
constexpr int kEvalDraws = 3;
constexpr double kSwapPeriodS = 1.0;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr int kThroughputWindows = 16;
// Untraced run: closed and open loop alternate this many times.
constexpr int kRounds = 8;
// Requests per run of WindowedPercentile for the p95 tail: 10 beyond p95.
constexpr size_t kTailRun = 200;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  double nominal_rps = 0.0;
  std::vector<double> ladder;
  double latency_limit_ms = 0.0;
  double bound = 0.1;
  int client_threads = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--nominal-rps") {
      args->nominal_rps = std::atof(value.c_str());
    } else if (key == "--ladder") {
      size_t begin = 0;
      while (begin < value.size()) {
        size_t end = value.find(',', begin);
        if (end == std::string::npos) end = value.size();
        args->ladder.push_back(std::atof(value.substr(begin, end - begin).c_str()));
        begin = end + 1;
      }
    } else if (key == "--latency-limit-ms") {
      args->latency_limit_ms = std::atof(value.c_str());
    } else if (key == "--bound") {
      args->bound = std::atof(value.c_str());
    } else if (key == "--client-threads") {
      args->client_threads = std::atoi(value.c_str());
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (args->workload.empty() || args->seconds <= 0.0 ||
      args->nominal_rps <= 0.0 || args->ladder.empty() ||
      args->latency_limit_ms <= 0.0 ||
      !std::is_sorted(args->ladder.begin(), args->ladder.end())) {
    std::fprintf(stderr, "missing or invalid arguments\n");
    return false;
  }
  return true;
}

// ---- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples) {
    metrics_.push_back({name, value, unit, samples});
  }
  void Fail(const std::string& why) {
    failures_.push_back(why);
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  bool correct() const { return failures_.empty(); }

  // Human-readable table, then the result line (last line of stdout).
  void Print(int64_t attempted, int64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-34s %16.6f %-8s n=%lld\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    }
    std::printf("samples {");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": %lld", i ? ", " : "", metrics_[i].name.c_str(),
                  static_cast<long long>(metrics_[i].samples));
    }
    std::printf("}\n");
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                        : kFailedLatencyMs;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), v,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// ---- Host calibration -------------------------------------------------------

// 256^3 GemmNN, median of 15 timed calls, GFLOP/s.
double CalibrateGemm() {
  constexpr int64_t n = 256;
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (int64_t i = 0; i < n * n; ++i) {
    a[i] = static_cast<float>((i * 7) % 13) * 0.01f;
    b[i] = static_cast<float>((i * 5) % 11) * 0.01f;
  }
  nn::GemmNN(a.data(), b.data(), c.data(), n, n, n, false);
  std::vector<double> seconds;
  for (int rep = 0; rep < 15; ++rep) {
    const int64_t t0 = NowNs();
    nn::GemmNN(a.data(), b.data(), c.data(), n, n, n, false);
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return 2.0 * n * n * n / Median(seconds) / 1e9;
}

// ---- Serving helpers --------------------------------------------------------

serve::ShardedServerOptions ServerOptions() {
  serve::ShardedServerOptions options;
  options.num_shards = kShards;
  options.engine.max_batch_size = kMaxBatch;
  options.engine.batch_deadline_ms = kLingerMs;
  options.engine.max_queue_depth = kMaxQueueDepth;
  return options;
}

// Every published scorer by version, for checking responses against the
// exact snapshot that served them.
class VersionBook {
 public:
  void Put(uint64_t version, std::shared_ptr<const serve::Scorer> scorer) {
    std::lock_guard<std::mutex> lock(mutex_);
    scorers_[version] = std::move(scorer);
  }
  std::shared_ptr<const serve::Scorer> Get(uint64_t version) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = scorers_.find(version);
    return it == scorers_.end() ? nullptr : it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::map<uint64_t, std::shared_ptr<const serve::Scorer>> scorers_;
};

// Rebuilds the snapshot from its checkpoint blobs and hot-swaps it in about
// once a second, for as long as it lives.
class Swapper {
 public:
  using Build =
      std::function<std::shared_ptr<const serve::Scorer>()>;
  Swapper(serve::ShardedServer* server, VersionBook* book, Build build)
      : server_(server), book_(book), build_(std::move(build)) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Swapper() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Swapper(const Swapper&) = delete;
  Swapper& operator=(const Swapper&) = delete;

  // Rebuild times so far, ms.
  std::vector<double> build_ms() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return build_ms_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(kSwapPeriodS),
                         [this] { return stop_; })) {
      lock.unlock();
      const int64_t t0 = NowNs();
      std::shared_ptr<const serve::Scorer> next = build_();
      const double ms = static_cast<double>(NowNs() - t0) / 1e6;
      const uint64_t version = server_->PublishSnapshot(next);
      book_->Put(version, std::move(next));
      lock.lock();
      build_ms_.push_back(ms);
    }
  }

  serve::ShardedServer* server_;
  VersionBook* book_;
  Build build_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> build_ms_;
  std::thread thread_;  // Last: starts after every member it reads.
};

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(float)) == 0);
}

// Served responses must equal the single-request Score() of the snapshot
// version that served them, and every version (all rebuilt from the same
// blobs) must agree with version 1.
void VerifySamples(const std::vector<SampledResponse>& samples,
                   const RequestPool& pool, const VersionBook& book,
                   Report* report) {
  int64_t mismatches = 0;
  const auto first = book.Get(1);
  for (const SampledResponse& sample : samples) {
    const auto scorer = book.Get(sample.version);
    if (scorer == nullptr) {
      report->Fail("response tagged with unknown snapshot version " +
                   std::to_string(sample.version));
      return;
    }
    const std::vector<float> expected =
        scorer->Score(pool.requests[sample.request]);
    if (!BitwiseEqual(expected, sample.scores)) ++mismatches;
    if (sample.version != 1 &&
        !BitwiseEqual(first->Score(pool.requests[sample.request]),
                      sample.scores)) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) + " of " +
                 std::to_string(samples.size()) +
                 " sampled responses differ from Score() of their version");
  }
  std::printf("verified %zu sampled responses bitwise\n", samples.size());
}

// submitted = ok + shed + failed on the client, and the same on the server.
void VerifyAccounting(const Outcome& client,
                      const serve::RecommendationEngine::Stats& stats,
                      Report* report) {
  if (client.unresolved > 0) {
    report->Fail(std::to_string(client.unresolved) + " futures never resolved");
  }
  const int64_t not_ok = client.shed + client.failed;
  const int64_t server_not_ok = static_cast<int64_t>(
      stats.shed_queue_full + stats.shed_deadline + stats.shed_shutdown +
      stats.scorer_failures);
  if (client.submitted != client.ok + not_ok + client.unresolved ||
      static_cast<int64_t>(stats.submitted) != client.submitted ||
      static_cast<int64_t>(stats.scored) != client.ok ||
      server_not_ok != not_ok) {
    report->Fail("accounting mismatch: client submitted/ok/not-ok " +
                 std::to_string(client.submitted) + "/" +
                 std::to_string(client.ok) + "/" + std::to_string(not_ok) +
                 ", server " + std::to_string(stats.submitted) + "/" +
                 std::to_string(stats.scored) + "/" +
                 std::to_string(server_not_ok));
  }
}

// Replaces non-ok latencies (+inf) with the finite sentinel.
std::vector<double> Finite(std::vector<double> values) {
  for (double& v : values) {
    if (!std::isfinite(v)) v = kFailedLatencyMs;
  }
  return values;
}

// NDCG@5 of `scorer` on the harness candidate protocol over every held-out
// example (validation and test: neither is trained on), averaged over
// kEvalDraws candidate draws. Deterministic per seed.
struct Quality {
  double ndcg5 = 0.0;
  int64_t count = 0;  // Ranked candidate sets.
};

Quality EvaluateServed(const serve::Scorer& scorer, const Catalog& catalog) {
  std::vector<data::Example> held_out = catalog.workbench->splits().validation;
  const std::vector<data::Example>& test = catalog.workbench->splits().test;
  held_out.insert(held_out.end(), test.begin(), test.end());
  Quality quality;
  for (int draw = 0; draw < kEvalDraws; ++draw) {
    eval::EvalConfig config;
    config.candidate_count = 15;
    config.max_examples = 0;
    config.num_threads = 1;
    config.seed += static_cast<uint64_t>(draw);
    const eval::RankedMetrics metrics =
        eval::EvaluateCandidates(
            held_out, catalog.workbench->num_items(),
            [&](const data::Example& example,
                const std::vector<int64_t>& candidates) {
              serve::ScoreRequest request;
              request.history = example.history;
              request.candidates = candidates;
              return scorer.Score(request);
            },
            config)
            .Result();
    quality.ndcg5 += metrics.ndcg_at_5 / kEvalDraws;
    quality.count += metrics.count;
  }
  return quality;
}

struct LadderResult {
  double goodput_rps = 0.0;
  int probes = 0;
  Outcome outcome;
};

// Binary search for the highest ladder rate whose step keeps p99 within the
// limit, sheds nothing, and does not grow its backlog. A failed step is run
// once more and decides on the second try: a second of host slowness should
// not end the search below the knee.
LadderResult SearchGoodput(serve::ShardedServer& server,
                           const RequestPool& pool, util::Rng& rng,
                           const Args& args, double step_s,
                           std::vector<SampledResponse>* samples) {
  LadderResult result;
  LoadOptions options;
  options.sample_every = 101;
  auto step_passes = [&](double rate) {
    PhaseResult step = RunOpenLoop(server, pool, rng, rate, step_s, options);
    ++result.probes;
    result.outcome.Add(step.outcome);
    samples->insert(samples->end(), step.samples.begin(), step.samples.end());
    const double p99 = Percentile(Finite(step.latency_ms), 0.99);
    const bool shed =
        step.outcome.shed + step.outcome.failed + step.outcome.unresolved > 0;
    const bool growing =
        step.backlog_q4 > 2.0 * step.backlog_q2 + static_cast<double>(kMaxBatch);
    const bool pass = p99 <= args.latency_limit_ms && !shed && !growing;
    std::printf("ladder %8.1f req/s: p99 %.3f ms, shed %lld, backlog %.1f -> "
                "%.1f: %s\n",
                rate, p99,
                static_cast<long long>(step.outcome.shed + step.outcome.failed),
                step.backlog_q2, step.backlog_q4, pass ? "pass" : "fail");
    return pass;
  };
  int lo = -1;
  int hi = static_cast<int>(args.ladder.size());
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rate = args.ladder[mid];
    if (step_passes(rate) || step_passes(rate)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  result.goodput_rps = lo >= 0 ? args.ladder[lo] : 0.0;
  return result;
}

int ProbeCount(size_t ladder_size) {
  int probes = 0;
  for (size_t span = ladder_size + 1; span > 1; span = (span + 1) / 2) {
    ++probes;
  }
  return probes;
}

// ---- The untraced run: end-to-end metrics ------------------------------------

int RunEndToEnd(const Args& args, const WorkloadShape& shape) {
  Report report;
  const double calib_start = CalibrateGemm();

  // Set up several times; the last set-up serves.
  std::vector<double> setup_s;
  Catalog catalog;
  Trained trained;
  std::unique_ptr<serve::ShardedServer> server;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    trained = Trained();
    const int64_t t0 = NowNs();
    catalog = GenerateCatalog(shape);
    trained = TrainAndFreeze(shape, catalog);
    server = std::make_unique<serve::ShardedServer>(trained.served,
                                                    ServerOptions());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::printf("setup_s runs:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");

  const RequestPool pool =
      MakeRequestPool(catalog.workbench->splits().test,
                      catalog.workbench->num_items(),
                      shape.request_candidates, args.seed);
  util::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 3);
  VersionBook book;
  book.Put(1, trained.served);
  std::unique_ptr<Swapper> swapper;
  if (shape.hot_swap) {
    swapper = std::make_unique<Swapper>(server.get(), &book, [&] {
      return RebuildServed(shape, catalog, trained, nullptr);
    });
  }

  // Phase budget: the closed loop 25%, the idle probe 15% and the open loop
  // at the nominal rate 25%, interleaved in kRounds rounds so that a slow
  // stretch of the host lands in a few rounds rather than in a whole
  // metric; goodput ladder 25%; warm-up 5% (at most half a second).
  const double s = args.seconds;
  LoadOptions sampled;
  sampled.sample_every = 53;
  Outcome served;  // Every non-ladder request.
  std::vector<SampledResponse> samples;
  auto keep = [&](PhaseResult& phase) {
    served.Add(phase.outcome);
    samples.insert(samples.end(), phase.samples.begin(), phase.samples.end());
  };
  PhaseResult warmup = RunClosedLoop(*server, pool, rng, kClosedWindow,
                                     std::min(0.5, 0.05 * s), sampled);
  keep(warmup);
  const double closed_s = 0.25 * s / kRounds;
  const double idle_s = 0.15 * s / kRounds;
  const double open_s = 0.25 * s / kRounds;
  std::vector<double> window_rates;
  std::vector<double> idle_p50;  // Per round.
  std::vector<double> open_p50;  // Per round.
  int64_t closed_ok = 0;
  PhaseResult idle;  // Every round's idle probe.
  PhaseResult open;  // Every round's open loop.
  for (int round = 0; round < kRounds; ++round) {
    PhaseResult closed =
        RunClosedLoop(*server, pool, rng, kClosedWindow, closed_s, sampled);
    keep(closed);
    closed_ok += closed.outcome.ok;
    for (double rate :
         WindowRates(closed, closed_s, kThroughputWindows / kRounds)) {
      window_rates.push_back(rate);
    }
    PhaseResult probe = RunClosedLoop(*server, pool, rng, 1, idle_s, sampled);
    keep(probe);
    idle_p50.push_back(Percentile(Finite(probe.latency_ms), 0.5));
    AppendPhase(&idle, std::move(probe));
    PhaseResult part =
        RunOpenLoop(*server, pool, rng, args.nominal_rps, open_s, sampled);
    keep(part);
    open_p50.push_back(Percentile(Finite(part.latency_ms), 0.5));
    AppendPhase(&open, std::move(part));
  }
  // Steps are sized for the search's probes plus half as many retries.
  const double probes = 1.5 * ProbeCount(args.ladder.size());
  LadderResult ladder = SearchGoodput(*server, pool, rng, args,
                                      0.25 * s / probes, &samples);
  swapper.reset();
  const serve::RecommendationEngine::Stats stats = server->TotalStats();
  server->Shutdown();

  // Correctness.
  Outcome all = served;
  all.Add(ladder.outcome);
  VerifyAccounting(all, stats, &report);
  VerifySamples(samples, pool, book, &report);
  const Quality quality = EvaluateServed(*trained.served, catalog);
  if (quality.count < kEvalDraws * kMinEvalExamples) {
    report.Fail("ndcg5 ranked only " + std::to_string(quality.count) +
                " candidate sets (need " +
                std::to_string(kEvalDraws * kMinEvalExamples) + ")");
  }
  const double calib_end = CalibrateGemm();

  std::printf("latency_idle_p50_ms by round:");
  for (double v : idle_p50) std::printf(" %.3f", v);
  std::printf("\nlatency_p50_ms (open loop) by round:");
  for (double v : open_p50) std::printf(" %.3f", v);
  std::printf("\nthroughput_rps by window:");
  for (double v : window_rates) std::printf(" %.0f", v);
  std::printf("\n");
  const double unloaded_p50 = Median(idle_p50);
  const double p50 = Median(open_p50);
  const double p95 = WindowedPercentile(open, 0.95, kTailRun);
  const double p99 = Percentile(Finite(open.latency_ms), 0.99);
  const int64_t open_n = static_cast<int64_t>(open.latency_ms.size());
  report.Add("setup_s", Median(setup_s), "s",
             static_cast<int64_t>(setup_s.size()));
  report.Add("throughput_rps", Median(window_rates), "req/s", closed_ok);
  report.Add("latency_idle_p50_ms", unloaded_p50, "ms",
             static_cast<int64_t>(idle.latency_ms.size()));
  report.Add("ndcg5", quality.ndcg5, "ratio", quality.count);
  report.Add("peak_rss_mb", static_cast<double>(util::PeakRssBytes()) / 1e6,
             "MB", 1);

  const int64_t not_ok = served.shed + served.failed + served.unresolved;
  const bool noisy = std::fabs(calib_end / calib_start - 1.0) > args.bound;
  std::printf(
      "detail {\"latency_p50_ms\": %.4f, \"open_samples\": %lld, "
      "\"p50_over_idle\": %.3f, "
      "\"latency_p95_ms\": %.4f, \"latency_p99_ms\": %.4f, "
      "\"open_samples_beyond_p99\": %lld, \"open_offered_rps\": %.1f, "
      "\"lateness_p99_ms\": %.4f, \"lateness_max_ms\": %.4f, "
      "\"stamp_delay_p99_ms\": %.4f, \"error_rate\": %.6f, "
      "\"goodput_rps\": %.1f, \"ladder_probes\": %d, "
      "\"snapshot_versions\": %llu, "
      "\"calib_gflops_start\": %.3f, \"calib_gflops_end\": %.3f, "
      "\"noisy_host\": %s}\n",
      p50, static_cast<long long>(open_n), p50 / unloaded_p50, p95, p99,
      static_cast<long long>(open_n - static_cast<int64_t>(
                                          std::ceil(0.99 * open_n))),
      open.outcome.submitted / open.wall_s,
      Percentile(open.lateness_ms, 0.99),
      Percentile(open.lateness_ms, 1.0),
      Percentile(open.stamp_delay_ms, 0.99),
      served.submitted ? static_cast<double>(not_ok) / served.submitted : 0.0,
      ladder.goodput_rps, ladder.probes,
      static_cast<unsigned long long>(stats.snapshot_version),
      calib_start, calib_end, noisy ? "true" : "false");
  report.Print(served.submitted, not_ok);
  return report.correct() ? 0 : 1;
}

// ---- The traced run: per-layer metrics ---------------------------------------

struct EngineDelta {
  serve::RecommendationEngine::Stats before;
  std::vector<uint64_t> shard_scored_before;
};

EngineDelta SnapshotStats(const serve::ShardedServer& server) {
  EngineDelta delta;
  delta.before = server.TotalStats();
  for (int s = 0; s < server.num_shards(); ++s) {
    delta.shard_scored_before.push_back(server.ShardStats(s).scored);
  }
  return delta;
}

// The replica and the decorated scorer must reproduce the plain served
// scorer bit for bit before any traced number is trusted.
void VerifyTraced(const serve::Scorer& plain, const serve::Scorer& traced,
                  const RequestPool& pool, Report* report) {
  std::vector<serve::ScoreRequest> requests;
  for (size_t i = 0; i < pool.requests.size() && i < 96; ++i) {
    requests.push_back(pool.requests[i]);
  }
  int64_t mismatches = 0;
  // Batches of several sizes: composition must not matter either.
  for (size_t begin = 0, size = 1; begin < requests.size();
       begin += size, size = size % 16 + 3) {
    const size_t end = std::min(requests.size(), begin + size);
    const std::vector<serve::ScoreRequest> batch(requests.begin() + begin,
                                                 requests.begin() + end);
    const auto expected = plain.ScoreBatch(batch);
    const auto got = traced.ScoreBatch(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!BitwiseEqual(expected[i], got[i])) ++mismatches;
    }
    if (!BitwiseEqual(plain.Score(batch[0]), traced.Score(batch[0]))) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " traced-scorer outputs differ from the plain scorer");
  }
}

// Replica layer sum over plain EngineSnapshot::ScoreBatch time on one fixed
// request set, interleaved, medians of 5 passes.
double LayerCoverage(const serve::EngineSnapshot& snapshot,
                     const serve::Scorer& replica,
                     const std::vector<serve::ScoreRequest>& requests) {
  auto batches = [&](const serve::Scorer& scorer) {
    for (size_t begin = 0; begin < requests.size(); begin += kMaxBatch) {
      const size_t end = std::min(requests.size(), begin + kMaxBatch);
      scorer.ScoreBatch(std::vector<serve::ScoreRequest>(
          requests.begin() + begin, requests.begin() + end));
    }
  };
  std::vector<double> plain_ns;
  std::vector<double> layer_ns;
  Tracer::Drain();
  for (int pass = 0; pass < 6; ++pass) {
    const int64_t t0 = NowNs();
    batches(snapshot);
    const double plain = static_cast<double>(NowNs() - t0);
    batches(replica);
    const auto totals = Aggregate(Tracer::Drain());
    if (pass == 0) continue;  // Warm-up.
    plain_ns.push_back(plain);
    double sum = 0.0;
    for (Layer layer : {Layer::kPrompt, Layer::kSrHint, Layer::kSplit,
                        Layer::kEncode, Layer::kHead, Layer::kVerbalize}) {
      sum += totals[static_cast<int>(layer)].self_ns;
    }
    layer_ns.push_back(sum);
  }
  return Median(layer_ns) / Median(plain_ns);
}

int RunTraced(const Args& args, const WorkloadShape& shape) {
  Report report;
  const double calib_start = CalibrateGemm();
  Catalog catalog = GenerateCatalog(shape);
  Trained trained = TrainAndFreeze(shape, catalog);
  const serve::EngineSnapshot::Sources sources = SourcesFor(catalog, trained);
  const RequestPool pool =
      MakeRequestPool(catalog.workbench->splits().test,
                      catalog.workbench->num_items(),
                      shape.request_candidates, args.seed);
  util::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 5);
  // Phase budget: untraced and traced closed loops 10% each, traced open
  // loop at the nominal rate 25%; warm-ups 5% each (at most half a second).
  const double s = args.seconds;
  const double warmup_s = std::min(0.5, 0.05 * s);
  const double closed_s = 0.1 * s;
  LoadOptions sampled;
  sampled.sample_every = 53;
  Outcome all;

  // Untraced reference throughput, same process, same scorer.
  double untraced_rps = 0.0;
  {
    serve::ShardedServer plain(trained.served, ServerOptions());
    all.Add(RunClosedLoop(plain, pool, rng, kClosedWindow, warmup_s, {})
                .outcome);
    PhaseResult closed =
        RunClosedLoop(plain, pool, rng, kClosedWindow, closed_s, {});
    all.Add(closed.outcome);
    untraced_rps = MedianWindowRate(closed, closed_s, kThroughputWindows);
    VerifyAccounting(all, plain.TotalStats(), &report);
  }

  auto make_traced = [&](std::shared_ptr<const serve::EngineSnapshot> snap) {
    return MakeTracedScorer(std::move(snap), sources,
                            shape.two_tier ? kRerankTopH : 0);
  };
  std::shared_ptr<const serve::Scorer> traced = make_traced(trained.snapshot);
  VerifyTraced(*trained.served, *traced, pool, &report);

  Tracer::SetEnabled(true);
  serve::ShardedServer server(traced, ServerOptions());
  VersionBook book;
  book.Put(1, traced);
  Outcome traced_all;
  std::vector<SampledResponse> samples;
  traced_all.Add(
      RunClosedLoop(server, pool, rng, kClosedWindow, warmup_s, {}).outcome);
  Tracer::Drain();

  const util::BufferPool::Stats pool_before =
      util::BufferPool::Global().GetStats();
  PhaseResult closed =
      RunClosedLoop(server, pool, rng, kClosedWindow, closed_s, sampled);
  const util::BufferPool::Stats pool_after =
      util::BufferPool::Global().GetStats();
  traced_all.Add(closed.outcome);
  samples.insert(samples.end(), closed.samples.begin(), closed.samples.end());
  const std::vector<Span> closed_spans = Tracer::Drain();
  const double traced_rps =
      MedianWindowRate(closed, closed_s, kThroughputWindows);

  std::vector<double> build_ms;
  const EngineDelta delta = SnapshotStats(server);
  PhaseResult open;
  {
    std::unique_ptr<Swapper> swapper;
    if (shape.hot_swap) {
      swapper = std::make_unique<Swapper>(&server, &book, [&] {
        std::shared_ptr<const serve::EngineSnapshot> rebuilt;
        RebuildServed(shape, catalog, trained, &rebuilt);
        return make_traced(rebuilt);
      });
    }
    open = RunOpenLoop(server, pool, rng, args.nominal_rps, 0.25 * s, sampled);
    if (swapper) build_ms = swapper->build_ms();
  }
  traced_all.Add(open.outcome);
  samples.insert(samples.end(), open.samples.begin(), open.samples.end());
  const std::vector<Span> open_spans = Tracer::Drain();
  const serve::RecommendationEngine::Stats after = server.TotalStats();
  std::vector<uint64_t> shard_scored;
  for (int sh = 0; sh < server.num_shards(); ++sh) {
    shard_scored.push_back(server.ShardStats(sh).scored -
                           delta.shard_scored_before[sh]);
  }
  server.Shutdown();
  VerifyAccounting(traced_all, server.TotalStats(), &report);
  VerifySamples(samples, pool, book, &report);
  all.Add(traced_all);

  // snapshot.layer_coverage on the teacher's own request shape.
  std::vector<serve::ScoreRequest> probe;
  {
    util::Rng probe_rng(args.seed + 11);
    const int64_t candidates = shape.two_tier ? kRerankTopH : 15;
    for (size_t i = 0; i < pool.requests.size() && probe.size() < 128; ++i) {
      serve::ScoreRequest request = pool.requests[i];
      if (request.candidates.empty()) {
        request.candidates = data::SampleCandidates(
            catalog.workbench->num_items(), probe_rng.UniformInt(
                0, catalog.workbench->num_items() - 1), candidates, probe_rng);
      }
      probe.push_back(std::move(request));
    }
  }
  const ReplicaScorer replica(trained.snapshot, sources);
  const double layer_coverage =
      LayerCoverage(*trained.snapshot, replica, probe);
  Tracer::SetEnabled(false);
  const double calib_end = CalibrateGemm();

  // Per-layer numbers: layers from the closed loop (full batches, the
  // throughput operating point); engine, queue and shard numbers from the
  // open loop at the nominal rate.
  const auto layers = Aggregate(closed_spans);
  const auto open_layers = Aggregate(open_spans);
  auto at = [](const std::array<LayerTotals, kLayerCount>& t, Layer layer) {
    return t[static_cast<int>(layer)];
  };
  const LayerTotals root = at(layers, Layer::kScorerBatch);
  const double reqs = std::max<double>(1.0, static_cast<double>(root.requests));
  auto us_per_req = [&](double ns) { return ns / reqs / 1e3; };
  auto coverage = [&](const std::array<LayerTotals, kLayerCount>& t) {
    const double total = at(t, Layer::kScorerBatch).inclusive_ns;
    const double glue = at(t, Layer::kScorerBatch).self_ns +
                        at(t, Layer::kRerank).self_ns +
                        at(t, Layer::kSnapshotBatch).self_ns;
    return total > 0.0 ? 1.0 - glue / total : 0.0;
  };
  const int64_t n_req = root.requests;
  const int64_t n_open = at(open_layers, Layer::kScorerBatch).calls;

  // Engine queue wait over the open loop, from histogram deltas.
  serve::RecommendationEngine::QueueWaitHistogram wait{};
  uint64_t waits = 0;
  for (int b = 0; b < serve::RecommendationEngine::kQueueWaitBuckets; ++b) {
    wait[b] = after.queue_wait_histogram[b] -
              delta.before.queue_wait_histogram[b];
    waits += wait[b];
  }
  const double batches =
      static_cast<double>(after.batches - delta.before.batches);
  const double dispatched =
      static_cast<double>(after.requests - delta.before.requests);
  double max_scored = 0.0;
  double sum_scored = 0.0;
  for (uint64_t v : shard_scored) {
    max_scored = std::max(max_scored, static_cast<double>(v));
    sum_scored += static_cast<double>(v);
  }
  const double open_service_ns =
      at(open_layers, Layer::kScorerBatch).inclusive_ns;

  report.Add("engine.queue_wait_p50_ms",
             serve::RecommendationEngine::QueueWaitPercentileMs(wait, 0.5),
             "ms", static_cast<int64_t>(waits));
  report.Add("engine.queue_wait_p99_ms",
             serve::RecommendationEngine::QueueWaitPercentileMs(wait, 0.99),
             "ms", static_cast<int64_t>(waits));
  report.Add("engine.batch_mean", batches > 0 ? dispatched / batches : 0.0,
             "count", static_cast<int64_t>(batches));
  report.Add("engine.batches", batches, "count", static_cast<int64_t>(batches));
  report.Add("engine.service_ms_per_batch",
             n_open > 0 ? open_service_ns / n_open / 1e6 : 0.0, "ms", n_open);
  report.Add("engine.busy_fraction",
             open_service_ns / (open.wall_s * 1e9 * kShards), "fraction",
             n_open);
  report.Add("engine.shed_queue_full", static_cast<double>(after.shed_queue_full),
             "count", 1);
  report.Add("engine.shed_deadline", static_cast<double>(after.shed_deadline),
             "count", 1);
  report.Add("engine.scorer_failures",
             static_cast<double>(after.scorer_failures), "count", 1);
  report.Add("engine.swaps_observed", static_cast<double>(after.swaps_observed),
             "count", 1);
  report.Add("sharded_server.shard_imbalance",
             sum_scored > 0 ? max_scored / (sum_scored / kShards) : 0.0, "ratio",
             static_cast<int64_t>(sum_scored));
  report.Add("publish.build_ms", build_ms.empty() ? 0.0 : Median(build_ms),
             "ms", static_cast<int64_t>(build_ms.size()));
  report.Add("publish.count", static_cast<double>(build_ms.size()), "count", 1);
  report.Add("two_tier.retrieve_us_per_req",
             us_per_req(at(layers, Layer::kRetrieve).self_ns), "us", n_req);
  report.Add("two_tier.rerank_us_per_req",
             us_per_req(at(layers, Layer::kRerank).inclusive_ns), "us", n_req);
  report.Add("two_tier.compose_us_per_req",
             us_per_req(at(layers, Layer::kTwoTierCompose).self_ns), "us",
             n_req);
  report.Add("llm.prompt_us_per_req",
             us_per_req(at(layers, Layer::kPrompt).self_ns), "us", n_req);
  report.Add("core.sr_hint_us_per_req",
             us_per_req(at(layers, Layer::kSrHint).self_ns), "us", n_req);
  report.Add("llm.split_us_per_req",
             us_per_req(at(layers, Layer::kSplit).self_ns), "us", n_req);
  const LayerTotals encode = at(layers, Layer::kEncode);
  const double tokens_per_req =
      encode.requests > 0
          ? static_cast<double>(encode.work) / encode.requests : 0.0;
  const double prefix = static_cast<double>(trained.snapshot->CachedPrefixLength());
  report.Add("llm.encode_us_per_req", us_per_req(encode.self_ns), "us", n_req);
  report.Add("llm.encode_tokens_per_req", tokens_per_req, "count",
             encode.requests);
  report.Add("llm.prefix_token_share", prefix / (prefix + tokens_per_req),
             "fraction", encode.requests);
  report.Add("llm.encode_gflops",
             encode.self_ns > 0 ? encode.flops / encode.self_ns : 0.0,
             "GFLOP/s", encode.calls);
  const LayerTotals head = at(layers, Layer::kHead);
  report.Add("llm.head_us_per_req", us_per_req(head.self_ns), "us", n_req);
  report.Add("llm.head_gflops",
             head.self_ns > 0 ? head.flops / head.self_ns : 0.0, "GFLOP/s",
             head.calls);
  report.Add("llm.verbalize_us_per_req",
             us_per_req(at(layers, Layer::kVerbalize).self_ns), "us", n_req);
  report.Add("snapshot.layer_coverage", layer_coverage, "fraction",
             static_cast<int64_t>(probe.size()));
  const serve::SnapshotFootprint footprint =
      trained.snapshot->MemoryFootprint();
  report.Add("snapshot.weight_bytes", static_cast<double>(footprint.weight_bytes),
             "bytes", 1);
  report.Add("snapshot.token_table_bytes",
             static_cast<double>(footprint.token_table_bytes), "bytes", 1);
  report.Add("snapshot.prefix_cache_bytes",
             static_cast<double>(footprint.prefix_cache_bytes), "bytes", 1);
  report.Add("snapshot.student_bytes",
             static_cast<double>(footprint.student_bytes), "bytes", 1);
  const StageTimes& t = trained.times;
  report.Add("srmodels.backbone_train_s", t.backbone_s, "s", 1);
  report.Add("llm.pretrain_s", t.pretrain_s, "s", 1);
  report.Add("core.stage1_s", t.stage1_s, "s", 1);
  report.Add("core.stage1_examples_per_s", t.stage1_examples / t.stage1_s,
             "1/s", t.stage1_examples);
  report.Add("core.stage2_s", t.stage2_s, "s", 1);
  report.Add("core.stage2_examples_per_s", t.stage2_examples / t.stage2_s,
             "1/s", t.stage2_examples);
  report.Add("serve.snapshot_build_s", t.snapshot_s, "s", 1);
  report.Add("distill.export_s", t.export_s, "s", 1);
  report.Add("distill.student_train_s", t.student_s, "s", 1);
  const double pool_hits =
      static_cast<double>(pool_after.pool_hits - pool_before.pool_hits);
  const double pool_fresh = static_cast<double>(pool_after.fresh_allocations -
                                                pool_before.fresh_allocations);
  report.Add("util.pool_hit_ratio",
             pool_hits + pool_fresh > 0 ? pool_hits / (pool_hits + pool_fresh)
                                        : 0.0,
             "fraction", static_cast<int64_t>(pool_hits + pool_fresh));
  report.Add("util.pool_fresh_allocations", pool_fresh, "count",
             closed.outcome.ok);
  report.Add("nn.calib_gemm_gflops", calib_start, "GFLOP/s", 15);
  report.Add("client.latency_p50_ms", Percentile(Finite(open.latency_ms), 0.5),
             "ms", static_cast<int64_t>(open.latency_ms.size()));
  report.Add("client.latency_p95_ms", WindowedPercentile(open, 0.95, kTailRun),
             "ms", static_cast<int64_t>(open.latency_ms.size()));
  report.Add("client.latency_p99_ms", Percentile(Finite(open.latency_ms), 0.99),
             "ms", static_cast<int64_t>(open.latency_ms.size()));
  report.Add("client.lateness_p99_ms", Percentile(open.lateness_ms, 0.99), "ms",
             static_cast<int64_t>(open.lateness_ms.size()));
  report.Add("client.stamp_delay_p99_ms", Percentile(open.stamp_delay_ms, 0.99),
             "ms", static_cast<int64_t>(open.stamp_delay_ms.size()));
  report.Add("trace.overhead", untraced_rps / traced_rps - 1.0, "fraction",
             closed.outcome.ok);
  const double service_coverage =
      std::min(coverage(layers), coverage(open_layers));
  report.Add("trace.service_coverage", service_coverage, "fraction", n_req);
  const int64_t not_ok = all.shed + all.failed + all.unresolved;
  report.Add("serve.error_rate",
             all.submitted ? static_cast<double>(not_ok) / all.submitted : 0.0,
             "fraction", all.submitted);

  if (!args.trace_out.empty()) {
    std::vector<Span> spans = closed_spans;
    spans.insert(spans.end(), open_spans.begin(), open_spans.end());
    if (!WriteSpans(spans, args.trace_out)) {
      report.Fail("cannot write spans to " + args.trace_out);
    } else {
      std::printf("wrote %zu spans to %s\n", spans.size(),
                  args.trace_out.c_str());
    }
  }
  const bool noisy = std::fabs(calib_end / calib_start - 1.0) > args.bound;
  std::printf("detail {\"untraced_rps\": %.1f, \"traced_rps\": %.1f, "
              "\"calib_gflops_start\": %.3f, \"calib_gflops_end\": %.3f, "
              "\"noisy_host\": %s}\n",
              untraced_rps, traced_rps, calib_start, calib_end,
              noisy ? "true" : "false");
  report.Print(all.submitted, not_ok);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  perfbench::WorkloadShape shape;
  if (!perfbench::MakeWorkloadShape(args.workload, args.seed, &shape)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // One thread sends and stamps every loop. (The hot-swap publisher of
  // paper_prompt is the serving side's writer, not a client.)
  const int client_threads = 1;
  if (args.client_threads != client_threads) {
    std::fprintf(stderr, "%s runs %d client threads, not %d\n",
                 args.workload.c_str(), client_threads, args.client_threads);
    return 2;
  }
  // A fixed scorer pool: each shard's dispatcher scores its batches itself.
  delrec::util::SetParallelism(1);
  std::printf("perfbench %s seed %llu trace %d kernel %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace, delrec::nn::GemmKernelConfig().c_str());
  return args.trace ? perfbench::RunTraced(args, shape)
                    : perfbench::RunEndToEnd(args, shape);
}
