// The load generator: a closed loop that keeps a window of requests
// outstanding, and an open loop that sends on a Poisson schedule with
// bursts. Every request is drawn from a pool built from the test split.
// Open-loop requests are timed from when they were due to when their future
// resolved, stamped by the sending thread between sends.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <vector>

#include "data/split.h"
#include "serve/scorer.h"
#include "serve/sharded_server.h"
#include "util/rng.h"

namespace perfbench {

/// The generated requests: one per test example, drawn by user popularity.
struct RequestPool {
  std::vector<uint64_t> users;
  std::vector<delrec::serve::ScoreRequest> requests;
  std::vector<std::vector<int32_t>> by_user;  // Request indices per user.
  std::vector<double> user_cdf;               // Zipf over a seeded user order.

  int32_t Draw(delrec::util::Rng& rng) const;
};

/// `with_candidates` samples a 15-item pool (target + 14 negatives) per
/// request; otherwise requests carry none and the scorer ranks the catalog.
RequestPool MakeRequestPool(const std::vector<delrec::data::Example>& test,
                            int64_t num_items, bool with_candidates,
                            uint64_t seed);

/// Client-side accounting, comparable to the engine's own counters.
struct Outcome {
  int64_t submitted = 0;
  int64_t ok = 0;
  int64_t shed = 0;        // kUnavailable or kDeadlineExceeded.
  int64_t failed = 0;      // Any other non-ok status.
  int64_t unresolved = 0;  // Futures that never resolved.

  void Add(const Outcome& other);
};

/// A served response kept for the bitwise check against Score().
struct SampledResponse {
  int32_t request = 0;
  uint64_t version = 0;
  std::vector<float> scores;
};

struct PhaseResult {
  Outcome outcome;
  int64_t start_ns = 0;
  double wall_s = 0.0;
  /// Due (open loop) or submit (closed loop) to resolution, ms. Requests
  /// that were not ok are +infinity, so they miss any latency limit.
  std::vector<double> latency_ms;
  std::vector<int64_t> due_ns;          // Open loop: due time per latency.
  std::vector<int64_t> ok_resolved_ns;  // Closed loop: when each ok resolved.
  std::vector<double> lateness_ms;     // Open loop: submit - due.
  std::vector<double> stamp_delay_ms;  // Open loop: bound on stamp lag.
  // Open loop: median outstanding requests over the second and the last
  // quarter of the schedule. Medians, so a host stall that briefly piles
  // requests up does not read as a growing backlog.
  double backlog_q2 = 0.0;
  double backlog_q4 = 0.0;
  std::vector<SampledResponse> samples;
};

struct LoadOptions {
  /// Keep every n-th ok response for verification (0 = none).
  int sample_every = 0;
};

/// One client thread (the caller's) keeps `window` requests outstanding for
/// `seconds`, then drains. Requests are drawn uniformly from the pool, so
/// the shards share the load evenly and the loop measures capacity.
PhaseResult RunClosedLoop(delrec::serve::ShardedServer& server,
                          const RequestPool& pool, delrec::util::Rng& rng,
                          int window, double seconds,
                          const LoadOptions& options);

/// The calling thread sends at `rate` req/s for `seconds`, users drawn by
/// Zipf popularity, on a Poisson schedule with bursts (a 200 ms square wave:
/// 20 ms at 1.82x the mean rate, 180 ms at 0.91x). Between sends it blocks
/// on the oldest outstanding future, in slices of at most 200 us, and stamps
/// every response that has resolved.
PhaseResult RunOpenLoop(delrec::serve::ShardedServer& server,
                        const RequestPool& pool, delrec::util::Rng& rng,
                        double rate, double seconds,
                        const LoadOptions& options);

/// The ok responses per second resolved in each of `windows` equal slices
/// of the first `seconds` of a closed loop.
std::vector<double> WindowRates(const PhaseResult& phase, double seconds,
                                int windows);

/// Median of WindowRates: steadier than one total when the host stalls for
/// part of the phase.
double MedianWindowRate(const PhaseResult& phase, double seconds, int windows);

/// Appends `from`'s outcome and per-request records to `to` and adds up the
/// wall time. Keeps `to`'s start and backlog fields.
void AppendPhase(PhaseResult* to, PhaseResult&& from);

/// Tail latency of a typical stretch of the open loop: the requests are cut,
/// in due order, into consecutive runs of `run` (the last partial run is
/// dropped), and the median of the runs' q-percentiles is returned. A host
/// stall inflates the few runs it lands in, not the median. With
/// run * (1 - q) >= 10, every run keeps ten samples beyond its percentile.
double WindowedPercentile(const PhaseResult& phase, double q, size_t run);

/// Sorted-copy percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
