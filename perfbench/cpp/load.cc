#include "load.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <limits>
#include <thread>

#include "data/split.h"
#include "trace.h"
#include "util/check.h"

namespace perfbench {

using namespace delrec;

namespace {

constexpr int64_t kCandidates = 15;
constexpr double kUserZipfExponent = 0.8;
// Burst model: a square wave of period kBurstPeriodS whose first
// kBurstShare runs at kBurstFactor x the calm rate. Fixed-length bursts keep
// the offered load's shape the same from seed to seed; only the arrivals
// inside it are random.
constexpr double kBurstShare = 0.1;
constexpr double kBurstFactor = 2.0;
constexpr double kBurstPeriodS = 0.2;

constexpr double kInf = std::numeric_limits<double>::infinity();
// How long to wait for a future after sending stops before counting it as
// unresolved.
constexpr double kResolveTimeoutS = 30.0;
// Open loop: how long the client blocks on one future before checking the
// other shards' fronts again; bounds how late a stamp can be.
constexpr std::chrono::microseconds kPollSlice(200);

struct InFlight {
  int64_t seq = 0;
  int32_t request = 0;
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  std::future<serve::ScoreResponse> future;
};

bool Ready(std::future<serve::ScoreResponse>& future,
           std::chrono::microseconds wait) {
  return future.wait_for(wait) == std::future_status::ready;
}

// Books one resolved response; returns its latency (+inf when not ok).
double Record(InFlight& flight, int64_t resolved_ns, const LoadOptions& options,
              PhaseResult* result) {
  serve::ScoreResponse response = flight.future.get();
  Outcome& o = result->outcome;
  if (!response.status.ok()) {
    const auto code = response.status.code();
    if (code == util::Status::Code::kUnavailable ||
        code == util::Status::Code::kDeadlineExceeded) {
      ++o.shed;
    } else {
      ++o.failed;
    }
    return kInf;
  }
  ++o.ok;
  if (options.sample_every > 0 && flight.seq % options.sample_every == 0) {
    result->samples.push_back(
        {flight.request, response.snapshot_version, std::move(response.scores)});
  }
  return static_cast<double>(resolved_ns - flight.due_ns) / 1e6;
}

// Arrival offsets (seconds) of a Poisson process whose rate follows the
// burst square wave (random phase), with long-run mean `rate`.
std::vector<double> MakeSchedule(util::Rng& rng, double rate, double seconds) {
  const double calm_rate =
      rate / (1.0 - kBurstShare + kBurstShare * kBurstFactor);
  const double burst_s = kBurstShare * kBurstPeriodS;
  const double phase = rng.UniformDouble() * kBurstPeriodS;
  auto in_burst = [&](double t) {
    return std::fmod(t + phase, kBurstPeriodS) < burst_s;
  };
  // Thinning: draw at the burst rate, keep calm-time arrivals with
  // probability 1 / kBurstFactor.
  std::vector<double> arrivals;
  double t = 0.0;
  while (true) {
    t -= std::log(1.0 - rng.UniformDouble()) / (calm_rate * kBurstFactor);
    if (t >= seconds) break;
    if (in_burst(t) || rng.UniformDouble() * kBurstFactor < 1.0) {
      arrivals.push_back(t);
    }
  }
  return arrivals;
}

}  // namespace

int32_t RequestPool::Draw(util::Rng& rng) const {
  const double u = rng.UniformDouble();
  const size_t slot = std::min<size_t>(
      std::upper_bound(user_cdf.begin(), user_cdf.end(), u) - user_cdf.begin(),
      by_user.size() - 1);
  const std::vector<int32_t>& options = by_user[slot];
  return options[rng.UniformUint64(options.size())];
}

RequestPool MakeRequestPool(const std::vector<data::Example>& test,
                            int64_t num_items, bool with_candidates,
                            uint64_t seed) {
  DELREC_CHECK(!test.empty());
  util::Rng rng(seed * 0x2545f4914f6cdd1dULL + 77);
  RequestPool pool;
  std::vector<int64_t> slot_of_user;
  for (const data::Example& example : test) {
    if (example.user >= static_cast<int64_t>(slot_of_user.size())) {
      slot_of_user.resize(example.user + 1, -1);
    }
    if (slot_of_user[example.user] < 0) {
      slot_of_user[example.user] = static_cast<int64_t>(pool.by_user.size());
      pool.by_user.emplace_back();
    }
    serve::ScoreRequest request;
    request.history = example.history;
    if (with_candidates) {
      request.candidates =
          data::SampleCandidates(num_items, example.target, kCandidates, rng);
    }
    pool.by_user[slot_of_user[example.user]].push_back(
        static_cast<int32_t>(pool.requests.size()));
    pool.users.push_back(static_cast<uint64_t>(example.user));
    pool.requests.push_back(std::move(request));
  }
  // Popularity rank is a seeded shuffle of users, so the hot users (and the
  // shard they hash to) change with the seed.
  std::vector<size_t> order(pool.by_user.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  std::vector<std::vector<int32_t>> ranked(order.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    ranked[rank] = std::move(pool.by_user[order[rank]]);
  }
  pool.by_user = std::move(ranked);
  double total = 0.0;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), kUserZipfExponent);
    pool.user_cdf.push_back(total);
  }
  for (double& c : pool.user_cdf) c /= total;
  return pool;
}

void Outcome::Add(const Outcome& other) {
  submitted += other.submitted;
  ok += other.ok;
  shed += other.shed;
  failed += other.failed;
  unresolved += other.unresolved;
}

std::vector<double> WindowRates(const PhaseResult& phase, double seconds,
                                int windows) {
  const double width_ns = seconds * 1e9 / windows;
  std::vector<double> counts(windows, 0.0);
  for (int64_t t : phase.ok_resolved_ns) {
    const int64_t w = static_cast<int64_t>((t - phase.start_ns) / width_ns);
    if (w >= 0 && w < windows) counts[w] += 1.0;
  }
  for (double& c : counts) c /= width_ns / 1e9;
  return counts;
}

double MedianWindowRate(const PhaseResult& phase, double seconds,
                        int windows) {
  return Percentile(WindowRates(phase, seconds, windows), 0.5);
}

void AppendPhase(PhaseResult* to, PhaseResult&& from) {
  auto append = [](auto& dst, auto& src) {
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  };
  to->outcome.Add(from.outcome);
  to->wall_s += from.wall_s;
  append(to->latency_ms, from.latency_ms);
  append(to->due_ns, from.due_ns);
  append(to->ok_resolved_ns, from.ok_resolved_ns);
  append(to->lateness_ms, from.lateness_ms);
  append(to->stamp_delay_ms, from.stamp_delay_ms);
  append(to->samples, from.samples);
}

double WindowedPercentile(const PhaseResult& phase, double q, size_t run) {
  const size_t n = phase.latency_ms.size();
  if (n < run) return Percentile(phase.latency_ms, q);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return phase.due_ns[a] < phase.due_ns[b];
  });
  std::vector<double> tails;
  for (size_t begin = 0; begin + run <= n; begin += run) {
    std::vector<double> window;
    window.reserve(run);
    for (size_t i = begin; i < begin + run; ++i) {
      window.push_back(phase.latency_ms[order[i]]);
    }
    tails.push_back(Percentile(std::move(window), q));
  }
  return Percentile(std::move(tails), 0.5);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(values.size() - 1)));
  return values[index];
}

PhaseResult RunClosedLoop(serve::ShardedServer& server,
                          const RequestPool& pool, util::Rng& rng, int window,
                          double seconds, const LoadOptions& options) {
  PhaseResult result;
  std::deque<InFlight> in_flight;
  const int64_t start_ns = NowNs();
  result.start_ns = start_ns;
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  const auto timeout = std::chrono::microseconds(
      static_cast<int64_t>(kResolveTimeoutS * 1e6));
  int64_t seq = 0;
  while (true) {
    while (static_cast<int>(in_flight.size()) < window && NowNs() < end_ns) {
      InFlight flight;
      flight.seq = seq++;
      flight.request = static_cast<int32_t>(
          rng.UniformUint64(pool.requests.size()));
      flight.submit_ns = NowNs();
      flight.due_ns = flight.submit_ns;
      flight.future = server.ScoreAsync(pool.users[flight.request],
                                        pool.requests[flight.request]);
      ++result.outcome.submitted;
      in_flight.push_back(std::move(flight));
    }
    if (in_flight.empty()) break;
    InFlight& oldest = in_flight.front();
    if (!Ready(oldest.future, timeout)) {
      ++result.outcome.unresolved;
    } else {
      const int64_t now = NowNs();
      const double latency = Record(oldest, now, options, &result);
      result.latency_ms.push_back(latency);
      if (std::isfinite(latency)) result.ok_resolved_ns.push_back(now);
    }
    in_flight.pop_front();
  }
  result.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  return result;
}

PhaseResult RunOpenLoop(serve::ShardedServer& server, const RequestPool& pool,
                        util::Rng& rng, double rate, double seconds,
                        const LoadOptions& options) {
  const std::vector<double> schedule = MakeSchedule(rng, rate, seconds);
  std::vector<int32_t> picks(schedule.size());
  for (int32_t& pick : picks) pick = pool.Draw(rng);

  // One FIFO of in-flight requests per shard. Each shard dispatches in
  // arrival order and resolves a batch's promises in order, so a future
  // resolves no earlier than the one ahead of it on its shard: only the
  // fronts need watching.
  const int shards = server.num_shards();
  std::vector<std::deque<InFlight>> queues(shards);
  // Per shard, the last time its front was seen unresolved: a stamp is late
  // by at most the time since then.
  std::vector<int64_t> unresolved_at(shards, 0);
  PhaseResult result;
  int64_t resolved = 0;
  std::vector<double> backlog[4];  // Outstanding at each arrival, by quarter.
  result.lateness_ms.reserve(schedule.size());

  const int64_t start_ns = NowNs() + 2'000'000;
  const int64_t span_ns = std::max<int64_t>(1, static_cast<int64_t>(seconds * 1e9));
  const auto timeout_ns = static_cast<int64_t>(kResolveTimeoutS * 1e9);
  auto due_of = [&](size_t i) {
    return start_ns + static_cast<int64_t>(schedule[i] * 1e9);
  };

  // Stamps every resolved front.
  auto harvest = [&] {
    for (int s = 0; s < shards; ++s) {
      std::deque<InFlight>& queue = queues[s];
      while (!queue.empty()) {
        InFlight& front = queue.front();
        unresolved_at[s] = std::max(unresolved_at[s], front.submit_ns);
        const int64_t checked = NowNs();
        if (!Ready(front.future, std::chrono::microseconds(0))) {
          unresolved_at[s] = checked;
          break;
        }
        result.latency_ms.push_back(Record(front, checked, options, &result));
        result.due_ns.push_back(front.due_ns);
        result.stamp_delay_ms.push_back(
            static_cast<double>(checked - unresolved_at[s]) / 1e6);
        queue.pop_front();
        ++resolved;
      }
    }
  };

  // Wake on time: the default 50 us timer slack would add to every stamp.
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  size_t next = 0;
  int64_t sending_done_ns = 0;
  while (true) {
    harvest();
    const int64_t now = NowNs();
    if (next < schedule.size() && now >= due_of(next)) {
      InFlight flight;
      flight.seq = static_cast<int64_t>(next);
      flight.request = picks[next];
      flight.due_ns = due_of(next);
      const uint64_t user = pool.users[flight.request];
      const int shard = server.ShardFor(user);
      flight.submit_ns = NowNs();
      flight.future = server.ScoreAsync(user, pool.requests[flight.request]);
      result.lateness_ms.push_back(
          static_cast<double>(flight.submit_ns - flight.due_ns) / 1e6);
      const int quarter = std::min<int64_t>(
          3, 4 * (flight.due_ns - start_ns) / span_ns);
      backlog[quarter].push_back(
          static_cast<double>(static_cast<int64_t>(next) + 1 - resolved));
      queues[shard].push_back(std::move(flight));
      if (++next == schedule.size()) sending_done_ns = NowNs();
      continue;
    }
    // Block on the oldest outstanding request (usually the next to resolve)
    // until the next send is due, for at most one slice.
    InFlight* oldest = nullptr;
    for (std::deque<InFlight>& queue : queues) {
      if (!queue.empty() &&
          (oldest == nullptr || queue.front().due_ns < oldest->due_ns)) {
        oldest = &queue.front();
      }
    }
    if (next == schedule.size()) {
      if (oldest == nullptr) break;
      if (now - sending_done_ns > timeout_ns) {
        for (std::deque<InFlight>& queue : queues) {
          result.outcome.unresolved += static_cast<int64_t>(queue.size());
          queue.clear();
        }
        break;
      }
    }
    int64_t wake_ns = now + kPollSlice.count() * 1000;
    if (next < schedule.size()) wake_ns = std::min(wake_ns, due_of(next));
    const std::chrono::steady_clock::time_point wake{
        std::chrono::nanoseconds(wake_ns)};
    if (oldest != nullptr) {
      oldest->future.wait_until(wake);
    } else {
      std::this_thread::sleep_until(wake);
    }
  }
  prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(old_slack), 0UL, 0UL,
        0UL);

  result.start_ns = start_ns;
  result.outcome.submitted = static_cast<int64_t>(schedule.size());
  result.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  result.backlog_q2 = Percentile(std::move(backlog[1]), 0.5);
  result.backlog_q4 = Percentile(std::move(backlog[3]), 0.5);
  return result;
}

}  // namespace perfbench
