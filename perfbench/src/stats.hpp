// Measurement helpers of the repo benchmark: percentiles with the
// sample-count rule, open-loop arrival schedules, lateness accounting,
// 64-bit work counters, and lane-occupancy arithmetic.
//
// Header-only so tests/test_helpers.cpp checks exactly what the workloads
// use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "admm/branch_problem.hpp"
#include "common/rng.hpp"

namespace perfbench {

// ---- Percentiles -----------------------------------------------------------

/// Nearest-rank quantile of an ascending-sorted sample (q in [0, 1]).
/// Returns 0 for an empty sample.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// The highest tail percentile a sample of n supports: p99 needs n >= 1000
/// (10 samples beyond it); otherwise the highest of p95/p90/p75/p50 with at
/// least 10 samples beyond it. Returns 1.0 (the maximum) when n < 20.
inline double supported_tail_q(std::size_t n) {
  for (const double q : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    const double beyond = static_cast<double>(n) * (1.0 - q);
    if (beyond + 1e-9 >= static_cast<double>(kTailSamplesBeyond)) return q;
  }
  return 1.0;
}

/// "p99", "p95", ..., or "max" for q == 1.
inline std::string percentile_label(double q) {
  if (q >= 1.0) return "max";
  std::string label = "p";
  label += std::to_string(static_cast<int>(std::lround(q * 100.0)));
  return label;
}

/// One summarized sample: median, tail at the supported percentile and max,
/// with the sample count every figure is stated with.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;    ///< value at tail_q
  double tail_q = 1.0;  ///< supported_tail_q(n)
  double max = 0.0;

  [[nodiscard]] std::string tail_label() const { return percentile_label(tail_q); }
};

inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = quantile_sorted(values, 0.5);
  s.tail_q = supported_tail_q(values.size());
  s.tail = quantile_sorted(values, s.tail_q);
  s.max = values.back();
  return s;
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

/// Growth of a phase's latency over its own duration: p50 of the last third
/// of requests (in arrival order) over p50 of the first third. About 1 when
/// the service keeps up; well above 1 when a backlog builds. 0 when the
/// phase has fewer than 3 requests.
inline double backlog_growth(const std::vector<double>& latencies_in_arrival_order) {
  const std::size_t n = latencies_in_arrival_order.size();
  if (n < 3) return 0.0;
  const std::size_t third = n / 3;
  const std::vector<double> first(latencies_in_arrival_order.begin(),
                                  latencies_in_arrival_order.begin() + third);
  const std::vector<double> last(latencies_in_arrival_order.end() - third,
                                 latencies_in_arrival_order.end());
  const double head = median(first);
  return head > 0.0 ? median(last) / head : 0.0;
}

// ---- Open-loop arrival schedules ----------------------------------------

struct Arrival {
  double at_seconds = 0.0;   ///< intended arrival, relative to phase start
  std::size_t tenant = 0;    ///< index into the tenant weights
  double load_factor = 1.0;  ///< per-request load jitter
};

/// Exact tenant counts for `n` requests: each tenant's share of `n` by
/// weight, rounded by largest remainder so that the counts sum to `n`.
inline std::vector<std::size_t> apportion(std::size_t n, const std::vector<double>& weights) {
  double total_weight = 0.0;
  for (const double w : weights) total_weight += w;
  std::vector<std::size_t> counts(weights.size(), 0);
  if (weights.empty() || !(total_weight > 0.0)) return counts;
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double quota = static_cast<double>(n) * weights[i] / total_weight;
    counts[i] = static_cast<std::size_t>(quota);
    assigned += counts[i];
    remainders.emplace_back(quota - static_cast<double>(counts[i]), i);
  }
  // Larger remainder first; ties go to the lower tenant index.
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; assigned < n; ++k, ++assigned) ++counts[remainders[k].second];
  return counts;
}

/// Poisson arrivals at `rate` per second over [0, duration): exponential
/// inter-arrival gaps, tenants dealt from a shuffled deck that holds each
/// tenant's exact weighted share of the arrivals (apportion()), and a
/// uniform load factor in [1 - jitter, 1 + jitter] per request. The deck
/// keeps a rare tenant's count from varying with the seed, so a run's cost
/// does not swing with how many of its expensive requests a seed happened
/// to draw. A pure function of its arguments: the same seed gives the same
/// schedule on every run.
inline std::vector<Arrival> make_schedule(std::uint64_t seed, double rate, double duration,
                                          const std::vector<double>& weights, double jitter) {
  gridadmm::Rng rng(seed);
  std::vector<Arrival> schedule;
  if (rate <= 0.0 || duration <= 0.0 || weights.empty()) return schedule;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration) break;
    Arrival a;
    a.at_seconds = t;
    schedule.push_back(a);
  }
  std::vector<std::size_t> deck;
  deck.reserve(schedule.size());
  const auto counts = apportion(schedule.size(), weights);
  for (std::size_t i = 0; i < counts.size(); ++i) deck.insert(deck.end(), counts[i], i);
  for (std::size_t i = deck.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(deck[i - 1], deck[rng.uniform_index(i)]);
  }
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    schedule[i].tenant = deck[i];
    schedule[i].load_factor = rng.uniform(1.0 - jitter, 1.0 + jitter);
  }
  return schedule;
}

/// How late the generator fired a request, in seconds (never negative: a
/// request fired early would be a generator bug, not negative latency).
inline double generator_lag(double intended_seconds, double fired_seconds) {
  return std::max(0.0, fired_seconds - intended_seconds);
}

/// Latency measured from the INTENDED arrival: the generator's lag plus the
/// service-measured submit-to-fulfil time. Charging the lag to the request
/// is what keeps a slow generator from hiding queueing.
inline double intended_latency(double lag_seconds, double service_seconds) {
  return lag_seconds + service_seconds;
}

// ---- Work counters ---------------------------------------------------------

/// TRON work summed in 64 bits (admm::BranchUpdateStats fields are int; one
/// multi-scenario run can exceed 2^31 CG iterations).
struct TronCounters {
  std::uint64_t iterations = 0;
  std::uint64_t cg_iterations = 0;
  std::uint64_t function_evals = 0;
  std::uint64_t auglag_iterations = 0;
  std::uint64_t failures = 0;

  void add(const gridadmm::admm::BranchUpdateStats& s) {
    iterations += static_cast<std::uint64_t>(std::max(0, s.tron_iterations));
    cg_iterations += static_cast<std::uint64_t>(std::max(0, s.cg_iterations));
    function_evals += static_cast<std::uint64_t>(std::max(0, s.function_evals));
    auglag_iterations += static_cast<std::uint64_t>(std::max(0, s.auglag_iterations));
    failures += static_cast<std::uint64_t>(std::max(0, s.failures));
  }
};

/// Fused-lane occupancy: useful per-scenario inner iterations over the lane
/// slots the fused steps offered (steps x lanes). 1.0 means every lane was
/// busy on every step; a straggler tail drives it down. 0 when no steps ran.
inline double lane_occupancy(std::uint64_t inner_iterations_sum, std::uint64_t fused_steps,
                             std::uint64_t lanes) {
  const double slots = static_cast<double>(fused_steps) * static_cast<double>(lanes);
  return slots > 0.0 ? static_cast<double>(inner_iterations_sum) / slots : 0.0;
}

/// Lane occupancy accumulated over many fused batches. A single-wave batch
/// runs one fused step per inner iteration of its slowest member, so its
/// step count is the maximum member inner-iteration count.
struct OccupancyAccumulator {
  std::uint64_t useful = 0;  ///< sum of member inner iterations
  std::uint64_t slots = 0;   ///< sum of steps x members
  std::uint64_t steps = 0;   ///< sum of fused steps
  std::uint64_t batches = 0;

  void add_batch(const std::vector<int>& member_inner_iterations) {
    if (member_inner_iterations.empty()) return;
    std::uint64_t sum = 0;
    int most = 0;
    for (const int it : member_inner_iterations) {
      sum += static_cast<std::uint64_t>(std::max(0, it));
      most = std::max(most, it);
    }
    useful += sum;
    steps += static_cast<std::uint64_t>(most);
    slots += static_cast<std::uint64_t>(most) * member_inner_iterations.size();
    ++batches;
  }

  [[nodiscard]] double occupancy() const {
    return slots > 0 ? static_cast<double>(useful) / static_cast<double>(slots) : 0.0;
  }
};

}  // namespace perfbench
