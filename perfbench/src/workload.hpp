// Shared types of the benchmark's workloads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "probe.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window
  bool trace = false;
  int nproc = 1;
  const SpeedProbe* probe = nullptr;  ///< samples host speed for the whole run
};

/// A metric as printed: value, unit, and which direction is better.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
};

struct WorkloadResult {
  std::uint64_t attempted = 0;  ///< periods / requests offered to the library
  std::uint64_t failed = 0;     ///< of those: not converged, wrong, shed, or errored
  bool checks_passed = true;    ///< ledger and in-run repeat checks
  std::vector<std::string> check_failures;

  std::map<std::string, Metric> metrics;  ///< every end-to-end and per-layer value
  /// Exact work counters that must repeat bit-for-bit for one seed.
  std::vector<std::pair<std::string, std::uint64_t>> exact_counters;
  /// Workload parameters for the provenance stamp.
  std::vector<std::pair<std::string, std::string>> params;
  /// Human-readable lines printed before the metrics (per-period tables...).
  std::vector<std::string> report;

  void set(const std::string& name, double value, const std::string& unit,
           const std::string& better) {
    metrics[name] = Metric{value, unit, better};
  }
  void fail_check(std::string what) {
    checks_passed = false;
    check_failures.push_back(std::move(what));
  }
};

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// CPU time consumed so far by every thread of this process except the
/// speed probe's, in seconds. The kernel accounts it without the time a
/// hypervisor steals from the vCPUs (see perfbench/README.md).
double process_cpu_seconds(const RunConfig& cfg);

/// Per-operation correctness bounds, stated once for every workload.
inline constexpr double kViolationBound = 1e-2;  ///< ||c(x)||_inf, per unit
/// Relative objective gap to the stored MiniIPM reference: ADMM solutions
/// (tracking period 1) and IPM-rung rescues (serving stress tenant).
inline constexpr double kAdmmGapBound = 5e-3;
inline constexpr double kIpmGapBound = 1e-4;

WorkloadResult run_tracking(const RunConfig& cfg, SpanRecorder& spans);
WorkloadResult run_serving(const RunConfig& cfg, SpanRecorder& spans);

}  // namespace perfbench
