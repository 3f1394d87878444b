// Workload tracking_1354pegase: the paper's warm-start tracking experiment
// (Section IV-C) at its smallest Table I size, through
// opf::TrackingSimulator on the single-scenario path.
//
// Period 1 solves cold; every later period warm starts from the previous
// one under 2% Pmax ramp limits. The seed feeds the load profile. Period 1
// runs at the base loads (every profile starts at 1.0), so its objective is
// checked against the stored MiniIPM reference.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "admm/params.hpp"
#include "device/buffer.hpp"
#include "device/device.hpp"
#include "grid/solution.hpp"
#include "opf/opf.hpp"
#include "opf/tracking.hpp"
#include "reference.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr const char* kCase = "1354pegase";
constexpr int kPeriods = 10;
constexpr int kSetupRepeats = 31;

double seconds_between(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// Exact per-horizon work counters (deterministic for one seed).
struct HorizonCounters {
  std::vector<int> iterations;  ///< per period
  std::uint64_t launches = 0;
  std::uint64_t blocks = 0;
  std::uint64_t transfers = 0;
  std::uint64_t transfer_bytes = 0;

  bool operator==(const HorizonCounters&) const = default;
};

/// Layer attribution of the cold period (traced run only). TrackingSimulator
/// reports per-period totals; the same period-1 problem (base loads, native
/// generator bounds, cold start) solved once more through the batch engine
/// at S = 1 exposes ScenarioReport's phase split, TRON work and in-loop
/// transfer count. The engine is a control-flow replica of the simulator's
/// solver, so its iteration count must equal period 1's exactly.
void attribute_cold_period(const gridadmm::grid::Network& net, gridadmm::device::Device* dev,
                           int period1_iterations, SpanRecorder& spans, WorkloadResult& out) {
  using namespace gridadmm;
  scenario::ScenarioSet set(net);
  set.add_base();
  const auto params = admm::params_for_case(kCase, net.num_buses());
  const std::uint64_t t0 = obs::now_ns();
  std::optional<scenario::BatchAdmmSolver> solver;
  {
    const auto span = spans.scope("scenario.construct", "scenario");
    solver.emplace(set, params, dev);
  }
  const std::uint64_t t1 = obs::now_ns();
  scenario::ScenarioReport report;
  {
    const auto span = spans.scope("scenario.solve", "scenario");
    report = solver->solve();
  }
  const std::uint64_t t2 = obs::now_ns();
  {
    const auto span = spans.scope("scenario.extract", "scenario");
    const auto solutions = solver->solutions();
    if (solutions.size() != 1) out.fail_check("tracking: attribution solve lost its scenario");
  }
  const std::uint64_t t3 = obs::now_ns();

  const auto& rec = report.records.front();
  if (rec.inner_iterations != period1_iterations) {
    out.fail_check("tracking: batch-engine replica of period 1 took " +
                   std::to_string(rec.inner_iterations) + " iterations, the simulator " +
                   std::to_string(period1_iterations));
  }
  const auto& ph = report.phases;
  const double phase_sum = ph.generator_seconds + ph.branch_seconds + ph.bus_seconds +
                           ph.zy_seconds + ph.residual_seconds + ph.outer_seconds +
                           ph.chain_seconds;
  TronCounters tron;
  tron.add(report.branch);
  out.set("scenario.construct_s", seconds_between(t0, t1), "s", "lower");
  out.set("scenario.solve_s", report.solve_seconds, "s", "lower");
  out.set("scenario.stage_s", report.total_seconds - report.solve_seconds, "s", "lower");
  out.set("scenario.extract_s", seconds_between(t2, t3), "s", "lower");
  out.set("admm.phase.generator_s", ph.generator_seconds, "s", "lower");
  out.set("admm.phase.branch_s", ph.branch_seconds, "s", "lower");
  out.set("admm.phase.bus_s", ph.bus_seconds, "s", "lower");
  out.set("admm.phase.zy_s", ph.zy_seconds, "s", "lower");
  out.set("admm.phase.residual_s", ph.residual_seconds, "s", "lower");
  out.set("admm.phase.outer_s", ph.outer_seconds, "s", "lower");
  out.set("admm.phase.unattributed_s", report.solve_seconds - phase_sum, "s", "lower");
  out.set("tron.iterations", static_cast<double>(tron.iterations), "count", "lower");
  out.set("tron.cg_iterations", static_cast<double>(tron.cg_iterations), "count", "lower");
  out.set("tron.function_evals", static_cast<double>(tron.function_evals), "count", "lower");
  out.set("tron.auglag_iterations", static_cast<double>(tron.auglag_iterations), "count",
          "lower");
  out.set("tron.failures", static_cast<double>(tron.failures), "count", "lower");
  out.set("tron.iterations_per_step",
          report.fused_steps > 0
              ? static_cast<double>(tron.iterations) / static_cast<double>(report.fused_steps)
              : 0.0,
          "count", "lower");
  out.set("device.transfers_in_loop", static_cast<double>(report.transfers_during_iterations),
          "count", "lower");
  char line[200];
  std::snprintf(line, sizeof line,
                "attribution (period 1, batch engine S=1): %llu fused steps, solve %.3f s, "
                "branch phase %.1f%%",
                static_cast<unsigned long long>(report.fused_steps), report.solve_seconds,
                report.solve_seconds > 0.0 ? 100.0 * ph.branch_seconds / report.solve_seconds
                                           : 0.0);
  out.report.emplace_back(line);
  out.exact_counters.insert(
      out.exact_counters.end(),
      {{"attribution.fused_steps", report.fused_steps},
       {"attribution.inner_iterations", static_cast<std::uint64_t>(rec.inner_iterations)},
       {"attribution.tron.iterations", tron.iterations},
       {"attribution.tron.cg_iterations", tron.cg_iterations},
       {"attribution.tron.function_evals", tron.function_evals},
       {"attribution.tron.auglag_iterations", tron.auglag_iterations},
       {"attribution.tron.failures", tron.failures},
       {"attribution.launches", report.launch_stats.launches},
       {"attribution.blocks", report.launch_stats.blocks},
       {"attribution.transfers_in_loop", report.transfers_during_iterations}});
}

}  // namespace

WorkloadResult run_tracking(const RunConfig& cfg, SpanRecorder& spans) {
  using namespace gridadmm;
  WorkloadResult out;

  // One launcher plus nproc - 1 workers: 1,991-block branch launches keep
  // every worker busy.
  const int workers = std::max(1, cfg.nproc - 1);

  // ---- Setup, repeated: case synthesis, device, simulator construction ----
  std::vector<double> setup_cpu_s, load_s;
  grid::Network net;
  std::unique_ptr<device::Device> dev;
  std::unique_ptr<opf::TrackingSimulator> sim;
  opf::TrackingOptions options;
  options.periods = kPeriods;
  options.run_ipm = false;
  options.profile_seed = cfg.seed;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    {
      const auto teardown = spans.scope("opf.teardown", "opf");
      sim.reset();
      dev.reset();
    }
    const double cpu0 = process_cpu_seconds(cfg);
    const std::uint64_t t0 = obs::now_ns();
    {
      const auto span = spans.scope("grid.load", "grid");
      net = opf::load_case(kCase);
    }
    const std::uint64_t t1 = obs::now_ns();
    {
      const auto span = spans.scope("device.init", "device");
      dev = std::make_unique<device::Device>(workers);
    }
    {
      const auto span = spans.scope("opf.construct", "opf");
      sim = std::make_unique<opf::TrackingSimulator>(
          net, admm::params_for_case(kCase, net.num_buses()), options, dev.get());
    }
    load_s.push_back(seconds_between(t0, t1));
    setup_cpu_s.push_back(process_cpu_seconds(cfg) - cpu0);
  }

  // ---- Timed: whole horizons, repeated while another one fits ----
  std::vector<double> horizon_s, horizon_cpu_s, cold_s, warm_max_s, warm_p50_s, busy_s;
  std::vector<HorizonCounters> counters;
  std::vector<opf::PeriodRecord> last;
  device::reset_allocation_peak();
  const std::uint64_t window_start = obs::now_ns();
  while (true) {
    const device::LaunchStats launches_before = dev->stats();
    const device::TransferStats transfers_before = device::transfer_stats();
    const double cpu0 = process_cpu_seconds(cfg);
    const std::uint64_t t0 = obs::now_ns();
    {
      const auto span = spans.scope("opf.run", "opf");
      last = sim->run();
    }
    const std::uint64_t t1 = obs::now_ns();
    horizon_cpu_s.push_back(process_cpu_seconds(cfg) - cpu0);
    const device::LaunchStats launched = dev->stats() - launches_before;
    const device::TransferStats transfers = device::transfer_stats();

    HorizonCounters c;
    c.launches = launched.launches;
    c.blocks = launched.blocks;
    c.transfers = (transfers.host_to_device - transfers_before.host_to_device) +
                  (transfers.device_to_host - transfers_before.device_to_host);
    c.transfer_bytes = transfers.bytes - transfers_before.bytes;
    std::vector<double> warm;
    {
      const auto span = spans.scope("bench.check", "bench");
      for (const auto& rec : last) {
        c.iterations.push_back(rec.admm_iterations);
        ++out.attempted;
        bool ok = rec.admm_converged && rec.admm_violation <= kViolationBound;
        if (rec.period == 1) {
          ok = ok && grid::relative_gap(rec.admm_objective, kRef1354pegaseObjective) <=
                         kAdmmGapBound;
        } else {
          warm.push_back(rec.admm_seconds);
        }
        if (!ok) ++out.failed;
      }
    }
    const Summary warm_summary = summarize(warm);
    horizon_s.push_back(seconds_between(t0, t1));
    cold_s.push_back(last.front().admm_seconds);
    warm_max_s.push_back(warm_summary.max);
    warm_p50_s.push_back(warm_summary.p50);
    busy_s.push_back(launched.busy_seconds);
    counters.push_back(std::move(c));

    const double elapsed = seconds_between(window_start, obs::now_ns());
    if (elapsed + horizon_s.back() > cfg.seconds) break;
  }
  for (std::size_t h = 1; h < counters.size(); ++h) {
    if (!(counters[h] == counters[0])) {
      out.fail_check("tracking: work counters of horizon " + std::to_string(h + 1) +
                     " differ from horizon 1 (same seed, same inputs)");
    }
  }

  const HorizonCounters& c = counters.front();
  if (cfg.trace) attribute_cold_period(net, dev.get(), c.iterations.front(), spans, out);

  // ---- Report ----
  std::uint64_t warm_sum = 0, total = 0;
  int warm_max = 0, slower = 0;
  for (std::size_t t = 0; t < c.iterations.size(); ++t) {
    total += static_cast<std::uint64_t>(c.iterations[t]);
    if (t == 0) continue;
    warm_sum += static_cast<std::uint64_t>(c.iterations[t]);
    warm_max = std::max(warm_max, c.iterations[t]);
    if (c.iterations[t] > c.iterations[0]) ++slower;
  }
  out.report.push_back("period  load    admm_s   iterations  violation  objective");
  for (const auto& rec : last) {
    char line[160];
    std::snprintf(line, sizeof line, "%6d  %.4f  %7.3f  %10d  %9.2e  %.2f", rec.period,
                  rec.load_scale, rec.admm_seconds, rec.admm_iterations, rec.admm_violation,
                  rec.admm_objective);
    out.report.emplace_back(line);
  }

  const double horizons = static_cast<double>(counters.size());
  const double correct_per_horizon =
      (static_cast<double>(out.attempted - out.failed)) / horizons;
  const double warm_n = static_cast<double>(kPeriods - 1);

  out.set("setup_s", median(setup_cpu_s), "s", "lower");
  out.set("peak_rss_mb", peak_rss_mb(), "MB", "lower");
  out.set("cpu_ms_per_op", median(horizon_cpu_s) * 1e3 / correct_per_horizon, "ms", "lower");

  out.set("wall_ms_per_op", median(horizon_s) * 1e3 / correct_per_horizon, "ms", "lower");

  out.set("failed_share", static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio", "lower");
  out.set("cold_solve_s", median(cold_s), "s", "lower");
  out.set("warm_period_s.p50", median(warm_p50_s), "s", "lower");
  out.set("warm_period_s.max", median(warm_max_s), "s", "lower");
  out.set("grid.load_s", median(load_s), "s", "lower");
  out.set("opf.iterations.cold", c.iterations.front(), "count", "lower");
  out.set("opf.iterations.warm_sum", static_cast<double>(warm_sum), "count", "lower");
  out.set("opf.iterations.warm_max", warm_max, "count", "lower");
  out.set("opf.warm_slower_than_cold", slower, "count", "lower");
  // S = 1: one engine step per inner iteration, one busy lane.
  out.set("scenario.fused_steps", static_cast<double>(total), "count", "lower");
  out.set("scenario.lane_occupancy", lane_occupancy(total, total, 1), "ratio", "higher");
  out.set("admm.inner_iterations", static_cast<double>(total), "count", "lower");
  out.set("device.launches", static_cast<double>(c.launches), "count", "lower");
  out.set("device.blocks", static_cast<double>(c.blocks), "count", "lower");
  out.set("device.blocks_per_launch",
          c.launches > 0 ? static_cast<double>(c.blocks) / static_cast<double>(c.launches) : 0.0,
          "count", "higher");
  out.set("device.busy_s", median(busy_s), "s", "lower");
  out.set("device.host_share", 1.0 - median(busy_s) / median(horizon_s), "ratio", "lower");
  out.set("device.transfers", static_cast<double>(c.transfers), "count", "lower");
  out.set("device.peak_bytes", static_cast<double>(device::allocation_stats().peak_bytes),
          "bytes", "lower");

  out.exact_counters = {
      {"periods", static_cast<std::uint64_t>(c.iterations.size())},
      {"opf.iterations.total", total},
      {"opf.iterations.cold", static_cast<std::uint64_t>(c.iterations.front())},
      {"opf.iterations.warm_sum", warm_sum},
      {"opf.iterations.warm_max", static_cast<std::uint64_t>(warm_max)},
      {"device.launches", c.launches},
      {"device.blocks", c.blocks},
      {"device.transfers", c.transfers},
      {"device.transfer_bytes", c.transfer_bytes},
      {"device.peak_bytes", device::allocation_stats().peak_bytes},
  };
  for (std::size_t t = 0; t < c.iterations.size(); ++t) {
    out.exact_counters.emplace_back("opf.iterations.period" + std::to_string(t + 1),
                                    static_cast<std::uint64_t>(c.iterations[t]));
  }
  out.params = {{"case", kCase},
                {"device_workers", std::to_string(workers)},
                {"periods", std::to_string(kPeriods)},
                {"profile_seed", std::to_string(cfg.seed)},
                {"run_ipm", "false"},
                {"horizons_measured", std::to_string(counters.size())},
                {"warm_periods_per_horizon", std::to_string(static_cast<int>(warm_n))},
                {"setup_repeats", std::to_string(kSetupRepeats)}};
  return out;
}

}  // namespace perfbench
