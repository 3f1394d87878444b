#include "opf/tracking.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "grid/solution.hpp"
#include "obs/trace.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"

namespace gridadmm::opf {

namespace {

/// Load profile of tracked variant `profile`: seed profile_seed + profile.
grid::LoadProfileSpec profile_spec(const TrackingOptions& options, int profile) {
  grid::LoadProfileSpec spec;
  spec.periods = options.periods;
  spec.max_drift = options.max_drift;
  spec.seed = options.profile_seed + static_cast<std::uint64_t>(profile);
  return spec;
}

/// Shared implementation: builds the per-profile tracking set, solves it
/// with the caller's solver (single-device or sharded), and reshapes the
/// report into per-profile period records.
BatchTrackingResult run_batched_tracking_impl(const grid::Network& net,
                                              const admm::AdmmParams& params,
                                              const TrackingOptions& options, int num_profiles,
                                              device::Device* dev, device::DevicePool* pool) {
  require(num_profiles > 0, "run_batched_tracking: num_profiles must be positive");

  scenario::ScenarioSet set(net);
  std::vector<int> first_index(static_cast<std::size_t>(num_profiles));
  for (int p = 0; p < num_profiles; ++p) {
    first_index[static_cast<std::size_t>(p)] =
        set.add_tracking_sequence(profile_spec(options, p), options.ramp_fraction);
  }

  // One fused batch per period: wave t holds every profile's period t.
  // Only the current and previous period's state stay resident, so device
  // memory is O(2 x profiles x case) for any horizon length.
  scenario::BatchSolveOptions solve_options;
  solve_options.trace = options.trace;
  solve_options.convergence_sample_interval = options.convergence_sample_interval;
  if (options.trace) obs::Tracer::instance().enable();
  const obs::TraceSpan tracking_span("tracking.batched", "profiles",
                                     static_cast<std::uint64_t>(num_profiles), "periods",
                                     static_cast<std::uint64_t>(options.periods));
  BatchTrackingResult result;
  if (pool != nullptr) {
    scenario::BatchAdmmSolver solver(set, params, *pool);
    result.report = solver.solve(solve_options);
  } else {
    scenario::BatchAdmmSolver solver(set, params, dev);
    result.report = solver.solve(solve_options);
  }

  result.profiles.assign(static_cast<std::size_t>(num_profiles), {});
  for (int p = 0; p < num_profiles; ++p) {
    auto& periods = result.profiles[static_cast<std::size_t>(p)];
    periods.reserve(static_cast<std::size_t>(options.periods));
    for (int t = 0; t < options.periods; ++t) {
      const auto& rec = result.report.records[static_cast<std::size_t>(
          first_index[static_cast<std::size_t>(p)] + t)];
      PeriodRecord period;
      period.period = t + 1;
      period.load_scale = set[rec.index].load_scale;
      period.admm_seconds = rec.seconds;  // shared: the period's fused wave
      period.admm_iterations = rec.inner_iterations;
      period.admm_objective = rec.objective;
      period.admm_violation = rec.max_violation;
      period.admm_converged = rec.converged;
      periods.push_back(period);
    }
  }
  return result;
}

}  // namespace

TrackingSimulator::TrackingSimulator(grid::Network net, admm::AdmmParams params,
                                     TrackingOptions options, device::Device* dev)
    : net_(std::move(net)), params_(params), options_(options),
      dev_(dev),
      profile_(grid::make_load_profile(profile_spec(options_, 0))) {}

std::vector<PeriodRecord> TrackingSimulator::run() {
  std::vector<PeriodRecord> records =
      std::move(run_batched_tracking(net_, params_, options_, 1, dev_).profiles.front());

  // ---- Interior-point baseline: the same loads, its own ramp chain ----
  if (options_.run_ipm) {
    ipm::AcopfNlp nlp(net_);
    ipm::IpmSolver ipm_solver(nlp, options_.ipm);
    std::vector<double> pd(net_.buses.size()), qd(net_.buses.size());
    std::vector<double> pmin(net_.generators.size()), pmax(net_.generators.size());
    std::vector<double> prev_pg;
    for (auto& rec : records) {
      const bool first = rec.period == 1;
      for (std::size_t i = 0; i < pd.size(); ++i) {
        pd[i] = net_.buses[i].pd * rec.load_scale;
        qd[i] = net_.buses[i].qd * rec.load_scale;
      }
      for (std::size_t g = 0; g < pmin.size(); ++g) {
        const auto& gen = net_.generators[g];
        const double ramp = options_.ramp_fraction * gen.pmax;
        pmin[g] = first ? gen.pmin : std::max(gen.pmin, prev_pg[g] - ramp);
        pmax[g] = first ? gen.pmax : std::min(gen.pmax, prev_pg[g] + ramp);
      }
      nlp.set_loads(pd, qd);
      nlp.set_pg_bounds(pmin, pmax);
      ipm_solver.options().warm_start = !first;
      const auto result = ipm_solver.solve();
      const auto sol = nlp.unpack(ipm_solver.primal());
      const auto quality = grid::evaluate_solution(nlp.network(), sol);
      rec.ipm_seconds = result.solve_seconds;
      rec.ipm_iterations = result.iterations;
      rec.ipm_objective = quality.objective;
      rec.ipm_violation = quality.max_violation;
      rec.ipm_converged = result.status == ipm::IpmStatus::kOptimal;
      prev_pg = sol.pg;
      if (rec.ipm_converged) {
        rec.relative_gap = grid::relative_gap(rec.admm_objective, rec.ipm_objective);
      }
    }
  }

  for (const auto& rec : records) {
    log::info("tracking period ", rec.period, ": scale=", rec.load_scale,
              " admm=", rec.admm_seconds, "s (", rec.admm_iterations, " it)",
              options_.run_ipm ? " ipm=" : "",
              options_.run_ipm ? std::to_string(rec.ipm_seconds) : "");
  }
  return records;
}

BatchTrackingResult run_batched_tracking(const grid::Network& net,
                                         const admm::AdmmParams& params,
                                         const TrackingOptions& options, int num_profiles,
                                         device::Device* dev) {
  return run_batched_tracking_impl(net, params, options, num_profiles, dev, nullptr);
}

BatchTrackingResult run_batched_tracking(const grid::Network& net,
                                         const admm::AdmmParams& params,
                                         const TrackingOptions& options, int num_profiles,
                                         device::DevicePool& pool) {
  return run_batched_tracking_impl(net, params, options, num_profiles, nullptr, &pool);
}

}  // namespace gridadmm::opf
