#include "scenario/batch_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "scenario/batch_kernels.hpp"

namespace gridadmm::scenario {

namespace {

/// Per-slot max over the per-lane partial rows (exact: max is order-free).
/// NaN-propagating: `std::max(0.0, NaN)` keeps the first argument, so a
/// slot whose iterate went non-finite would otherwise report residual 0 and
/// "converge" on garbage. Returning the NaN lets the solve loop abort the
/// launch instead (DESIGN.md §12 poison isolation).
double collect_slot_max(std::span<const double> partial, int j, int row_stride, int lanes) {
  double result = 0.0;
  for (int lane = 0; lane < lanes; ++lane) {
    const double v =
        partial[static_cast<std::size_t>(lane) * row_stride + static_cast<std::size_t>(j)];
    if (!std::isfinite(v)) return v;
    result = std::max(result, v);
  }
  return result;
}

/// Extracts slot `s`'s solution from whole-buffer host downloads (slot
/// s's slice of an array of per-scenario extent n starts at s * n).
grid::OpfSolution slice_solution(const grid::Network& net, std::span<const double> w,
                                 std::span<const double> theta, std::span<const double> pg,
                                 std::span<const double> qg, int s) {
  grid::OpfSolution sol = grid::OpfSolution::zeros(net);
  const auto nb = static_cast<std::size_t>(net.num_buses());
  const auto ng = static_cast<std::size_t>(net.num_generators());
  const auto bus0 = static_cast<std::size_t>(s) * nb;
  const auto gen0 = static_cast<std::size_t>(s) * ng;
  const double ref_angle = theta[bus0 + static_cast<std::size_t>(net.ref_bus)];
  for (std::size_t i = 0; i < nb; ++i) {
    sol.vm[i] = std::sqrt(std::max(w[bus0 + i], 1e-12));
    sol.va[i] = theta[bus0 + i] - ref_angle;
  }
  for (std::size_t g = 0; g < ng; ++g) {
    sol.pg[g] = pg[gen0 + g];
    sol.qg[g] = qg[gen0 + g];
  }
  return sol;
}

/// Downloads slot `s`'s slice of one batch buffer: one counted transfer of
/// exactly the slice's bytes.
void download_slot(const device::DeviceBuffer<double>& buffer, int s, std::span<double> host) {
  buffer.download_slice(static_cast<std::size_t>(s) * host.size(), host);
}

/// Swaps a reusable evaluation copy's loads for the scenario's.
void apply_scenario_loads(grid::Network& net, const Scenario& sc) {
  for (int i = 0; i < net.num_buses(); ++i) {
    net.buses[static_cast<std::size_t>(i)].pd = sc.pd[static_cast<std::size_t>(i)];
    net.buses[static_cast<std::size_t>(i)].qd = sc.qd[static_cast<std::size_t>(i)];
  }
}

/// Quality against the network the scenario is actually constrained by:
/// `eval_net` (base topology, loads already swapped in) for load-only
/// scenarios, a reduced copy when a branch is outaged. Outages were
/// bridge-screened by ScenarioSet::add, so the re-check is skipped.
grid::SolutionQuality scenario_quality(const grid::Network& eval_net, const Scenario& sc,
                                       const grid::OpfSolution& sol) {
  if (sc.outage_branch < 0) return grid::evaluate_solution(eval_net, sol);
  return grid::evaluate_solution(
      grid::network_without_branch(eval_net, sc.outage_branch, /*check_connectivity=*/false),
      sol);
}

/// One record shape for both engines, so their reports cannot drift.
ScenarioRecord make_record(int index, const Scenario& sc, const admm::AdmmStats& stats,
                           const grid::SolutionQuality& quality) {
  ScenarioRecord rec;
  rec.index = index;
  rec.name = sc.name;
  rec.kind = sc.kind;
  rec.converged = stats.converged;
  rec.outer_iterations = stats.outer_iterations;
  rec.inner_iterations = stats.inner_iterations;
  rec.primal_residual = stats.primal_residual;
  rec.dual_residual = stats.dual_residual;
  rec.objective = quality.objective;
  rec.max_violation = quality.max_violation;
  rec.seconds = stats.solve_seconds;
  return rec;
}

}  // namespace

BatchAdmmSolver::BatchAdmmSolver(const ScenarioSet& set, admm::AdmmParams params,
                                 device::Device* dev)
    : net_(set.network()),
      params_(params),
      devs_({dev != nullptr ? dev : &device::default_device()}),
      scenarios_(set.scenarios()),
      waves_(set.waves()),
      model_(admm::build_component_model(net_, params_)),
      mview_(admm::make_model_view(model_)),
      cold_(admm::make_cold_start(net_, model_)),
      rho0_(model_.rho.to_host()) {
  require(!scenarios_.empty(), "BatchAdmmSolver: scenario set is empty");
  eff_.reserve(scenarios_.size());
  for (const auto& sc : scenarios_) {
    const admm::AdmmParams p = effective_params(params_, sc.controls);
    eff_.push_back({p.primal_tolerance, p.dual_tolerance, p.outer_tolerance,
                    p.max_inner_iterations, p.max_outer_iterations});
  }
}

BatchAdmmSolver::BatchAdmmSolver(const ScenarioSet& set, admm::AdmmParams params,
                                 device::DevicePool& pool)
    : BatchAdmmSolver(set, params, &pool.device(0)) {
  devs_.clear();
  for (int d = 0; d < pool.size(); ++d) devs_.push_back(&pool.device(d));
}

admm::AdmmParams effective_params(const admm::AdmmParams& base, const ScenarioControls& controls) {
  admm::AdmmParams p = base;
  if (controls.primal_tolerance >= 0.0) p.primal_tolerance = controls.primal_tolerance;
  if (controls.dual_tolerance >= 0.0) p.dual_tolerance = controls.dual_tolerance;
  if (controls.outer_tolerance >= 0.0) p.outer_tolerance = controls.outer_tolerance;
  if (controls.max_inner_iterations >= 0) p.max_inner_iterations = controls.max_inner_iterations;
  if (controls.max_outer_iterations >= 0) p.max_outer_iterations = controls.max_outer_iterations;
  return p;
}

void BatchAdmmSolver::ensure_storage() {
  if (storage_ready_) return;
  plan_ = BatchPlan::create(scenarios_, waves_, num_shards());
  shards_.clear();
  shards_.resize(devs_.size());
  const int buffers = plan_.num_buffers();
  for (int d = 0; d < num_shards(); ++d) {
    Shard& shard = shards_[static_cast<std::size_t>(d)];
    shard.dev = devs_[static_cast<std::size_t>(d)];
    shard.states.reserve(static_cast<std::size_t>(buffers));
    shard.views.resize(static_cast<std::size_t>(buffers));
    for (int b = 0; b < buffers; ++b) {
      const int capacity =
          plan_.buffer_capacity[static_cast<std::size_t>(d)][static_cast<std::size_t>(b)];
      shard.states.push_back(admm::BatchAdmmState::zeros(model_, capacity));
      auto& views = shard.views[static_cast<std::size_t>(b)];
      views.clear();
      views.reserve(static_cast<std::size_t>(capacity));
      for (int slot = 0; slot < capacity; ++slot) {
        views.push_back(shard.states[static_cast<std::size_t>(b)].view(model_, slot));
      }
    }
  }
  storage_ready_ = true;
}

void BatchAdmmSolver::set_beta(int s, double value) {
  // Two live copies: beta_ is the host truth (control flow, exports), the
  // scenario's current view feeds the kernels. BatchAdmmState::beta is NOT
  // kept in sync — it only seeds views at construction, before any solve.
  beta_[static_cast<std::size_t>(s)] = value;
  Shard& shard = shards_[static_cast<std::size_t>(plan_.shard_of[static_cast<std::size_t>(s)])];
  const int buf = buffer_of(s);
  const auto slot = static_cast<std::size_t>(plan_.slot_of[static_cast<std::size_t>(s)]);
  shard.views[static_cast<std::size_t>(buf)][slot].beta = value;
}

void BatchAdmmSolver::schedule_inner_tolerance(int s, Control& ctrl) const {
  // Inexact inner solves: proportional to the outer infeasibility, never
  // looser than the initial tolerance, never tighter than the final one
  // (identical to AdmmSolver::solve; final tolerances are per-scenario).
  const auto& eff = eff_[static_cast<std::size_t>(s)];
  const double scheduled = std::isfinite(ctrl.prev_znorm)
                               ? params_.inner_tolerance_factor * ctrl.prev_znorm
                               : params_.inner_tolerance_initial;
  // Same bound guard as AdmmSolver::solve: a per-scenario final tolerance
  // looser than the initial one must not invert the clamp (UB when lo > hi).
  ctrl.eps_primal =
      std::clamp(scheduled, eff.primal_tolerance,
                 std::max(params_.inner_tolerance_initial, eff.primal_tolerance));
  ctrl.eps_dual = std::clamp(scheduled, eff.dual_tolerance,
                             std::max(params_.inner_tolerance_initial, eff.dual_tolerance));
}

admm::WarmStartIterate BatchAdmmSolver::solve_base(ScenarioReport& report) {
  WallTimer base_timer;
  ScenarioSet set(net_);
  set.add_base();
  BatchAdmmSolver base(set, params_, devs_.front());
  base.solve();
  report.base_solve_seconds = base_timer.seconds();
  return base.export_iterate(0);
}

void BatchAdmmSolver::stage_buffer(Shard& shard, int buf, std::span<const int> globals,
                                   const admm::WarmStartIterate* base,
                                   const BatchSolveOptions& options) {
  if (globals.empty()) return;
  admm::BatchAdmmState& state = shard.states[static_cast<std::size_t>(buf)];
  // Host staging arrays mirror the device layout exactly, so each upload
  // stays one bulk transfer.
  const auto C = static_cast<std::size_t>(state.num_scenarios);
  const auto np = static_cast<std::size_t>(model_.num_pairs);
  const auto nb = static_cast<std::size_t>(model_.num_buses);
  const auto ng = static_cast<std::size_t>(model_.num_gens);
  const auto nl = static_cast<std::size_t>(model_.num_branches);
  /// Writes one scenario's slice into a whole-buffer host array.
  const auto scatter = [](std::span<const double> src, std::vector<double>& dst, int slot) {
    const auto off = static_cast<std::ptrdiff_t>(static_cast<std::size_t>(slot) * src.size());
    std::copy(src.begin(), src.end(), dst.begin() + off);
  };

  // Chained slots need no iterate staging: the wave loop's on-device chain
  // copy overwrites every iterate array (and rho) before a kernel reads
  // them, and their beta is set by the chain inheritance. When the whole
  // wave is chained — every tracking wave after the first — the 13
  // iterate uploads are skipped entirely; only the per-scenario problem
  // data (loads, pg bounds, outage masks) is staged.
  bool stage_iterates = false;
  for (const int s : globals) {
    const bool seeded = !options.initial_iterates.empty() &&
                        options.initial_iterates[static_cast<std::size_t>(s)] != nullptr;
    if (scenarios_[static_cast<std::size_t>(s)].chain_from < 0 || seeded) {
      stage_iterates = true;
      break;
    }
  }

  const std::size_t iterate_cells = stage_iterates ? C : 0;
  std::vector<double> hu(iterate_cells * np, 0.0), hw(iterate_cells * nb, 0.0),
      htheta(iterate_cells * nb, 0.0);
  std::vector<double> hv(iterate_cells * np, 0.0), hz(iterate_cells * np, 0.0),
      hy(iterate_cells * np, 0.0), hlz(iterate_cells * np, 0.0);
  std::vector<double> hpg(iterate_cells * ng, 0.0), hqg(iterate_cells * ng, 0.0);
  std::vector<double> hbx(iterate_cells * 4 * nl, 0.0), hbs(iterate_cells * 2 * nl, 0.0),
      hblam(iterate_cells * 2 * nl, 0.0);
  std::vector<double> hrho(iterate_cells * np, 0.0);
  std::vector<double> hpd(C * nb, 0.0), hqd(C * nb, 0.0);
  std::vector<double> hpmin(C * ng, 0.0), hpmax(C * ng, 0.0);
  std::vector<unsigned char> hactive(C * nl, 1);

  for (const int s : globals) {
    const auto& sc = scenarios_[static_cast<std::size_t>(s)];
    const int slot = plan_.slot_of[static_cast<std::size_t>(s)];
    const admm::WarmStartIterate* iterate =
        options.initial_iterates.empty()
            ? nullptr
            : options.initial_iterates[static_cast<std::size_t>(s)];
    // Cold-start template by default; the base fan-out (chain roots only)
    // or an externally-supplied iterate overrides the full iterate through
    // the same copy path (one WarmStartIterate shape for both, so the base
    // warm start cannot diverge from the cache warm start). Either keeps
    // prepare_warm_start semantics: escalated beta and the adaptive
    // scaling baked into the copied rho survive the warm start.
    const admm::WarmStartIterate* seed = iterate;
    if (seed == nullptr && base != nullptr && sc.chain_from < 0) seed = base;
    if (sc.chain_from >= 0 && iterate == nullptr) {
      // Chained: iterate arrives via the on-device chain copy; beta and
      // rho_scale via chain inheritance in the wave loop.
    } else if (seed != nullptr) {
      scatter(seed->u, hu, slot);
      scatter(seed->v, hv, slot);
      scatter(seed->z, hz, slot);
      scatter(seed->y, hy, slot);
      scatter(seed->lz, hlz, slot);
      scatter(seed->bus_w, hw, slot);
      scatter(seed->bus_theta, htheta, slot);
      scatter(seed->gen_pg, hpg, slot);
      scatter(seed->gen_qg, hqg, slot);
      scatter(seed->branch_x, hbx, slot);
      scatter(seed->branch_s, hbs, slot);
      scatter(seed->branch_lambda, hblam, slot);
      scatter(seed->rho, hrho, slot);
      set_beta(s, std::max(seed->beta, params_.beta0));
      rho_scale_[static_cast<std::size_t>(s)] = seed->rho_scale;
    } else {
      // One cold-start template serves every slot: it depends only on
      // bounds and topology, not on loads. Shared with
      // AdmmSolver::cold_start so the batch cold start cannot drift from
      // the sequential one. v starts as a copy of u; z, y, lz,
      // branch_lambda stay zero. Chained slots are overwritten on device
      // by the wave loop's chain copy before they run.
      scatter(cold_.u, hu, slot);
      scatter(cold_.u, hv, slot);
      scatter(cold_.w, hw, slot);
      scatter(cold_.pg, hpg, slot);
      scatter(cold_.qg, hqg, slot);
      scatter(cold_.branch_x, hbx, slot);
      scatter(cold_.branch_s, hbs, slot);
      scatter(rho0_, hrho, slot);
      set_beta(s, params_.beta0);
    }

    scatter(sc.pd, hpd, slot);
    scatter(sc.qd, hqd, slot);
    const auto slot0 = static_cast<std::size_t>(slot);
    for (std::size_t g = 0; g < ng; ++g) {
      hpmin[slot0 * ng + g] = net_.generators[g].pmin;
      hpmax[slot0 * ng + g] = net_.generators[g].pmax;
    }

    // Outage zeroing runs last so no warm start can reintroduce values on
    // an outaged branch: its pairs and variables stay at zero, every
    // kernel skips them, and they contribute nothing to residuals.
    if (sc.outage_branch >= 0) {
      const auto l = static_cast<std::size_t>(sc.outage_branch);
      hactive[slot0 * nl + l] = 0;
      const auto pair_base =
          static_cast<std::size_t>(admm::branch_pair_base(model_.num_gens, sc.outage_branch));
      for (std::size_t t = 0; t < 8; ++t) {
        for (auto* arr : {&hu, &hv, &hz, &hy, &hlz}) (*arr)[slot0 * np + pair_base + t] = 0.0;
      }
      for (std::size_t a = 0; a < 4; ++a) hbx[slot0 * 4 * nl + 4 * l + a] = 0.0;
      for (std::size_t a = 0; a < 2; ++a) {
        hbs[slot0 * 2 * nl + 2 * l + a] = 0.0;
        hblam[slot0 * 2 * nl + 2 * l + a] = 0.0;
      }
    }
  }

  if (stage_iterates) {
    state.v.upload(hv);
    state.z.upload(hz);
    state.y.upload(hy);
    state.lz.upload(hlz);
    state.branch_lambda.upload(hblam);
    state.u.upload(hu);
    state.bus_w.upload(hw);
    state.bus_theta.upload(htheta);
    state.gen_pg.upload(hpg);
    state.gen_qg.upload(hqg);
    state.branch_x.upload(hbx);
    state.branch_s.upload(hbs);
    state.rho.upload(hrho);
  }
  state.pd.upload(hpd);
  state.qd.upload(hqd);
  state.pmin.upload(hpmin);
  state.pmax.upload(hpmax);
  state.branch_active.upload(hactive);
}

void BatchAdmmSolver::run_shard_wave(int shard_id, int wave_index,
                                     const BatchSolveOptions& options) {
  Shard& shard = shards_[static_cast<std::size_t>(shard_id)];
  const auto& wave =
      plan_.wave_shards[static_cast<std::size_t>(wave_index)][static_cast<std::size_t>(shard_id)];
  if (wave.empty()) return;
  WallTimer wave_timer;
  const obs::TraceSpan wave_span("solver.wave", "wave", static_cast<std::uint64_t>(wave_index),
                                 "scenarios", static_cast<std::uint64_t>(wave.size()));

  // Wave d runs in buffer d % 2 and chains from its parent wave, which
  // still sits in the other buffer.
  const int buf = wave_index % 2;
  std::vector<ChainLink> links;
  std::vector<RampLink> ramps;
  for (const int s : wave) {
    const auto& sc = scenarios_[static_cast<std::size_t>(s)];
    if (sc.chain_from < 0) continue;
    const int dst_slot = plan_.slot_of[static_cast<std::size_t>(s)];
    const int src_slot = plan_.slot_of[static_cast<std::size_t>(sc.chain_from)];
    links.push_back({dst_slot, src_slot});
    if (sc.ramp_fraction > 0.0) ramps.push_back({dst_slot, src_slot, sc.ramp_fraction});
  }
  obs::PhaseTimer chain_timer;
  if (!links.empty()) {
    admm::BatchAdmmState& dst_state = shard.states[static_cast<std::size_t>(buf)];
    const admm::BatchAdmmState& src_state = shard.states[static_cast<std::size_t>(1 - buf)];
    batch_chain_state(*shard.dev, model_, src_state, dst_state, links);
    for (const int s : wave) {
      const auto& sc = scenarios_[static_cast<std::size_t>(s)];
      if (sc.chain_from < 0) continue;
      // prepare_warm_start semantics plus inherited adaptive scaling.
      set_beta(s, std::max(beta_[static_cast<std::size_t>(sc.chain_from)], params_.beta0));
      rho_scale_[static_cast<std::size_t>(s)] =
          rho_scale_[static_cast<std::size_t>(sc.chain_from)];
    }
    if (!ramps.empty()) batch_apply_ramp(*shard.dev, model_, src_state, dst_state, ramps);
  }
  shard.phases.chain_seconds += chain_timer.take("fused.chain");

  run_fused(shard, buf, wave, options);

  const double wave_seconds = wave_timer.seconds();
  for (const int s : wave) stats_[static_cast<std::size_t>(s)].solve_seconds = wave_seconds;
}

void BatchAdmmSolver::run_fused(Shard& shard, int buf, std::span<const int> wave,
                                const BatchSolveOptions& options) {
  std::vector<int> active(wave.begin(), wave.end());
  for (const int s : active) {
    ctrl_[static_cast<std::size_t>(s)] = Control{};
    ctrl_[static_cast<std::size_t>(s)].prev_znorm = std::numeric_limits<double>::infinity();
    schedule_inner_tolerance(s, ctrl_[static_cast<std::size_t>(s)]);
    stats_[static_cast<std::size_t>(s)] = admm::AdmmStats{};
    stats_[static_cast<std::size_t>(s)].outer_iterations = 1;
  }

  const int lanes = shard.dev->workers();
  const std::span<const admm::ScenarioView> views = shard.views[static_cast<std::size_t>(buf)];
  // Per-step scratch lives outside the loop so the hot path performs no
  // allocations once capacities are reached.
  device::AlignedVector<double> partial_primal, partial_dual, partial_z;
  std::vector<int> next_active, slots, outer_slots, rho_slots;
  std::vector<double> rho_factors;
  std::vector<std::pair<int, double>> beta_updates;
  // Phase attribution and the trace come from ONE clock read per boundary:
  // take(name) returns the seconds accumulated into PhaseBreakdown and
  // emits the span over the identical interval, so the two cannot drift.
  obs::PhaseTimer phase_timer;
  const auto take_phase = [&phase_timer](double& accumulator, const char* name) {
    accumulator += phase_timer.take(name);
  };
  // Convergence sampling (observation-only; see BatchSolveOptions).
  const int sample_interval = options.convergence_sample_interval;
  const auto sample = [this](int s) {
    const auto& stats = stats_[static_cast<std::size_t>(s)];
    auto& trajectory = traj_[static_cast<std::size_t>(s)];
    obs::ConvergenceSample point;
    point.inner_iteration = stats.inner_iterations;
    point.outer_iteration = stats.outer_iterations;
    point.primal_residual = stats.primal_residual;
    point.dual_residual = stats.dual_residual;
    point.rho_scale = rho_scale_[static_cast<std::size_t>(s)];
    point.beta = beta_[static_cast<std::size_t>(s)];
    point.tron_iterations = tron_accum_[static_cast<std::size_t>(s)];
    trajectory.samples.push_back(point);
  };

  while (!active.empty()) {
    ++shard.fused_steps;
    phase_timer.reset();
    const int n = static_cast<int>(active.size());
    const int row = reduce_row_stride(n);
    const auto cells = static_cast<std::size_t>(lanes) * static_cast<std::size_t>(row);
    partial_primal.resize(cells);
    partial_dual.resize(cells);
    partial_z.resize(cells);
    if (sample_interval > 0) shard.tron_partial.resize(cells);
    slots.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      slots[static_cast<std::size_t>(j)] =
          plan_.slot_of[static_cast<std::size_t>(active[static_cast<std::size_t>(j)])];
    }
    take_phase(shard.phases.residual_seconds, "fused.pack");

    // One fused step: every active scenario advances one inner iteration
    // with a constant number of launches on this shard's device.
    batch_update_generators(*shard.dev, mview_, views, slots);
    take_phase(shard.phases.generator_seconds, "fused.generator");
    batch_update_branches(*shard.dev, mview_, params_, views, slots, shard.branch_lanes,
                          &shard.branch_stats,
                          sample_interval > 0 ? std::span<std::uint64_t>(shard.tron_partial)
                                              : std::span<std::uint64_t>{},
                          row);
    take_phase(shard.phases.branch_seconds, "fused.branch");
    batch_update_buses(*shard.dev, mview_, views, slots, partial_dual, row);
    take_phase(shard.phases.bus_seconds, "fused.bus");
    batch_update_zy(*shard.dev, mview_, params_.two_level, views, slots, partial_primal,
                    partial_z, row);
    take_phase(shard.phases.zy_seconds, "fused.zy");

    next_active.clear();
    outer_slots.clear();
    rho_slots.clear();
    rho_factors.clear();
    beta_updates.clear();

    for (int j = 0; j < n; ++j) {
      const int s = active[static_cast<std::size_t>(j)];
      auto& ctrl = ctrl_[static_cast<std::size_t>(s)];
      auto& stats = stats_[static_cast<std::size_t>(s)];
      const auto& eff = eff_[static_cast<std::size_t>(s)];
      ++stats.inner_iterations;
      const double primal = collect_slot_max(partial_primal, j, row, lanes);
      const double dual = collect_slot_max(partial_dual, j, row, lanes);
      if (!std::isfinite(primal) || !std::isfinite(dual)) {
        // Numerical breakdown in the fused launch. The shared reduction
        // buffers hold non-finite values, so no slot's telemetry can be
        // trusted — abort the whole batch like a device-side trap would;
        // the serving layer isolates the poison scenario by bisection.
        throw NumericalError("BatchAdmmSolver: non-finite residual in fused batch (scenario '" +
                             scenarios_[static_cast<std::size_t>(s)].name +
                             "', inner iteration " + std::to_string(stats.inner_iterations) +
                             ")");
      }
      stats.primal_residual = primal;
      stats.dual_residual = dual;
      if (options.record_history) {
        stats.primal_history.push_back(primal);
        stats.dual_history.push_back(dual);
      }
      if (sample_interval > 0) {
        // Per-slot TRON attribution: sum this step's lane partials (sums
        // are order-free, so the attribution is deterministic).
        std::uint64_t step_tron = 0;
        for (int lane = 0; lane < lanes; ++lane) {
          step_tron += shard.tron_partial[static_cast<std::size_t>(lane) * row +
                                          static_cast<std::size_t>(j)];
        }
        tron_accum_[static_cast<std::size_t>(s)] += step_tron;
        if (stats.inner_iterations % sample_interval == 0) sample(s);
      }

      bool inner_done = false;
      bool inner_converged = false;
      if (primal <= ctrl.eps_primal && dual <= ctrl.eps_dual) {
        inner_done = true;
        inner_converged = true;
      } else {
        // Adaptive penalty (residual balancing), first outer iteration only
        // — identical schedule and budget to AdmmSolver::solve.
        if (params_.adaptive_rho && ctrl.outer == 0 && ctrl.inner > 0 &&
            ctrl.inner % params_.adaptive_rho_interval == 0) {
          double factor = 0.0;
          if (primal > params_.adaptive_rho_mu * dual) {
            factor = params_.adaptive_rho_tau;
          } else if (dual > params_.adaptive_rho_mu * primal) {
            factor = 1.0 / params_.adaptive_rho_tau;
          }
          if (factor != 0.0) {
            const double proposed = rho_scale_[static_cast<std::size_t>(s)] * factor;
            if (proposed <= params_.adaptive_rho_max_scale &&
                proposed >= 1.0 / params_.adaptive_rho_max_scale) {
              rho_scale_[static_cast<std::size_t>(s)] = proposed;
              rho_slots.push_back(slots[static_cast<std::size_t>(j)]);
              rho_factors.push_back(factor);
              ++stats.rho_rescales;
            }
          }
        }
        if (ctrl.inner + 1 >= eff.max_inner_iterations) inner_done = true;
      }

      if (!inner_done) {
        ++ctrl.inner;
        next_active.push_back(s);
        continue;
      }

      if (!params_.two_level) {
        stats.converged = inner_converged;
        continue;
      }

      // Outer (augmented Lagrangian) transition for this scenario.
      const double z_norm = collect_slot_max(partial_z, j, row, lanes);
      stats.z_norm = z_norm;
      if (options.record_history) stats.z_history.push_back(z_norm);
      outer_slots.push_back(slots[static_cast<std::size_t>(j)]);  // pre-escalation beta
      log::debug("batch scenario ", s, " outer ", ctrl.outer + 1, ": |z|=", z_norm,
                 " primal=", primal, " dual=", dual, " beta=", beta_[static_cast<std::size_t>(s)],
                 " inner_total=", stats.inner_iterations);
      if (z_norm <= eff.outer_tolerance && primal <= eff.primal_tolerance &&
          dual <= eff.dual_tolerance) {
        stats.converged = true;
        continue;
      }
      // Beta escalation happens on every non-converged outer iteration —
      // including the last one before the budget exhausts — exactly as in
      // the sequential loop, so chained children inherit the same beta.
      if (z_norm > params_.z_shrink * ctrl.prev_znorm) {
        beta_updates.emplace_back(
            s, std::min(beta_[static_cast<std::size_t>(s)] * params_.beta_factor,
                        params_.beta_max));
      }
      ctrl.prev_znorm = z_norm;
      if (ctrl.outer + 1 >= eff.max_outer_iterations) {
        continue;
      }
      ++ctrl.outer;
      ctrl.inner = 0;
      stats.outer_iterations = ctrl.outer + 1;
      schedule_inner_tolerance(s, ctrl);
      next_active.push_back(s);
    }

    take_phase(shard.phases.residual_seconds, "fused.residual");

    if (!rho_slots.empty()) {
      batch_scale_rho(*shard.dev, model_, shard.states[static_cast<std::size_t>(buf)], rho_slots,
                      rho_factors);
    }
    if (!outer_slots.empty()) {
      batch_update_outer_multiplier(*shard.dev, mview_, views, outer_slots, params_.lambda_bound);
    }
    take_phase(shard.phases.outer_seconds, "fused.outer");
    // Beta escalation applies after the multiplier update, exactly as in
    // the sequential outer loop.
    for (const auto& [s, beta] : beta_updates) set_beta(s, beta);

    active.swap(next_active);
  }

  if (sample_interval > 0) {
    // Retirement capture: every scenario's trajectory ends with its final
    // state even when the interval does not divide its iteration count.
    for (const int s : wave) {
      const auto& stats = stats_[static_cast<std::size_t>(s)];
      auto& trajectory = traj_[static_cast<std::size_t>(s)];
      trajectory.scenario = s;
      trajectory.converged = stats.converged;
      trajectory.hit_iteration_cap = !stats.converged;
      if (trajectory.samples.empty() ||
          trajectory.samples.back().inner_iteration != stats.inner_iterations) {
        sample(s);
      }
    }
  }
}

void BatchAdmmSolver::evaluate_shard(int shard_id, int buf, std::span<const int> globals,
                                     ScenarioReport& report, grid::Network& eval_net) {
  if (globals.empty()) return;
  const admm::BatchAdmmState& state =
      shards_[static_cast<std::size_t>(shard_id)].states[static_cast<std::size_t>(buf)];
  const auto w = state.bus_w.to_host();
  const auto theta = state.bus_theta.to_host();
  const auto pg = state.gen_pg.to_host();
  const auto qg = state.gen_qg.to_host();
  for (const int s : globals) {
    const auto& sc = scenarios_[static_cast<std::size_t>(s)];
    const int slot = plan_.slot_of[static_cast<std::size_t>(s)];
    auto sol = slice_solution(net_, w, theta, pg, qg, slot);
    apply_scenario_loads(eval_net, sc);
    report.records[static_cast<std::size_t>(s)] =
        make_record(s, sc, stats_[static_cast<std::size_t>(s)],
                    scenario_quality(eval_net, sc, sol));
    solutions_[static_cast<std::size_t>(s)] = std::move(sol);
  }
}

ScenarioReport BatchAdmmSolver::solve(const BatchSolveOptions& options) {
  WallTimer total;
  ScenarioReport report;
  const int S = num_scenarios();
  if (options.trace) obs::Tracer::instance().enable();
  const obs::TraceSpan solve_span("solver.solve", "scenarios", static_cast<std::uint64_t>(S),
                                  "shards", static_cast<std::uint64_t>(num_shards()));
  ensure_storage();
  report.num_shards = num_shards();
  ctrl_.assign(static_cast<std::size_t>(S), Control{});
  beta_.assign(static_cast<std::size_t>(S), 0.0);
  rho_scale_.assign(static_cast<std::size_t>(S), 1.0);
  stats_.assign(static_cast<std::size_t>(S), admm::AdmmStats{});
  report.records.assign(static_cast<std::size_t>(S), ScenarioRecord{});
  for (auto& shard : shards_) {
    shard.branch_stats = admm::BranchUpdateStats{};
    shard.phases = PhaseBreakdown{};
    shard.fused_steps = 0;
  }
  solutions_.assign(static_cast<std::size_t>(S), grid::OpfSolution{});
  if (options.convergence_sample_interval > 0) {
    traj_.assign(static_cast<std::size_t>(S), obs::ConvergenceTrajectory{});
    tron_accum_.assign(static_cast<std::size_t>(S), 0);
  } else {
    traj_.clear();
    tron_accum_.clear();
  }

  if (!options.initial_iterates.empty()) {
    require(static_cast<int>(options.initial_iterates.size()) == S,
            "BatchAdmmSolver::solve: initial_iterates must have one slot per scenario");
    for (int s = 0; s < S; ++s) {
      const auto* it = options.initial_iterates[static_cast<std::size_t>(s)];
      if (it == nullptr) continue;
      admm::require_matches(*it, model_, "BatchAdmmSolver::solve");
      require(scenarios_[static_cast<std::size_t>(s)].chain_from < 0,
              "BatchAdmmSolver::solve: a chained scenario cannot take an initial iterate");
    }
  }

  // ---- Plan done; execute: base solve, stage, then the wave loop ----
  admm::WarmStartIterate base;
  const admm::WarmStartIterate* base_ptr = nullptr;
  if (options.warm_start_from_base) {
    base = solve_base(report);
    base_ptr = &base;
  }

  std::vector<device::LaunchStats> launches_before;
  launches_before.reserve(devs_.size());
  for (const auto* dev : devs_) launches_before.push_back(dev->stats());

  grid::Network eval_net = net_;  // one reusable copy; loads swapped per scenario
  std::uint64_t loop_transfers = 0;
  double fused_seconds = 0.0;

  // Runs every shard's slice of a wave concurrently, one thread per
  // non-trivial shard; shard 0 runs on the calling thread. Shards touch
  // disjoint scenarios and their own devices, so the only shared state is
  // the per-scenario bookkeeping each thread owns a disjoint slice of.
  auto run_wave = [&](int wave_index) {
    if (num_shards() == 1) {
      run_shard_wave(0, wave_index, options);
      return;
    }
    const auto& wave_shards = plan_.wave_shards[static_cast<std::size_t>(wave_index)];
    std::exception_ptr first_error;
    std::mutex error_mu;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_shards() - 1));
    for (int d = 1; d < num_shards(); ++d) {
      if (wave_shards[static_cast<std::size_t>(d)].empty()) continue;
      threads.emplace_back([&, d] {
        try {
          run_shard_wave(d, wave_index, options);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    try {
      run_shard_wave(0, wave_index, options);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
    for (auto& thread : threads) thread.join();
    if (first_error) std::rethrow_exception(first_error);
  };

  for (int wave_index = 0; wave_index < plan_.num_waves(); ++wave_index) {
    // Staging reuses the buffer wave_index - 2 ran in; its results were
    // captured at that wave's end. Staging and evaluation transfers stay
    // outside the iteration-transfer accounting window.
    const int buf = wave_index % 2;
    const auto& wave_shards = plan_.wave_shards[static_cast<std::size_t>(wave_index)];
    for (int d = 0; d < num_shards(); ++d) {
      stage_buffer(shards_[static_cast<std::size_t>(d)], buf,
                   wave_shards[static_cast<std::size_t>(d)],
                   wave_index == 0 ? base_ptr : nullptr, options);
    }
    const auto transfers_before = device::transfer_stats();
    WallTimer wave_timer;
    run_wave(wave_index);
    fused_seconds += wave_timer.seconds();
    const auto transfers_after = device::transfer_stats();
    loop_transfers += (transfers_after.host_to_device - transfers_before.host_to_device) +
                      (transfers_after.device_to_host - transfers_before.device_to_host);
    for (int d = 0; d < num_shards(); ++d) {
      evaluate_shard(d, buf, wave_shards[static_cast<std::size_t>(d)], report, eval_net);
    }
  }
  report.solve_seconds = fused_seconds;
  report.transfers_during_iterations = loop_transfers;

  report.shard_launches.clear();
  report.shard_launches.reserve(devs_.size());
  for (std::size_t d = 0; d < devs_.size(); ++d) {
    report.shard_launches.push_back(devs_[d]->stats() - launches_before[d]);
    report.launch_stats += report.shard_launches.back();
  }

  report.stats = stats_;
  if (options.convergence_sample_interval > 0) report.convergence = traj_;
  for (const auto& shard : shards_) {
    report.branch += shard.branch_stats;
    report.phases += shard.phases;
    report.fused_steps += shard.fused_steps;
  }
  report.total_seconds = total.seconds();
  solved_ = true;
  return report;
}

grid::OpfSolution BatchAdmmSolver::solution(int s) const {
  require(s >= 0 && s < num_scenarios(), "BatchAdmmSolver::solution: scenario out of range");
  require(solved_, "BatchAdmmSolver::solution: valid only after solve()");
  return solutions_[static_cast<std::size_t>(s)];
}

admm::WarmStartIterate BatchAdmmSolver::export_iterate(int s) const {
  require(s >= 0 && s < num_scenarios(), "BatchAdmmSolver::export_iterate: scenario out of range");
  require(solved_, "BatchAdmmSolver::export_iterate: valid only after solve()");
  require(plan_.wave_of[static_cast<std::size_t>(s)] >= plan_.num_waves() - 2,
          "BatchAdmmSolver::export_iterate: scenario's wave buffer was reused (only the "
          "last two waves stay resident)");
  const Shard& shard =
      shards_[static_cast<std::size_t>(plan_.shard_of[static_cast<std::size_t>(s)])];
  const admm::BatchAdmmState& state = shard.states[static_cast<std::size_t>(buffer_of(s))];
  const auto np = static_cast<std::size_t>(model_.num_pairs);
  const auto nb = static_cast<std::size_t>(model_.num_buses);
  const auto ng = static_cast<std::size_t>(model_.num_gens);
  const auto nl = static_cast<std::size_t>(model_.num_branches);
  const int slot = plan_.slot_of[static_cast<std::size_t>(s)];
  admm::WarmStartIterate it;
  it.u.resize(np);
  it.v.resize(np);
  it.z.resize(np);
  it.y.resize(np);
  it.lz.resize(np);
  it.bus_w.resize(nb);
  it.bus_theta.resize(nb);
  it.gen_pg.resize(ng);
  it.gen_qg.resize(ng);
  it.branch_x.resize(4 * nl);
  it.branch_s.resize(2 * nl);
  it.branch_lambda.resize(2 * nl);
  it.rho.resize(np);
  download_slot(state.u, slot, it.u);
  download_slot(state.v, slot, it.v);
  download_slot(state.z, slot, it.z);
  download_slot(state.y, slot, it.y);
  download_slot(state.lz, slot, it.lz);
  download_slot(state.bus_w, slot, it.bus_w);
  download_slot(state.bus_theta, slot, it.bus_theta);
  download_slot(state.gen_pg, slot, it.gen_pg);
  download_slot(state.gen_qg, slot, it.gen_qg);
  download_slot(state.branch_x, slot, it.branch_x);
  download_slot(state.branch_s, slot, it.branch_s);
  download_slot(state.branch_lambda, slot, it.branch_lambda);
  download_slot(state.rho, slot, it.rho);
  it.beta = beta_[static_cast<std::size_t>(s)];
  it.rho_scale = rho_scale_[static_cast<std::size_t>(s)];
  return it;
}

const std::vector<grid::OpfSolution>& BatchAdmmSolver::solutions() const {
  require(solved_, "BatchAdmmSolver::solutions: valid only after solve()");
  return solutions_;
}

ScenarioReport solve_sequential(const ScenarioSet& set, const admm::AdmmParams& params,
                                device::Device* dev) {
  device::Device* device = dev != nullptr ? dev : &device::default_device();
  const auto& net = set.network();
  const int S = set.size();
  require(S > 0, "solve_sequential: scenario set is empty");

  WallTimer total;
  ScenarioReport report;
  report.records.reserve(static_cast<std::size_t>(S));
  report.stats.reserve(static_cast<std::size_t>(S));
  // A solver is retained only while unconstructed children still need it,
  // so tracking chains hold O(live parents) solver states, not O(S).
  std::vector<int> children_left(static_cast<std::size_t>(S), 0);
  for (int s = 0; s < S; ++s) {
    if (set[s].chain_from >= 0) ++children_left[static_cast<std::size_t>(set[s].chain_from)];
  }
  std::vector<std::unique_ptr<admm::AdmmSolver>> solvers(static_cast<std::size_t>(S));
  grid::Network eval_net = net;  // one reusable copy; loads swapped per scenario

  // Explicit snapshot rather than a function-scope LaunchStatsScope: the
  // scope's destructor would run after `return report` has already copied
  // the (then still zero) launch_stats when NRVO is not performed.
  const device::LaunchStats launches_before = device->stats();
  WallTimer solve_timer;
  for (int s = 0; s < S; ++s) {
    const auto& sc = set[s];
    std::unique_ptr<admm::AdmmSolver> solver;
    if (sc.outage_branch >= 0) {
      solver = std::make_unique<admm::AdmmSolver>(
          grid::network_without_branch(net, sc.outage_branch), params, device);
      solver->set_loads(sc.pd, sc.qd);
    } else if (sc.chain_from >= 0) {
      // Warm start from a copy of the parent's solver (full iterate kept).
      solver =
          std::make_unique<admm::AdmmSolver>(*solvers[static_cast<std::size_t>(sc.chain_from)]);
      const int ng = net.num_generators();
      std::vector<double> pmin(static_cast<std::size_t>(ng)), pmax(static_cast<std::size_t>(ng));
      const auto prev_pg = solver->solution().pg;
      for (int g = 0; g < ng; ++g) {
        const auto& gen = net.generators[static_cast<std::size_t>(g)];
        if (sc.ramp_fraction > 0.0) {
          const double ramp = sc.ramp_fraction * gen.pmax;
          pmin[static_cast<std::size_t>(g)] =
              std::max(gen.pmin, prev_pg[static_cast<std::size_t>(g)] - ramp);
          pmax[static_cast<std::size_t>(g)] =
              std::min(gen.pmax, prev_pg[static_cast<std::size_t>(g)] + ramp);
        } else {
          pmin[static_cast<std::size_t>(g)] = gen.pmin;
          pmax[static_cast<std::size_t>(g)] = gen.pmax;
        }
      }
      solver->set_generator_pg_bounds(pmin, pmax);
      solver->set_loads(sc.pd, sc.qd);
      solver->prepare_warm_start();
      const auto parent = static_cast<std::size_t>(sc.chain_from);
      if (--children_left[parent] == 0) solvers[parent].reset();
    } else {
      solver = std::make_unique<admm::AdmmSolver>(net, params, device);
      solver->set_loads(sc.pd, sc.qd);
    }
    // Heterogeneous termination knobs resolve against the batch-wide base
    // params — not a chained parent's possibly-overridden copy — exactly as
    // the batch engine does, so the assignment is unconditional.
    solver->params() = effective_params(params, sc.controls);

    auto stats = solver->solve();
    const auto sol = solver->solution();
    apply_scenario_loads(eval_net, sc);
    report.branch += stats.branch;
    report.records.push_back(make_record(s, sc, stats, scenario_quality(eval_net, sc, sol)));
    report.stats.push_back(std::move(stats));
    if (children_left[static_cast<std::size_t>(s)] > 0) {
      solvers[static_cast<std::size_t>(s)] = std::move(solver);
    }
  }
  report.solve_seconds = solve_timer.seconds();
  report.launch_stats = device->stats() - launches_before;
  report.total_seconds = total.seconds();
  return report;
}

}  // namespace gridadmm::scenario
