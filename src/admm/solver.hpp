// Two-level ADMM solver for ACOPF (paper Algorithm 1): the single-scenario
// reference engine.
//
// Production solves run on scenario::BatchAdmmSolver, where one scenario
// is a batch of one. This solver is kept as the oracle the batch engine is
// tested against: scenario::solve_sequential runs one AdmmSolver per
// scenario, and the batch tests require the same iterations and
// residuals.
//
// Outer loop: augmented Lagrangian on z = 0 (multiplier lambda, penalty
// beta). Inner loop: ADMM over the component decomposition
//   x-update   : generators (closed form) and branches (TRON batch)
//   xbar-update: buses (closed form, eq. (7))
//   z-update   : closed form (eq. (6))
//   y-update   : eq. (8)
// All state is device-resident; one kernel launch per update, no
// host<->device transfers inside the loop. Warm starting reuses the full
// iterate (primal values and all multipliers) across solves.
#pragma once

#include <memory>
#include <vector>

#include "admm/branch_kernel.hpp"
#include "admm/component_model.hpp"
#include "admm/params.hpp"
#include "admm/state.hpp"
#include "admm/warm_start.hpp"
#include "device/device.hpp"
#include "grid/network.hpp"
#include "grid/solution.hpp"

namespace gridadmm::admm {

struct AdmmStats {
  bool converged = false;
  int outer_iterations = 0;
  int inner_iterations = 0;  ///< cumulative over all outer iterations
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  double z_norm = 0.0;
  double solve_seconds = 0.0;
  int rho_rescales = 0;      ///< adaptive-penalty rescaling events
  BranchUpdateStats branch;  ///< cumulative branch-solve work
  // Per-inner-iteration traces (filled when params.record_history).
  std::vector<double> primal_history;
  std::vector<double> dual_history;
  std::vector<double> z_history;  ///< one entry per outer iteration
};

/// The paper Section IV-B cold-start iterate as host arrays: dispatch and
/// voltage magnitudes at the midpoint of their bounds, flat angles, branch
/// flows evaluated from the voltages, line-limit slacks clamped feasible.
/// Shared by AdmmSolver::cold_start and the batch engine's staging so the
/// two cold starts cannot drift apart.
struct ColdStartTemplate {
  std::vector<double> u;         ///< consensus x-side values (v starts equal)
  std::vector<double> w, theta;  ///< bus squared magnitudes / angles
  std::vector<double> pg, qg;    ///< generator dispatch
  std::vector<double> branch_x;  ///< 4 per branch
  std::vector<double> branch_s;  ///< 2 per branch (line-limit slacks)
};
ColdStartTemplate make_cold_start(const grid::Network& net, const ComponentModel& model);

class AdmmSolver {
 public:
  /// Copies the network; `dev` defaults to the process-wide device.
  AdmmSolver(grid::Network net, AdmmParams params, device::Device* dev = nullptr);

  /// Paper Section IV-B initialization: dispatch and voltage magnitudes at
  /// the midpoint of their bounds, flat angles, flows from the voltages,
  /// all multipliers zero.
  void cold_start();

  /// Resets only the outer penalty (beta), keeping the full iterate — call
  /// before re-solving after a load change to warm start.
  void prepare_warm_start();

  /// Runs Algorithm 1 from the current state.
  AdmmStats solve();

  /// Extracts the solution the paper reports: dispatch from generator
  /// components, voltages from bus components (angles shifted so the
  /// reference bus is zero).
  [[nodiscard]] grid::OpfSolution solution() const;

  /// Snapshots the full iterate (primal values, every multiplier, penalty
  /// state) as portable host arrays — the unit of exchange for the warm-start
  /// cache and cross-solver seeding.
  [[nodiscard]] WarmStartIterate export_iterate() const;

  /// Restores a previously exported iterate (dimensions must match this
  /// solver's model; throws ValidationError otherwise) and applies
  /// prepare_warm_start semantics: the iterate's penalties are kept, beta is
  /// only raised to at least beta0.
  void import_iterate(const WarmStartIterate& it);

  /// Updates loads (per-unit, one entry per bus); used by tracking.
  void set_loads(std::span<const double> pd, std::span<const double> qd);
  /// Updates real-power dispatch bounds (per-unit); used for ramp limits.
  void set_generator_pg_bounds(std::span<const double> pmin, std::span<const double> pmax);

  [[nodiscard]] const grid::Network& network() const { return net_; }
  [[nodiscard]] const AdmmParams& params() const { return params_; }
  AdmmParams& params() { return params_; }
  [[nodiscard]] const ComponentModel& model() const { return model_; }
  [[nodiscard]] const AdmmState& state() const { return state_; }
  /// Cumulative adaptive-penalty scaling applied so far (1.0 when adaptive
  /// rho never fired); warm starts that copy the iterate must inherit it so
  /// the cumulative scaling bound keeps holding.
  [[nodiscard]] double rho_scale() const { return rho_scale_; }
  [[nodiscard]] bool record_history() const { return record_history_; }
  void set_record_history(bool record) { record_history_ = record; }

 private:
  grid::Network net_;
  AdmmParams params_;
  device::Device* dev_;
  ComponentModel model_;
  AdmmState state_;
  bool record_history_ = false;
  double rho_scale_ = 1.0;  ///< cumulative adaptive-penalty scaling
};

}  // namespace gridadmm::admm
