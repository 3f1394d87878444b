#include "admm/branch_kernel.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gridadmm::admm {

namespace {

/// One TRON solve, dispatched on the problem's dimension: 4 variables for
/// an unrated branch, 6 for a rated one.
tron::TronResult run_tron(BranchWorkspace& ws, std::span<double> x) {
  if (x.size() == 4) return ws.solver4.minimize(ws.problem, x);
  return ws.solver6.minimize(ws.problem, x);
}

void accumulate(BranchUpdateStats& stats, const tron::TronResult& result) {
  stats.tron_iterations += result.iterations;
  stats.cg_iterations += result.cg_iterations;
  stats.function_evals += result.function_evals;
  if (result.status == tron::TronStatus::kLineSearchFailed) ++stats.failures;
}

}  // namespace

void ensure_branch_lanes(std::vector<BranchWorkspace>& lanes, int workers,
                         const AdmmParams& params) {
  if (lanes.size() != static_cast<std::size_t>(workers)) {
    lanes = std::vector<BranchWorkspace>(static_cast<std::size_t>(workers));
  }
  // Rebinding every call is a few scalar copies; it keeps later changes to
  // params.tron (solvers are reused across solves) from going stale.
  for (auto& lane : lanes) lane.bind_options(params.tron);
}

void branch_update_one(const ModelView& m, const AdmmParams& params, const ScenarioView& s, int l,
                       BranchWorkspace& ws) {
  if (s.branch_active != nullptr && s.branch_active[l] == 0) return;  // outage
  const auto base = static_cast<std::size_t>(branch_pair_base(m.num_gens, l));
  double d[8], yk[8], rhok[8];
  for (std::size_t k = 0; k < 8; ++k) {
    d[k] = s.z[base + k] - s.v[base + k];
    yk[k] = s.y[base + k];
    rhok[k] = s.rho[base + k];
  }
  const double rate2 = m.rate2[l];
  ws.problem.bind(m.adm + 8 * l, m.vbound + 4 * l, rate2, d, yk, rhok);

  double x[6];
  for (std::size_t a = 0; a < 4; ++a) x[a] = s.branch_x[4 * static_cast<std::size_t>(l) + a];
  const bool rated = rate2 > 0.0;

  if (!rated) {
    ws.problem.set_line_multipliers(0.0, 0.0, 0.0);
    accumulate(ws.stats, run_tron(ws, {x, 4}));
  } else {
    const auto sl = 2 * static_cast<std::size_t>(l);
    x[4] = s.branch_s[sl];
    x[5] = s.branch_s[sl + 1];
    double lam_ij = s.branch_lambda[sl];
    double lam_ji = s.branch_lambda[sl + 1];
    double rho_t = params.auglag_rho0 * std::max(rhok[0], 1.0);
    double eta = ws.initial_eta(rho_t);
    for (int al = 0; al < params.auglag_max_iterations; ++al) {
      ++ws.stats.auglag_iterations;
      ws.problem.set_line_multipliers(lam_ij, lam_ji, rho_t);
      accumulate(ws.stats, run_tron(ws, {x, 6}));
      double cij = 0.0, cji = 0.0;
      ws.problem.constraint_values({x, 6}, cij, cji);
      const double viol = std::max(std::abs(cij), std::abs(cji));
      if (viol <= eta) {
        lam_ij += rho_t * cij;
        lam_ji += rho_t * cji;
        if (viol <= params.auglag_eta) break;
        eta = std::max(params.auglag_eta, eta * std::pow(rho_t, -0.9));
      } else {
        rho_t = std::min(rho_t * 10.0, params.auglag_rho_max);
        eta = std::max(params.auglag_eta, std::pow(rho_t, -0.1));
      }
    }
    s.branch_lambda[sl] = lam_ij;
    s.branch_lambda[sl + 1] = lam_ji;
    s.branch_s[sl] = x[4];
    s.branch_s[sl + 1] = x[5];
  }

  for (std::size_t a = 0; a < 4; ++a) s.branch_x[4 * static_cast<std::size_t>(l) + a] = x[a];
  // Reuses the flows of the solve's last evaluation when x is that point.
  const grid::FlowValues f = ws.problem.flows({x, rated ? 6u : 4u});
  s.u[base + kPairPij] = f[grid::kPij];
  s.u[base + kPairQij] = f[grid::kQij];
  s.u[base + kPairPji] = f[grid::kPji];
  s.u[base + kPairQji] = f[grid::kQji];
  s.u[base + kPairWi] = x[0] * x[0];
  s.u[base + kPairThi] = x[2];
  s.u[base + kPairWj] = x[1] * x[1];
  s.u[base + kPairThj] = x[3];
}

void update_branches(device::Device& dev, const ComponentModel& model, const AdmmParams& params,
                     AdmmState& state, BranchUpdateStats* stats) {
  const ModelView m = make_model_view(model);
  const ScenarioView s = make_scenario_view(model, state);

  // The lanes live in the state: allocated on the first launch, reused by
  // every later one. The old per-launch std::vector<BranchWorkspace> cost a
  // full TronSolver heap construction per lane per ADMM iteration.
  std::vector<BranchWorkspace>& lanes = state.branch_lanes;
  ensure_branch_lanes(lanes, dev.workers(), params);

  dev.launch_with_lane(model.num_branches,
                       [&lanes, &params, &m, &s](int l, int lane_id) {
                         branch_update_one(m, params, s, l, lanes[lane_id]);
                       });

  for (auto& lane : lanes) {
    if (stats != nullptr) *stats += lane.stats;
    lane.stats = BranchUpdateStats{};
  }
}

}  // namespace gridadmm::admm
