// End-to-end tests of the two-level ADMM solver on canonical cases.
#include <gtest/gtest.h>

#include "admm/one_level.hpp"
#include "admm/solver.hpp"
#include "device/buffer.hpp"
#include "grid/cases.hpp"
#include "grid/solution.hpp"

namespace gridadmm::admm {
namespace {

TEST(Admm, SolvesCase9ToPaperQuality) {
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  const auto stats = solver.solve();
  EXPECT_TRUE(stats.converged);
  const auto sol = solver.solution();
  const auto quality = grid::evaluate_solution(net, sol);
  // Paper Table II reports violations of order 1e-3/1e-4 and gaps < 0.1%.
  EXPECT_LT(quality.max_violation, 5e-3);
  // MATPOWER's known case9 ACOPF objective.
  EXPECT_NEAR(quality.objective, 5296.69, 0.01 * 5296.69);
}

TEST(Admm, BranchLaneWorkspacesPersistAcrossSolves) {
  // update_branches used to rebuild one BranchWorkspace per worker lane —
  // including every TRON solver's heap state — on every kernel launch.
  // The lanes now live in AdmmState: the first solve constructs exactly
  // one workspace per lane and every later launch reuses them.
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  const auto created_initial = BranchWorkspace::created();
  const auto stats = solver.solve();
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.inner_iterations, 1);  // many branch launches happened...
  const auto created_after_first = BranchWorkspace::created();
  // ...but only the first launch constructed workspaces: one per lane.
  EXPECT_EQ(created_after_first - created_initial,
            static_cast<std::uint64_t>(solver.state().branch_lanes.size()));

  // A warm re-solve constructs none at all.
  solver.prepare_warm_start();
  solver.solve();
  EXPECT_EQ(BranchWorkspace::created(), created_after_first);
}

TEST(Admm, SolvesCase14WithUnratedLines) {
  const auto net = grid::load_embedded_case("case14");
  AdmmSolver solver(net, params_for_case("case14", 14));
  const auto stats = solver.solve();
  EXPECT_TRUE(stats.converged);
  const auto quality = grid::evaluate_solution(net, solver.solution());
  EXPECT_LT(quality.max_violation, 5e-3);
  EXPECT_NEAR(quality.objective, 8081.5, 0.01 * 8081.5);
}

TEST(Admm, NoHostDeviceTransfersDuringSolve) {
  // The paper's key implementation claim (Section III): the entire solver
  // loop runs on the device without transfers.
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  const auto before = device::transfer_stats();
  solver.solve();
  const auto after = device::transfer_stats();
  EXPECT_EQ(before.host_to_device, after.host_to_device);
  EXPECT_EQ(before.device_to_host, after.device_to_host);
}

TEST(Admm, WarmStartConvergesFasterAfterLoadChange) {
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  const auto cold = solver.solve();
  ASSERT_TRUE(cold.converged);

  // Perturb loads by ~2% and re-solve warm.
  std::vector<double> pd, qd;
  for (const auto& bus : solver.network().buses) {
    pd.push_back(bus.pd * 1.02);
    qd.push_back(bus.qd * 1.02);
  }
  solver.set_loads(pd, qd);
  solver.prepare_warm_start();
  const auto warm = solver.solve();
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(warm.inner_iterations, cold.inner_iterations);

  // Compare with a cold restart on the same perturbed loads.
  auto net2 = net;
  for (int i = 0; i < net2.num_buses(); ++i) {
    net2.buses[i].pd = pd[i];
    net2.buses[i].qd = qd[i];
  }
  AdmmSolver cold_solver(net2, params_for_case("case9", 9));
  const auto cold2 = cold_solver.solve();
  ASSERT_TRUE(cold2.converged);
  EXPECT_LT(warm.inner_iterations, cold2.inner_iterations);
}

TEST(Admm, SolutionRespectsGeneratorBounds) {
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  solver.solve();
  const auto sol = solver.solution();
  for (int g = 0; g < net.num_generators(); ++g) {
    EXPECT_GE(sol.pg[g], net.generators[g].pmin - 1e-9);
    EXPECT_LE(sol.pg[g], net.generators[g].pmax + 1e-9);
    EXPECT_GE(sol.qg[g], net.generators[g].qmin - 1e-9);
    EXPECT_LE(sol.qg[g], net.generators[g].qmax + 1e-9);
  }
}

TEST(Admm, ReferenceAngleIsZeroInSolution) {
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  solver.solve();
  const auto sol = solver.solution();
  EXPECT_DOUBLE_EQ(sol.va[net.ref_bus], 0.0);
}

TEST(Admm, RecordsHistoriesWhenRequested) {
  const auto net = grid::load_embedded_case("case9");
  AdmmSolver solver(net, params_for_case("case9", 9));
  solver.set_record_history(true);
  const auto stats = solver.solve();
  EXPECT_EQ(static_cast<int>(stats.primal_history.size()), stats.inner_iterations);
  EXPECT_EQ(static_cast<int>(stats.z_history.size()), stats.outer_iterations);
  // z must shrink substantially over the outer loop.
  EXPECT_LT(stats.z_history.back(), stats.z_history.front());
}

TEST(Admm, OneLevelVariantRunsWithoutZ) {
  const auto net = grid::load_embedded_case("case9");
  auto params = make_one_level(params_for_case("case9", 9));
  params.max_inner_iterations = 2000;
  AdmmSolver solver(net, params);
  const auto stats = solver.solve();
  EXPECT_EQ(stats.outer_iterations, 1);
  // z is never touched in the one-level variant.
  for (const double z : solver.state().z.to_host()) EXPECT_DOUBLE_EQ(z, 0.0);
  const auto quality = grid::evaluate_solution(net, solver.solution());
  EXPECT_LT(quality.max_violation, 0.1);  // looser: no convergence guarantee
  (void)stats;
}

TEST(Admm, StopsAtIterationBudget) {
  const auto net = grid::load_embedded_case("case9");
  auto params = params_for_case("case9", 9);
  params.max_outer_iterations = 2;
  params.max_inner_iterations = 5;
  AdmmSolver solver(net, params);
  const auto stats = solver.solve();
  EXPECT_FALSE(stats.converged);
  EXPECT_LE(stats.inner_iterations, 10);
}

TEST(Admm, AdaptiveRhoRecoversFromBadPreset) {
  const auto net = grid::load_embedded_case("case9");
  auto params = params_for_case("case9", 9);
  params.rho_pq *= 0.05;  // deliberately mis-tuned
  params.rho_va *= 0.05;
  params.max_outer_iterations = 10;

  AdmmSolver fixed(net, params);
  const auto fixed_stats = fixed.solve();

  params.adaptive_rho = true;
  AdmmSolver adaptive(net, params);
  const auto adaptive_stats = adaptive.solve();
  EXPECT_GT(adaptive_stats.rho_rescales, 0);
  EXPECT_TRUE(adaptive_stats.converged);
  const auto quality = grid::evaluate_solution(net, adaptive.solution());
  EXPECT_LT(quality.max_violation, 1e-2);
  // With a preset this far off, residual balancing recovers a large part of
  // the lost iterations.
  if (fixed_stats.converged) {
    EXPECT_LT(adaptive_stats.inner_iterations, fixed_stats.inner_iterations);
  }
}

TEST(Admm, ExtremePenaltiesDegradeQuality) {
  // The paper notes large penalties put less weight on the objective; an
  // absurd penalty must show up as a worse gap, not a crash.
  const auto net = grid::load_embedded_case("case9");
  auto params = params_for_case("case9", 9);
  params.rho_pq *= 1e4;
  params.rho_va *= 1e4;
  params.max_outer_iterations = 6;
  AdmmSolver solver(net, params);
  EXPECT_NO_THROW(solver.solve());
}

}  // namespace
}  // namespace gridadmm::admm
