// High-level public API: load a case, solve it with either solver, get a
// solution plus quality metrics. This is the facade the examples and
// benchmarks use; the underlying solvers remain fully accessible.
#pragma once

#include <string>

#include "admm/params.hpp"
#include "device/device.hpp"
#include "grid/network.hpp"
#include "grid/solution.hpp"
#include "ipm/ipm_solver.hpp"

namespace gridadmm::opf {

struct SolveReport {
  grid::OpfSolution solution;
  grid::SolutionQuality quality;
  bool converged = false;
  int iterations = 0;  ///< ADMM: cumulative inner iterations; IPM: Newton steps
  double seconds = 0.0;
  std::string solver;
};

/// Solves with the paper's GPU-style ADMM (cold start): a one-scenario
/// batch on scenario::BatchAdmmSolver.
SolveReport solve_with_admm(const grid::Network& net, const admm::AdmmParams& params,
                            device::Device* dev = nullptr);

/// Solves with the interior-point baseline (cold start).
SolveReport solve_with_ipm(const grid::Network& net, const ipm::IpmOptions& options = {});

/// Loads a case by name (embedded, Table I synthetic preset, or MATPOWER
/// file path) — re-exported from grid for convenience.
grid::Network load_case(const std::string& name_or_path);

}  // namespace gridadmm::opf
