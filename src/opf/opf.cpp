#include "opf/opf.hpp"

#include "grid/cases.hpp"
#include "ipm/acopf_nlp.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"

namespace gridadmm::opf {

SolveReport solve_with_admm(const grid::Network& net, const admm::AdmmParams& params,
                            device::Device* dev) {
  scenario::ScenarioSet set(net);
  set.add_base();
  scenario::BatchAdmmSolver solver(set, params, dev);
  const auto record = solver.solve().records.front();
  SolveReport report;
  report.solver = "admm";
  report.solution = solver.solution(0);
  report.quality = grid::evaluate_solution(net, report.solution);
  report.converged = record.converged;
  report.iterations = record.inner_iterations;
  report.seconds = record.seconds;
  return report;
}

SolveReport solve_with_ipm(const grid::Network& net, const ipm::IpmOptions& options) {
  ipm::AcopfNlp nlp(net);
  ipm::IpmSolver solver(nlp, options);
  const auto result = solver.solve();
  SolveReport report;
  report.solver = "ipm";
  report.solution = nlp.unpack(solver.primal());
  report.quality = grid::evaluate_solution(net, report.solution);
  report.converged = result.status == ipm::IpmStatus::kOptimal;
  report.iterations = result.iterations;
  report.seconds = result.solve_seconds;
  return report;
}

grid::Network load_case(const std::string& name_or_path) { return grid::load_case(name_or_path); }

}  // namespace gridadmm::opf
