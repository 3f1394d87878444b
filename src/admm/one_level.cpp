#include "admm/one_level.hpp"

#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"

namespace gridadmm::admm {

AdmmParams make_one_level(AdmmParams params) {
  params.two_level = false;
  params.max_inner_iterations *= params.max_outer_iterations;
  params.max_outer_iterations = 1;
  return params;
}

std::vector<VariantRun> compare_variants(const grid::Network& net, const AdmmParams& base,
                                         device::Device* dev) {
  std::vector<VariantRun> runs;
  const AdmmParams one_level = make_one_level(base);
  const struct {
    const char* name;
    const AdmmParams& params;
  } variants[] = {{"two-level", base}, {"one-level", one_level}};
  scenario::ScenarioSet set(net);
  set.add_base();
  scenario::BatchSolveOptions options;
  options.record_history = true;
  for (const auto& variant : variants) {
    scenario::BatchAdmmSolver solver(set, variant.params, dev);
    auto report = solver.solve(options);
    VariantRun run;
    run.variant = variant.name;
    run.stats = std::move(report.stats.front());
    run.objective = report.records.front().objective;
    run.max_violation = report.records.front().max_violation;
    runs.push_back(std::move(run));
  }
  return runs;
}

}  // namespace gridadmm::admm
