// Tests of the warm-start tracking driver (paper Section IV-C).
#include <gtest/gtest.h>

#include <cmath>

#include "device/buffer.hpp"
#include "device/pool.hpp"
#include "grid/cases.hpp"
#include "opf/tracking.hpp"
#include "scenario/batch_solver.hpp"
#include "scenario/scenario_set.hpp"

namespace gridadmm::opf {
namespace {

/// The chain TrackingSimulator solves for `options` (its first profile).
scenario::ScenarioSet simulator_chain(const grid::Network& net, const TrackingOptions& options) {
  scenario::ScenarioSet set(net);
  grid::LoadProfileSpec spec;
  spec.periods = options.periods;
  spec.max_drift = options.max_drift;
  spec.seed = options.profile_seed;
  set.add_tracking_sequence(spec, options.ramp_fraction);
  return set;
}

TEST(Tracking, ProducesOneRecordPerPeriod) {
  const auto net = grid::load_embedded_case("case9");
  TrackingOptions options;
  options.periods = 5;
  options.run_ipm = false;
  TrackingSimulator sim(net, admm::params_for_case("case9", 9), options);
  const auto records = sim.run();
  ASSERT_EQ(records.size(), 5u);
  for (int t = 0; t < 5; ++t) {
    EXPECT_EQ(records[t].period, t + 1);
    EXPECT_TRUE(records[t].admm_converged) << "period " << t + 1;
    EXPECT_LT(records[t].admm_violation, 1e-2);
  }
  EXPECT_DOUBLE_EQ(records[0].load_scale, 1.0);
}

TEST(Tracking, WarmPeriodsAreCheaperThanColdStart) {
  const auto net = grid::load_embedded_case("case9");
  TrackingOptions options;
  options.periods = 6;
  options.run_ipm = false;
  TrackingSimulator sim(net, admm::params_for_case("case9", 9), options);
  const auto records = sim.run();
  // The paper's Figure 1 claim: warm-started periods take far fewer
  // iterations than the cold first period.
  for (std::size_t t = 1; t < records.size(); ++t) {
    EXPECT_LT(records[t].admm_iterations, records[0].admm_iterations)
        << "period " << t + 1;
  }
}

TEST(Tracking, RampLimitsRestrictDispatchChanges) {
  // The simulator's horizon is this chain on the batch engine; its
  // dispatch must respect |pg_t - pg_{t-1}| <= ramp_fraction * Pmax.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", 9);
  TrackingOptions options;
  options.periods = 4;
  options.run_ipm = false;
  options.ramp_fraction = 0.02;
  TrackingSimulator sim(net, params, options);
  const auto records = sim.run();

  const auto set = simulator_chain(net, options);
  scenario::BatchAdmmSolver solver(set, params);
  const auto report = solver.solve();
  const auto& solutions = solver.solutions();
  for (int t = 0; t < options.periods; ++t) {
    SCOPED_TRACE("period " + std::to_string(t + 1));
    EXPECT_DOUBLE_EQ(set[t].load_scale, sim.load_profile()[t]);
    EXPECT_EQ(report.records[t].inner_iterations, records[t].admm_iterations);
    if (t == 0) continue;
    for (int g = 0; g < net.num_generators(); ++g) {
      const double ramp = options.ramp_fraction * net.generators[g].pmax;
      EXPECT_LE(std::abs(solutions[t].pg[g] - solutions[t - 1].pg[g]), ramp + 1e-6)
          << "gen " << g;
    }
  }
}

TEST(Tracking, SimulatorMatchesSequentialReference) {
  // The simulator runs its ADMM horizon on the batch engine; the reference
  // (one AdmmSolver per period, each warm started from a copy of the
  // previous one) must agree period for period on the same chain.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", 9);
  TrackingOptions options;
  options.periods = 5;
  options.run_ipm = false;
  options.profile_seed = 11;
  TrackingSimulator sim(net, params, options);
  const auto records = sim.run();

  const auto set = simulator_chain(net, options);
  const auto reference = scenario::solve_sequential(set, params);
  ASSERT_EQ(records.size(), reference.records.size());
  for (std::size_t t = 0; t < records.size(); ++t) {
    SCOPED_TRACE("period " + std::to_string(t + 1));
    EXPECT_DOUBLE_EQ(records[t].load_scale, set[static_cast<int>(t)].load_scale);
    EXPECT_EQ(records[t].admm_iterations, reference.records[t].inner_iterations);
    EXPECT_EQ(records[t].admm_converged, reference.records[t].converged);
    EXPECT_DOUBLE_EQ(records[t].admm_objective, reference.records[t].objective);
    EXPECT_DOUBLE_EQ(records[t].admm_violation, reference.records[t].max_violation);
  }
}

TEST(Tracking, BaselineComparisonFillsGapColumn) {
  const auto net = grid::load_embedded_case("case9");
  TrackingOptions options;
  options.periods = 3;
  options.run_ipm = true;
  TrackingSimulator sim(net, admm::params_for_case("case9", 9), options);
  const auto records = sim.run();
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.ipm_converged);
    EXPECT_LT(rec.relative_gap, 0.02);
    EXPECT_GT(rec.ipm_objective, 0.0);
  }
}

TEST(Tracking, BatchedTrackingCapsMemoryInHorizonLength) {
  // The live batch-state footprint of batched tracking must stay constant
  // in the number of periods: two wave buffers, whatever the horizon.
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  auto peak_for = [&](int periods) {
    TrackingOptions options;
    options.periods = periods;
    options.run_ipm = false;
    const auto live_before = device::allocation_stats().live_bytes;
    device::reset_allocation_peak();
    const auto result = run_batched_tracking(net, params, options, 2);
    EXPECT_EQ(result.profiles.front().size(), static_cast<std::size_t>(periods));
    return device::allocation_stats().peak_bytes - live_before;
  };
  EXPECT_EQ(peak_for(10), peak_for(5));
}

TEST(Tracking, BatchedTrackingOverDevicePoolMatchesSingleDevice) {
  const auto net = grid::load_embedded_case("case9");
  const auto params = admm::params_for_case("case9", net.num_buses());
  TrackingOptions options;
  options.periods = 4;
  options.run_ipm = false;
  const auto single = run_batched_tracking(net, params, options, 3);
  device::DevicePool pool(2, 2);
  const auto sharded = run_batched_tracking(net, params, options, 3, pool);
  ASSERT_EQ(sharded.profiles.size(), single.profiles.size());
  for (std::size_t p = 0; p < sharded.profiles.size(); ++p) {
    for (std::size_t t = 0; t < sharded.profiles[p].size(); ++t) {
      SCOPED_TRACE("profile " + std::to_string(p) + " period " + std::to_string(t));
      EXPECT_EQ(sharded.profiles[p][t].admm_iterations, single.profiles[p][t].admm_iterations);
      EXPECT_LT(
          std::abs(sharded.profiles[p][t].admm_objective - single.profiles[p][t].admm_objective) /
              single.profiles[p][t].admm_objective,
          1e-6);
    }
  }
  EXPECT_EQ(sharded.report.num_shards, 2);
}

}  // namespace
}  // namespace gridadmm::opf
