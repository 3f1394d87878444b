#include "admm/zy_kernel.hpp"

#include <algorithm>
#include <cmath>

#include "admm/kernels_core.hpp"

namespace gridadmm::admm {

void update_z(device::Device& dev, const ComponentModel& model, AdmmState& state) {
  const auto rho = model.rho.span();
  const auto u = state.u.span();
  const auto v = state.v.span();
  const auto y = state.y.span();
  const auto lz = state.lz.span();
  auto z = state.z.span();
  const double beta = state.beta;
  dev.launch(model.num_pairs, [=](int k) {
    const double r = u[k] - v[k];
    z[k] = -(lz[k] + y[k] + rho[k] * r) / (beta + rho[k]);
  });
}

void update_y(device::Device& dev, const ComponentModel& model, AdmmState& state) {
  const auto rho = model.rho.span();
  const auto u = state.u.span();
  const auto v = state.v.span();
  const auto z = state.z.span();
  auto y = state.y.span();
  dev.launch(model.num_pairs, [=](int k) { y[k] += rho[k] * (u[k] - v[k] + z[k]); });
}

void update_zy_fused(device::Device& dev, const ComponentModel& model, AdmmState& state,
                     bool two_level, std::span<double> partial_primal,
                     std::span<double> partial_z) {
  const ModelView m = make_model_view(model);
  const ScenarioView s = make_scenario_view(model, state);
  std::fill(partial_primal.begin(), partial_primal.end(), 0.0);
  std::fill(partial_z.begin(), partial_z.end(), 0.0);
  dev.launch_with_lane(model.num_pairs, [&m, &s, two_level, partial_primal,
                                         partial_z](int k, int lane) {
    double* slot_p = &partial_primal[static_cast<std::size_t>(lane) * kReduceStride];
    double* slot_z = &partial_z[static_cast<std::size_t>(lane) * kReduceStride];
    zy_update_one(m, s, k, two_level, slot_p, slot_z);
  });
}

void update_outer_multiplier(device::Device& dev, const ComponentModel& model, AdmmState& state,
                             double lambda_bound) {
  const ModelView m = make_model_view(model);
  const ScenarioView s = make_scenario_view(model, state);
  dev.launch(model.num_pairs,
             [&m, &s, lambda_bound](int k) { outer_multiplier_update_one(m, s, k, lambda_bound); });
}

}  // namespace gridadmm::admm
