#include "admm/bus_kernel.hpp"

#include <algorithm>

#include "admm/kernels_core.hpp"
#include "admm/zy_kernel.hpp"

namespace gridadmm::admm {

void update_buses(device::Device& dev, const ComponentModel& model, AdmmState& state,
                  std::span<double> partial_dual) {
  const ModelView m = make_model_view(model);
  const ScenarioView s = make_scenario_view(model, state);
  std::fill(partial_dual.begin(), partial_dual.end(), 0.0);
  dev.launch_with_lane(model.num_buses, [&m, &s, partial_dual](int i, int lane) {
    double* dual_slot = partial_dual.empty()
                            ? nullptr
                            : &partial_dual[static_cast<std::size_t>(lane) * kReduceStride];
    bus_update_one(m, s, i, dual_slot);
  });
}

}  // namespace gridadmm::admm
