#include "admm/generator_kernel.hpp"

#include "admm/kernels_core.hpp"

namespace gridadmm::admm {

void update_generators(device::Device& dev, const ComponentModel& model, AdmmState& state) {
  const ModelView m = make_model_view(model);
  const ScenarioView s = make_scenario_view(model, state);
  dev.launch(model.num_gens, [&m, &s](int g) { generator_update_one(m, s, g); });
}

}  // namespace gridadmm::admm
