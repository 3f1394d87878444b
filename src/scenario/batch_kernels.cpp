#include "scenario/batch_kernels.hpp"

#include <algorithm>
#include <vector>

namespace gridadmm::scenario {

using admm::ModelView;
using admm::ScenarioView;

void batch_update_generators(device::Device& dev, const ModelView& m,
                             std::span<const ScenarioView> views, std::span<const int> slots) {
  const int ng = m.num_gens;
  dev.launch(static_cast<int>(slots.size()) * ng, [&m, views, slots, ng](int b) {
    const int s = slots[static_cast<std::size_t>(b / ng)];
    admm::generator_update_one(m, views[static_cast<std::size_t>(s)], b % ng);
  });
}

void batch_update_branches(device::Device& dev, const ModelView& m,
                           const admm::AdmmParams& params, std::span<const ScenarioView> views,
                           std::span<const int> slots, std::vector<admm::BranchWorkspace>& lanes,
                           admm::BranchUpdateStats* stats, std::span<std::uint64_t> slot_tron,
                           int row_stride) {
  const int nl = m.num_branches;
  admm::ensure_branch_lanes(lanes, dev.workers(), params);
  std::fill(slot_tron.begin(), slot_tron.end(), 0);

  // One block per (scenario, branch) subproblem. Each solve is independent,
  // so which worker lane runs it cannot change any iterate.
  dev.launch_with_lane(static_cast<int>(slots.size()) * nl, [&lanes, &params, &m, views, slots,
                                                              nl, slot_tron,
                                                              row_stride](int b, int lane_id) {
    const int j = b / nl;
    const int s = slots[static_cast<std::size_t>(j)];
    const std::uint64_t before = lanes[lane_id].stats.tron_iterations;
    admm::branch_update_one(m, params, views[static_cast<std::size_t>(s)], b % nl,
                            lanes[lane_id]);
    if (!slot_tron.empty()) {
      slot_tron[static_cast<std::size_t>(lane_id) * row_stride + static_cast<std::size_t>(j)] +=
          lanes[lane_id].stats.tron_iterations - before;
    }
  });

  for (auto& lane : lanes) {
    if (stats != nullptr) *stats += lane.stats;
    lane.stats = admm::BranchUpdateStats{};
  }
}

void batch_update_buses(device::Device& dev, const ModelView& m,
                        std::span<const ScenarioView> views, std::span<const int> slots,
                        std::span<double> partial_dual, int row_stride) {
  const int nb = m.num_buses;
  std::fill(partial_dual.begin(), partial_dual.end(), 0.0);
  dev.launch_with_lane(static_cast<int>(slots.size()) * nb, [&m, views, slots, nb, partial_dual,
                                                              row_stride](int b, int lane) {
    const int j = b / nb;
    const int s = slots[static_cast<std::size_t>(j)];
    double* slot = &partial_dual[static_cast<std::size_t>(lane) * row_stride + j];
    admm::bus_update_one(m, views[static_cast<std::size_t>(s)], b % nb, slot);
  });
}

void batch_update_zy(device::Device& dev, const ModelView& m, bool two_level,
                     std::span<const ScenarioView> views, std::span<const int> slots,
                     std::span<double> partial_primal, std::span<double> partial_z,
                     int row_stride) {
  const int np = m.num_pairs;
  std::fill(partial_primal.begin(), partial_primal.end(), 0.0);
  std::fill(partial_z.begin(), partial_z.end(), 0.0);
  dev.launch_with_lane(static_cast<int>(slots.size()) * np,
                       [&m, views, slots, np, two_level, partial_primal, partial_z,
                        row_stride](int b, int lane) {
    const int j = b / np;
    const int s = slots[static_cast<std::size_t>(j)];
    const std::size_t base = static_cast<std::size_t>(lane) * row_stride + j;
    admm::zy_update_one(m, views[static_cast<std::size_t>(s)], b % np, two_level,
                        &partial_primal[base], &partial_z[base]);
  });
}

void batch_update_outer_multiplier(device::Device& dev, const ModelView& m,
                                   std::span<const ScenarioView> views,
                                   std::span<const int> slots, double lambda_bound) {
  const int np = m.num_pairs;
  dev.launch(static_cast<int>(slots.size()) * np, [&m, views, slots, np, lambda_bound](int b) {
    const int s = slots[static_cast<std::size_t>(b / np)];
    admm::outer_multiplier_update_one(m, views[static_cast<std::size_t>(s)], b % np,
                                      lambda_bound);
  });
}

void batch_scale_rho(device::Device& dev, const admm::ComponentModel& model,
                     admm::BatchAdmmState& state, std::span<const int> slots,
                     std::span<const double> factors) {
  // Capture scalars only: naming `model` inside a [=] lambda would copy
  // the whole ComponentModel (every DeviceBuffer in it) into the closure.
  const int num_pairs = model.num_pairs;
  auto rho = state.rho.span();
  dev.launch(static_cast<int>(slots.size()) * num_pairs, [=](int b) {
    const int j = b / num_pairs;
    const int s = slots[static_cast<std::size_t>(j)];
    rho[static_cast<std::size_t>(s) * num_pairs + static_cast<std::size_t>(b % num_pairs)] *=
        factors[static_cast<std::size_t>(j)];
  });
}

void batch_chain_state(device::Device& dev, const admm::ComponentModel& model,
                       const admm::BatchAdmmState& src_state, admm::BatchAdmmState& dst_state,
                       std::span<const ChainLink> links) {
  const int np = model.num_pairs;
  const auto nb = static_cast<std::size_t>(model.num_buses);
  const auto ng = static_cast<std::size_t>(model.num_gens);
  const auto nl = static_cast<std::size_t>(model.num_branches);
  const auto npz = static_cast<std::size_t>(np);
  // num_pairs = 2*ngens + 8*nbranches dominates every other per-scenario
  // extent on a connected network, so one launch over |links| * num_pairs
  // blocks covers all arrays (each block guards the shorter extents).
  // src_state and dst_state may be the same object (in-place chain) or the
  // two halves of a ping-pong pair; slots are local to their own state.
  const auto su = src_state.u.span();
  const auto sv = src_state.v.span();
  const auto sz = src_state.z.span();
  const auto sy = src_state.y.span();
  const auto slz = src_state.lz.span();
  const auto srho = src_state.rho.span();
  const auto sw = src_state.bus_w.span();
  const auto stheta = src_state.bus_theta.span();
  const auto spg = src_state.gen_pg.span();
  const auto sqg = src_state.gen_qg.span();
  const auto sbx = src_state.branch_x.span();
  const auto sbs = src_state.branch_s.span();
  const auto sblam = src_state.branch_lambda.span();
  auto du = dst_state.u.span();
  auto dv = dst_state.v.span();
  auto dz = dst_state.z.span();
  auto dy = dst_state.y.span();
  auto dlz = dst_state.lz.span();
  auto drho = dst_state.rho.span();
  auto dw = dst_state.bus_w.span();
  auto dtheta = dst_state.bus_theta.span();
  auto dpg = dst_state.gen_pg.span();
  auto dqg = dst_state.gen_qg.span();
  auto dbx = dst_state.branch_x.span();
  auto dbs = dst_state.branch_s.span();
  auto dblam = dst_state.branch_lambda.span();
  dev.launch(static_cast<int>(links.size()) * np, [=](int b) {
    const auto& link = links[static_cast<std::size_t>(b / np)];
    const auto k = static_cast<std::size_t>(b % np);
    const auto dst = static_cast<std::size_t>(link.dst);
    const auto src = static_cast<std::size_t>(link.src);
    auto copy = [&](std::span<const double> from, std::span<double> to, std::size_t extent) {
      if (k < extent) to[dst * extent + k] = from[src * extent + k];
    };
    copy(su, du, npz);
    copy(sv, dv, npz);
    copy(sz, dz, npz);
    copy(sy, dy, npz);
    copy(slz, dlz, npz);
    copy(srho, drho, npz);
    copy(sw, dw, nb);
    copy(stheta, dtheta, nb);
    copy(spg, dpg, ng);
    copy(sqg, dqg, ng);
    copy(sbx, dbx, 4 * nl);
    copy(sbs, dbs, 2 * nl);
    copy(sblam, dblam, 2 * nl);
  });
}

void batch_apply_ramp(device::Device& dev, const admm::ComponentModel& model,
                      const admm::BatchAdmmState& src_state, admm::BatchAdmmState& dst_state,
                      std::span<const RampLink> links) {
  const int ng = model.num_gens;
  const auto ngz = static_cast<std::size_t>(ng);
  const auto base_pmin = model.gen_pmin.span();
  const auto base_pmax = model.gen_pmax.span();
  const auto pg = src_state.gen_pg.span();
  auto pmin = dst_state.pmin.span();
  auto pmax = dst_state.pmax.span();
  dev.launch(static_cast<int>(links.size()) * ng, [=](int b) {
    const auto& link = links[static_cast<std::size_t>(b / ng)];
    const auto g = static_cast<std::size_t>(b % ng);
    const auto dst = static_cast<std::size_t>(link.dst) * ngz + g;
    const auto src = static_cast<std::size_t>(link.src) * ngz + g;
    const double ramp = link.ramp_fraction * base_pmax[g];
    pmin[dst] = std::max(base_pmin[g], pg[src] - ramp);
    pmax[dst] = std::min(base_pmax[g], pg[src] + ramp);
  });
}

}  // namespace gridadmm::scenario
