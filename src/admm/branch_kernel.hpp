// Branch component update: the bound-constrained nonconvex subproblem of
// paper eq. (4).
//
// Variables are chi = (vi, vj, thi, thj) plus two line-limit slacks
// (sij, sji) when the branch is rated. Flow variables pij/qij/pji/qji are
// substituted by their closed forms (1i)-(1l), the consensus terms are
// quadratic penalties, and the line limits p^2+q^2+s = 0 (s in [-rate^2, 0])
// are handled by a LANCELOT-style augmented Lagrangian whose multipliers
// persist across ADMM iterations (warm start). Each subproblem is solved by
// the fixed-dimension TRON (tron/small_tron.hpp). The batch runs one device
// block per branch, exactly the ExaTron execution model of paper Section III-B; see
// admm/branch_problem.hpp for the problem and per-lane workspace types.
#pragma once

#include "admm/branch_problem.hpp"
#include "admm/kernels_core.hpp"
#include "admm/params.hpp"
#include "admm/state.hpp"
#include "device/device.hpp"

namespace gridadmm::admm {

void update_branches(device::Device& dev, const ComponentModel& model, const AdmmParams& params,
                     AdmmState& state, BranchUpdateStats* stats = nullptr);

/// Solves the branch-l subproblem against the scenario's iterate: the full
/// TRON (+ LANCELOT augmented-Lagrangian when rated) solve of one device
/// block. Exposed so the fused multi-scenario batch kernel can reuse it.
/// Out-of-service branches (scenario outage mask) are skipped.
void branch_update_one(const ModelView& m, const AdmmParams& params, const ScenarioView& s, int l,
                       BranchWorkspace& ws);

/// Sizes `lanes` to one workspace per device worker and rebinds the TRON
/// options, which may have changed between solves. When the size already
/// matches — every call after the first, since a state's lanes always
/// serve the same device — the workspaces are reused untouched; a worker-
/// count change reconstructs the vector.
void ensure_branch_lanes(std::vector<BranchWorkspace>& lanes, int workers,
                         const AdmmParams& params);

}  // namespace gridadmm::admm
