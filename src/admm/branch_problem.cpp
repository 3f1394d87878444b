#include "admm/branch_problem.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace gridadmm::admm {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

void BranchProblem::bind(const double* adm, const double* vbound, double rate2, const double* d,
                         const double* yk, const double* rhok) {
  adm_.gii = adm[0];
  adm_.bii = adm[1];
  adm_.gij = adm[2];
  adm_.bij = adm[3];
  adm_.gji = adm[4];
  adm_.bji = adm[5];
  adm_.gjj = adm[6];
  adm_.bjj = adm[7];
  // Element loops with fixed trip counts: std::copy of these few doubles
  // compiles to a libc memmove call per array.
  for (int k = 0; k < 4; ++k) vbound_[k] = vbound[k];
  rate2_ = rate2;
  for (int k = 0; k < 8; ++k) {
    d_[k] = d[k];
    yk_[k] = yk[k];
    rhok_[k] = rhok[k];
  }
  double rho_max = 1.0;
  for (int k = 0; k < 8; ++k) rho_max = std::max(rho_max, rhok_[k]);
  rho_max_ = rho_max;
  scale_ = 1.0 / rho_max_;
  prepared_ = false;
}

void BranchProblem::set_line_multipliers(double lam_ij, double lam_ji, double rho_t) {
  lam_ij_ = lam_ij;
  lam_ji_ = lam_ji;
  rho_t_ = rho_t;
  // rho_max_ was reduced once at bind time; only the rho_t comparison can
  // change between multiplier updates.
  scale_ = 1.0 / std::max(rho_max_, rho_t_);
}

void BranchProblem::bounds(std::span<double> lower, std::span<double> upper) const {
  lower[0] = vbound_[0];
  upper[0] = vbound_[1];
  lower[1] = vbound_[2];
  upper[1] = vbound_[3];
  lower[2] = -kTwoPi;
  upper[2] = kTwoPi;
  lower[3] = -kTwoPi;
  upper[3] = kTwoPi;
  if (rate2_ > 0.0) {
    lower[4] = -rate2_;
    upper[4] = 0.0;
    lower[5] = -rate2_;
    upper[5] = 0.0;
  }
}

double BranchProblem::eval_f(std::span<const double> x) {
  const grid::FlowValues f = grid::eval_flows(adm_, x[0], x[1], x[2], x[3]);
  double obj = 0.0;
  // Flow consensus terms: t = F + d with d = z - v.
  for (int k = 0; k < 4; ++k) {
    const double t = f[k] + d_[k];
    obj += yk_[k] * t + 0.5 * rhok_[k] * t * t;
  }
  // Voltage consensus terms: u-values are vi^2, thi, vj^2, thj.
  const double uw[4] = {x[0] * x[0], x[2], x[1] * x[1], x[3]};
  for (int k = 0; k < 4; ++k) {
    const double t = uw[k] + d_[4 + k];
    obj += yk_[4 + k] * t + 0.5 * rhok_[4 + k] * t * t;
  }
  if (rate2_ > 0.0) {
    const double cij = f[grid::kPij] * f[grid::kPij] + f[grid::kQij] * f[grid::kQij] + x[4];
    const double cji = f[grid::kPji] * f[grid::kPji] + f[grid::kQji] * f[grid::kQji] + x[5];
    obj += lam_ij_ * cij + 0.5 * rho_t_ * cij * cij;
    obj += lam_ji_ * cji + 0.5 * rho_t_ * cji * cji;
  }
  return scale_ * obj;
}

void BranchProblem::eval_gradient(std::span<const double> x, std::span<double> grad) {
  grid::FlowValues f;
  grid::FlowGradients jac;
  grid::eval_flow_gradients(adm_, x[0], x[1], x[2], x[3], f, jac);
  std::fill(grad.begin(), grad.end(), 0.0);
  for (int k = 0; k < 4; ++k) {
    const double w = yk_[k] + rhok_[k] * (f[k] + d_[k]);
    for (int a = 0; a < 4; ++a) grad[a] += w * jac.g[k][a];
  }
  // Voltage terms.
  const double wwi = yk_[4] + rhok_[4] * (x[0] * x[0] + d_[4]);
  grad[0] += wwi * 2.0 * x[0];
  grad[2] += yk_[5] + rhok_[5] * (x[2] + d_[5]);
  const double wwj = yk_[6] + rhok_[6] * (x[1] * x[1] + d_[6]);
  grad[1] += wwj * 2.0 * x[1];
  grad[3] += yk_[7] + rhok_[7] * (x[3] + d_[7]);
  if (rate2_ > 0.0) {
    const double cij = f[grid::kPij] * f[grid::kPij] + f[grid::kQij] * f[grid::kQij] + x[4];
    const double cji = f[grid::kPji] * f[grid::kPji] + f[grid::kQji] * f[grid::kQji] + x[5];
    const double tij = lam_ij_ + rho_t_ * cij;
    const double tji = lam_ji_ + rho_t_ * cji;
    for (int a = 0; a < 4; ++a) {
      grad[a] += tij * (2.0 * f[grid::kPij] * jac.g[grid::kPij][a] +
                        2.0 * f[grid::kQij] * jac.g[grid::kQij][a]);
      grad[a] += tji * (2.0 * f[grid::kPji] * jac.g[grid::kPji][a] +
                        2.0 * f[grid::kQji] * jac.g[grid::kQji][a]);
    }
    grad[4] = tij;
    grad[5] = tji;
  }
  for (double& g : grad) g *= scale_;
}

template <typename Mat>
void BranchProblem::eval_hessian_into(std::span<const double> x, Mat& hess) {
  check_hessian_target<Mat>();
  grid::FlowValues f;
  grid::FlowGradients jac;
  grid::eval_flow_gradients(adm_, x[0], x[1], x[2], x[3], f, jac);
  hess.set_zero();
  double h4[16] = {0};

  // Gauss-Newton parts rho_k J_k J_k^T and curvature weights for the exact
  // flow Hessians.
  std::array<double, 4> curve_w{};
  for (int k = 0; k < 4; ++k) {
    const double w = yk_[k] + rhok_[k] * (f[k] + d_[k]);
    curve_w[k] = w;
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) h4[a * 4 + b] += rhok_[k] * jac.g[k][a] * jac.g[k][b];
    }
  }

  double tij = 0.0, tji = 0.0;
  // Constraint gradients of the rated tail: g_ij = grad of p^2 + q^2 wrt
  // the four voltage variables. Computed once and reused by the slack
  // rows/columns below.
  double g_ij[4] = {0}, g_ji[4] = {0};
  if (rate2_ > 0.0) {
    const double cij = f[grid::kPij] * f[grid::kPij] + f[grid::kQij] * f[grid::kQij] + x[4];
    const double cji = f[grid::kPji] * f[grid::kPji] + f[grid::kQji] * f[grid::kQji] + x[5];
    tij = lam_ij_ + rho_t_ * cij;
    tji = lam_ji_ + rho_t_ * cji;
    // Exact curvature of p^2+q^2: 2 J J^T + 2 p H_p + 2 q H_q, plus the
    // Gauss-Newton term rho_t G G^T with G = grad of c.
    curve_w[grid::kPij] += 2.0 * tij * f[grid::kPij];
    curve_w[grid::kQij] += 2.0 * tij * f[grid::kQij];
    curve_w[grid::kPji] += 2.0 * tji * f[grid::kPji];
    curve_w[grid::kQji] += 2.0 * tji * f[grid::kQji];
    for (int a = 0; a < 4; ++a) {
      g_ij[a] = 2.0 * f[grid::kPij] * jac.g[grid::kPij][a] +
                2.0 * f[grid::kQij] * jac.g[grid::kQij][a];
      g_ji[a] = 2.0 * f[grid::kPji] * jac.g[grid::kPji][a] +
                2.0 * f[grid::kQji] * jac.g[grid::kQji][a];
    }
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        h4[a * 4 + b] += rho_t_ * (g_ij[a] * g_ij[b] + g_ji[a] * g_ji[b]);
        h4[a * 4 + b] += 2.0 * tij * (jac.g[grid::kPij][a] * jac.g[grid::kPij][b] +
                                      jac.g[grid::kQij][a] * jac.g[grid::kQij][b]);
        h4[a * 4 + b] += 2.0 * tji * (jac.g[grid::kPji][a] * jac.g[grid::kPji][b] +
                                      jac.g[grid::kQji][a] * jac.g[grid::kQji][b]);
      }
    }
  }
  grid::accumulate_flow_hessian(adm_, x[0], x[1], x[2], x[3], curve_w, h4);

  // Voltage-pair terms.
  const double wwi = yk_[4] + rhok_[4] * (x[0] * x[0] + d_[4]);
  h4[0] += 2.0 * wwi + rhok_[4] * 4.0 * x[0] * x[0];
  h4[2 * 4 + 2] += rhok_[5];
  const double wwj = yk_[6] + rhok_[6] * (x[1] * x[1] + d_[6]);
  h4[1 * 4 + 1] += 2.0 * wwj + rhok_[6] * 4.0 * x[1] * x[1];
  h4[3 * 4 + 3] += rhok_[7];

  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) hess(a, b) = scale_ * h4[a * 4 + b];
  }
  if constexpr (kHessianDim<Mat> != 4) {
    if (rate2_ > 0.0) {
      for (int a = 0; a < 4; ++a) {
        hess(a, 4) = scale_ * rho_t_ * g_ij[a];
        hess(4, a) = scale_ * rho_t_ * g_ij[a];
        hess(a, 5) = scale_ * rho_t_ * g_ji[a];
        hess(5, a) = scale_ * rho_t_ * g_ji[a];
      }
      hess(4, 4) = scale_ * rho_t_;
      hess(5, 5) = scale_ * rho_t_;
      hess(4, 5) = 0.0;
      hess(5, 4) = 0.0;
    }
  }
}

template void BranchProblem::eval_hessian_into(std::span<const double>, linalg::DenseMatrix&);
template void BranchProblem::eval_hessian_into(std::span<const double>, linalg::SmallMatrix<4>&);
template void BranchProblem::eval_hessian_into(std::span<const double>, linalg::SmallMatrix<6>&);

void BranchProblem::constraint_values(std::span<const double> x, double& cij, double& cji) const {
  const grid::FlowValues f = flows(x);
  cij = f[grid::kPij] * f[grid::kPij] + f[grid::kQij] * f[grid::kQij] + x[4];
  cji = f[grid::kPji] * f[grid::kPji] + f[grid::kQji] * f[grid::kQji] + x[5];
}

grid::FlowValues BranchProblem::flows(std::span<const double> x) const {
  if (prepared_at(x)) return pf_;
  return grid::eval_flows(adm_, x[0], x[1], x[2], x[3]);
}

}  // namespace gridadmm::admm
