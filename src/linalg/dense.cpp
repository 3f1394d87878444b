#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gridadmm::linalg {

void DenseMatrix::matvec(std::span<const double> x, std::span<double> y) const {
  require(static_cast<int>(x.size()) == cols_ && static_cast<int>(y.size()) == rows_,
          "DenseMatrix::matvec: size mismatch");
  for (int r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = data_.data() + static_cast<std::size_t>(r) * cols_;
    for (int c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

bool cholesky_factorize(DenseMatrix& a, int n) {
  for (int j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (int k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    a(j, j) = ljj;
    for (int i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (int k = 0; k < j; ++k) v -= a(i, k) * a(j, k);
      a(i, j) = v / ljj;
    }
  }
  return true;
}

void cholesky_solve(const DenseMatrix& l, int n, std::span<double> x) {
  // Forward substitution L w = b.
  for (int i = 0; i < n; ++i) {
    double v = x[i];
    for (int k = 0; k < i; ++k) v -= l(i, k) * x[k];
    x[i] = v / l(i, i);
  }
  // Backward substitution L^T x = w.
  for (int i = n - 1; i >= 0; --i) {
    double v = x[i];
    for (int k = i + 1; k < n; ++k) v -= l(k, i) * x[k];
    x[i] = v / l(i, i);
  }
}

double shifted_cholesky(DenseMatrix& a, int n, double initial_shift) {
  // Keep a copy so failed attempts can be retried with a larger shift.
  DenseMatrix saved = a;
  double max_diag = 0.0;
  for (int i = 0; i < n; ++i) max_diag = std::max(max_diag, std::abs(saved(i, i)));
  double shift = initial_shift;
  for (int attempt = 0; attempt < 60; ++attempt) {
    a = saved;
    for (int i = 0; i < n; ++i) a(i, i) += shift;
    if (cholesky_factorize(a, n)) return shift;
    shift = shift == 0.0 ? std::max(1e-10, 1e-10 * max_diag) : shift * 4.0;
  }
  throw NumericalError("shifted_cholesky: could not make matrix positive definite");
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scal(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

double norm_inf(std::span<const double> x) {
  double acc = 0.0;
  for (const double v : x) acc = std::max(acc, std::abs(v));
  return acc;
}

}  // namespace gridadmm::linalg
