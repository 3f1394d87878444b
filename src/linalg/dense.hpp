// Small dense linear algebra used by the TRON subproblem solver and the
// closed-form ADMM kernels. Matrices here are tiny (branch subproblems have
// 4-6 variables), so everything is simple row-major storage with O(n^3)
// factorizations and no blocking.
#pragma once

#include <cmath>
#include <span>
#include <vector>

namespace gridadmm::linalg {

/// Row-major dense matrix with value semantics.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int rows, int cols) : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows) * cols, 0.0) {}

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }

  double& operator()(int r, int c) { return data_[static_cast<std::size_t>(r) * cols_ + c]; }
  double operator()(int r, int c) const { return data_[static_cast<std::size_t>(r) * cols_ + c]; }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  void set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }
  void resize(int rows, int cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows) * cols, 0.0);
  }

  /// y = A x  (sizes must agree).
  void matvec(std::span<const double> x, std::span<double> y) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// In-place Cholesky A = L L^T of the leading n x n block; only the lower
/// triangle of `a` is referenced/written. Returns false if A is not
/// (numerically) positive definite.
bool cholesky_factorize(DenseMatrix& a, int n);

/// Solves L L^T x = b given the factor from cholesky_factorize.
void cholesky_solve(const DenseMatrix& l, int n, std::span<double> x);

/// Cholesky with automatic diagonal shift: factors A + shift*I, growing
/// `shift` geometrically until the factorization succeeds. Returns the shift
/// used. Mirrors the behaviour of the Lin-More ICF preconditioner for the
/// tiny dense systems that arise in branch subproblems.
double shifted_cholesky(DenseMatrix& a, int n, double initial_shift = 0.0);

// BLAS-1 helpers over spans. dot and norm2 are inline: the fixed-dimension
// TRON calls them on 4-6 element spans, where an out-of-line call costs more
// than the loop and hides the compile-time length from the optimizer.
inline double dot(std::span<const double> x, std::span<const double> y) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}
inline double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }
void axpy(double alpha, std::span<const double> x, std::span<double> y);  // y += alpha x
void scal(double alpha, std::span<double> x);
double norm_inf(std::span<const double> x);

}  // namespace gridadmm::linalg
