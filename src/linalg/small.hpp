// Fixed-dimension dense linear algebra for the branch-subproblem fast path.
//
// The branch TRON solves are 4-6 variables; at that size the generic
// DenseMatrix machinery (heap storage, runtime strides) costs more than the
// arithmetic. SmallMatrix<N> is the stack-array analogue, and the
// factorization/solve helpers below compute exactly what the DenseMatrix
// versions in dense.cpp compute — same loop order, same expressions — so a
// solver built on them produces bit-identical iterates to one built on
// DenseMatrix (the property tests/test_tron.cpp and tests/test_dense.cpp
// assert). The shifted Cholesky differs only in where it reads its input:
// straight from the matrix it factors, never from a copy. Only the leading
// n x n block (n <= N) participates, mirroring how the TRON subspace CG
// factors the free-set block of a fixed-capacity matrix.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"

namespace gridadmm::linalg {

/// Row-major N x N matrix with stack storage and value semantics.
template <int N>
struct SmallMatrix {
  double data[static_cast<std::size_t>(N) * N] = {};

  double& operator()(int r, int c) { return data[static_cast<std::size_t>(r) * N + c]; }
  double operator()(int r, int c) const { return data[static_cast<std::size_t>(r) * N + c]; }

  void set_zero() { std::fill(std::begin(data), std::end(data), 0.0); }
};

/// Solves L L^T x = b given the factor from shifted_cholesky.
template <int N>
void cholesky_solve(const SmallMatrix<N>& l, int n, std::span<double> x) {
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

/// Cholesky L L^T = A + shift*I of the leading n x n block, reading only
/// the lower triangle of `a` and writing only that of `l`. The loops and
/// expressions are those of the DenseMatrix cholesky_factorize run on a
/// shifted copy: where that reads a copied entry for the first time, this
/// reads a(i,j) or a(j,j) + shift, the same value. Returns false if
/// A + shift*I is not (numerically) positive definite.
template <int N>
bool cholesky_factorize_shifted(const SmallMatrix<N>& a, double shift, int n, SmallMatrix<N>& l) {
  for (int j = 0; j < n; ++j) {
    double diag = a(j, j) + shift;
    for (int k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (int i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (int k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / ljj;
    }
  }
  return true;
}

/// Cholesky with automatic diagonal shift (see the DenseMatrix overload):
/// factors A + shift*I into `l`, growing `shift` geometrically until the
/// factorization succeeds. Returns the shift used. `a` is only read, and
/// each attempt factors straight from it, so the factor is bit-identical
/// to the DenseMatrix overload's without its save, restore and copy.
template <int N>
double shifted_cholesky(const SmallMatrix<N>& a, int n, SmallMatrix<N>& l,
                        double initial_shift = 0.0) {
  double max_diag = 0.0;
  for (int i = 0; i < n; ++i) max_diag = std::max(max_diag, std::abs(a(i, i)));
  double shift = initial_shift;
  for (int attempt = 0; attempt < 60; ++attempt) {
    if (cholesky_factorize_shifted(a, shift, n, l)) return shift;
    shift = shift == 0.0 ? std::max(1e-10, 1e-10 * max_diag) : shift * 4.0;
  }
  throw NumericalError("shifted_cholesky: could not make matrix positive definite");
}

}  // namespace gridadmm::linalg
