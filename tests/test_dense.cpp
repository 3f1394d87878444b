#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "linalg/dense.hpp"
#include "linalg/small.hpp"

namespace gridadmm::linalg {
namespace {

DenseMatrix random_spd(int n, Rng& rng) {
  DenseMatrix a(n, n);
  DenseMatrix b(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  // A = B B^T + n I is SPD.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = i == j ? static_cast<double>(n) : 0.0;
      for (int k = 0; k < n; ++k) acc += b(i, k) * b(j, k);
      a(i, j) = acc;
    }
  }
  return a;
}

TEST(DenseCholesky, SolvesRandomSpdSystems) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_index(7));
    DenseMatrix a = random_spd(n, rng);
    const DenseMatrix a_copy = a;
    std::vector<double> x_true(n), b(n);
    for (int i = 0; i < n; ++i) x_true[i] = rng.uniform(-2.0, 2.0);
    a.matvec(x_true, b);
    ASSERT_TRUE(cholesky_factorize(a, n));
    cholesky_solve(a, n, b);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-9);
    (void)a_copy;
  }
}

TEST(DenseCholesky, FailsOnIndefinite) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  EXPECT_FALSE(cholesky_factorize(a, 2));
}

TEST(ShiftedCholesky, ZeroShiftForSpd) {
  Rng rng(9);
  DenseMatrix a = random_spd(4, rng);
  EXPECT_DOUBLE_EQ(shifted_cholesky(a, 4), 0.0);
}

TEST(ShiftedCholesky, FindsShiftForIndefinite) {
  DenseMatrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = -2.0;
  a(2, 2) = 0.5;
  const double shift = shifted_cholesky(a, 3);
  EXPECT_GT(shift, 2.0 - 1e-9);  // must exceed |most negative eigenvalue|
}

TEST(ShiftedCholesky, SmallMatrixFactorIsBitIdenticalToDenseAndReadsOnlyTheLowerBlock) {
  // The SmallMatrix overload factors straight from its input instead of a
  // shifted copy; it must return the DenseMatrix overload's shift and
  // factor bit for bit. Every entry of both SmallMatrix operands outside
  // the leading n x n lower triangle is NaN, so a read of one would poison
  // the factor.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  Rng rng(21);
  int shifted = 0;
  for (int n = 1; n <= 6; ++n) {
    for (int kind = 0; kind < 4; ++kind) {
      // 0: SPD (no shift); 1: indefinite (many shift increases);
      // 2: zero matrix (exactly one increase); 3: SPD with an initial shift.
      DenseMatrix dense = random_spd(n, rng);
      double initial_shift = 0.0;
      if (kind == 1) {
        for (int i = 0; i < n; ++i) dense(i, i) -= 2.0 * n + rng.uniform(0.5, 1.5);
      } else if (kind == 2) {
        dense.set_zero();
      } else if (kind == 3) {
        initial_shift = rng.uniform(0.1, 1.0);
      }
      SmallMatrix<6> a, l;
      std::fill(std::begin(a.data), std::end(a.data), kNaN);
      std::fill(std::begin(l.data), std::end(l.data), kNaN);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j <= i; ++j) a(i, j) = dense(i, j);
      }

      const double small_shift = shifted_cholesky(a, n, l, initial_shift);
      const double dense_shift = shifted_cholesky(dense, n, initial_shift);
      EXPECT_EQ(bits(small_shift), bits(dense_shift)) << "n=" << n << " kind=" << kind;
      if (kind == 0) EXPECT_EQ(small_shift, 0.0);
      if (kind == 1 || kind == 2) EXPECT_GT(small_shift, 0.0);
      if (kind == 2) EXPECT_EQ(small_shift, 1e-10);
      shifted += small_shift > initial_shift ? 1 : 0;
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j <= i; ++j) {
          EXPECT_FALSE(std::isnan(l(i, j))) << "n=" << n << " kind=" << kind;
          EXPECT_EQ(bits(l(i, j)), bits(dense(i, j)))
              << "n=" << n << " kind=" << kind << " entry (" << i << "," << j << ")";
        }
      }
    }
  }
  EXPECT_EQ(shifted, 12);  // kinds 1 and 2 at every n
}

TEST(DenseMatrix, MatvecMatchesManual) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  std::vector<double> x{1, 1, 1}, y(2);
  a.matvec(x, y);
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
}

TEST(Blas1, DotAxpyNorms) {
  std::vector<double> x{1, 2, 3}, y{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(norm_inf(y), 12.0);
  EXPECT_NEAR(norm2(x), std::sqrt(14.0), 1e-14);
  scal(0.5, x);
  EXPECT_DOUBLE_EQ(x[2], 1.5);
}

}  // namespace
}  // namespace gridadmm::linalg
