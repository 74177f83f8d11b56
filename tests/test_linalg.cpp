// Tests for fecim::linalg -- dense/CSR matrices, vector kernels, solvers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/linear_solver.hpp"
#include "linalg/vec_ops.hpp"
#include "util/rng.hpp"

namespace {

using fecim::linalg::CsrMatrix;
using fecim::linalg::DenseMatrix;

CsrMatrix random_spd(std::size_t n, fecim::util::Rng& rng) {
  // Diagonally dominant symmetric matrix => SPD.
  CsrMatrix::Builder builder(n, n);
  std::vector<double> diag(n, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.bernoulli(0.3)) {
        const double v = rng.uniform(-1.0, 1.0);
        builder.add_symmetric(i, j, v);
        diag[i] += std::fabs(v);
        diag[j] += std::fabs(v);
      }
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, diag[i]);
  return builder.build();
}

TEST(DenseMatrix, IdentityMultiply) {
  const auto eye = DenseMatrix<double>::identity(4);
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y(4);
  eye.multiply(x, y);
  EXPECT_EQ(x, y);
}

TEST(DenseMatrix, VmvMatchesManual) {
  DenseMatrix<double> m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  const std::vector<double> x{1, -1};
  const std::vector<double> y{2, 1};
  // x^T M y = 1*(1*2+2*1) - 1*(3*2+4*1) = 4 - 10 = -6
  EXPECT_DOUBLE_EQ(m.vmv(x, y), -6.0);
}

TEST(DenseMatrix, SymmetryCheck) {
  DenseMatrix<double> m(2, 2);
  m(0, 1) = 1.0;
  EXPECT_FALSE(m.is_symmetric());
  m(1, 0) = 1.0;
  EXPECT_TRUE(m.is_symmetric());
}

TEST(CsrBuilder, MergesDuplicatesAndDropsZeros) {
  CsrMatrix::Builder builder(3, 3);
  builder.add(0, 1, 2.0);
  builder.add(0, 1, 3.0);
  builder.add(1, 2, 5.0);
  builder.add(1, 2, -5.0);  // cancels to zero -> dropped
  const auto m = builder.build();
  EXPECT_EQ(m.nonzeros(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
}

TEST(CsrBuilder, MatchesDenseAccumulationOnRandomTriplets) {
  // Differential against a dense accumulator that sums each coordinate in
  // insertion order from 0.0: values must agree bit for bit, exact zeros
  // (cancellations) must be dropped, rows must come out column-sorted.
  fecim::util::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 24));
    const auto cols = static_cast<std::size_t>(rng.uniform_int(1, 24));
    DenseMatrix<double> dense(rows, cols);
    CsrMatrix::Builder builder(rows, cols);
    const auto add = [&](std::size_t r, std::size_t c, double v) {
      builder.add(r, c, v);
      dense(r, c) += v;
    };
    // Half the rows stay empty; small integers make duplicates and exact
    // cancellations common, uniform doubles make rounding order-sensitive.
    std::vector<std::size_t> live_rows;
    for (std::size_t r = 0; r < rows; ++r)
      if (rng.bernoulli(0.5)) live_rows.push_back(r);
    const auto triplets = live_rows.empty() ? 0 : rng.uniform_int(0, 120);
    for (std::int64_t k = 0; k < triplets; ++k) {
      const auto r = live_rows[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_rows.size()) - 1))];
      const auto c = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cols) - 1));
      const double v = rng.bernoulli(0.5)
                           ? static_cast<double>(rng.uniform_int(-3, 3))
                           : rng.uniform(-1.0, 1.0);
      add(r, c, v);
      if (rng.bernoulli(0.2)) add(r, c, -v);  // cancel what was just added
    }
    const auto m = builder.build();
    ASSERT_EQ(m.rows(), rows);
    ASSERT_EQ(m.cols(), cols);
    std::size_t expected_nonzeros = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const auto row_cols = m.row_cols(r);
      const auto row_vals = m.row_values(r);
      for (std::size_t k = 1; k < row_cols.size(); ++k)
        EXPECT_LT(row_cols[k - 1], row_cols[k]) << "row " << r;
      std::size_t k = 0;
      for (std::size_t c = 0; c < cols; ++c) {
        if (dense(r, c) == 0.0) continue;
        ++expected_nonzeros;
        ASSERT_LT(k, row_cols.size()) << "row " << r << " col " << c;
        EXPECT_EQ(row_cols[k], c);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(row_vals[k]),
                  std::bit_cast<std::uint64_t>(dense(r, c)))
            << "(" << r << ", " << c << ")";
        ++k;
      }
      EXPECT_EQ(k, row_cols.size()) << "row " << r;
    }
    EXPECT_EQ(m.nonzeros(), expected_nonzeros);
  }
}

TEST(CsrBuilder, DuplicatesSumInInsertionOrder) {
  // (1e16 + 1) rounds back to 1e16, so only the insertion order
  // 1e16, 1, -1e16 cancels to an absent entry.  Other coordinates are
  // interleaved so the counting passes have to reorder around them.
  CsrMatrix::Builder cancels(3, 3);
  cancels.add(2, 0, 4.0);
  cancels.add(1, 1, 1e16);
  cancels.add(0, 2, 5.0);
  cancels.add(1, 1, 1.0);
  cancels.add(1, 0, 6.0);
  cancels.add(1, 1, -1e16);
  const auto m = cancels.build();
  EXPECT_EQ(m.nonzeros(), 3u);
  EXPECT_EQ(m.row_cols(1).size(), 1u);
  EXPECT_EQ(m.at(1, 1), 0.0);

  CsrMatrix::Builder keeps(3, 3);
  keeps.add(1, 1, 1e16);
  keeps.add(2, 0, 4.0);
  keeps.add(1, 1, -1e16);
  keeps.add(1, 1, 1.0);
  EXPECT_EQ(keeps.build().at(1, 1), 1.0);
}

TEST(CsrMatrix, AtReturnsZeroForMissing) {
  CsrMatrix::Builder builder(2, 2);
  builder.add(0, 0, 1.0);
  const auto m = builder.build();
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(CsrMatrix, MultiplyMatchesDense) {
  fecim::util::Rng rng(5);
  const auto sparse = random_spd(20, rng);
  const auto dense = sparse.to_dense();
  std::vector<double> x(20);
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> ys(20), yd(20);
  sparse.multiply(x, ys);
  dense.multiply(x, yd);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(CsrMatrix, VmvMatchesDense) {
  fecim::util::Rng rng(6);
  const auto sparse = random_spd(15, rng);
  const auto dense = sparse.to_dense();
  std::vector<double> x(15), y(15);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : y) v = rng.uniform(-1, 1);
  EXPECT_NEAR(sparse.vmv(x, y), dense.vmv(x, y), 1e-12);
}

TEST(CsrMatrix, SymmetryDetection) {
  CsrMatrix::Builder sym(3, 3);
  sym.add_symmetric(0, 2, 1.5);
  EXPECT_TRUE(sym.build().is_symmetric());

  CsrMatrix::Builder asym(3, 3);
  asym.add(0, 2, 1.5);
  EXPECT_FALSE(asym.build().is_symmetric());
}

/// The historical definition: one at() lookup per stored entry.
bool at_based_is_symmetric(const CsrMatrix& m, double tol) {
  if (m.rows() != m.cols()) return false;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto cols = m.row_cols(r);
    const auto vals = m.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k)
      if (std::fabs(m.at(cols[k], r) - vals[k]) > tol) return false;
  }
  return true;
}

TEST(CsrMatrix, SymmetryEdgeCasesMatchAtBasedDefinition) {
  const double tol = 0.25;  // dyadic, so "just inside/outside" is exact
  const auto pair = [](double upper, double lower) {
    CsrMatrix::Builder b(3, 3);
    b.add(0, 2, upper);
    if (lower != 0.0) b.add(2, 0, lower);
    return b.build();
  };
  const auto inside = pair(1.0, 1.25);
  const auto outside = pair(1.0, std::nextafter(1.25, 2.0));
  const auto small_missing = pair(0.25, 0.0);
  const auto large_missing = pair(std::nextafter(0.25, 1.0), 0.0);
  EXPECT_TRUE(inside.is_symmetric(tol));
  EXPECT_FALSE(outside.is_symmetric(tol));
  EXPECT_FALSE(inside.is_symmetric(0.0));
  EXPECT_TRUE(small_missing.is_symmetric(tol));   // missing mirror reads 0
  EXPECT_FALSE(large_missing.is_symmetric(tol));
  for (const auto* m : {&inside, &outside, &small_missing, &large_missing})
    for (const double t : {0.0, tol})
      EXPECT_EQ(m->is_symmetric(t), at_based_is_symmetric(*m, t));

  CsrMatrix::Builder wide(2, 3);
  wide.add(0, 1, 1.0);
  wide.add(1, 0, 1.0);
  const auto non_square = wide.build();
  EXPECT_FALSE(non_square.is_symmetric(1.0));
  EXPECT_FALSE(at_based_is_symmetric(non_square, 1.0));
  EXPECT_TRUE(CsrMatrix{}.is_symmetric());
  EXPECT_TRUE(CsrMatrix::Builder(4, 4).build().is_symmetric());
}

TEST(CsrMatrix, SymmetryMatchesAtBasedDefinitionOnRandomMatrices) {
  // Symmetric matrices (every third one defect-free) with a few defects
  // each: a dropped mirror, or a mirror nudged by half or twice the
  // tolerance.
  fecim::util::Rng rng(23);
  const double tol = 1.0 / 1024.0;
  std::size_t symmetric = 0;
  std::size_t asymmetric = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 20));
    const double defect_rate = trial % 3 == 0 ? 0.0 : 0.05;
    CsrMatrix::Builder builder(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.3)) builder.add(i, i, rng.uniform(-1.0, 1.0));
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!rng.bernoulli(0.3)) continue;
        const double v = static_cast<double>(rng.uniform_int(-8, 8)) / 4.0;
        builder.add(i, j, v);
        if (!rng.bernoulli(defect_rate)) {
          builder.add(j, i, v);
          continue;
        }
        switch (rng.uniform_int(0, 4)) {
          case 0: break;  // missing mirror
          case 1: builder.add(j, i, v + tol / 2.0); break;
          case 2: builder.add(j, i, v - tol / 2.0); break;
          case 3: builder.add(j, i, v + 2.0 * tol); break;
          default: builder.add(j, i, v - 2.0 * tol); break;
        }
      }
    }
    const auto m = builder.build();
    for (const double t : {0.0, tol}) {
      const bool expected = at_based_is_symmetric(m, t);
      EXPECT_EQ(m.is_symmetric(t), expected) << "trial " << trial;
      ++(expected ? symmetric : asymmetric);
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(symmetric, 50u);
  EXPECT_GT(asymmetric, 50u);
}

TEST(CsrMatrix, MaxAbsValue) {
  CsrMatrix::Builder builder(2, 2);
  builder.add(0, 1, -7.0);
  builder.add(1, 0, 2.0);
  EXPECT_DOUBLE_EQ(builder.build().max_abs_value(), 7.0);
}

TEST(VecOps, DotAxpyNorm) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{4, 5, 6};
  EXPECT_DOUBLE_EQ(fecim::linalg::dot(a, b), 32.0);
  fecim::linalg::axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(b[0], 6.0);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
  EXPECT_DOUBLE_EQ(fecim::linalg::norm2(std::vector<double>{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(fecim::linalg::max_abs(std::vector<double>{-9, 2}), 9.0);
}

TEST(VecOps, Hadamard) {
  const auto h = fecim::linalg::hadamard(std::vector<double>{1, 2},
                                         std::vector<double>{3, -4});
  EXPECT_DOUBLE_EQ(h[0], 3.0);
  EXPECT_DOUBLE_EQ(h[1], -8.0);
}

class SolverTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SolverTest, ConjugateGradientSolvesSpd) {
  fecim::util::Rng rng(GetParam());
  const std::size_t n = 10 + GetParam() * 7;
  const auto a = random_spd(n, rng);
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-2, 2);
  std::vector<double> b(n);
  a.multiply(x_true, b);

  std::vector<double> x(n, 0.0);
  const auto report = fecim::linalg::conjugate_gradient(a, b, x);
  EXPECT_TRUE(report.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST_P(SolverTest, GaussSeidelAgreesWithCg) {
  fecim::util::Rng rng(GetParam() + 100);
  const std::size_t n = 8 + GetParam() * 5;
  const auto a = random_spd(n, rng);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);

  std::vector<double> x_cg(n, 0.0), x_gs(n, 0.0);
  EXPECT_TRUE(fecim::linalg::conjugate_gradient(a, b, x_cg).converged);
  EXPECT_TRUE(fecim::linalg::gauss_seidel(a, b, x_gs).converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x_cg[i], x_gs[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolverTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(Solver, TinySystemsWithTinyScale) {
  // Regression: nano-ampere-scale systems must still converge to relative
  // tolerance (the MNA ladder operates at 1e-8-level conductances).
  CsrMatrix::Builder builder(2, 2);
  builder.add(0, 0, 2e-8);
  builder.add_symmetric(0, 1, -1e-8);
  builder.add(1, 1, 2e-8);
  const auto a = builder.build();
  const std::vector<double> b{1e-8, 0.0};
  std::vector<double> x(2, 0.0);
  const auto report = fecim::linalg::conjugate_gradient(a, b, x);
  EXPECT_TRUE(report.converged);
  EXPECT_NEAR(x[0], 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(x[1], 1.0 / 3.0, 1e-6);
}

}  // namespace
