#include "linalg/csr_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace fecim::linalg {

std::span<const std::uint32_t> CsrMatrix::row_cols(std::size_t r) const {
  FECIM_EXPECTS(r < rows());
  return {col_idx_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

std::span<const double> CsrMatrix::row_values(std::size_t r) const {
  FECIM_EXPECTS(r < rows());
  return {values_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  FECIM_EXPECTS(r < rows() && c < cols_);
  const auto cols = row_cols(r);
  const auto vals = row_values(r);
  const auto it = std::lower_bound(cols.begin(), cols.end(),
                                   static_cast<std::uint32_t>(c));
  if (it == cols.end() || *it != c) return 0.0;
  return vals[static_cast<std::size_t>(it - cols.begin())];
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  FECIM_EXPECTS(x.size() == cols_ && y.size() == rows());
  for (std::size_t r = 0; r < rows(); ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      acc += values_[k] * x[col_idx_[k]];
    y[r] = acc;
  }
}

double CsrMatrix::vmv(std::span<const double> x, std::span<const double> y) const {
  FECIM_EXPECTS(x.size() == rows() && y.size() == cols_);
  double acc = 0.0;
  for (std::size_t r = 0; r < rows(); ++r) {
    if (x[r] == 0.0) continue;
    double inner = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      inner += values_[k] * y[col_idx_[k]];
    acc += x[r] * inner;
  }
  return acc;
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows() != cols_) return false;
  // Visiting rows in ascending order asks row c for its mirrors A(c, r) with
  // r nondecreasing, so one forward cursor per row merges the transpose
  // against the matrix: every cursor advances at most its row's length.
  std::vector<std::size_t> cursor(row_ptr_.begin(),
                                  row_ptr_.begin() + rows());
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = col_idx_[k];
      std::size_t& t = cursor[c];
      while (t < row_ptr_[c + 1] && col_idx_[t] < r) ++t;
      const double mirror =
          t < row_ptr_[c + 1] && col_idx_[t] == r ? values_[t] : 0.0;
      if (std::fabs(mirror - values_[k]) > tol) return false;
    }
  }
  return true;
}

double CsrMatrix::max_abs_value() const noexcept {
  double best = 0.0;
  for (const double v : values_) best = std::max(best, std::fabs(v));
  return best;
}

DenseMatrix<double> CsrMatrix::to_dense() const {
  DenseMatrix<double> dense(rows(), cols_);
  for (std::size_t r = 0; r < rows(); ++r) {
    const auto cols = row_cols(r);
    const auto vals = row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) dense(r, cols[k]) = vals[k];
  }
  return dense;
}

void CsrMatrix::Builder::add(std::size_t r, std::size_t c, double value) {
  FECIM_EXPECTS(r < rows_ && c < cols_);
  triplets_.push_back({static_cast<std::uint32_t>(r),
                       static_cast<std::uint32_t>(c), value});
}

void CsrMatrix::Builder::add_symmetric(std::size_t r, std::size_t c,
                                       double value) {
  add(r, c, value);
  if (r != c) add(c, r, value);
}

CsrMatrix CsrMatrix::Builder::build() {
  // Two stable counting passes -- by column, then by row -- order the
  // triplets by (row, col) and keep duplicates of one coordinate in
  // insertion order, in O(nnz + rows + cols).
  const auto counting_pass = [](const std::vector<Triplet>& in,
                                std::vector<Triplet>& out, std::size_t keys,
                                auto key) {
    std::vector<std::size_t> start(keys + 1, 0);
    for (const auto& t : in) ++start[std::size_t{key(t)} + 1];
    for (std::size_t k = 0; k < keys; ++k) start[k + 1] += start[k];
    for (const auto& t : in) out[start[key(t)]++] = t;
  };
  {
    std::vector<Triplet> by_col(triplets_.size());
    counting_pass(triplets_, by_col, cols_,
                  [](const Triplet& t) { return t.col; });
    counting_pass(by_col, triplets_, rows_,
                  [](const Triplet& t) { return t.row; });
  }

  // Merge duplicate coordinates by summation, in insertion order, dropping
  // exact zeros; compacting in place lets the CSR arrays be sized once.
  std::size_t merged = 0;
  std::size_t i = 0;
  while (i < triplets_.size()) {
    const std::uint32_t row = triplets_[i].row;
    const std::uint32_t col = triplets_[i].col;
    double sum = 0.0;
    while (i < triplets_.size() && triplets_[i].row == row &&
           triplets_[i].col == col) {
      sum += triplets_[i].value;
      ++i;
    }
    if (sum != 0.0) triplets_[merged++] = {row, col, sum};
  }
  triplets_.resize(merged);

  CsrMatrix m;
  m.cols_ = cols_;
  m.row_ptr_.assign(rows_ + 1, 0);
  m.col_idx_.resize(merged);
  m.values_.resize(merged);
  for (std::size_t k = 0; k < merged; ++k) {
    m.col_idx_[k] = triplets_[k].col;
    m.values_[k] = triplets_[k].value;
    ++m.row_ptr_[triplets_[k].row + 1];
  }
  for (std::size_t r = 0; r < rows_; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  FECIM_ENSURES(m.row_ptr_.back() == m.values_.size());
  return m;
}

}  // namespace fecim::linalg
