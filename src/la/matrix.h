// Dense row-major matrix.
//
// Holds datasets (rows = instances), payoff matrices of discretized games,
// and covariance matrices for the PCA defense. Kept intentionally small:
// element access, row views, matvec, transpose, and the reductions the
// library needs.
//
// The hot kernels (matvec, matvec_transposed) are cache-blocked and
// ILP-restructured in matrix.cpp WITHOUT reordering any output element's
// floating-point accumulation -- results are bit-identical to the naive
// loops.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/vector_ops.h"

namespace pg::la {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols with a fill value.
  Matrix(std::size_t rows, std::size_t cols, double fill);

  /// Build from nested vectors; all rows must have equal length.
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Bounds-checked element access.
  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// Unchecked element access (hot loops).
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Contiguous view of one row.
  [[nodiscard]] std::span<double> row(std::size_t r);
  [[nodiscard]] std::span<const double> row(std::size_t r) const;

  /// Copy of one row as a Vector.
  [[nodiscard]] Vector row_copy(std::size_t r) const;

  /// Copy of one column as a Vector.
  [[nodiscard]] Vector col_copy(std::size_t c) const;

  /// Overwrite one row. Requires v.size() == cols().
  void set_row(std::size_t r, const Vector& v);

  /// Append a row. Requires v.size() == cols() (or empty matrix).
  void append_row(const Vector& v);

  /// Matrix-vector product. Requires x.size() == cols().
  [[nodiscard]] Vector matvec(const Vector& x) const;

  /// Transposed matrix-vector product (A^T x). Requires x.size() == rows().
  [[nodiscard]] Vector matvec_transposed(const Vector& x) const;

  [[nodiscard]] Matrix transposed() const;

  /// Column means. Requires a non-empty matrix.
  [[nodiscard]] Vector column_means() const;

  /// Sample covariance (n-1 denominator). Requires rows() >= 2.
  [[nodiscard]] Matrix covariance() const;

  /// Select a subset of rows by index.
  [[nodiscard]] Matrix select_rows(const std::vector<std::size_t>& idx) const;

  [[nodiscard]] const std::vector<double>& data() const noexcept {
    return data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace pg::la
