#include "la/matrix.h"

#include "util/error.h"

namespace pg::la {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  PG_CHECK(!rows.empty(), "from_rows: no rows");
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    PG_CHECK(rows[r].size() == m.cols_, "from_rows: ragged rows");
    for (std::size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  PG_CHECK(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  PG_CHECK(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

std::span<double> Matrix::row(std::size_t r) {
  PG_CHECK(r < rows_, "Matrix::row out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  PG_CHECK(r < rows_, "Matrix::row out of range");
  return {data_.data() + r * cols_, cols_};
}

Vector Matrix::row_copy(std::size_t r) const {
  const auto view = row(r);
  return Vector(view.begin(), view.end());
}

Vector Matrix::col_copy(std::size_t c) const {
  PG_CHECK(c < cols_, "Matrix::col_copy out of range");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  PG_CHECK(r < rows_, "Matrix::set_row out of range");
  PG_CHECK(v.size() == cols_, "Matrix::set_row size mismatch");
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

void Matrix::append_row(const Vector& v) {
  if (rows_ == 0 && cols_ == 0) cols_ = v.size();
  PG_CHECK(v.size() == cols_, "Matrix::append_row size mismatch");
  data_.insert(data_.end(), v.begin(), v.end());
  ++rows_;
}

// Kernel policy (see also vector_ops.cpp): each output element keeps its
// serial accumulation order -- the bit-stability contract every payoff
// grid and golden baseline rides on -- so the speed comes from
// restructuring AROUND the chains, never from reassociating them.
// matvec processes four rows per pass: four independent accumulator
// chains hide the FP add latency, and each row's own column-ascending
// order is untouched. matvec_transposed walks the matrix in column blocks
// sized to keep the output slice resident in L1, and within a block adds
// four rows per pass into a register, so each output is loaded and stored
// once per four rows. Per-column order stays row-ascending, so the result is
// bit-identical to the naive loop, and because the chains sit in
// contiguous lanes the column loop vectorizes at the baseline ISA. That
// makes `a.transposed().matvec_transposed(x)` a vectorized, bit-identical
// stand-in for `a.matvec(x)` when the transpose is reused across many
// products (the Hedge step does this). tests/la_test.cpp checks both
// kernels against the naive loops and that identity.
namespace {
/// Column-block width for matvec_transposed: 512 doubles = 4 KiB of
/// output accumulators, comfortably L1-resident alongside the row being
/// streamed.
constexpr std::size_t kColBlock = 512;
}  // namespace

Vector Matrix::matvec(const Vector& x) const {
  PG_CHECK(x.size() == cols_, "matvec: size mismatch");
  Vector out(rows_, 0.0);
  const double* base = data_.data();
  const double* px = x.data();
  std::size_t r = 0;
  for (; r + 4 <= rows_; r += 4) {
    const double* r0 = base + r * cols_;
    const double* r1 = r0 + cols_;
    const double* r2 = r1 + cols_;
    const double* r3 = r2 + cols_;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      const double xc = px[c];
      s0 += r0[c] * xc;
      s1 += r1[c] * xc;
      s2 += r2[c] * xc;
      s3 += r3[c] * xc;
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < rows_; ++r) {
    const double* row_ptr = base + r * cols_;
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += row_ptr[c] * px[c];
    out[r] = s;
  }
  return out;
}

Vector Matrix::matvec_transposed(const Vector& x) const {
  PG_CHECK(x.size() == rows_, "matvec_transposed: size mismatch");
  Vector out(cols_, 0.0);
  const double* base = data_.data();
  const double* px = x.data();
  double* po = out.data();
  for (std::size_t c0 = 0; c0 < cols_; c0 += kColBlock) {
    const std::size_t c1 = c0 + kColBlock < cols_ ? c0 + kColBlock : cols_;
    std::size_t r = 0;
    for (; r + 4 <= rows_; r += 4) {
      const double* r0 = base + r * cols_;
      const double* r1 = r0 + cols_;
      const double* r2 = r1 + cols_;
      const double* r3 = r2 + cols_;
      const double x0 = px[r];
      const double x1 = px[r + 1];
      const double x2 = px[r + 2];
      const double x3 = px[r + 3];
      for (std::size_t c = c0; c < c1; ++c) {
        double s = po[c];
        s += r0[c] * x0;
        s += r1[c] * x1;
        s += r2[c] * x2;
        s += r3[c] * x3;
        po[c] = s;
      }
    }
    for (; r < rows_; ++r) {
      const double* row_ptr = base + r * cols_;
      const double xr = px[r];
      for (std::size_t c = c0; c < c1; ++c) po[c] += row_ptr[c] * xr;
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Vector Matrix::column_means() const {
  PG_CHECK(rows_ > 0, "column_means of empty matrix");
  Vector m(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row_ptr = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) m[c] += row_ptr[c];
  }
  for (double& v : m) v /= static_cast<double>(rows_);
  return m;
}

Matrix Matrix::covariance() const {
  PG_CHECK(rows_ >= 2, "covariance needs at least two rows");
  const Vector mu = column_means();
  Matrix cov(cols_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row_ptr = data_.data() + r * cols_;
    for (std::size_t i = 0; i < cols_; ++i) {
      const double di = row_ptr[i] - mu[i];
      for (std::size_t j = i; j < cols_; ++j) {
        cov(i, j) += di * (row_ptr[j] - mu[j]);
      }
    }
  }
  const double denom = static_cast<double>(rows_ - 1);
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = i; j < cols_; ++j) {
      cov(i, j) /= denom;
      cov(j, i) = cov(i, j);
    }
  }
  return cov;
}

Matrix Matrix::select_rows(const std::vector<std::size_t>& idx) const {
  Matrix out(idx.size(), cols_);
  for (std::size_t r = 0; r < idx.size(); ++r) {
    PG_CHECK(idx[r] < rows_, "select_rows: index out of range");
    const double* src = data_.data() + idx[r] * cols_;
    for (std::size_t c = 0; c < cols_; ++c) out(r, c) = src[c];
  }
  return out;
}

}  // namespace pg::la
