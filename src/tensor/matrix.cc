#include "src/tensor/matrix.h"

#include <algorithm>
#include <cmath>

#include "src/kernels/kernels.h"
#include "src/obs/trace.h"

namespace rgae {

void Matrix::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    const double* src = row(r);
    for (int c = 0; c < cols_; ++c) out(c, r) = src[c];
  }
  return out;
}

double Matrix::Sum() const {
  RGAE_SPAN("kernel.reduce");
  // Cost model: 1 flop/entry, 8 bytes/entry read (DESIGN.md §6.6).
  RGAE_KERNEL_WORK("kernel.reduce", static_cast<int64_t>(data_.size()),
                   static_cast<int64_t>(data_.size()) * 8);
  return kernels::Sum(data_.data(), static_cast<int64_t>(data_.size()));
}

double Matrix::FrobeniusNorm() const {
  RGAE_SPAN("kernel.reduce");
  // Cost model: 2 flops/entry (multiply + accumulate), 8 bytes/entry read.
  RGAE_KERNEL_WORK("kernel.reduce", static_cast<int64_t>(data_.size()) * 2,
                   static_cast<int64_t>(data_.size()) * 8);
  return std::sqrt(
      kernels::SumSquares(data_.data(), static_cast<int64_t>(data_.size())));
}

double Matrix::RowSquaredNorm(int r) const {
  const double* p = row(r);
  double s = 0.0;
  for (int c = 0; c < cols_; ++c) s += p[c] * p[c];
  return s;
}

Matrix Matrix::GatherRows(const std::vector<int>& rows) const {
  Matrix out(static_cast<int>(rows.size()), cols_);
  for (size_t i = 0; i < rows.size(); ++i) {
    assert(rows[i] >= 0 && rows[i] < rows_);
    const double* src = row(rows[i]);
    std::copy(src, src + cols_, out.row(static_cast<int>(i)));
  }
  return out;
}

std::string Matrix::ShapeString() const {
  return "Matrix(" + std::to_string(rows_) + "x" + std::to_string(cols_) + ")";
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  RGAE_SPAN("kernel.matmul");
  // Nominal cost of (m,k)x(k,n): 2mkn flops (the zero-skip below only
  // lowers the achieved count), 8(mk + kn + mn) bytes touched.
  RGAE_KERNEL_WORK(
      "kernel.matmul",
      2LL * a.rows() * a.cols() * b.cols(),
      8LL * (static_cast<int64_t>(a.size()) + b.size() +
             static_cast<int64_t>(a.rows()) * b.cols()));
  assert(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  kernels::MatMul(a.data(), b.data(), out.data(), a.rows(), a.cols(),
                  b.cols());
  return out;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  RGAE_SPAN("kernel.matmul");
  // aᵀb with a (k,m), b (k,n): 2kmn flops, 8(km + kn + mn) bytes.
  RGAE_KERNEL_WORK(
      "kernel.matmul",
      2LL * a.rows() * a.cols() * b.cols(),
      8LL * (static_cast<int64_t>(a.size()) + b.size() +
             static_cast<int64_t>(a.cols()) * b.cols()));
  assert(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  kernels::MatMulTransA(a.data(), b.data(), out.data(), a.rows(), a.cols(),
                        b.cols());
  return out;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  RGAE_SPAN("kernel.matmul");
  // abᵀ with a (m,k), b (n,k): 2mkn flops, 8(mk + nk + mn) bytes.
  RGAE_KERNEL_WORK(
      "kernel.matmul",
      2LL * a.rows() * a.cols() * b.rows(),
      8LL * (static_cast<int64_t>(a.size()) + b.size() +
             static_cast<int64_t>(a.rows()) * b.rows()));
  assert(a.cols() == b.cols());
  Matrix out(a.rows(), b.rows());
  kernels::MatMulTransB(a.data(), b.data(), out.data(), a.rows(), a.cols(),
                        b.rows());
  return out;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out += b;
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out(a.rows(), a.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  for (size_t i = 0; i < a.size(); ++i) po[i] = pa[i] * pb[i];
  return out;
}

Matrix Scale(const Matrix& a, double s) {
  Matrix out = a;
  out *= s;
  return out;
}

double RowSquaredDistance(const Matrix& a, int i, const Matrix& b, int j) {
  assert(a.cols() == b.cols());
  const double* pa = a.row(i);
  const double* pb = b.row(j);
  double s = 0.0;
  for (int c = 0; c < a.cols(); ++c) {
    const double d = pa[c] - pb[c];
    s += d * d;
  }
  return s;
}

double Dot(const Matrix& a, const Matrix& b) {
  RGAE_SPAN("kernel.reduce");
  // Cost model: 2 flops/entry (multiply + accumulate), 16 bytes/entry read.
  RGAE_KERNEL_WORK("kernel.reduce", static_cast<int64_t>(a.size()) * 2,
                   static_cast<int64_t>(a.size()) * 16);
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  return kernels::Dot(a.data(), b.data(), static_cast<int64_t>(a.size()));
}

double CosineSimilarity(const Matrix& a, const Matrix& b) {
  const double na = a.FrobeniusNorm();
  const double nb = b.FrobeniusNorm();
  if (na < 1e-12 || nb < 1e-12) return 0.0;
  return Dot(a, b) / (na * nb);
}

void NormalizeRowsL2(Matrix* m) {
  for (int r = 0; r < m->rows(); ++r) {
    const double norm = std::sqrt(m->RowSquaredNorm(r));
    if (norm < 1e-12) continue;
    double* p = m->row(r);
    for (int c = 0; c < m->cols(); ++c) p[c] /= norm;
  }
}

}  // namespace rgae
