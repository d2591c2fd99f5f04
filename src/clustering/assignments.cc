#include "src/clustering/assignments.h"

#include <cassert>
#include <cmath>

#include "src/kernels/kernels.h"
#include "src/obs/trace.h"

namespace rgae {

std::vector<int> HardAssign(const Matrix& soft) {
  std::vector<int> out(soft.rows(), 0);
  for (int i = 0; i < soft.rows(); ++i) {
    for (int j = 1; j < soft.cols(); ++j) {
      if (soft(i, j) > soft(i, out[i])) out[i] = j;
    }
  }
  return out;
}

Matrix OneHot(const std::vector<int>& assignments, int k) {
  Matrix out(static_cast<int>(assignments.size()), k);
  for (size_t i = 0; i < assignments.size(); ++i) {
    assert(assignments[i] >= 0 && assignments[i] < k);
    out(static_cast<int>(i), assignments[i]) = 1.0;
  }
  return out;
}

Matrix StudentTAssignments(const Matrix& z, const Matrix& centers) {
  RGAE_SPAN("kernel.row_softmax");
  const int n = z.rows();
  const int k = centers.rows();
  const int d = z.cols();
  // Cost model: per (i,j) pair a d-dim squared distance (3d flops) plus the
  // kernel + normalization (~4 flops); bytes = read z and centers once per
  // pair-row plus the output.
  RGAE_KERNEL_WORK("kernel.row_softmax",
                   static_cast<int64_t>(n) * k * (3LL * d + 4),
                   8LL * (static_cast<int64_t>(n) * d +
                          static_cast<int64_t>(k) * d +
                          static_cast<int64_t>(n) * k));
  Matrix p(n, k);
  kernels::StudentT(z.data(), n, d, centers.data(), k, p.data());
  return p;
}

Matrix DecTargetDistribution(const Matrix& p) {
  const int n = p.rows();
  const int k = p.cols();
  std::vector<double> f(k, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) f[j] += p(i, j);
  }
  Matrix q(n, k);
  for (int i = 0; i < n; ++i) {
    double sum = 0.0;
    for (int j = 0; j < k; ++j) {
      q(i, j) = p(i, j) * p(i, j) / std::max(f[j], 1e-12);
      sum += q(i, j);
    }
    for (int j = 0; j < k; ++j) q(i, j) /= std::max(sum, 1e-12);
  }
  return q;
}

Matrix GaussianSoftAssignments(const Matrix& z, const Matrix& centers,
                               const Matrix& variances) {
  assert(centers.rows() == variances.rows() &&
         centers.cols() == variances.cols());
  const int n = z.rows();
  const int k = centers.rows();
  const int d = z.cols();
  RGAE_SPAN("kernel.row_softmax");
  // Cost model: per (i,j) pair a d-dim variance-scaled distance (4d flops)
  // plus log-sum-exp normalization (~5 flops); centers and variances are
  // both streamed per row.
  RGAE_KERNEL_WORK("kernel.row_softmax",
                   static_cast<int64_t>(n) * k * (4LL * d + 5),
                   8LL * (static_cast<int64_t>(n) * d +
                          2LL * k * d + static_cast<int64_t>(n) * k));
  Matrix p(n, k);
  kernels::Gaussian(z.data(), n, d, centers.data(), variances.data(), k,
                    p.data());
  return p;
}

Matrix ClusterVariances(const Matrix& z, const std::vector<int>& assignments,
                        int k, double min_variance) {
  assert(static_cast<int>(assignments.size()) == z.rows());
  Matrix means(k, z.cols());
  std::vector<int> counts(k, 0);
  for (int i = 0; i < z.rows(); ++i) {
    const int c = assignments[i];
    ++counts[c];
    for (int j = 0; j < z.cols(); ++j) means(c, j) += z(i, j);
  }
  for (int c = 0; c < k; ++c) {
    if (counts[c] > 0) {
      for (int j = 0; j < z.cols(); ++j) means(c, j) /= counts[c];
    }
  }
  Matrix var(k, z.cols(), 1.0);
  Matrix sq(k, z.cols());
  for (int i = 0; i < z.rows(); ++i) {
    const int c = assignments[i];
    for (int j = 0; j < z.cols(); ++j) {
      const double diff = z(i, j) - means(c, j);
      sq(c, j) += diff * diff;
    }
  }
  for (int c = 0; c < k; ++c) {
    for (int j = 0; j < z.cols(); ++j) {
      var(c, j) = counts[c] > 0
                      ? std::max(min_variance, sq(c, j) / counts[c])
                      : 1.0;
    }
  }
  return var;
}

}  // namespace rgae
