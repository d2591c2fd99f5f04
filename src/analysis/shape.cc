#include "src/analysis/shape.h"

namespace rgae {

namespace {

[[noreturn]] void Fail(const char* op, const std::string& detail) {
  throw TapeError(std::string("Tape::") + op + ": " + detail);
}

}  // namespace

std::string Shape::ToString() const {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

Shape InferMatMul(const Shape& a, const Shape& b) {
  if (a.cols != b.rows) {
    Fail("MatMul", "inner dimensions disagree: " + a.ToString() + " * " +
                       b.ToString());
  }
  return {a.rows, b.cols};
}

Shape InferSpmm(const Shape& s, const Shape& x) {
  if (s.cols != x.rows) {
    Fail("Spmm", "sparse operand is " + s.ToString() +
                     " but dense operand is " + x.ToString());
  }
  return {s.rows, x.cols};
}

Shape InferElementwise(const char* op, const Shape& a, const Shape& b) {
  if (a != b) {
    Fail(op, "operand shapes disagree: " + a.ToString() + " vs " +
                 b.ToString());
  }
  return a;
}

Shape InferAddRowBroadcast(const Shape& a, const Shape& bias) {
  if (bias.rows != 1 || bias.cols != a.cols) {
    Fail("AddRowBroadcast", "bias must be 1x" + std::to_string(a.cols) +
                                " for input " + a.ToString() + ", got " +
                                bias.ToString());
  }
  return a;
}

Shape InferInnerProductBce(const Shape& z, const Shape& target) {
  if (target.rows != z.rows || target.cols != z.rows) {
    Fail("InnerProductBceLoss",
         "target must be " + std::to_string(z.rows) + "x" +
             std::to_string(z.rows) + " for embeddings " + z.ToString() +
             ", got " + target.ToString());
  }
  return {1, 1};
}

Shape InferGaussianKl(const Shape& mu, const Shape& logvar) {
  if (mu != logvar) {
    Fail("GaussianKlLoss", "mu is " + mu.ToString() + " but logvar is " +
                               logvar.ToString());
  }
  return {1, 1};
}

Shape InferKMeans(const Shape& z, const Shape& centers,
                  const std::vector<int>& assign,
                  const std::vector<int>& rows) {
  if (centers.cols != z.cols) {
    Fail("KMeansLoss", "centers are " + centers.ToString() +
                           " but embeddings are " + z.ToString());
  }
  if (static_cast<int>(assign.size()) != z.rows) {
    Fail("KMeansLoss",
         "expected one assignment per embedding row (" +
             std::to_string(z.rows) + "), got " +
             std::to_string(assign.size()));
  }
  for (int a : assign) {
    if (a < 0 || a >= centers.rows) {
      Fail("KMeansLoss", "assignment " + std::to_string(a) +
                             " out of range [0, " +
                             std::to_string(centers.rows) + ")");
    }
  }
  CheckRowSubset("KMeansLoss", rows, z.rows);
  return {1, 1};
}

Shape InferDecKl(const Shape& z, const Shape& centers, const Shape& target_q,
                 const std::vector<int>& rows) {
  if (centers.cols != z.cols) {
    Fail("DecKlLoss", "centers are " + centers.ToString() +
                          " but embeddings are " + z.ToString());
  }
  if (target_q.rows != z.rows || target_q.cols != centers.rows) {
    Fail("DecKlLoss", "target Q must be " + std::to_string(z.rows) + "x" +
                          std::to_string(centers.rows) + ", got " +
                          target_q.ToString());
  }
  CheckRowSubset("DecKlLoss", rows, z.rows);
  return {1, 1};
}

Shape InferGmmKl(const Shape& z, const Shape& means, const Shape& logvars,
                 const Shape& pi_logits, const Shape& target_q,
                 const std::vector<int>& rows) {
  if (means.cols != z.cols) {
    Fail("GmmKlLoss", "means are " + means.ToString() +
                          " but embeddings are " + z.ToString());
  }
  if (logvars != means) {
    Fail("GmmKlLoss", "logvars are " + logvars.ToString() +
                          " but means are " + means.ToString());
  }
  if (pi_logits.rows != 1 || pi_logits.cols != means.rows) {
    Fail("GmmKlLoss", "mixture logits must be 1x" +
                          std::to_string(means.rows) + ", got " +
                          pi_logits.ToString());
  }
  CheckRowSubset("GmmKlLoss", rows, z.rows);
  if (target_q.rows != z.rows || target_q.cols != means.rows) {
    Fail("GmmKlLoss", "target Q must be " + std::to_string(z.rows) + "x" +
                          std::to_string(means.rows) + ", got " +
                          target_q.ToString());
  }
  return {1, 1};
}

Shape InferBceWithLogits(const Shape& logits, const Shape& targets) {
  if (targets != logits) {
    Fail("BceWithLogits", "targets are " + targets.ToString() +
                              " but logits are " + logits.ToString());
  }
  return {1, 1};
}

Shape InferAddScalars(const Shape& a, const Shape& b) {
  if (!a.scalar() || !b.scalar()) {
    Fail("AddScalars", "both operands must be 1x1, got " + a.ToString() +
                           " and " + b.ToString());
  }
  return {1, 1};
}

void CheckRowSubset(const char* op, const std::vector<int>& rows,
                    int num_rows) {
  for (int r : rows) {
    if (r < 0 || r >= num_rows) {
      Fail(op, "row index " + std::to_string(r) + " out of range [0, " +
                   std::to_string(num_rows) + ")");
    }
  }
}

}  // namespace rgae
