// The benchmark's own reference computations and output checks. None of
// them calls into the program under test beyond reading its matrices, so
// a fault in the program cannot make a check agree with it.
#pragma once
#include <cstddef>
#include <cstdint>
#include <vector>

#include "matrix/csr_matrix.h"

namespace perfbench {

/// A reference margin a.w the benchmark computed for one row version.
struct RefMargin {
  double margin = 0.0;
  double abs_dot = 0.0;  ///< sum |a_i w_i|, for the error bound
  size_t terms = 0;
};

/// Computes the reference margin of a sparse or dense row.
RefMargin ReferenceMargin(const dw::matrix::SparseVectorView& row,
                          const double* w);
RefMargin ReferenceMargin(const double* dense_row, const double* w,
                          size_t dim);

/// Whether a served logistic score equals sigmoid(margin) of `ref` within
/// the error of two independently summed dot products (the program's and
/// the benchmark's), the sigmoid's Lipschitz constant 1/4, and a few ulps
/// for evaluating the sigmoid itself.
bool LogisticScoreMatches(double score, const RefMargin& ref);

/// Mean logistic loss (1/N) sum log(1 + exp(-y_i a_i.w)), N = a.rows().
double LogisticLoss(const dw::matrix::CsrMatrix& a, const std::vector<double>& y,
                    const std::vector<double>& w);
/// Mean least-squares loss (1/2N) sum (a_i.w - b_i)^2.
double LeastSquaresLoss(const dw::matrix::CsrMatrix& a,
                        const std::vector<double>& b,
                        const std::vector<double>& w);
/// Share of rows whose sign(a_i.w) equals y_i.
double Accuracy(const dw::matrix::CsrMatrix& a, const std::vector<double>& y,
                const std::vector<double>& w);

struct Optimum {
  std::vector<double> weights;
  double loss = 0.0;
  int iterations = 0;
};

/// Least-squares optimum from the normal equations A'A x = A'b, solved by
/// Cholesky. Exact up to rounding for a full-column-rank A.
Optimum LeastSquaresOptimum(const dw::matrix::CsrMatrix& a,
                            const std::vector<double>& b);

/// Unregularized logistic optimum by deterministic full-batch L-BFGS
/// (memory 10, Armijo backtracking) from w = 0, stopped when the gradient
/// norm falls under `grad_tol`, progress stops, or after `max_iters`. The
/// loss it returns is attained, so it bounds the true optimum from above.
Optimum LogisticOptimum(const dw::matrix::CsrMatrix& a,
                        const std::vector<double>& y, double grad_tol,
                        int max_iters);

/// Verdict on one training's reported loss against its reference: the
/// program's loss (per-thread partial sums) and the benchmark's (one
/// sequential sum) must agree to rounding, and neither may undercut the
/// optimum.
enum class LossVerdict { kOk, kBelowOptimum, kDisagrees };
LossVerdict CheckTrainingLoss(double reported, double recomputed,
                              double optimum);

/// Whether a held-out accuracy is consistent with labels flipped at
/// `noise` (no model can beat 1 - noise by more than sampling error) and
/// within 0.06 of what the reference optimum scores on the same rows.
bool HeldOutAccuracyPlausible(double accuracy, double optimum_accuracy,
                              double noise, size_t rows);

}  // namespace perfbench
