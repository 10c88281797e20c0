// Generalized linear models: SVM (hinge), logistic regression, and least
// squares. Row-wise = stochastic gradient descent (the MADlib / MLlib /
// Hogwild! path); column-wise = stochastic coordinate descent with a
// maintained margin/residual vector (the GraphLab / Shogun / Thetis path).
//
// The SCD auxiliary vector holds, per row i, the current margin
// m_i = a_i . x (so coordinate updates only read column j and patch the
// margins of rows in S(j) -- a pure column access).
//
// Concurrency contract of the column steps (see model_spec.h): workers
// sharing one replica never lose an aux write -- with
// StepContext::aux_locks set, each patch is applied one row block at a
// time under that block's lock, and model[j] is added atomically. Reads of
// aux are relaxed atomic loads and may miss a step still in flight on
// another worker; the exact coordinate minimizer tolerates that staleness,
// but not lost writes, which no later step repairs. RefreshAux is needed
// only after averaging.
#pragma once

#include <algorithm>
#include <cstdint>

#include "models/model_spec.h"

namespace dw::models {

/// Numerically-stable log(1 + exp(z)).
double Log1pExp(double z);

/// Logistic sigmoid 1 / (1 + exp(-z)).
double Sigmoid(double z);

/// Shared machinery for the three GLMs. Each provides BOTH column flavors:
/// f_col (SCD with maintained margins, Shogun-style) and f_ctr (GraphLab-
/// style: margins recomputed from the full rows S(j), no auxiliary state
/// -- the access pattern whose read cost is sum n_i^2 in Fig. 6).
class GlmSpec : public ModelSpec {
 public:
  /// Default feature-dimension tile of the batched scoring kernels: 4096
  /// doubles = 32 KB of model, small enough to sit in L1/L2 while a
  /// mini-batch's row slices stream past it. The actual tile is resolved
  /// per machine by kernels::Tuning() (DW_KERNEL_BLOCK_COLS override or a
  /// numa::BandwidthProbe auto-pick); this constant is its fallback and
  /// the figure the ModelBytes accounting comments reference.
  static constexpr matrix::Index kPredictBlockCols = 4096;
  /// Rows scored per chunk; accumulators and cursors live on the stack.
  static constexpr size_t kPredictRowChunk = 128;

  bool HasCol() const override { return true; }
  bool HasCtr() const override { return true; }

  size_t AuxDim(const data::Dataset& d) const override { return d.a.rows(); }

  /// aux[i] = a_i . x for all rows.
  void RefreshAux(const data::Dataset& d, const double* model,
                  double* aux) const override;

  /// Cache-blocked batched scoring shared by the GLM family, running on
  /// the runtime-dispatched kernels of src/kernels/ (scalar, AVX2, or
  /// AVX-512 -- bitwise-identical across levels; force one with
  /// DW_KERNEL_LEVEL for testing). Rows are classified once per batch:
  ///   - full-width dense rows (explicit dense views, or the identity
  ///     index pattern 0..dim-1) are tiled FOUR AT A TIME against each
  ///     model block: every model element is loaded once per four rows
  ///     and eight independent accumulator lanes per row keep the FP
  ///     pipeline full -- the batched speedup on dense workloads (within
  ///     reassociation epsilon of Predict());
  ///   - shorter explicit dense views take the same column-blocked dense
  ///     kernel one row at a time;
  ///   - sorted sparse rows take a gather path whose cursor advances
  ///     monotonically per tile, so one pass of the model tile serves the
  ///     whole chunk of rows -- bitwise equal to Predict();
  ///   - unsorted rows fall back to the per-row reference dot (bitwise).
  void PredictBatch(const double* model, matrix::Index dim,
                    const matrix::SparseVectorView* rows, size_t n,
                    double* out) const override;

  bool SupportsQuantizedPredict() const override { return true; }

  /// Batched scoring against a symmetric int8 quantization of the model
  /// (see kernels::QuantizeWeights): out[i] = Link(scale * sum v_k q_k),
  /// computed dequantize-free (weights widened in register, never
  /// materialized as doubles -- the replica moves 1/8 the bytes).
  /// Error contract: the pre-link margin differs from the float margin
  /// by at most (scale/2) * sum_k |x_k| plus reassociation slack; link
  /// functions with Lipschitz constant L (sigmoid: 1/4) scale the score
  /// error by at most L.
  void PredictBatchQuantized(const int8_t* qmodel, double scale,
                             matrix::Index dim,
                             const matrix::SparseVectorView* rows, size_t n,
                             double* out) const override;

  /// Same streaming shape as PredictBatchModelBytes, one byte per weight.
  uint64_t PredictBatchQuantizedModelBytes(matrix::Index dim,
                                           uint64_t total_nnz,
                                           size_t n) const override {
    const uint64_t chunks =
        (static_cast<uint64_t>(n) + kPredictRowChunk - 1) / kPredictRowChunk;
    return std::min<uint64_t>(total_nnz, chunks * dim) * sizeof(int8_t);
  }

  /// The blocked kernel streams each model block at most once per
  /// kPredictRowChunk-row chunk (and never reads more than the rows
  /// gather in total).
  uint64_t PredictBatchModelBytes(matrix::Index dim, uint64_t total_nnz,
                                  size_t n) const override {
    const uint64_t chunks =
        (static_cast<uint64_t>(n) + kPredictRowChunk - 1) / kPredictRowChunk;
    return std::min<uint64_t>(total_nnz, chunks * dim) * sizeof(double);
  }

  UpdateSparsity RowWriteSparsity() const override {
    return UpdateSparsity::kSparse;
  }

  bool ColumnStepMaintainsAux() const override { return true; }

 protected:
  /// Link function the batched kernel applies to the raw margin a . x;
  /// identity for SVM/LS, sigmoid for LR. Must agree with Predict().
  virtual double Link(double margin) const { return margin; }

  /// The write half of every GLM ColStep: model[j] += delta and
  /// aux[i] += delta * a_ij for each row i of column `col`. Without
  /// ctx.aux_locks the patch is plain; with them it patches each row
  /// block under that block's lock, putting off a block another worker
  /// holds until the column's other blocks are done.
  static void ApplyColumnDelta(const StepContext& ctx, matrix::Index j,
                               matrix::SparseVectorView col,
                               double delta, double* model, double* aux);
};

/// Support vector machine with hinge loss (1/N) sum max(0, 1 - y_i a_i.x).
class SvmSpec : public GlmSpec {
 public:
  std::string name() const override { return "SVM"; }
  /// Signed decision value a . x (classify by sign, |.| = margin).
  double Predict(const double* model,
                 const matrix::SparseVectorView& row) const override;
  void RowStep(const StepContext& ctx, matrix::Index i, double* model,
               double* aux) const override;
  void ColStep(const StepContext& ctx, matrix::Index j, double* model,
               double* aux) const override;
  void CtrStep(const StepContext& ctx, matrix::Index j, double* model,
               double* aux) const override;
  void RowGradient(const StepContext& ctx, matrix::Index i,
                   const double* model, double* grad) const override;
  double RowLoss(const data::Dataset& d, matrix::Index i,
                 const double* model) const override;
};

/// Logistic regression, loss (1/N) sum log(1 + exp(-y_i a_i.x)).
class LogisticSpec : public GlmSpec {
 public:
  std::string name() const override { return "LR"; }
  /// P(y = +1 | row) = sigmoid(a . x).
  double Predict(const double* model,
                 const matrix::SparseVectorView& row) const override;
  void RowStep(const StepContext& ctx, matrix::Index i, double* model,
               double* aux) const override;
  void ColStep(const StepContext& ctx, matrix::Index j, double* model,
               double* aux) const override;
  void CtrStep(const StepContext& ctx, matrix::Index j, double* model,
               double* aux) const override;
  void RowGradient(const StepContext& ctx, matrix::Index i,
                   const double* model, double* grad) const override;
  double RowLoss(const data::Dataset& d, matrix::Index i,
                 const double* model) const override;

 protected:
  double Link(double margin) const override { return Sigmoid(margin); }
};

/// Least squares, loss (1/2N) sum (a_i.x - b_i)^2. The column step is the
/// exact coordinate minimizer (Gauss-Seidel on the normal equations).
class LeastSquaresSpec : public GlmSpec {
 public:
  std::string name() const override { return "LS"; }
  /// Regression estimate a . x.
  double Predict(const double* model,
                 const matrix::SparseVectorView& row) const override;
  void RowStep(const StepContext& ctx, matrix::Index i, double* model,
               double* aux) const override;
  void ColStep(const StepContext& ctx, matrix::Index j, double* model,
               double* aux) const override;
  void CtrStep(const StepContext& ctx, matrix::Index j, double* model,
               double* aux) const override;
  void RowGradient(const StepContext& ctx, matrix::Index i,
                   const double* model, double* grad) const override;
  double RowLoss(const data::Dataset& d, matrix::Index i,
                 const double* model) const override;
};

}  // namespace dw::models
