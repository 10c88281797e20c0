#include "models/glm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>

#include "kernels/score_kernels.h"
#include "util/logging.h"

namespace dw::models {

using data::Dataset;
using matrix::Index;
using matrix::SparseVectorView;

double Log1pExp(double z) {
  if (z > 30.0) return z;
  if (z < -30.0) return 0.0;
  return std::log1p(std::exp(z));
}

double Sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

void GlmSpec::RefreshAux(const Dataset& d, const double* model,
                         double* aux) const {
  for (Index i = 0; i < d.a.rows(); ++i) {
    aux[i] = d.a.Row(i).Dot(model);
  }
}

// ------------------------------------------------ column-step writes ----
//
// Relaxed atomic access to replica entries that other workers may write
// concurrently. On x86 these are plain moves; they let TSan check the
// column path (C++17 has no std::atomic_ref).

namespace {

double LoadRelaxed(const double* p) {
  double v = 0.0;
  __atomic_load(p, &v, __ATOMIC_RELAXED);
  return v;
}

void StoreRelaxed(double* p, double v) {
  __atomic_store(p, &v, __ATOMIC_RELAXED);
}

void AddAtomic(double* p, double v) {
  double cur = LoadRelaxed(p);
  double next = cur + v;
  while (!__atomic_compare_exchange(p, &cur, &next, /*weak=*/true,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
    next = cur + v;
  }
}

}  // namespace

// `col` comes by value: were the caller's view to escape by address, GCC
// would reload its fields around every atomic load of the delta loop.
void GlmSpec::ApplyColumnDelta(const StepContext& ctx, Index j,
                               SparseVectorView col, double delta,
                               double* model, double* aux) {
  AuxLocks* locks = ctx.aux_locks;
  if (locks == nullptr) {
    model[j] += delta;
    for (size_t k = 0; k < col.nnz; ++k) {
      aux[col.indices[k]] += delta * col.values[k];
    }
    return;
  }
  AddAtomic(&model[j], delta);
  // Column row indices ascend (CscMatrix::Col), so each row block is one
  // run of the column. A run whose block another worker holds is put off
  // rather than waited for: waiting lines the workers up behind each other
  // block after block. The put-off runs are patched after the others.
  constexpr uint64_t kRows = AuxLocks::kRowsPerLock;
  constexpr int kMaxPutOff = 32;
  const Index* rows = col.indices;
  const double* vals = col.values;
  const auto patch_run = [&](size_t lo, size_t end) {
    for (size_t k = lo; k < end; ++k) {
      // The lock excludes other writers, so the plain read is race-free.
      double* slot = &aux[rows[k]];
      StoreRelaxed(slot, *slot + delta * vals[k]);
    }
  };
  size_t put_off[kMaxPutOff][2];
  int num_put_off = 0;
  for (size_t lo = 0; lo < col.nnz;) {
    const uint64_t block = rows[lo] / kRows;
    const size_t end = static_cast<size_t>(
        std::lower_bound(rows + lo, rows + col.nnz, (block + 1) * kRows) -
        rows);
    SpinLock& mu = locks->block(block);
    if (mu.try_lock()) {
      patch_run(lo, end);
      mu.unlock();
    } else if (num_put_off < kMaxPutOff) {
      put_off[num_put_off][0] = lo;
      put_off[num_put_off][1] = end;
      ++num_put_off;
    } else {
      std::lock_guard<SpinLock> guard(mu);
      patch_run(lo, end);
    }
    lo = end;
  }
  for (int p = 0; p < num_put_off; ++p) {
    const size_t lo = put_off[p][0];
    std::lock_guard<SpinLock> guard(locks->block(rows[lo] / kRows));
    patch_run(lo, put_off[p][1]);
  }
}

// ------------------------------------------------- batched scoring ----
//
// The classification + cache-blocking skeleton and the per-ISA inner
// loops live in src/kernels/ (runtime-dispatched: scalar, AVX2, AVX-512,
// forceable via DW_KERNEL_LEVEL). The GLM layer computes raw margins
// through the kernels and applies the spec's link function.

void GlmSpec::PredictBatch(const double* model, Index dim,
                           const SparseVectorView* rows, size_t n,
                           double* out) const {
  kernels::ScoreBatchMargins(model, dim, rows, n, out);
  for (size_t r = 0; r < n; ++r) out[r] = Link(out[r]);
}

void GlmSpec::PredictBatchQuantized(const int8_t* qmodel, double scale,
                                    Index dim, const SparseVectorView* rows,
                                    size_t n, double* out) const {
  kernels::ScoreBatchMarginsInt8(qmodel, scale, dim, rows, n, out);
  for (size_t r = 0; r < n; ++r) out[r] = Link(out[r]);
}

// ---------------------------------------------------------------- SVM ----

void SvmSpec::RowStep(const StepContext& ctx, Index i, double* model,
                      double* /*aux*/) const {
  const Dataset& d = *ctx.dataset;
  const SparseVectorView row = d.a.Row(i);
  const double y = d.b[i];
  const double margin = y * row.Dot(model);
  if (margin < 1.0) {
    // Subgradient of hinge: -y a_i. Sparse update (paper Sec. 3.2).
    row.Axpy(ctx.step_size * y, model);
  }
}

namespace {

// Curvature-normalized coordinate step for the hinge: the subgradient over
// the active rows of S(j), scaled by the squared-hinge curvature
// sum a_ij^2 (Shotgun-style Lipschitz normalization). `dot_of(i)` supplies
// a_i . x either from the maintained margins (f_col) or recomputed from
// the row (f_ctr).
template <typename DotFn>
double SvmCoordinateDelta(const Dataset& d, const SparseVectorView& col,
                          double step, DotFn dot_of) {
  double grad = 0.0;
  double curv = 0.0;
  for (size_t k = 0; k < col.nnz; ++k) {
    const Index i = col.indices[k];
    const double aij = col.values[k];
    curv += aij * aij;
    const double y = d.b[i];
    if (y * dot_of(i) < 1.0) grad -= y * aij;
  }
  if (curv <= 0.0) return 0.0;
  return -step * grad / curv;
}

// Same for the logistic loss, with the curvature bound sigma(1-sigma)<=1/4.
template <typename DotFn>
double LogisticCoordinateDelta(const Dataset& d, const SparseVectorView& col,
                               double step, DotFn dot_of) {
  double grad = 0.0;
  double curv = 0.0;
  for (size_t k = 0; k < col.nnz; ++k) {
    const Index i = col.indices[k];
    const double aij = col.values[k];
    curv += 0.25 * aij * aij;
    const double y = d.b[i];
    grad -= y * aij * Sigmoid(-y * dot_of(i));
  }
  if (curv <= 0.0) return 0.0;
  return -step * grad / curv;
}

}  // namespace

void SvmSpec::ColStep(const StepContext& ctx, Index j, double* model,
                      double* aux) const {
  const Dataset& d = *ctx.dataset;
  const SparseVectorView col = ctx.csc->Col(j);
  if (col.nnz == 0) return;
  const double delta = SvmCoordinateDelta(
      d, col, ctx.step_size, [aux](Index i) { return LoadRelaxed(aux + i); });
  if (delta == 0.0) return;
  ApplyColumnDelta(ctx, j, col, delta, model, aux);
}

void SvmSpec::CtrStep(const StepContext& ctx, Index j, double* model,
                      double* /*aux*/) const {
  const Dataset& d = *ctx.dataset;
  const SparseVectorView col = ctx.csc->Col(j);
  if (col.nnz == 0) return;
  // Column-to-row: margins recomputed by reading the full rows of S(j).
  const double delta = SvmCoordinateDelta(
      d, col, ctx.step_size,
      [&d, model](Index i) { return d.a.Row(i).Dot(model); });
  model[j] += delta;
}

void SvmSpec::RowGradient(const StepContext& ctx, Index i,
                          const double* model, double* grad) const {
  const Dataset& d = *ctx.dataset;
  const SparseVectorView row = d.a.Row(i);
  const double y = d.b[i];
  if (y * row.Dot(model) < 1.0) {
    row.Axpy(-y, grad);
  }
}

double SvmSpec::RowLoss(const Dataset& d, Index i, const double* model) const {
  const double margin = d.b[i] * d.a.Row(i).Dot(model);
  return margin < 1.0 ? 1.0 - margin : 0.0;
}

double SvmSpec::Predict(const double* model,
                        const SparseVectorView& row) const {
  return row.Dot(model);
}

// ----------------------------------------------------------------- LR ----

void LogisticSpec::RowStep(const StepContext& ctx, Index i, double* model,
                           double* /*aux*/) const {
  const Dataset& d = *ctx.dataset;
  const SparseVectorView row = d.a.Row(i);
  const double y = d.b[i];
  const double z = y * row.Dot(model);
  // d/dx log(1+exp(-z)) = -y a_i sigmoid(-z).
  const double coeff = ctx.step_size * y * Sigmoid(-z);
  if (coeff != 0.0) row.Axpy(coeff, model);
}

void LogisticSpec::ColStep(const StepContext& ctx, Index j, double* model,
                           double* aux) const {
  const Dataset& d = *ctx.dataset;
  const SparseVectorView col = ctx.csc->Col(j);
  if (col.nnz == 0) return;
  const double delta = LogisticCoordinateDelta(
      d, col, ctx.step_size, [aux](Index i) { return LoadRelaxed(aux + i); });
  if (delta == 0.0) return;
  ApplyColumnDelta(ctx, j, col, delta, model, aux);
}

void LogisticSpec::CtrStep(const StepContext& ctx, Index j, double* model,
                           double* /*aux*/) const {
  const Dataset& d = *ctx.dataset;
  const SparseVectorView col = ctx.csc->Col(j);
  if (col.nnz == 0) return;
  const double delta = LogisticCoordinateDelta(
      d, col, ctx.step_size,
      [&d, model](Index i) { return d.a.Row(i).Dot(model); });
  model[j] += delta;
}

void LogisticSpec::RowGradient(const StepContext& ctx, Index i,
                               const double* model, double* grad) const {
  const Dataset& d = *ctx.dataset;
  const SparseVectorView row = d.a.Row(i);
  const double y = d.b[i];
  const double coeff = -y * Sigmoid(-y * row.Dot(model));
  if (coeff != 0.0) row.Axpy(coeff, grad);
}

double LogisticSpec::RowLoss(const Dataset& d, Index i,
                             const double* model) const {
  const double z = d.b[i] * d.a.Row(i).Dot(model);
  return Log1pExp(-z);
}

double LogisticSpec::Predict(const double* model,
                             const SparseVectorView& row) const {
  return Sigmoid(row.Dot(model));
}

// ----------------------------------------------------------------- LS ----

void LeastSquaresSpec::RowStep(const StepContext& ctx, Index i, double* model,
                               double* /*aux*/) const {
  const Dataset& d = *ctx.dataset;
  const SparseVectorView row = d.a.Row(i);
  const double r = row.Dot(model) - d.b[i];
  row.Axpy(-ctx.step_size * r, model);
}

void LeastSquaresSpec::ColStep(const StepContext& ctx, Index j, double* model,
                               double* aux) const {
  const Dataset& d = *ctx.dataset;
  const SparseVectorView col = ctx.csc->Col(j);
  if (col.nnz == 0) return;
  // Exact minimizer over x_j with maintained predictions aux[i] = a_i.x:
  //   delta = -sum_i a_ij (aux_i - b_i) / sum_i a_ij^2.
  double num = 0.0;
  double denom = 0.0;
  for (size_t k = 0; k < col.nnz; ++k) {
    const Index i = col.indices[k];
    num += col.values[k] * (LoadRelaxed(aux + i) - d.b[i]);
    denom += col.values[k] * col.values[k];
  }
  if (denom <= 0.0) return;
  ApplyColumnDelta(ctx, j, col, -num / denom, model, aux);
}

void LeastSquaresSpec::CtrStep(const StepContext& ctx, Index j, double* model,
                               double* /*aux*/) const {
  const Dataset& d = *ctx.dataset;
  const SparseVectorView col = ctx.csc->Col(j);
  if (col.nnz == 0) return;
  // Exact coordinate minimizer with residuals recomputed from rows.
  double num = 0.0;
  double denom = 0.0;
  for (size_t k = 0; k < col.nnz; ++k) {
    const Index i = col.indices[k];
    num += col.values[k] * (d.a.Row(i).Dot(model) - d.b[i]);
    denom += col.values[k] * col.values[k];
  }
  if (denom <= 0.0) return;
  model[j] -= num / denom;
}

void LeastSquaresSpec::RowGradient(const StepContext& ctx, Index i,
                                   const double* model, double* grad) const {
  const Dataset& d = *ctx.dataset;
  const SparseVectorView row = d.a.Row(i);
  const double r = row.Dot(model) - d.b[i];
  row.Axpy(r, grad);
}

double LeastSquaresSpec::RowLoss(const Dataset& d, Index i,
                                 const double* model) const {
  const double r = d.a.Row(i).Dot(model) - d.b[i];
  return 0.5 * r * r;
}

double LeastSquaresSpec::Predict(const double* model,
                                 const SparseVectorView& row) const {
  return row.Dot(model);
}

}  // namespace dw::models
