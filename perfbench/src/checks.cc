#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

namespace perfbench {

using dw::matrix::CsrMatrix;
using dw::matrix::Index;
using dw::matrix::SparseVectorView;

namespace {

/// Unit roundoff of IEEE double.
constexpr double kUnitRoundoff = 0x1.0p-53;

/// Standard forward-error bound of an n-term floating-point dot product
/// computed in ANY summation order: gamma_n * sum |a_i w_i|, with
/// gamma_n = n u / (1 - n u).
double DotErrorBound(size_t n, double abs_dot) {
  const double nu = static_cast<double>(n) * kUnitRoundoff;
  return nu / (1.0 - nu) * abs_dot;
}

/// Logistic link, written apart from the program's.
double RefSigmoid(double z) {
  if (z >= 0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

RefMargin ReferenceMargin(const SparseVectorView& row, const double* w) {
  RefMargin r;
  r.terms = row.nnz;
  for (size_t k = 0; k < row.nnz; ++k) {
    const double x = row.values[k] * w[row.IsDense() ? k : row.indices[k]];
    r.margin += x;
    r.abs_dot += std::fabs(x);
  }
  return r;
}

RefMargin ReferenceMargin(const double* dense_row, const double* w,
                          size_t dim) {
  RefMargin r;
  r.terms = dim;
  for (size_t k = 0; k < dim; ++k) {
    const double x = dense_row[k] * w[k];
    r.margin += x;
    r.abs_dot += std::fabs(x);
  }
  return r;
}

bool LogisticScoreMatches(double score, const RefMargin& ref) {
  if (!std::isfinite(score)) return false;
  const double margin_err = 2.0 * DotErrorBound(ref.terms, ref.abs_dot);
  const double tol = 0.25 * margin_err + 8.0 * kUnitRoundoff;
  return std::fabs(score - RefSigmoid(ref.margin)) <= tol;
}

namespace {

double RowDot(const CsrMatrix& a, Index i, const double* w) {
  const SparseVectorView row = a.Row(i);
  double acc = 0.0;
  for (size_t k = 0; k < row.nnz; ++k) acc += row.values[k] * w[row.indices[k]];
  return acc;
}

double Log1pExpNeg(double z) {  // log(1 + exp(-z)), overflow-safe
  return z > 0 ? std::log1p(std::exp(-z)) : -z + std::log1p(std::exp(z));
}

}  // namespace

double LogisticLoss(const CsrMatrix& a, const std::vector<double>& y,
                    const std::vector<double>& w) {
  double sum = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    sum += Log1pExpNeg(y[i] * RowDot(a, i, w.data()));
  }
  return sum / std::max<double>(1.0, a.rows());
}

double LeastSquaresLoss(const CsrMatrix& a, const std::vector<double>& b,
                        const std::vector<double>& w) {
  double sum = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    const double r = RowDot(a, i, w.data()) - b[i];
    sum += 0.5 * r * r;
  }
  return sum / std::max<double>(1.0, a.rows());
}

double Accuracy(const CsrMatrix& a, const std::vector<double>& y,
                const std::vector<double>& w) {
  size_t hits = 0;
  for (Index i = 0; i < a.rows(); ++i) {
    const double z = RowDot(a, i, w.data());
    if ((z >= 0 ? 1.0 : -1.0) == y[i]) ++hits;
  }
  return a.rows() == 0 ? 0.0 : static_cast<double>(hits) / a.rows();
}

Optimum LeastSquaresOptimum(const CsrMatrix& a, const std::vector<double>& b) {
  const size_t d = a.cols();
  std::vector<double> ata(d * d, 0.0), atb(d, 0.0);
  for (Index i = 0; i < a.rows(); ++i) {
    const SparseVectorView row = a.Row(i);
    for (size_t p = 0; p < row.nnz; ++p) {
      const size_t jp = row.indices[p];
      atb[jp] += row.values[p] * b[i];
      for (size_t q = 0; q <= p; ++q) {
        ata[jp * d + row.indices[q]] += row.values[p] * row.values[q];
      }
    }
  }
  // Symmetrize (rows store sorted indices, so q <= p filled one triangle).
  for (size_t r = 0; r < d; ++r) {
    for (size_t c = 0; c < r; ++c) {
      const double v = ata[r * d + c] + ata[c * d + r];
      ata[r * d + c] = ata[c * d + r] = v;
    }
  }
  // Cholesky A'A = L L' in place (lower triangle).
  for (size_t j = 0; j < d; ++j) {
    double diag = ata[j * d + j];
    for (size_t k = 0; k < j; ++k) diag -= ata[j * d + k] * ata[j * d + k];
    diag = std::sqrt(std::max(diag, std::numeric_limits<double>::min()));
    ata[j * d + j] = diag;
    for (size_t i = j + 1; i < d; ++i) {
      double v = ata[i * d + j];
      for (size_t k = 0; k < j; ++k) v -= ata[i * d + k] * ata[j * d + k];
      ata[i * d + j] = v / diag;
    }
  }
  Optimum opt;
  std::vector<double>& x = opt.weights;
  x = atb;
  for (size_t i = 0; i < d; ++i) {  // L z = A'b
    for (size_t k = 0; k < i; ++k) x[i] -= ata[i * d + k] * x[k];
    x[i] /= ata[i * d + i];
  }
  for (size_t i = d; i-- > 0;) {  // L' x = z
    for (size_t k = i + 1; k < d; ++k) x[i] -= ata[k * d + i] * x[k];
    x[i] /= ata[i * d + i];
  }
  opt.loss = LeastSquaresLoss(a, b, x);
  opt.iterations = 1;
  return opt;
}

namespace {

// Full-batch gradient of the mean logistic loss; returns the loss. Rows
// are split into a fixed number of slices summed in slice order, so the
// result does not depend on thread scheduling.
double LogisticGradient(const CsrMatrix& a, const std::vector<double>& y,
                        const std::vector<double>& w,
                        std::vector<double>* grad) {
  constexpr int kSlices = 4;
  std::vector<std::vector<double>> part(kSlices,
                                        std::vector<double>(grad->size()));
  double loss[kSlices] = {};
  auto slice = [&](int t) {
    const Index lo = static_cast<Index>(int64_t{a.rows()} * t / kSlices);
    const Index hi = static_cast<Index>(int64_t{a.rows()} * (t + 1) / kSlices);
    for (Index i = lo; i < hi; ++i) {
      const SparseVectorView row = a.Row(i);
      const double z = y[i] * RowDot(a, i, w.data());
      loss[t] += Log1pExpNeg(z);
      const double coeff = -y[i] * RefSigmoid(-z);
      for (size_t k = 0; k < row.nnz; ++k) {
        part[t][row.indices[k]] += coeff * row.values[k];
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < kSlices; ++t) pool.emplace_back(slice, t);
  slice(0);
  for (std::thread& th : pool) th.join();
  const double n = std::max<double>(1.0, a.rows());
  double total = 0.0;
  for (size_t j = 0; j < grad->size(); ++j) {
    double g = 0.0;
    for (int t = 0; t < kSlices; ++t) g += part[t][j];
    (*grad)[j] = g / n;
  }
  for (int t = 0; t < kSlices; ++t) total += loss[t];
  return total / n;
}

double Norm(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (size_t j = 0; j < a.size(); ++j) s += a[j] * b[j];
  return s;
}

}  // namespace

Optimum LogisticOptimum(const CsrMatrix& a, const std::vector<double>& y,
                        double grad_tol, int max_iters) {
  // L-BFGS (memory 10) with Armijo backtracking from w = 0.
  constexpr size_t kMemory = 10;
  const size_t d = a.cols();
  std::vector<double> w(d, 0.0), g(d), w_next(d), g_next(d), dir(d);
  std::vector<std::vector<double>> s_hist, y_hist;
  std::vector<double> rho_hist;
  double f = LogisticGradient(a, y, w, &g);
  Optimum opt;
  for (int it = 0; it < max_iters && Norm(g) >= grad_tol; ++it) {
    // Two-loop recursion: dir = -H g.
    dir = g;
    std::vector<double> alpha(s_hist.size());
    for (size_t k = s_hist.size(); k-- > 0;) {
      alpha[k] = rho_hist[k] * Dot(s_hist[k], dir);
      for (size_t j = 0; j < d; ++j) dir[j] -= alpha[k] * y_hist[k][j];
    }
    if (!s_hist.empty()) {
      const double gamma =
          Dot(s_hist.back(), y_hist.back()) / Dot(y_hist.back(), y_hist.back());
      for (double& x : dir) x *= gamma;
    }
    for (size_t k = 0; k < s_hist.size(); ++k) {
      const double beta = rho_hist[k] * Dot(y_hist[k], dir);
      for (size_t j = 0; j < d; ++j) dir[j] += (alpha[k] - beta) * s_hist[k][j];
    }
    for (double& x : dir) x = -x;
    double slope = Dot(g, dir);
    if (slope >= 0) {  // not a descent direction: restart from -g
      s_hist.clear();
      y_hist.clear();
      rho_hist.clear();
      for (size_t j = 0; j < d; ++j) dir[j] = -g[j];
      slope = Dot(g, dir);
    }
    double step = 1.0, f_next = f;
    for (int ls = 0; ls < 40; ++ls, step *= 0.5) {
      for (size_t j = 0; j < d; ++j) w_next[j] = w[j] + step * dir[j];
      f_next = LogisticGradient(a, y, w_next, &g_next);
      if (f_next <= f + 1e-4 * step * slope) break;
    }
    if (!(f_next < f)) break;  // no further progress at double precision
    std::vector<double> s(d), yv(d);
    for (size_t j = 0; j < d; ++j) {
      s[j] = w_next[j] - w[j];
      yv[j] = g_next[j] - g[j];
    }
    const double sy = Dot(s, yv);
    if (sy > 0) {
      if (s_hist.size() == kMemory) {
        s_hist.erase(s_hist.begin());
        y_hist.erase(y_hist.begin());
        rho_hist.erase(rho_hist.begin());
      }
      s_hist.push_back(std::move(s));
      y_hist.push_back(std::move(yv));
      rho_hist.push_back(1.0 / sy);
    }
    w.swap(w_next);
    g.swap(g_next);
    f = f_next;
    opt.iterations = it + 1;
  }
  opt.weights = w;
  opt.loss = LogisticLoss(a, y, w);
  return opt;
}

namespace {

bool LossesAgree(double program, double reference) {
  if (!std::isfinite(program) || !std::isfinite(reference)) return false;
  return std::fabs(program - reference) <=
         1e-9 * std::max(1.0, std::fabs(reference));
}

}  // namespace

LossVerdict CheckTrainingLoss(double reported, double recomputed,
                              double optimum) {
  if (!LossesAgree(reported, recomputed)) return LossVerdict::kDisagrees;
  if (recomputed < optimum * (1.0 - 1e-9)) return LossVerdict::kBelowOptimum;
  return LossVerdict::kOk;
}

bool HeldOutAccuracyPlausible(double accuracy, double optimum_accuracy,
                              double noise, size_t rows) {
  const double sigma =
      std::sqrt(noise * (1.0 - noise) / std::max<size_t>(rows, 1));
  const bool under_noise_ceiling = accuracy <= 1.0 - noise + 4.0 * sigma;
  // A model trained to within 10% of the optimal loss scored up to 0.03
  // below the optimum's accuracy over 20 seeds; twice that is the margin.
  const bool near_optimum = std::fabs(accuracy - optimum_accuracy) <= 0.06;
  return under_noise_ceiling && near_optimum;
}

}  // namespace perfbench
