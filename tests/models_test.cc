// Tests for src/models: gradient directions checked against numerical
// differentiation (property tests over random rows), convergence of every
// access method on small problems, and exactness of coordinate minimizers.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "data/graphs.h"
#include "data/paper_datasets.h"
#include "data/synthetic.h"
#include "models/glm.h"
#include "models/graph_opt.h"
#include "models/parallel_sum.h"
#include "util/rng.h"

namespace dw::models {
namespace {

using data::Dataset;
using matrix::CscMatrix;
using matrix::Index;

Dataset TinyClassification(Index rows, Index cols, uint64_t seed) {
  Dataset d;
  d.name = "tiny";
  d.a = data::MakeDenseTable({.rows = rows, .cols = cols, .seed = seed});
  d.b = data::PlantClassificationLabels(d.a, cols, 0.0, seed + 1);
  return d;
}

Dataset TinyRegression(Index rows, Index cols, uint64_t seed) {
  Dataset d;
  d.name = "tiny";
  d.a = data::MakeDenseTable({.rows = rows, .cols = cols, .seed = seed});
  d.b = data::PlantRegressionTargets(d.a, 0.05, seed + 1);
  return d;
}

// Numerical gradient of the spec's TOTAL loss at `model`.
std::vector<double> NumericalGradient(const ModelSpec& spec, const Dataset& d,
                                      std::vector<double> model) {
  const double h = 1e-6;
  std::vector<double> g(model.size());
  for (size_t k = 0; k < model.size(); ++k) {
    const double keep = model[k];
    model[k] = keep + h;
    const double up = spec.Loss(d, model.data());
    model[k] = keep - h;
    const double down = spec.Loss(d, model.data());
    model[k] = keep;
    g[k] = (up - down) / (2 * h);
  }
  return g;
}

// One full pass of row steps with a small step must reduce a smooth loss.
void ExpectRowPassReducesLoss(const ModelSpec& spec, const Dataset& d,
                              double step) {
  std::vector<double> model(spec.ModelDim(d), 0.0);
  const double before = spec.Loss(d, model.data());
  StepContext ctx{&d, nullptr, step};
  for (Index i = 0; i < d.a.rows(); ++i) {
    spec.RowStep(ctx, i, model.data(), nullptr);
  }
  const double after = spec.Loss(d, model.data());
  EXPECT_LT(after, before) << spec.name();
}

// Full epochs of column steps must reduce the loss too.
void ExpectColEpochsReduceLoss(const GlmSpec& spec, const Dataset& d,
                               double step, int epochs) {
  const CscMatrix csc = CscMatrix::FromCsr(d.a);
  std::vector<double> model(spec.ModelDim(d), 0.0);
  std::vector<double> aux(spec.AuxDim(d), 0.0);
  spec.RefreshAux(d, model.data(), aux.data());
  const double before = spec.Loss(d, model.data());
  StepContext ctx{&d, &csc, step};
  for (int e = 0; e < epochs; ++e) {
    for (Index j = 0; j < d.a.cols(); ++j) {
      spec.ColStep(ctx, j, model.data(), aux.data());
    }
  }
  const double after = spec.Loss(d, model.data());
  EXPECT_LT(after, before) << spec.name();
  // The maintained aux must equal a fresh recomputation (invariant).
  std::vector<double> fresh(spec.AuxDim(d));
  spec.RefreshAux(d, model.data(), fresh.data());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_NEAR(aux[i], fresh[i], 1e-6) << "row " << i;
  }
}

// --- logistic regression: exact gradient check (smooth loss) -------------

class LrGradientCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LrGradientCheck, RowStepMatchesNumericalGradient) {
  const Dataset d = TinyClassification(6, 4, GetParam());
  LogisticSpec lr;
  Rng rng(GetParam());
  std::vector<double> model(4);
  for (auto& m : model) m = rng.Gaussian(0.0, 0.5);

  // Analytic full-batch gradient = average of per-row step directions
  // (RowStep moves by -step * grad_i, so sum of moves / (step*N) = -grad).
  const double step = 1e-7;  // tiny: curvature error negligible
  std::vector<double> moved = model;
  StepContext ctx{&d, nullptr, step};
  for (Index i = 0; i < d.a.rows(); ++i) {
    lr.RowStep(ctx, i, moved.data(), nullptr);
  }
  std::vector<double> analytic(4);
  for (size_t k = 0; k < 4; ++k) {
    analytic[k] = -(moved[k] - model[k]) / (step * d.a.rows());
  }
  const std::vector<double> numeric = NumericalGradient(lr, d, model);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(analytic[k], numeric[k], 1e-4) << "coord " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LrGradientCheck,
                         ::testing::Values(1, 2, 3, 7, 11, 13));

// --- least squares: exact gradient + exact coordinate minimizer ----------

TEST(LeastSquaresTest, RowStepMatchesNumericalGradient) {
  const Dataset d = TinyRegression(8, 5, 3);
  LeastSquaresSpec ls;
  std::vector<double> model(5, 0.1);
  const double step = 1e-7;
  std::vector<double> moved = model;
  StepContext ctx{&d, nullptr, step};
  for (Index i = 0; i < d.a.rows(); ++i) {
    ls.RowStep(ctx, i, moved.data(), nullptr);
  }
  const std::vector<double> numeric = NumericalGradient(ls, d, model);
  for (size_t k = 0; k < 5; ++k) {
    const double analytic = -(moved[k] - model[k]) / (step * d.a.rows());
    EXPECT_NEAR(analytic, numeric[k], 1e-3);
  }
}

TEST(LeastSquaresTest, ColStepIsExactCoordinateMinimizer) {
  const Dataset d = TinyRegression(10, 4, 5);
  LeastSquaresSpec ls;
  const CscMatrix csc = CscMatrix::FromCsr(d.a);
  std::vector<double> model(4, 0.3);
  std::vector<double> aux(ls.AuxDim(d));
  ls.RefreshAux(d, model.data(), aux.data());

  StepContext ctx{&d, &csc, 0.1};
  ls.ColStep(ctx, 2, model.data(), aux.data());

  // After minimizing coordinate 2, the partial derivative wrt x_2 is 0.
  const auto grad = NumericalGradient(ls, d, model);
  EXPECT_NEAR(grad[2], 0.0, 1e-5);
}

TEST(LeastSquaresTest, ManyColEpochsReachLeastSquaresSolution) {
  // Overdetermined consistent-ish system: SCD (Gauss-Seidel on normal
  // equations) must drive the loss near the noise floor.
  const Dataset d = TinyRegression(60, 6, 7);
  LeastSquaresSpec ls;
  const CscMatrix csc = CscMatrix::FromCsr(d.a);
  std::vector<double> model(6, 0.0);
  std::vector<double> aux(ls.AuxDim(d));
  ls.RefreshAux(d, model.data(), aux.data());
  StepContext ctx{&d, &csc, 1.0};
  for (int e = 0; e < 60; ++e) {
    for (Index j = 0; j < 6; ++j) ls.ColStep(ctx, j, model.data(), aux.data());
  }
  // Noise sigma is 0.05 => mean 0.5*r^2 ~ 0.00125.
  EXPECT_LT(ls.Loss(d, model.data()), 0.01);
}

// --- hinge/logistic descent behaviour -------------------------------------

TEST(SvmTest, RowPassReducesLoss) {
  ExpectRowPassReducesLoss(SvmSpec(), TinyClassification(50, 8, 11), 0.05);
}

TEST(SvmTest, ColEpochsReduceLossAndKeepAuxConsistent) {
  ExpectColEpochsReduceLoss(SvmSpec(), TinyClassification(40, 6, 13), 0.5, 10);
}

TEST(SvmTest, SeparableDataReachesZeroLoss) {
  const Dataset d = TinyClassification(80, 5, 17);  // noise-free labels
  SvmSpec svm;
  std::vector<double> model(5, 0.0);
  StepContext ctx{&d, nullptr, 0.1};
  Rng rng(1);
  std::vector<Index> order(d.a.rows());
  for (Index i = 0; i < d.a.rows(); ++i) order[i] = i;
  for (int e = 0; e < 200; ++e) {
    ctx.step_size = 0.1 * std::pow(0.98, e);
    rng.Shuffle(order);
    for (Index i : order) svm.RowStep(ctx, i, model.data(), nullptr);
  }
  EXPECT_LT(svm.Loss(d, model.data()), 0.05);
}

TEST(SvmTest, RowLossIsHinge) {
  Dataset d;
  auto m = matrix::CsrMatrix::FromTriplets(2, 2, {{0, 0, 2.0}, {1, 1, 1.0}});
  ASSERT_TRUE(m.ok());
  d.a = std::move(m).value();
  d.b = {1.0, -1.0};
  SvmSpec svm;
  const double model[2] = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(svm.RowLoss(d, 0, model), 0.0);   // margin 2 >= 1
  EXPECT_DOUBLE_EQ(svm.RowLoss(d, 1, model), 2.0);   // margin -1
}

TEST(LogisticTest, RowPassReducesLoss) {
  ExpectRowPassReducesLoss(LogisticSpec(), TinyClassification(50, 8, 19),
                           0.1);
}

TEST(LogisticTest, ColEpochsReduceLossAndKeepAuxConsistent) {
  ExpectColEpochsReduceLoss(LogisticSpec(), TinyClassification(40, 6, 23),
                            1.0, 10);
}

TEST(LogisticTest, SigmoidAndLog1pExpAreStable) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-12);
  EXPECT_NEAR(Log1pExp(0.0), std::log(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(Log1pExp(100.0), 100.0);
  EXPECT_DOUBLE_EQ(Log1pExp(-100.0), 0.0);
  EXPECT_FALSE(std::isnan(Log1pExp(1000.0)));
}

// --- LP -------------------------------------------------------------------

Dataset SmallLp(uint64_t seed) {
  const auto g = data::MakePowerLawGraph(60, 180, 1.2, seed);
  return data::MakeVertexCoverLp(g, seed + 1, "small-lp");
}

TEST(LpTest, CtrEpochsReduceObjective) {
  const Dataset d = SmallLp(31);
  LpSpec lp(5.0);
  const CscMatrix csc = CscMatrix::FromCsr(d.a);
  std::vector<double> model(d.a.cols(), 0.0);
  const double before = lp.Loss(d, model.data());
  StepContext ctx{&d, &csc, 0.05};
  for (int e = 0; e < 30; ++e) {
    for (Index j = 0; j < d.a.cols(); ++j) {
      lp.CtrStep(ctx, j, model.data(), nullptr);
    }
  }
  const double after = lp.Loss(d, model.data());
  EXPECT_LT(after, before);
  // Box constraints hold.
  for (double x : model) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
  // Penalty keeps constraints near-feasible: few badly violated edges.
  int violated = 0;
  for (Index e = 0; e < d.a.rows(); ++e) {
    const auto row = d.a.Row(e);
    double lhs = 0.0;
    for (size_t k = 0; k < row.nnz; ++k) lhs += model[row.indices[k]];
    violated += lhs < 0.5;
  }
  EXPECT_LT(violated, static_cast<int>(d.a.rows()) / 10);
}

TEST(LpTest, RowEpochsReduceObjective) {
  const Dataset d = SmallLp(37);
  LpSpec lp(5.0);
  std::vector<double> model(d.a.cols(), 0.0);
  const double before = lp.Loss(d, model.data());
  StepContext ctx{&d, nullptr, 0.05};
  for (int e = 0; e < 40; ++e) {
    for (Index i = 0; i < d.a.rows(); ++i) {
      lp.RowStep(ctx, i, model.data(), nullptr);
    }
  }
  EXPECT_LT(lp.Loss(d, model.data()), before);
  for (double x : model) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(LpTest, CtrBeatsNothingOnCoverQuality) {
  // Exact minimizer on a single-edge graph: both endpoints rise until the
  // constraint is satisfied against the cost.
  Dataset d;
  auto m = matrix::CsrMatrix::FromTriplets(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}});
  ASSERT_TRUE(m.ok());
  d.a = std::move(m).value();
  d.b = {1.0};
  d.c = {0.1, 0.1};  // cheap vertices: cover should saturate
  LpSpec lp(10.0);
  const CscMatrix csc = CscMatrix::FromCsr(d.a);
  std::vector<double> model(2, 0.0);
  StepContext ctx{&d, &csc, 0.1};
  for (int it = 0; it < 50; ++it) {
    lp.CtrStep(ctx, 0, model.data(), nullptr);
    lp.CtrStep(ctx, 1, model.data(), nullptr);
  }
  EXPECT_GT(model[0] + model[1], 0.9);
}

TEST(LpTest, ProjectClipsToUnitBox) {
  LpSpec lp;
  double m[3] = {-0.5, 0.5, 1.5};
  lp.Project(m, 3);
  EXPECT_DOUBLE_EQ(m[0], 0.0);
  EXPECT_DOUBLE_EQ(m[1], 0.5);
  EXPECT_DOUBLE_EQ(m[2], 1.0);
}

// --- QP -------------------------------------------------------------------

Dataset SmallQp(uint64_t seed) {
  const auto g = data::MakePowerLawGraph(50, 150, 1.2, seed);
  return data::MakeLabelPropagationQp(g, 1.0, 0.3, seed + 1, "small-qp");
}

TEST(QpTest, ColStepIsExactCoordinateMinimizer) {
  const Dataset d = SmallQp(41);
  QpSpec qp;
  const CscMatrix csc = CscMatrix::FromCsr(d.a);
  Rng rng(42);
  std::vector<double> model(d.a.cols());
  for (auto& x : model) x = rng.Uniform(-0.5, 0.5);

  StepContext ctx{&d, &csc, 0.1};
  qp.ColStep(ctx, 7, model.data(), nullptr);
  // Unless clipped, the partial derivative at coordinate 7 must vanish.
  if (model[7] > -1.0 + 1e-9 && model[7] < 1.0 - 1e-9) {
    const auto grad = NumericalGradient(qp, d, model);
    EXPECT_NEAR(grad[7], 0.0, 1e-5);
  }
}

TEST(QpTest, GaussSeidelEpochsConverge) {
  const Dataset d = SmallQp(43);
  QpSpec qp;
  const CscMatrix csc = CscMatrix::FromCsr(d.a);
  std::vector<double> model(d.a.cols(), 0.0);
  const double before = qp.Loss(d, model.data());
  StepContext ctx{&d, &csc, 0.1};
  double prev = before;
  for (int e = 0; e < 25; ++e) {
    for (Index j = 0; j < d.a.cols(); ++j) {
      qp.ColStep(ctx, j, model.data(), nullptr);
    }
    const double cur = qp.Loss(d, model.data());
    EXPECT_LE(cur, prev + 1e-9);  // monotone (exact coordinate descent)
    prev = cur;
  }
  EXPECT_LT(prev, before);
  // Labeled vertices pull their neighborhoods: some nonzero structure.
  double maxabs = 0.0;
  for (double x : model) maxabs = std::max(maxabs, std::abs(x));
  EXPECT_GT(maxabs, 0.1);
}

TEST(QpTest, RowEpochsReduceObjective) {
  const Dataset d = SmallQp(47);
  QpSpec qp;
  std::vector<double> model(d.a.cols(), 0.0);
  const double before = qp.Loss(d, model.data());
  StepContext ctx{&d, nullptr, 0.05};
  for (int e = 0; e < 60; ++e) {
    for (Index i = 0; i < d.a.rows(); ++i) {
      qp.RowStep(ctx, i, model.data(), nullptr);
    }
  }
  EXPECT_LT(qp.Loss(d, model.data()), before);
}

TEST(QpTest, LossMatchesQuadraticForm) {
  // Loss must equal (0.5 x^T Q x - b^T x) / N.
  const Dataset d = SmallQp(53);
  QpSpec qp;
  Rng rng(54);
  std::vector<double> x(d.a.cols());
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  double quad = 0.0;
  for (Index i = 0; i < d.a.rows(); ++i) {
    quad += x[i] * (0.5 * d.a.Row(i).Dot(x.data()) - d.b[i]);
  }
  EXPECT_NEAR(qp.Loss(d, x.data()), quad / d.a.rows(), 1e-9);
}

// --- Predict (the serving entry point) -------------------------------------

// Predict must be consistent with the training losses: for every GLM the
// row loss is a fixed function of the predicted margin/estimate.

TEST(PredictTest, SvmPredictionIsTheMarginInsideRowLoss) {
  const Dataset d = TinyClassification(30, 6, 61);
  SvmSpec svm;
  Rng rng(62);
  std::vector<double> model(6);
  for (auto& m : model) m = rng.Gaussian(0.0, 0.7);
  for (Index i = 0; i < d.a.rows(); ++i) {
    const double decision = svm.Predict(model.data(), d.a.Row(i));
    const double margin = d.b[i] * decision;
    const double expected = margin < 1.0 ? 1.0 - margin : 0.0;
    EXPECT_NEAR(svm.RowLoss(d, i, model.data()), expected, 1e-12);
  }
}

TEST(PredictTest, LogisticPredictionIsTheProbabilityInsideRowLoss) {
  const Dataset d = TinyClassification(30, 6, 67);
  LogisticSpec lr;
  Rng rng(68);
  std::vector<double> model(6);
  for (auto& m : model) m = rng.Gaussian(0.0, 0.7);
  for (Index i = 0; i < d.a.rows(); ++i) {
    const double p = lr.Predict(model.data(), d.a.Row(i));
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
    // RowLoss = -log P(y_i | a_i): P(+1) = p, P(-1) = 1 - p.
    const double p_label = d.b[i] > 0 ? p : 1.0 - p;
    EXPECT_NEAR(lr.RowLoss(d, i, model.data()), -std::log(p_label), 1e-9);
  }
}

TEST(PredictTest, LeastSquaresPredictionIsTheResidualInsideRowLoss) {
  const Dataset d = TinyRegression(30, 5, 71);
  LeastSquaresSpec ls;
  Rng rng(72);
  std::vector<double> model(5);
  for (auto& m : model) m = rng.Gaussian(0.0, 0.5);
  for (Index i = 0; i < d.a.rows(); ++i) {
    const double estimate = ls.Predict(model.data(), d.a.Row(i));
    const double r = estimate - d.b[i];
    EXPECT_NEAR(ls.RowLoss(d, i, model.data()), 0.5 * r * r, 1e-12);
  }
}

TEST(PredictTest, TrainedLeastSquaresPredictsTargetsWithinNoiseMargin) {
  // End-to-end: a model trained to the noise floor must predict every
  // target within a margin consistent with its final training loss.
  const Dataset d = TinyRegression(80, 6, 73);
  LeastSquaresSpec ls;
  const CscMatrix csc = CscMatrix::FromCsr(d.a);
  std::vector<double> model(6, 0.0);
  std::vector<double> aux(ls.AuxDim(d));
  ls.RefreshAux(d, model.data(), aux.data());
  StepContext ctx{&d, &csc, 1.0};
  for (int e = 0; e < 80; ++e) {
    for (Index j = 0; j < 6; ++j) ls.ColStep(ctx, j, model.data(), aux.data());
  }
  const double loss = ls.Loss(d, model.data());
  EXPECT_LT(loss, 0.01);
  // Mean 0.5 r^2 = loss => RMS residual = sqrt(2 loss); allow 6 sigma.
  const double margin = 6.0 * std::sqrt(2.0 * loss);
  for (Index i = 0; i < d.a.rows(); ++i) {
    EXPECT_NEAR(ls.Predict(model.data(), d.a.Row(i)), d.b[i], margin);
  }
}

TEST(PredictTest, DefaultPredictIsLinearDecisionValue) {
  // The base-class default (used by specs without a link function) is the
  // plain dot product.
  Dataset d;
  auto m = matrix::CsrMatrix::FromTriplets(1, 3, {{0, 0, 2.0}, {0, 2, 3.0}});
  ASSERT_TRUE(m.ok());
  d.a = std::move(m).value();
  d.b = {0.0};
  SvmSpec svm;
  const double model[3] = {1.0, 5.0, -1.0};
  EXPECT_DOUBLE_EQ(svm.Predict(model, d.a.Row(0)), 2.0 - 3.0);
}

// --- concurrent column steps ----------------------------------------------

// Workers sharing one replica, each stepping its own shard of the columns
// (the PerMachine column-wise plan): with AuxLocks in the context no aux
// write is lost, so aux still equals A.x exactly when they are done. Every
// column touches every row, so the steps collide on aux all the time.
void ExpectConcurrentColStepsKeepAuxExact(const ModelSpec& spec,
                                          const Dataset& d, double step) {
  const CscMatrix csc = CscMatrix::FromCsr(d.a);
  const Index cols = d.a.cols();
  std::vector<double> model(cols, 0.0);
  std::vector<double> aux(spec.AuxDim(d));
  spec.RefreshAux(d, model.data(), aux.data());
  AuxLocks locks(aux.size());
  ASSERT_GT(locks.num_blocks(), 1u);

  constexpr int kWorkers = 4;
  std::vector<std::thread> pool;
  for (int w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&, w] {
      StepContext ctx{&d, &csc, step, &locks};
      for (int pass = 0; pass < 3; ++pass) {
        for (Index j = w; j < cols; j += kWorkers) {
          spec.ColStep(ctx, j, model.data(), aux.data());
        }
      }
    });
  }
  for (auto& t : pool) t.join();

  std::vector<double> exact(aux.size());
  spec.RefreshAux(d, model.data(), exact.data());
  for (size_t i = 0; i < aux.size(); ++i) {
    ASSERT_NEAR(aux[i], exact[i], 1e-9 * (1.0 + std::fabs(exact[i])))
        << spec.name() << " row " << i;
  }
}

TEST(ConcurrentColStepTest, LeastSquaresKeepsAuxExact) {
  LeastSquaresSpec ls;
  ExpectConcurrentColStepsKeepAuxExact(ls, TinyRegression(2000, 32, 41), 1.0);
}

TEST(ConcurrentColStepTest, SvmKeepsAuxExact) {
  SvmSpec svm;
  ExpectConcurrentColStepsKeepAuxExact(svm, TinyClassification(2000, 32, 43),
                                       0.1);
}

TEST(ConcurrentColStepTest, LogisticKeepsAuxExact) {
  LogisticSpec lr;
  ExpectConcurrentColStepsKeepAuxExact(lr, TinyClassification(2000, 32, 45),
                                       0.1);
}

// --- parallel sum ----------------------------------------------------------

TEST(ParallelSumTest, AccumulatesRowTotals) {
  Dataset d;
  auto m = matrix::CsrMatrix::FromTriplets(
      3, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 3.0}, {2, 1, 4.0}});
  ASSERT_TRUE(m.ok());
  d.a = std::move(m).value();
  d.b = {0, 0, 0};
  ParallelSumSpec sum;
  EXPECT_EQ(sum.ModelDim(d), 1u);
  double model[1] = {0.0};
  StepContext ctx{&d, nullptr, 1.0};
  for (Index i = 0; i < 3; ++i) sum.RowStep(ctx, i, model, nullptr);
  EXPECT_DOUBLE_EQ(model[0], 10.0);
  EXPECT_EQ(sum.RowWriteSparsity(), UpdateSparsity::kDense);
}

}  // namespace
}  // namespace dw::models
