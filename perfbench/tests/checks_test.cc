// Tests of the benchmark's own checks: each must accept what a correct
// program produces and reject a corrupted output.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bench_util.h"
#include "checks.h"
#include "data/paper_datasets.h"
#include "engine/engine.h"
#include "kernels/dispatch.h"
#include "models/glm.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dw::kernels::KernelLevel;
using dw::matrix::Index;
using dw::matrix::SparseVectorView;

std::vector<double> Uniform(uint64_t seed, size_t n, double scale) {
  Prng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = scale * rng.Symmetric();
  return v;
}

/// What the program serves for one row: the batched kernel's score.
double ProgramScore(const std::vector<double>& w, const SparseVectorView& row) {
  dw::models::LogisticSpec lr;
  double out = 0.0;
  lr.PredictBatch(w.data(), static_cast<Index>(w.size()), &row, 1, &out);
  return out;
}

TEST(CarriedScoreCheck, AcceptsProgramScoresAtEveryKernelLevel) {
  const dw::data::Dataset corpus = dw::data::Rcv1(0.005, 7);
  const std::vector<double> w = Uniform(1, corpus.a.cols(), 0.2);
  for (KernelLevel level :
       {KernelLevel::kScalar, KernelLevel::kAvx2, KernelLevel::kAvx512}) {
    if (!dw::kernels::LevelSupported(level)) continue;
    dw::kernels::ScopedKernelLevelForTesting force(level);
    for (Index i = 0; i < corpus.a.rows(); ++i) {
      const SparseVectorView row = corpus.a.Row(i);
      ASSERT_TRUE(LogisticScoreMatches(ProgramScore(w, row),
                                       ReferenceMargin(row, w.data())))
          << "row " << i << " at level " << dw::kernels::ToString(level);
    }
  }
}

TEST(CarriedScoreCheck, RejectsPerturbedScore) {
  const dw::data::Dataset corpus = dw::data::Rcv1(0.005, 7);
  const std::vector<double> w = Uniform(2, corpus.a.cols(), 0.2);
  int checked = 0;
  for (Index i = 0; i < corpus.a.rows(); ++i) {
    const SparseVectorView row = corpus.a.Row(i);
    const RefMargin ref = ReferenceMargin(row, w.data());
    const double score = ProgramScore(w, row);
    EXPECT_FALSE(LogisticScoreMatches(score + 1e-11, ref)) << "row " << i;
    EXPECT_FALSE(LogisticScoreMatches(score - 1e-11, ref)) << "row " << i;
    EXPECT_FALSE(LogisticScoreMatches(std::nan(""), ref));
    // The score of a neighbouring row is not this row's score.
    const Index other = (i + 1) % corpus.a.rows();
    if (ReferenceMargin(corpus.a.Row(other), w.data()).margin != ref.margin) {
      EXPECT_FALSE(
          LogisticScoreMatches(ProgramScore(w, corpus.a.Row(other)), ref));
    }
    ++checked;
  }
  EXPECT_GT(checked, 100);
}

TEST(KeyedScoreCheck, RejectsTornRow) {
  constexpr size_t kDim = 4096;
  const std::vector<double> w = Uniform(3, kDim, 3.0 / 64);
  for (uint64_t trial = 0; trial < 20; ++trial) {
    const std::vector<double> a = Uniform(100 + trial, kDim, 1.0);
    const std::vector<double> b = Uniform(200 + trial, kDim, 1.0);
    std::vector<double> torn(a.begin(), a.begin() + kDim / 2);
    torn.insert(torn.end(), b.begin() + kDim / 2, b.end());
    const RefMargin ref_a = ReferenceMargin(a.data(), w.data(), kDim);
    const RefMargin ref_b = ReferenceMargin(b.data(), w.data(), kDim);
    auto dense = [](const std::vector<double>& row) {
      return SparseVectorView{nullptr, row.data(), row.size()};
    };
    EXPECT_TRUE(LogisticScoreMatches(ProgramScore(w, dense(a)), ref_a));
    EXPECT_TRUE(LogisticScoreMatches(ProgramScore(w, dense(b)), ref_b));
    const double torn_score = ProgramScore(w, dense(torn));
    EXPECT_FALSE(LogisticScoreMatches(torn_score, ref_a) ||
                 LogisticScoreMatches(torn_score, ref_b))
        << "trial " << trial;
  }
}

TEST(TrainingLossCheck, RejectsLossBelowClosedFormOptimum) {
  const dw::data::Dataset table = ScdTable();
  const Optimum opt = LeastSquaresOptimum(table.a, table.b);
  EXPECT_EQ(CheckTrainingLoss(opt.loss, opt.loss, opt.loss), LossVerdict::kOk);
  const double below = opt.loss * (1 - 1e-6);
  EXPECT_EQ(CheckTrainingLoss(below, below, opt.loss),
            LossVerdict::kBelowOptimum);
  EXPECT_EQ(CheckTrainingLoss(opt.loss * 1.5, opt.loss * 1.5 * (1 + 1e-6),
                              opt.loss),
            LossVerdict::kDisagrees);
}

TEST(LeastSquaresOptimum, SolvesTheNormalEquations) {
  const dw::data::Dataset table = ScdTable();
  const Optimum opt = LeastSquaresOptimum(table.a, table.b);
  // A'(Ax - b) vanishes at the optimum.
  std::vector<double> grad(table.a.cols(), 0.0);
  for (Index i = 0; i < table.a.rows(); ++i) {
    const SparseVectorView row = table.a.Row(i);
    const double r = row.Dot(opt.weights.data()) - table.b[i];
    row.Axpy(r, grad.data());
  }
  for (double g : grad) EXPECT_NEAR(g / table.a.rows(), 0.0, 1e-12);
  // Moving any coordinate raises the loss.
  for (size_t j = 0; j < opt.weights.size(); j += 7) {
    std::vector<double> w = opt.weights;
    w[j] += 1e-3;
    EXPECT_GT(LeastSquaresLoss(table.a, table.b, w), opt.loss);
  }
}

TEST(LogisticOptimum, IsAStationaryMinimum) {
  const dw::data::Dataset d = dw::data::Rcv1(0.005, 11);
  const Optimum opt = LogisticOptimum(d.a, d.b, 1e-9, 2000);
  for (size_t j = 0; j < opt.weights.size(); j += 37) {
    for (double step : {1e-3, -1e-3}) {
      std::vector<double> w = opt.weights;
      w[j] += step;
      EXPECT_GE(LogisticLoss(d.a, d.b, w), opt.loss);
    }
  }
  EXPECT_LT(opt.loss, LogisticLoss(d.a, d.b, std::vector<double>(d.a.cols())));
}

TEST(HeldOutAccuracyCheck, RejectsAccuracyAboveTheNoiseCeiling) {
  EXPECT_TRUE(HeldOutAccuracyPlausible(0.83, 0.833, 0.05, 3900));
  EXPECT_FALSE(HeldOutAccuracyPlausible(0.99, 0.99, 0.05, 3900));
  EXPECT_TRUE(HeldOutAccuracyPlausible(0.80, 0.833, 0.05, 3900));
  EXPECT_FALSE(HeldOutAccuracyPlausible(0.76, 0.833, 0.05, 3900));
}

/// The train-scd target must be reachable within its epoch budget by a
/// correct exact method, so the workload's misses are the program's fault.
double BestLossWithinBudget(dw::engine::EngineOptions opts) {
  const dw::data::Dataset table = ScdTable();
  dw::models::LeastSquaresSpec ls;
  dw::engine::Engine engine(&table, &ls, opts);
  EXPECT_TRUE(engine.Init().ok());
  double best = INFINITY;
  for (int e = 0; e < kScdEpochBudget; ++e) {
    engine.RunEpochNoEval();
    best = std::min(best, engine.EvaluateLoss());
  }
  return best;
}

TEST(ScdTarget, ReachableByOneWorkerExactCoordinateDescent) {
  const dw::data::Dataset table = ScdTable();
  const double target =
      LeastSquaresOptimum(table.a, table.b).loss * (1 + kScdTargetGap);
  dw::engine::EngineOptions opts;
  opts.topology.num_nodes = 1;
  opts.workers_per_node = 1;
  opts.access = dw::engine::AccessMethod::kColWise;
  opts.model_rep = dw::engine::ModelReplication::kPerMachine;
  EXPECT_LE(BestLossWithinBudget(opts), target);
}

TEST(ScdTarget, ReachableByTheColumnToRowPlan) {
  const dw::data::Dataset table = ScdTable();
  const double target =
      LeastSquaresOptimum(table.a, table.b).loss * (1 + kScdTargetGap);
  dw::engine::EngineOptions opts;
  opts.workers_per_node = 2;
  opts.access = dw::engine::AccessMethod::kColToRow;
  opts.model_rep = dw::engine::ModelReplication::kPerMachine;
  EXPECT_LE(BestLossWithinBudget(opts), target);
}

}  // namespace
}  // namespace perfbench
