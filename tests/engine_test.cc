// Tests for the DimmWitted engine: plan construction across the whole
// tradeoff space, convergence under every (access x model-rep x data-rep)
// combination, placement accounting, traffic counters, and the async
// averager.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "data/paper_datasets.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "models/glm.h"
#include "models/graph_opt.h"

namespace dw::engine {
namespace {

using data::Dataset;
using matrix::Index;

Dataset SmallDense(uint64_t seed = 3) {
  Dataset d;
  d.name = "dense";
  d.a = data::MakeDenseTable({.rows = 400, .cols = 16, .seed = seed});
  d.b = data::PlantClassificationLabels(d.a, 16, 0.02, seed + 1);
  return d;
}

Dataset SmallSparse(uint64_t seed = 5) {
  Dataset d;
  d.name = "sparse";
  d.a = data::MakeSparseCorpus(
      {.rows = 600, .cols = 200, .avg_nnz_per_row = 10.0, .seed = seed});
  d.b = data::PlantClassificationLabels(d.a, 40, 0.02, seed + 1);
  return d;
}

EngineOptions SmallTopoOptions() {
  EngineOptions opts;
  opts.topology = numa::Local2();
  opts.topology.cores_per_node = 2;  // 2 nodes x 2 workers: fast tests
  opts.step_size = 0.05;
  opts.seed = 9;
  return opts;
}

TEST(PlanTest, ReplicaGeometryPerStrategy) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();

  opts.model_rep = ModelReplication::kPerCore;
  auto plan = BuildPlan(d, svm, opts, nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().num_replicas, 4);
  EXPECT_EQ(plan.value().sharing_sockets, 1);
  EXPECT_EQ(plan.value().replicas_per_node, 2);

  opts.model_rep = ModelReplication::kPerNode;
  plan = BuildPlan(d, svm, opts, nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().num_replicas, 2);
  EXPECT_EQ(plan.value().replica_node[0], 0);
  EXPECT_EQ(plan.value().replica_node[1], 1);

  opts.model_rep = ModelReplication::kPerMachine;
  plan = BuildPlan(d, svm, opts, nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().num_replicas, 1);
  EXPECT_EQ(plan.value().sharing_sockets, 2);
}

TEST(PlanTest, ShardingPartitionsWithoutOverlap) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  opts.data_rep = DataReplication::kSharding;
  auto plan = BuildPlan(d, svm, opts, nullptr);
  ASSERT_TRUE(plan.ok());
  std::vector<int> seen(d.a.rows(), 0);
  for (const auto& w : plan.value().workers) {
    for (Index i : w.work) ++seen[i];
  }
  for (Index i = 0; i < d.a.rows(); ++i) EXPECT_EQ(seen[i], 1);
}

TEST(PlanTest, FullReplicationCoversDomainPerNode) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  opts.data_rep = DataReplication::kFullReplication;
  auto plan = BuildPlan(d, svm, opts, nullptr);
  ASSERT_TRUE(plan.ok());
  // Each node's workers together cover every row exactly once.
  for (int node = 0; node < 2; ++node) {
    std::vector<int> seen(d.a.rows(), 0);
    for (const auto& w : plan.value().workers) {
      if (w.node != node) continue;
      for (Index i : w.work) ++seen[i];
    }
    for (Index i = 0; i < d.a.rows(); ++i) EXPECT_EQ(seen[i], 1);
  }
}

TEST(PlanTest, RejectsUnsupportedAccessMethod) {
  const Dataset d = SmallDense();
  models::LpSpec lp;  // LP has f_ctr, not f_col
  EngineOptions opts = SmallTopoOptions();
  opts.access = AccessMethod::kColWise;
  const matrix::CscMatrix csc = matrix::CscMatrix::FromCsr(d.a);
  EXPECT_FALSE(BuildPlan(d, lp, opts, &csc).ok());
  opts.access = AccessMethod::kColToRow;
  EXPECT_TRUE(BuildPlan(d, lp, opts, &csc).ok());
  // Column access without a CSC index is a precondition failure.
  EXPECT_FALSE(BuildPlan(d, lp, opts, nullptr).ok());
}

TEST(PlanTest, RejectsImportanceWithColumnAccess) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  opts.access = AccessMethod::kColWise;
  opts.data_rep = DataReplication::kImportance;
  const matrix::CscMatrix csc = matrix::CscMatrix::FromCsr(d.a);
  EXPECT_FALSE(BuildPlan(d, svm, opts, &csc).ok());
}

TEST(PlanTest, TrafficCoefficientsMatchDatasetTotals) {
  const Dataset d = SmallSparse();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  auto plan = BuildPlan(d, svm, opts, nullptr);
  ASSERT_TRUE(plan.ok());
  uint64_t data_bytes = 0;
  for (const auto& w : plan.value().workers) data_bytes += w.data_bytes_per_epoch;
  // Sharding: one full scan per epoch = nnz * (8 value + 4 index) bytes.
  EXPECT_EQ(data_bytes, static_cast<uint64_t>(d.a.nnz()) * 12u);
}

TEST(EngineTest, SvmConvergesRowWisePerNode) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  opts.access = AccessMethod::kRowWise;
  opts.model_rep = ModelReplication::kPerNode;
  Engine engine(&d, &svm, opts);
  ASSERT_TRUE(engine.Init().ok());
  RunConfig cfg;
  cfg.max_epochs = 40;
  const RunResult rr = engine.Run(cfg);
  ASSERT_EQ(rr.epochs.size(), 40u);
  EXPECT_LT(rr.BestLoss(), 0.25);
  EXPECT_LT(rr.epochs.back().loss, rr.epochs.front().loss);
}

// Property sweep: every combination of the tradeoff space converges on a
// well-conditioned problem.
using Combo = std::tuple<ModelReplication, DataReplication>;

class TradeoffSweep : public ::testing::TestWithParam<Combo> {};

TEST_P(TradeoffSweep, SvmRowWiseConverges) {
  const auto [mrep, drep] = GetParam();
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  opts.access = AccessMethod::kRowWise;
  opts.model_rep = mrep;
  opts.data_rep = drep;
  Engine engine(&d, &svm, opts);
  ASSERT_TRUE(engine.Init().ok());
  RunConfig cfg;
  cfg.max_epochs = 30;
  const RunResult rr = engine.Run(cfg);
  EXPECT_LT(rr.BestLoss(), 0.4)
      << ToString(mrep) << "/" << ToString(drep);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, TradeoffSweep,
    ::testing::Combine(::testing::Values(ModelReplication::kPerCore,
                                         ModelReplication::kPerNode,
                                         ModelReplication::kPerMachine),
                       ::testing::Values(DataReplication::kSharding,
                                         DataReplication::kFullReplication,
                                         DataReplication::kImportance)));

TEST(EngineTest, ColumnWiseLeastSquaresConverges) {
  Dataset d;
  d.a = data::MakeDenseTable({.rows = 300, .cols = 24, .seed = 21});
  d.b = data::PlantRegressionTargets(d.a, 0.05, 22);
  models::LeastSquaresSpec ls;
  EngineOptions opts = SmallTopoOptions();
  opts.access = AccessMethod::kColWise;
  opts.model_rep = ModelReplication::kPerMachine;  // SCD rule of thumb
  Engine engine(&d, &ls, opts);
  ASSERT_TRUE(engine.Init().ok());
  RunConfig cfg;
  cfg.max_epochs = 25;
  const RunResult rr = engine.Run(cfg);
  EXPECT_LT(rr.BestLoss(), 0.05);
}

TEST(EngineTest, ColumnToRowLpConverges) {
  const Dataset d = data::AmazonLp(0.0005, 31);
  models::LpSpec lp;
  EngineOptions opts = SmallTopoOptions();
  opts.access = AccessMethod::kColToRow;
  opts.model_rep = ModelReplication::kPerMachine;
  Engine engine(&d, &lp, opts);
  ASSERT_TRUE(engine.Init().ok());
  RunConfig cfg;
  cfg.max_epochs = 15;
  const RunResult rr = engine.Run(cfg);
  EXPECT_LT(rr.epochs.back().loss, rr.epochs.front().loss);
}

TEST(EngineTest, PerMachineProducesSharedWriteTraffic) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  opts.model_rep = ModelReplication::kPerMachine;
  Engine engine(&d, &svm, opts);
  ASSERT_TRUE(engine.Init().ok());
  (void)engine.RunEpochNoEval();
  const auto total = engine.last_epoch_sim().traffic.Total();
  EXPECT_GT(total.shared_write_bytes, 0u);
  EXPECT_EQ(total.local_write_bytes, 0u);
}

TEST(EngineTest, PerNodeKeepsWritesLocalAndCutsRemoteReads) {
  // The PMU story of Sec. 4.2: Hogwild! (PerMachine) incurs many more
  // cross-node DRAM requests than PerNode.
  const Dataset d = SmallDense();
  models::SvmSpec svm;

  EngineOptions opts = SmallTopoOptions();
  opts.model_rep = ModelReplication::kPerNode;
  Engine per_node(&d, &svm, opts);
  ASSERT_TRUE(per_node.Init().ok());
  (void)per_node.RunEpochNoEval();
  const auto node_traffic = per_node.last_epoch_sim().traffic.Total();

  opts.model_rep = ModelReplication::kPerMachine;
  Engine per_machine(&d, &svm, opts);
  ASSERT_TRUE(per_machine.Init().ok());
  (void)per_machine.RunEpochNoEval();
  const auto mach_traffic = per_machine.last_epoch_sim().traffic.Total();

  EXPECT_EQ(node_traffic.shared_write_bytes, 0u);
  EXPECT_GT(mach_traffic.remote_dram_requests(),
            node_traffic.remote_dram_requests());
}

TEST(EngineTest, SimulatedTimeRanksPerNodeFasterThanPerMachine) {
  // Fig. 8(b): on the virtual local2, an SGD epoch under PerNode must be
  // simulated as faster than under PerMachine. Needs enough traffic for
  // the bandwidth terms to dominate the fixed per-epoch overhead.
  Dataset d;
  d.a = data::MakeSparseCorpus(
      {.rows = 5000, .cols = 500, .avg_nnz_per_row = 30.0, .seed = 8});
  d.b = data::PlantClassificationLabels(d.a, 60, 0.02, 9);
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  opts.topology = numa::Local2();  // full 12-core topology for the model

  opts.model_rep = ModelReplication::kPerNode;
  Engine per_node(&d, &svm, opts);
  ASSERT_TRUE(per_node.Init().ok());
  const double t_node = per_node.RunEpochNoEval().sim_sec;

  opts.model_rep = ModelReplication::kPerMachine;
  Engine per_machine(&d, &svm, opts);
  ASSERT_TRUE(per_machine.Init().ok());
  const double t_machine = per_machine.RunEpochNoEval().sim_sec;

  EXPECT_GT(t_machine, t_node);
}

TEST(EngineTest, LedgerReflectsPlacementDecisions) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;

  // Collocated full replication: every node holds a data copy.
  EngineOptions opts = SmallTopoOptions();
  opts.data_rep = DataReplication::kFullReplication;
  Engine coll(&d, &svm, opts);
  ASSERT_TRUE(coll.Init().ok());
  EXPECT_GT(coll.ledger().BytesOnNode(0), 0u);
  EXPECT_GT(coll.ledger().BytesOnNode(1), 0u);
  EXPECT_NEAR(static_cast<double>(coll.ledger().BytesOnNode(1)) /
                  coll.ledger().BytesOnNode(0),
              1.0, 0.1);

  // OS placement: all data lands on node 0.
  opts.collocate_data = false;
  opts.data_rep = DataReplication::kSharding;
  Engine os(&d, &svm, opts);
  ASSERT_TRUE(os.Init().ok());
  EXPECT_GT(os.ledger().BytesOnNode(0), os.ledger().BytesOnNode(1) * 5);
}

TEST(EngineTest, OsPlacementCausesRemoteReads) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  opts.collocate_data = false;
  Engine engine(&d, &svm, opts);
  ASSERT_TRUE(engine.Init().ok());
  (void)engine.RunEpochNoEval();
  const auto& per_node = engine.last_epoch_sim().traffic.per_node;
  EXPECT_GT(per_node[1].remote_read_bytes, 0u);   // node 1 pulls from node 0
  EXPECT_EQ(per_node[0].remote_read_bytes, 0u);
}

TEST(EngineTest, ConsensusModelAveragesReplicas) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  opts.model_rep = ModelReplication::kPerNode;
  opts.sync_interval_us = 0;  // boundary-only averaging
  Engine engine(&d, &svm, opts);
  ASSERT_TRUE(engine.Init().ok());
  (void)engine.RunEpochNoEval();
  // After the boundary sync all replicas agree, so consensus == replica.
  const auto consensus = engine.ConsensusModel();
  ASSERT_EQ(consensus.size(), 16u);
  double norm = 0.0;
  for (double v : consensus) norm += v * v;
  EXPECT_GT(norm, 0.0);  // training moved the model
}

TEST(EngineTest, EvaluateLossMatchesSequentialLossOfConsensus) {
  const Dataset d = SmallSparse();
  models::LogisticSpec lr;
  for (int workers : {1, 2}) {
    EngineOptions opts = SmallTopoOptions();
    opts.workers_per_node = workers;
    Engine engine(&d, &lr, opts);
    ASSERT_TRUE(engine.Init().ok());
    for (int e = 0; e < 3; ++e) {
      (void)engine.RunEpochNoEval();
      const std::vector<double> consensus = engine.ConsensusModel();
      EXPECT_NEAR(engine.EvaluateLoss(), lr.Loss(d, consensus.data()), 1e-12)
          << workers << " workers per node, epoch " << e;
    }
  }
}

TEST(EngineTest, StopLossEndsRunEarly) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  Engine engine(&d, &svm, opts);
  ASSERT_TRUE(engine.Init().ok());
  RunConfig cfg;
  cfg.max_epochs = 100;
  cfg.stop_loss = 1e9;  // satisfied immediately
  const RunResult rr = engine.Run(cfg);
  EXPECT_EQ(rr.epochs.size(), 1u);
}

TEST(EngineTest, ImportanceSamplingRunsAndConverges) {
  Dataset d;
  d.a = data::MakeDenseTable({.rows = 500, .cols = 12, .seed = 41});
  d.b = data::PlantRegressionTargets(d.a, 0.05, 42);
  models::LeastSquaresSpec ls;
  EngineOptions opts = SmallTopoOptions();
  opts.data_rep = DataReplication::kImportance;
  opts.importance_epsilon = 0.3;
  opts.step_size = 0.02;
  Engine engine(&d, &ls, opts);
  ASSERT_TRUE(engine.Init().ok());
  RunConfig cfg;
  cfg.max_epochs = 20;
  const RunResult rr = engine.Run(cfg);
  EXPECT_LT(rr.epochs.back().loss, rr.epochs.front().loss);
  // Sampled work exists and is bounded by the rule of Sec. C.4.
  for (const auto& w : engine.plan().workers) {
    EXPECT_GT(w.work.size(), 0u);
    EXPECT_LE(w.work.size(), d.a.rows());
  }
}

TEST(EngineTest, RunRecordsMonotoneCumulativeTimes) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  Engine engine(&d, &svm, opts);
  ASSERT_TRUE(engine.Init().ok());
  RunConfig cfg;
  cfg.max_epochs = 5;
  const RunResult rr = engine.Run(cfg);
  EXPECT_GT(rr.TotalWallSec(), 0.0);
  EXPECT_GT(rr.TotalSimSec(), 0.0);
  for (const auto& e : rr.epochs) {
    EXPECT_GE(e.wall_sec, 0.0);
    EXPECT_GT(e.sim_sec, 0.0);
  }
}

TEST(EngineTest, TargetLossHelpers) {
  EXPECT_NEAR(RunResult::TargetLoss(2.0, 0.5), 3.0, 1e-9);
  EXPECT_NEAR(RunResult::TargetLoss(-2.0, 0.5), -1.0, 1e-9);
  RunResult rr;
  rr.epochs.push_back(
      {.epoch = 0, .loss = 5.0, .wall_sec = 1.0, .sim_sec = 2.0,
       .loss_eval_sec = 0.0, .traffic = {}});
  rr.epochs.push_back(
      {.epoch = 1, .loss = 2.0, .wall_sec = 1.0, .sim_sec = 2.0,
       .loss_eval_sec = 0.0, .traffic = {}});
  EXPECT_EQ(rr.EpochsToLoss(2.5), 2);
  EXPECT_EQ(rr.EpochsToLoss(0.5), -1);
  EXPECT_NEAR(rr.WallSecToLoss(2.5), 2.0, 1e-9);
  EXPECT_NEAR(rr.SimSecToLoss(2.5), 4.0, 1e-9);
  EXPECT_TRUE(std::isinf(rr.WallSecToLoss(0.0)));
}

TEST(EngineTest, ReferenceOptimalLossIsLow) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  const double opt =
      ReferenceOptimalLoss(d, svm, AccessMethod::kRowWise, 60, 0.05);
  // SmallDense has 2% flipped labels, so the hinge optimum is not 0; the
  // reference run must still get well under the zero-model loss of 1.0.
  EXPECT_LT(opt, 0.3);
}

TEST(EngineTest, AsyncAveragerRunsForPerNode) {
  const Dataset d = SmallDense();
  models::SvmSpec svm;
  EngineOptions opts = SmallTopoOptions();
  opts.model_rep = ModelReplication::kPerNode;
  opts.sync_interval_us = 50;
  Engine engine(&d, &svm, opts);
  ASSERT_TRUE(engine.Init().ok());
  RunConfig cfg;
  cfg.max_epochs = 10;
  const RunResult rr = engine.Run(cfg);
  EXPECT_LT(rr.BestLoss(), 0.4);
}

}  // namespace
}  // namespace dw::engine
