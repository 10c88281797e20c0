// The DimmWitted engine (paper Sec. 3): given a model specification and a
// dataset, executes epochs under a chosen point of the
// (access method x model replication x data replication) tradeoff space,
// measuring statistical efficiency (loss per epoch) for real and hardware
// efficiency both for real (host wall clock) and through the topology's
// calibrated memory model.
//
// Threading: one persistent worker thread per virtual core (pinned to a
// physical CPU through the topology map), one optional asynchronous
// model-averaging thread (paper Sec. 3.3: "a separate thread averages
// models, batching many writes together across the cores into one write").
// Model updates are lock-free by design; concurrent writes to shared
// replicas are the Hogwild!-style benign races the paper studies. The one
// exception is the column-wise auxiliary vector (a maintained invariant,
// not a model): workers sharing it patch it under row-block locks.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "engine/metrics.h"
#include "engine/options.h"
#include "engine/plan.h"
#include "matrix/csc_matrix.h"
#include "models/model_spec.h"
#include "numa/memory_model.h"
#include "numa/numa_allocator.h"
#include "util/barrier.h"
#include "util/rng.h"
#include "util/status.h"

namespace dw::engine {

/// Stop conditions for Engine::Run.
struct RunConfig {
  int max_epochs = 50;
  /// Stop as soon as the epoch loss is <= stop_loss (-inf to disable).
  double stop_loss = -std::numeric_limits<double>::infinity();
  /// Stop when cumulative *wall* seconds exceed this (paper timeout rows).
  double wall_timeout_sec = std::numeric_limits<double>::infinity();
  /// Evaluate loss every `eval_every` epochs (1 = every epoch).
  int eval_every = 1;
};

/// An immutable export of the trained model, ready to hand to the serving
/// layer (src/serve): consensus weights plus provenance.
struct ModelExport {
  std::string spec_name;
  int epochs_trained = 0;
  std::vector<double> weights;
  /// When the weights left the trainer (the export buffer's refresh
  /// time). The serving layer diffs against this for staleness.
  std::chrono::steady_clock::time_point exported_at{};
};

/// The engine. Construct, Init(), then Run() or RunEpoch().
class Engine {
 public:
  /// `dataset` and `spec` must outlive the engine.
  Engine(const data::Dataset* dataset, const models::ModelSpec* spec,
         EngineOptions options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Builds the plan, allocates replicas, starts worker threads.
  Status Init();

  /// Runs one epoch (work + averaging); does not evaluate loss.
  EpochRecord RunEpochNoEval();

  /// Runs epochs per `config`, evaluating loss and recording the curve.
  RunResult Run(const RunConfig& config);

  /// The consensus model (average of replicas; the replicas themselves
  /// are written back so this is also the next epoch's starting point).
  std::vector<double> ConsensusModel();

  /// Snapshots the consensus model for serving (serve::ModelRegistry
  /// republishes it without copying again). Valid after Init(), and
  /// THREAD-SAFE: callable from a background exporter (the
  /// serve::SnapshotExporter pipeline) while epochs run. The weights come
  /// from a mutex-guarded export buffer refreshed at every asynchronous
  /// averaging round and epoch boundary, so a mid-epoch export lags the
  /// live replicas by at most one averaging interval and never reads
  /// them directly (epochs do not block, and the racy replica reads stay
  /// inside the training loop where they belong).
  ModelExport Export();

  /// Loss of the consensus model over the full dataset, scanned in
  /// parallel by the engine's own (otherwise idle) workers, one row slice
  /// each, plus helper threads when the workers are fewer than the CPUs
  /// (at most 8) a parallel scan would use. It releases the workers as an
  /// epoch does, so call it between epochs, from the thread that runs them.
  double EvaluateLoss();

  /// Plan introspection (valid after Init).
  const Plan& plan() const { return plan_; }
  const EngineOptions& options() const { return options_; }

  /// Logical placement ledger (valid after Init): where data and replica
  /// bytes live, for tests and the placement ablation.
  const numa::NodeLedger& ledger() const { return allocator_->ledger(); }

  /// Simulation input of the most recent epoch (for PMU-style reports).
  const numa::SimulationInput& last_epoch_sim() const { return last_sim_; }

 private:
  struct Replica;

  void WorkerLoop(int worker_id);
  double PartialLoss(int slice, int num_slices) const;  // one row slice
  void RunWorkPhase();                    // one epoch's work on all workers
  void EpochBoundarySync();               // average + project + aux refresh
  void AveragerLoop();                    // async averaging thread body
  void AverageReplicasOnce();             // one averaging round (model part)
  /// Copies `weights` (model_dim_ doubles) into the export buffer.
  /// `epochs` < 0 keeps the current trained-epochs figure (mid-epoch
  /// averaging rounds refresh weights, not epoch provenance).
  void RefreshExportBuffer(const double* weights, int epochs);
  void ResampleImportanceWork();          // kImportance: new per-epoch work
  numa::SimulationInput BuildSimInput() const;

  const data::Dataset* dataset_;
  const models::ModelSpec* spec_;
  EngineOptions options_;
  Plan plan_;

  std::unique_ptr<matrix::CscMatrix> csc_;       // built if needed
  std::unique_ptr<numa::NumaAllocator> allocator_;
  numa::MemoryModel memory_model_;

  matrix::Index model_dim_ = 0;
  size_t aux_dim_ = 0;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<double> importance_cdf_;           // kImportance only
  std::vector<double> consensus_;                // scratch for averaging

  // Worker pool.
  std::vector<std::thread> workers_;
  std::unique_ptr<SpinBarrier> start_barrier_;   // workers + main
  std::unique_ptr<SpinBarrier> end_barrier_;     // workers + main
  std::atomic<bool> quit_{false};
  std::atomic<double> current_step_{0.1};
  std::vector<Rng> worker_rngs_;
  std::vector<numa::AccessCounters> worker_counters_;
  // Set by EvaluateLoss before it releases the workers: the round scans
  // the loss into loss_partials_ instead of running an epoch.
  bool evaluating_loss_ = false;
  std::vector<double> loss_partials_;

  // Async averager.
  std::thread averager_;
  /// Serializes averaging rounds against the epoch boundary: the
  /// boundary's consensus copy into the export buffer must never read a
  /// replica the averager is halfway through rewriting (workers' Hogwild
  /// races stay -- this guards only averager-vs-boundary).
  std::mutex averaging_mu_;
  std::atomic<bool> averager_quit_{false};
  std::atomic<bool> epoch_active_{false};
  std::atomic<uint64_t> averaging_rounds_{0};

  // Export buffer: the thread-safe hand-off point between training and
  // the serving exporter (see Export()).
  mutable std::mutex export_mu_;
  std::vector<double> export_weights_;
  int export_epochs_ = 0;
  std::chrono::steady_clock::time_point export_refreshed_at_{};

  numa::SimulationInput last_sim_{1};
  int epoch_counter_ = 0;
  bool initialized_ = false;
};

/// Convenience: runs a single-threaded, single-replica reference
/// configuration for `epochs` epochs and returns the best loss seen.
/// Benches use this to estimate the "optimal loss" of Sec. 4.1.
double ReferenceOptimalLoss(const data::Dataset& dataset,
                            const models::ModelSpec& spec,
                            AccessMethod access, int epochs,
                            double step_size = 0.1);

}  // namespace dw::engine
