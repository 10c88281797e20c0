#include "engine/engine.h"

#include <algorithm>
#include <cmath>

#include "data/leverage.h"
#include "util/logging.h"
#include "util/thread_util.h"
#include "util/timer.h"

namespace dw::engine {

using matrix::Index;

// A model replica: one contiguous node-local buffer holding the model
// vector followed by the auxiliary state (paper Sec. 3.3 locality groups).
struct Engine::Replica {
  numa::NodeArray<double> storage;
  Index model_dim = 0;
  /// Set when several workers run column steps on this replica's aux.
  std::unique_ptr<models::AuxLocks> aux_locks;

  double* model() { return storage.data(); }
  double* aux() { return storage.data() + model_dim; }
  const double* model() const { return storage.data(); }
};

Engine::Engine(const data::Dataset* dataset, const models::ModelSpec* spec,
               EngineOptions options)
    : dataset_(dataset),
      spec_(spec),
      options_(std::move(options)),
      memory_model_(options_.topology),
      last_sim_(options_.topology.num_nodes) {
  DW_CHECK(dataset_ != nullptr);
  DW_CHECK(spec_ != nullptr);
}

Engine::~Engine() {
  if (!workers_.empty()) {
    quit_.store(true);
    start_barrier_->Wait();  // release workers into the quit check
    for (auto& t : workers_) t.join();
  }
  if (averager_.joinable()) {
    averager_quit_.store(true);
    averager_.join();
  }
}

Status Engine::Init() {
  if (initialized_) return Status::FailedPrecondition("Init called twice");

  // Column access needs the CSC index (and the loss scan uses CSR).
  if (options_.access != AccessMethod::kRowWise) {
    csc_ = std::make_unique<matrix::CscMatrix>(
        matrix::CscMatrix::FromCsr(dataset_->a));
  }

  auto plan_or = BuildPlan(*dataset_, *spec_, options_, csc_.get());
  if (!plan_or.ok()) return plan_or.status();
  plan_ = std::move(plan_or).value();

  allocator_ = std::make_unique<numa::NumaAllocator>(options_.topology);

  // Register the plan's *logical* data placement (paper Appendix A:
  // data/worker collocation). Physical copies are unnecessary on a
  // single-domain host; the ledger and the traffic counters carry the
  // placement decision instead.
  const size_t data_bytes = static_cast<size_t>(dataset_->SparseBytes());
  const int nodes = options_.topology.num_nodes;
  if (!options_.collocate_data) {
    allocator_->NoteLogicalBytes(0, data_bytes);
  } else if (options_.data_rep == DataReplication::kFullReplication) {
    for (int n = 0; n < nodes; ++n) {
      allocator_->NoteLogicalBytes(n, data_bytes);
    }
  } else {
    for (int n = 0; n < nodes; ++n) {
      allocator_->NoteLogicalBytes(n, data_bytes / nodes);
    }
  }

  // Replicas. The auxiliary state (SCD margins/residuals) only exists for
  // f_col plans; f_row never reads it and f_ctr recomputes everything from
  // the rows, so neither allocates nor refreshes it.
  model_dim_ = spec_->ModelDim(*dataset_);
  aux_dim_ = options_.access == AccessMethod::kColWise
                 ? spec_->AuxDim(*dataset_)
                 : 0;
  // A replica whose aux several workers patch gets row-block locks (see
  // models::AuxLocks); a sole writer keeps the plain, unlocked path.
  std::vector<int> writers(plan_.num_replicas, 0);
  for (const WorkerPlan& wp : plan_.workers) ++writers[wp.replica_index];
  replicas_.clear();
  for (int r = 0; r < plan_.num_replicas; ++r) {
    auto rep = std::make_unique<Replica>();
    rep->model_dim = model_dim_;
    rep->storage = allocator_->AllocateOnNode<double>(
        plan_.replica_node[r], model_dim_ + aux_dim_);
    spec_->Project(rep->model(), model_dim_);
    if (aux_dim_ > 0) {
      spec_->RefreshAux(*dataset_, rep->model(), rep->aux());
      if (writers[r] > 1) {
        rep->aux_locks = std::make_unique<models::AuxLocks>(aux_dim_);
      }
    }
    replicas_.push_back(std::move(rep));
  }
  consensus_.assign(model_dim_, 0.0);

  // Importance sampling: leverage-score CDF (paper Sec. C.4).
  if (options_.data_rep == DataReplication::kImportance) {
    auto scores = data::LeverageScores(dataset_->a);
    if (!scores.ok()) return scores.status();
    importance_cdf_.resize(scores.value().size());
    double acc = 0.0;
    for (size_t i = 0; i < scores.value().size(); ++i) {
      acc += scores.value()[i];
      importance_cdf_[i] = acc;
    }
    if (acc <= 0.0) {
      return Status::Internal("degenerate leverage scores");
    }
  }

  // Worker pool.
  const int nw = plan_.num_workers;
  worker_rngs_.clear();
  uint64_t sm = options_.seed ^ 0xd1b54a32d192ed03ULL;
  for (int w = 0; w < nw; ++w) worker_rngs_.emplace_back(SplitMix64(sm));
  worker_counters_.assign(nw, numa::AccessCounters{});
  start_barrier_ = std::make_unique<SpinBarrier>(nw + 1);
  end_barrier_ = std::make_unique<SpinBarrier>(nw + 1);
  current_step_.store(options_.step_size);
  workers_.reserve(nw);
  for (int w = 0; w < nw; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }

  // Async model averager (paper Sec. 3.3): DimmWitted's PerNode novelty.
  // PerCore deliberately stays a classical shared-nothing architecture
  // (Bismarck/Spark style, averaged only at epoch boundaries) -- that
  // difference IS the statistical-efficiency gap of Fig. 8(a). Specs with
  // auxiliary state cannot be averaged mid-epoch (the aux would go
  // stale), which is the mechanism behind the SCD => PerMachine rule.
  const bool async_ok =
      options_.model_rep == ModelReplication::kPerNode &&
      plan_.num_replicas > 1 && options_.sync_interval_us > 0 &&
      aux_dim_ == 0;
  if (async_ok) {
    averager_ = std::thread([this] { AveragerLoop(); });
  }

  // Seed the export buffer so Export() is valid (and thread-safe) from
  // the moment Init() returns, before any epoch has run.
  RefreshExportBuffer(replicas_[0]->model(), 0);

  initialized_ = true;
  return Status::OK();
}

void Engine::WorkerLoop(int worker_id) {
  SetCurrentThreadName("dw-worker-" + std::to_string(worker_id));
  WorkerPlan& wp = plan_.workers[worker_id];
  if (options_.pin_threads) {
    const int cpu =
        options_.topology.PhysicalCpuOfCore(wp.core, NumOnlineCpus());
    (void)PinCurrentThreadToCpu(cpu);
  }
  Rng& rng = worker_rngs_[worker_id];

  for (;;) {
    start_barrier_->Wait();
    if (quit_.load(std::memory_order_acquire)) break;
    if (evaluating_loss_) {
      loss_partials_[worker_id] =
          PartialLoss(worker_id, static_cast<int>(loss_partials_.size()));
      end_barrier_->Wait();
      continue;
    }

    // Random traversal order each epoch (paper Sec. 2.1: "typically some
    // randomness in the ordering is desired").
    rng.Shuffle(wp.work);

    Replica& rep = *replicas_[wp.replica_index];
    models::StepContext ctx;
    ctx.dataset = dataset_;
    ctx.csc = csc_.get();
    ctx.step_size = current_step_.load(std::memory_order_relaxed);
    ctx.aux_locks = rep.aux_locks.get();

    double* model = rep.model();
    double* aux = aux_dim_ > 0 ? rep.aux() : nullptr;

    switch (options_.access) {
      case AccessMethod::kRowWise:
        for (Index i : wp.work) spec_->RowStep(ctx, i, model, aux);
        break;
      case AccessMethod::kColWise:
        for (Index j : wp.work) spec_->ColStep(ctx, j, model, aux);
        break;
      case AccessMethod::kColToRow:
        for (Index j : wp.work) spec_->CtrStep(ctx, j, model, aux);
        break;
    }

    // Analytic traffic accounting (the PMU substitute; see
    // numa/access_counters.h).
    numa::AccessCounters& c = worker_counters_[worker_id];
    c.Reset();
    if (wp.data_is_local) {
      c.local_read_bytes = wp.data_bytes_per_epoch;
    } else {
      c.remote_read_bytes = wp.data_bytes_per_epoch;
    }
    const bool replica_local =
        plan_.replica_node[wp.replica_index] == wp.node;
    if (replica_local) {
      c.model_read_bytes = wp.model_read_bytes_per_epoch;
    } else {
      c.remote_read_bytes += wp.model_read_bytes_per_epoch;
    }
    if (plan_.sharing_sockets > 1) {
      c.shared_write_bytes = wp.model_write_bytes_per_epoch;
    } else {
      c.local_write_bytes = wp.model_write_bytes_per_epoch;
    }
    c.flops = wp.flops_per_epoch;
    c.updates = wp.updates_per_epoch;

    end_barrier_->Wait();
  }
}

void Engine::ResampleImportanceWork() {
  // Each worker draws m = 2 eps^-2 d log d rows (capped at N) by leverage
  // score, then recomputes its traffic coefficients.
  const size_t m_total = std::min<size_t>(
      data::ImportanceSampleCount(options_.importance_epsilon, model_dim_),
      dataset_->a.rows());
  const size_t m_per_worker =
      std::max<size_t>(1, m_total / static_cast<size_t>(plan_.num_workers));
  const double total = importance_cdf_.back();
  const bool dense_write =
      spec_->RowWriteSparsity() == models::UpdateSparsity::kDense;

  for (WorkerPlan& wp : plan_.workers) {
    Rng& rng = worker_rngs_[wp.worker_id];
    wp.work.clear();
    wp.work.reserve(m_per_worker);
    wp.data_bytes_per_epoch = 0;
    wp.model_read_bytes_per_epoch = 0;
    wp.model_write_bytes_per_epoch = 0;
    wp.flops_per_epoch = 0;
    for (size_t s = 0; s < m_per_worker; ++s) {
      const double u = rng.Uniform() * total;
      const auto it = std::lower_bound(importance_cdf_.begin(),
                                       importance_cdf_.end(), u);
      const Index i =
          static_cast<Index>(it - importance_cdf_.begin());
      wp.work.push_back(i);
      const uint64_t nnz = dataset_->a.RowNnz(i);
      wp.data_bytes_per_epoch += nnz * (sizeof(double) + sizeof(Index));
      wp.model_read_bytes_per_epoch += nnz * sizeof(double);
      wp.model_write_bytes_per_epoch =
          wp.model_write_bytes_per_epoch +
          (dense_write ? uint64_t{model_dim_} * sizeof(double)
                       : nnz * sizeof(double));
      wp.flops_per_epoch += 4 * nnz;
    }
    wp.updates_per_epoch = wp.work.size();
  }
}

void Engine::AverageReplicasOnce() {
  const int nr = plan_.num_replicas;
  if (nr <= 1) return;
  const double inv = 1.0 / static_cast<double>(nr);
  for (Index k = 0; k < model_dim_; ++k) {
    double acc = 0.0;
    for (int r = 0; r < nr; ++r) acc += replicas_[r]->model()[k];
    consensus_[k] = acc * inv;
  }
  for (int r = 0; r < nr; ++r) {
    double* m = replicas_[r]->model();
    for (Index k = 0; k < model_dim_; ++k) m[k] = consensus_[k];
  }
  averaging_rounds_.fetch_add(1, std::memory_order_relaxed);
  // The freshly-averaged consensus is exactly what a serving export
  // should carry; refreshing here (also from the async averager thread)
  // is what makes mid-epoch Export() lag by at most one averaging round.
  RefreshExportBuffer(consensus_.data(), /*epochs=*/-1);
}

void Engine::RefreshExportBuffer(const double* weights, int epochs) {
  std::lock_guard<std::mutex> lk(export_mu_);
  export_weights_.assign(weights, weights + model_dim_);
  if (epochs >= 0) export_epochs_ = epochs;
  export_refreshed_at_ = std::chrono::steady_clock::now();
}

void Engine::AveragerLoop() {
  SetCurrentThreadName("dw-averager");
  const auto period = std::chrono::microseconds(
      std::max(1, options_.sync_interval_us));
  while (!averager_quit_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(period);
    if (epoch_active_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lk(averaging_mu_);
      AverageReplicasOnce();
    }
  }
}

void Engine::EpochBoundarySync() {
  // Wait out (and exclude) any in-flight async averaging round: from here
  // to the export-buffer refresh below, the replicas must not be half
  // rewritten by the averager, or serving would be handed torn weights.
  // Bounded wait: one O(replicas x dim) averaging pass at most.
  std::lock_guard<std::mutex> boundary_lock(averaging_mu_);
  if (plan_.num_replicas > 1) {
    AverageReplicasOnce();
  }
  for (auto& rep : replicas_) {
    spec_->Project(rep->model(), model_dim_);
    if (aux_dim_ > 0 && plan_.num_replicas > 1) {
      // Averaged model invalidates the maintained margins/residuals; the
      // rebuild is a full data pass per replica -- the real cost that
      // makes fine-grained sharing unattractive for SCD.
      spec_->RefreshAux(*dataset_, rep->model(), rep->aux());
    }
  }
  // Workers are parked at the barrier here, so replica 0 is quiescent and
  // holds the projected consensus: the canonical post-epoch export. The
  // boundary runs before ++epoch_counter_, hence the +1.
  RefreshExportBuffer(replicas_[0]->model(), epoch_counter_ + 1);
}

numa::SimulationInput Engine::BuildSimInput() const {
  numa::SimulationInput in(options_.topology.num_nodes);
  for (const WorkerPlan& wp : plan_.workers) {
    in.traffic.Add(wp.node, worker_counters_[wp.worker_id]);
    ++in.active_workers[wp.node];
  }
  in.model_sharing_sockets = plan_.sharing_sockets;
  in.model_bytes =
      plan_.replica_bytes * static_cast<uint64_t>(plan_.replicas_per_node);
  if (aux_dim_ > 0 && plan_.num_replicas > 1) {
    // Aux refresh traffic at the epoch boundary.
    const uint64_t scan = static_cast<uint64_t>(dataset_->a.ScanBytes());
    for (int r = 0; r < plan_.num_replicas; ++r) {
      numa::AccessCounters extra;
      extra.local_read_bytes = scan;
      extra.local_write_bytes = aux_dim_ * sizeof(double);
      in.traffic.Add(plan_.replica_node[r], extra);
    }
  }
  return in;
}

EpochRecord Engine::RunEpochNoEval() {
  DW_CHECK(initialized_) << "call Init() first";
  current_step_.store(options_.step_size *
                      std::pow(options_.step_decay, epoch_counter_));
  if (options_.data_rep == DataReplication::kImportance) {
    ResampleImportanceWork();
  }

  EpochRecord rec;
  rec.epoch = epoch_counter_;

  epoch_active_.store(true, std::memory_order_release);
  WallTimer timer;
  start_barrier_->Wait();  // release workers
  end_barrier_->Wait();    // wait for them
  epoch_active_.store(false, std::memory_order_release);
  EpochBoundarySync();
  rec.wall_sec = timer.Seconds();

  last_sim_ = BuildSimInput();
  rec.sim_sec = memory_model_.SimulateEpoch(last_sim_).total_sec;
  rec.traffic = last_sim_.traffic.Total();

  ++epoch_counter_;
  return rec;
}

RunResult Engine::Run(const RunConfig& config) {
  RunResult result;
  double wall_acc = 0.0;
  for (int e = 0; e < config.max_epochs; ++e) {
    EpochRecord rec = RunEpochNoEval();
    wall_acc += rec.wall_sec;
    if ((e % std::max(1, config.eval_every)) == 0 ||
        e == config.max_epochs - 1) {
      WallTimer eval_timer;
      rec.loss = EvaluateLoss();
      rec.loss_eval_sec = eval_timer.Seconds();
    }
    result.epochs.push_back(rec);
    if (rec.loss <= config.stop_loss) break;
    if (wall_acc > config.wall_timeout_sec) break;
  }
  return result;
}

std::vector<double> Engine::ConsensusModel() {
  std::vector<double> out(model_dim_, 0.0);
  const double inv = 1.0 / static_cast<double>(plan_.num_replicas);
  for (int r = 0; r < plan_.num_replicas; ++r) {
    const double* m = replicas_[r]->model();
    for (Index k = 0; k < model_dim_; ++k) out[k] += m[k] * inv;
  }
  return out;
}

ModelExport Engine::Export() {
  DW_CHECK(initialized_) << "call Init() first";
  ModelExport out;
  out.spec_name = spec_->name();
  std::lock_guard<std::mutex> lk(export_mu_);
  out.epochs_trained = export_epochs_;
  out.weights = export_weights_;
  out.exported_at = export_refreshed_at_;
  return out;
}

double Engine::PartialLoss(int slice, int num_slices) const {
  // Replicas are synchronized at epoch boundaries; replica 0 holds the
  // consensus. Slice s is the s-th of num_slices contiguous row ranges.
  const double* model = replicas_[0]->model();
  const uint64_t n = dataset_->a.rows();
  const Index lo = static_cast<Index>(n * slice / num_slices);
  const Index hi = static_cast<Index>(n * (slice + 1) / num_slices);
  double acc = 0.0;
  for (Index i = lo; i < hi; ++i) acc += spec_->RowLoss(*dataset_, i, model);
  return acc;
}

double Engine::EvaluateLoss() {
  DW_CHECK(initialized_) << "call Init() first";
  // The workers, idle between epochs, scan one row slice each: threads
  // spawned beside them would compete with them spinning at the barrier.
  // An engine with fewer workers than the CPUs a parallel scan would use
  // gets helper threads for the remaining slices.
  const int num_workers = plan_.num_workers;
  const int slices = std::max(num_workers, std::clamp(NumOnlineCpus(), 1, 8));
  loss_partials_.assign(slices, 0.0);
  std::vector<std::thread> helpers;
  for (int s = num_workers; s < slices; ++s) {
    helpers.emplace_back(
        [this, s, slices] { loss_partials_[s] = PartialLoss(s, slices); });
  }
  evaluating_loss_ = true;
  start_barrier_->Wait();
  for (std::thread& t : helpers) t.join();
  end_barrier_->Wait();
  evaluating_loss_ = false;
  double sum = 0.0;
  for (double p : loss_partials_) sum += p;
  const double* model = replicas_[0]->model();
  return sum / std::max<double>(1.0, dataset_->a.rows()) +
         spec_->GlobalLossTerm(*dataset_, model);
}

double ReferenceOptimalLoss(const data::Dataset& dataset,
                            const models::ModelSpec& spec,
                            AccessMethod access, int epochs,
                            double step_size) {
  EngineOptions opts;
  opts.topology = numa::Topology{};
  opts.topology.name = "reference";
  opts.topology.num_nodes = 1;
  opts.topology.cores_per_node = 1;
  opts.access = access;
  opts.model_rep = ModelReplication::kPerMachine;
  opts.data_rep = DataReplication::kSharding;
  opts.step_size = step_size;
  opts.step_decay = 0.95;
  opts.sync_interval_us = 0;
  opts.pin_threads = false;
  Engine engine(&dataset, &spec, opts);
  const Status st = engine.Init();
  DW_CHECK(st.ok()) << st.ToString();
  RunConfig cfg;
  cfg.max_epochs = epochs;
  const RunResult rr = engine.Run(cfg);
  return rr.BestLoss();
}

}  // namespace dw::engine
