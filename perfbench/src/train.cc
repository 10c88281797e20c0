// train-sgd and train-scd: repeated trainings through engine::Engine, each
// timed epoch by epoch until the loss reaches a target set from the
// benchmark's own optimum.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "checks.h"
#include "data/paper_datasets.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "matrix/csc_matrix.h"
#include "models/glm.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dw::data::Dataset;
using dw::engine::Engine;
using dw::engine::EngineOptions;
using dw::matrix::CsrMatrix;
using dw::matrix::Index;

/// Planted label noise of data::Rcv1.
constexpr double kLabelNoise = 0.05;
/// train-sgd target: this much above the benchmark's logistic optimum.
constexpr double kSgdTargetGap = 0.10;
constexpr int kSgdEpochBudget = 60;
constexpr Index kScdRows = 10000;
constexpr Index kScdCols = 256;
constexpr uint64_t kScdTableSeed = 20140901;

CsrMatrix RowSlice(const CsrMatrix& a, Index lo, Index hi) {
  const int64_t base = a.row_ptr()[lo];
  const int64_t end = a.row_ptr()[hi];
  std::vector<int64_t> ptr(hi - lo + 1);
  for (Index i = lo; i <= hi; ++i) ptr[i - lo] = a.row_ptr()[i] - base;
  std::vector<Index> idx(a.col_idx().begin() + base, a.col_idx().begin() + end);
  std::vector<double> val(a.values().begin() + base, a.values().begin() + end);
  auto m = CsrMatrix::FromCsrArrays(hi - lo, a.cols(), std::move(ptr),
                                    std::move(idx), std::move(val));
  return std::move(m).value();
}

/// Everything one training workload fixes before its timed loop.
struct TrainTask {
  const Dataset* data = nullptr;
  const dw::models::ModelSpec* spec = nullptr;
  EngineOptions opts;
  double target = 0.0;
  double optimum = -std::numeric_limits<double>::infinity();
  int epoch_budget = 0;
  /// The benchmark's own loss of a weight vector on `data`.
  std::function<double(const std::vector<double>&)> ref_loss;
};

struct Training {
  bool reached = false;
  int epochs = 0;  ///< epochs run (to target, or the whole budget)
  double s_to_target = 0.0;  ///< summed epoch wall time (censored if !reached)
  double setup_s = 0.0;
  double steal_s = 0.0;  ///< machine-wide VM steal during the training
  double cpu_s = 0.0;    ///< process CPU during the training
  double best_loss = std::numeric_limits<double>::infinity();
  std::vector<double> epoch_s, export_us;
  std::vector<double> weights;  ///< last Export()
  double modeled_epoch_s = 0.0;
  dw::numa::AccessCounters traffic;  ///< last epoch, logical (modeled)
};

Training RunOneTraining(const TrainTask& task, SpanLog* spans, Outcome* out) {
  Training t;
  // Each set-up starts cold, as a process's one set-up would: memory the
  // previous training freed is handed back to the OS first.
  malloc_trim(0);
  const ProcSample p0 = ProcSample::Now();
  const Clock::time_point s0 = Clock::now();
  Engine engine(task.data, task.spec, task.opts);
  dw::Status st;
  {
    ScopedSpan span(spans, "engine.init");
    st = engine.Init();
  }
  t.setup_s = Seconds(s0, Clock::now());
  if (!st.ok()) {
    out->Fail("Engine::Init: " + st.ToString());
    return t;
  }
  double last_loss = 0.0;
  for (int e = 0; e < task.epoch_budget; ++e) {
    const Clock::time_point e0 = Clock::now();
    dw::engine::EpochRecord rec;
    {
      ScopedSpan span(spans, "engine.epoch");
      rec = engine.RunEpochNoEval();
    }
    const double wall = Seconds(e0, Clock::now());
    t.epoch_s.push_back(wall);
    t.s_to_target += wall;
    t.modeled_epoch_s = rec.sim_sec;
    t.traffic = rec.traffic;
    const Clock::time_point x0 = Clock::now();
    dw::engine::ModelExport exported;
    {
      ScopedSpan span(spans, "engine.export");
      exported = engine.Export();
    }
    t.export_us.push_back(Seconds(x0, Clock::now()) * 1e6);
    {
      ScopedSpan span(spans, "engine.loss_eval");
      last_loss = engine.EvaluateLoss();
    }
    t.weights = std::move(exported.weights);
    t.best_loss = std::min(t.best_loss, last_loss);
    t.epochs = e + 1;
    if (last_loss <= task.target) {
      t.reached = true;
      break;
    }
  }
  const ProcSample used = Delta(p0, ProcSample::Now());
  t.steal_s = used.steal_s;
  t.cpu_s = used.cpu_s();
  const double recomputed = task.ref_loss(t.weights);
  switch (CheckTrainingLoss(last_loss, recomputed, task.optimum)) {
    case LossVerdict::kOk:
      break;
    case LossVerdict::kDisagrees:
      out->Fail("EvaluateLoss " + Num(last_loss) +
                " disagrees with the loss of Export() weights " +
                Num(recomputed));
      break;
    case LossVerdict::kBelowOptimum:
      out->Fail("loss " + Num(recomputed) + " below the optimum " +
                Num(task.optimum));
      break;
  }
  return t;
}

/// Process CPU an initialized, idle engine burns per wall second.
double IdleEngineCpu(const TrainTask& task) {
  Engine engine(task.data, task.spec, task.opts);
  if (!engine.Init().ok()) return 0.0;
  engine.RunEpochNoEval();
  const ProcSample a = ProcSample::Now();
  const Clock::time_point t0 = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double wall = Seconds(t0, Clock::now());
  return Delta(a, ProcSample::Now()).cpu_s() / wall;
}

/// Trainings until `seconds` pass (at least `min_trainings`).
std::vector<Training> TrainFor(const TrainTask& task, double seconds,
                               int min_trainings, SpanLog* spans,
                               Outcome* out) {
  std::vector<Training> runs;
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(runs.size()) < min_trainings ||
         Seconds(t0, Clock::now()) < seconds) {
    if (!runs.empty()) runs.back().weights = {};  // only the last is kept
    runs.push_back(RunOneTraining(task, spans, out));
    if (!out->correct) break;
  }
  return runs;
}

/// Share of trainings, quietest first by VM steal, that rates and times
/// are taken over (see serve.cc's kQuietShare).
constexpr double kQuietShare = 0.5;

std::vector<Training> QuietTrainings(const std::vector<Training>& runs) {
  std::vector<double> steal;
  for (const Training& t : runs) steal.push_back(t.steal_s);
  std::vector<Training> quiet;
  for (size_t i : Quietest(steal, kQuietShare)) quiet.push_back(runs[i]);
  return quiet;
}

std::vector<double> EpochSeconds(const std::vector<Training>& runs) {
  std::vector<double> all;
  for (const Training& t : runs) {
    all.insert(all.end(), t.epoch_s.begin(), t.epoch_s.end());
  }
  return all;
}

double MedianEpochRate(const std::vector<Training>& runs, Index rows) {
  return rows / Median(EpochSeconds(QuietTrainings(runs)));
}

/// The timed loop shared by both training workloads, plus the traced
/// per-layer run when cfg.trace is set. `rss` was started before the
/// workload's first Engine.
void RunTraining(const TrainTask& task, const RunConfig& cfg, RssWatch* rss,
                 Outcome* out) {
  const Index rows = task.data->a.rows();
  // Warm-up: one training, untimed (page-in, thread start paths).
  SpanLog off(false);
  RunOneTraining(task, &off, out);
  if (!out->correct) return;

  if (!cfg.trace) {
    const ProcSample p0 = ProcSample::Now();
    std::vector<Training> runs = TrainFor(task, cfg.seconds, 5, &off, out);
    out->timed = Delta(p0, ProcSample::Now());
    std::vector<double> setups, exports;
    uint64_t epochs = 0;
    for (const Training& t : runs) {
      ++out->attempted;
      if (!t.reached) ++out->failed;
      setups.push_back(t.setup_s);
      exports.insert(exports.end(), t.export_us.begin(), t.export_us.end());
      epochs += t.epochs;
    }
    const std::vector<Training> quiet = QuietTrainings(runs);
    // A training's own epochs are few (20-60), so its p99 is its one
    // slowest, most often preempted, epoch. The tail reported instead is
    // across trainings: the p99 of the trainings' median epochs.
    std::vector<double> to_target, cpu_per_row, epoch_median;
    for (const Training& t : quiet) {
      to_target.push_back(t.s_to_target);
      cpu_per_row.push_back(t.cpu_s * 1e6 /
                            (t.epochs * static_cast<double>(rows)));
      epoch_median.push_back(Median(t.epoch_s));
    }
    const std::vector<double> quiet_epochs = EpochSeconds(quiet);
    const double epoch_p50 = Median(quiet_epochs);
    auto& m = out->end_to_end;
    m["rows_per_s"] = {rows / epoch_p50, "rows/s"};
    m["cpu_us_per_row"] = {Median(cpu_per_row), "us"};
    m["train_s_to_target"] = {Median(to_target), "s"};
    m["latency_p50_us"] = {epoch_p50 * 1e6, "us"};
    m["latency_p99_us"] = {Quantile(epoch_median, 0.99) * 1e6, "us"};
    m["publish_p50_us"] = {Median(exports), "us"};
    m["setup_s"] = {Median(setups), "s"};
    m["peak_rss_mb"] = {rss->PeakAboveBaselineMb(), "MiB"};
    out->notes.push_back(
        std::to_string(out->attempted - out->failed) + "/" +
        std::to_string(out->attempted) + " trainings reached the target " +
        Num(task.target) + " (" + std::to_string(epochs) + " epochs; " +
        std::to_string(quiet.size()) +
        " quietest by VM steal taken for rates and times)");
    std::vector<double> missed_best;
    for (const Training& t : runs) {
      if (!t.reached) missed_best.push_back(t.best_loss);
    }
    if (!missed_best.empty()) {
      out->notes.push_back("best loss of the missed trainings: min " +
                           Num(Quantile(missed_best, 0)) + ", median " +
                           Num(Median(missed_best)) + ", max " +
                           Num(Quantile(missed_best, 1)));
    }
    return;
  }

  // Traced run: an untraced half for the overhead baseline, then a half
  // with spans around every public engine call.
  const double half = cfg.seconds / 2;
  std::vector<Training> plain = TrainFor(task, half, 3, &off, out);
  SpanLog spans(true);
  const ProcSample p0 = ProcSample::Now();
  const int cycles_fd = OpenCycleCounter();
  std::vector<Training> traced = TrainFor(task, half, 3, &spans, out);
  uint64_t cycles = 0;
  const bool have_cycles = ReadCycleCounter(cycles_fd, &cycles);
  out->timed = Delta(p0, ProcSample::Now());
  uint64_t epochs = 0;
  for (const Training& t : traced) {
    ++out->attempted;
    if (!t.reached) ++out->failed;
    epochs += t.epochs;
  }
  const double plain_rate = MedianEpochRate(plain, rows);
  const double traced_rate = MedianEpochRate(traced, rows);
  auto& l = out->per_layer;
  l["trace.overhead"] = {plain_rate / traced_rate, "ratio"};
  l["proc.user_s"] = {out->timed.user_s, "s"};
  l["proc.sys_s"] = {out->timed.sys_s, "s"};
  l["proc.nivcsw"] = {static_cast<double>(out->timed.nivcsw), "count"};
  std::vector<dw::matrix::SparseVectorView> views(rows);
  for (Index i = 0; i < rows; ++i) views[i] = task.data->a.Row(i);
  KernelProbe(*task.spec, views, traced.back().weights, 64, out);

  auto& r = out->report;
  r["engine.init_s"] = {Median(spans.Durations("engine.init")), "s"};
  r["engine.epoch_s"] = {Median(spans.Durations("engine.epoch")), "s"};
  r["engine.loss_eval_s"] = {Median(spans.Durations("engine.loss_eval")), "s"};
  r["engine.export_us"] = {Median(spans.Durations("engine.export")) * 1e6,
                           "us"};
  std::vector<double> to_target_epochs;
  for (const Training& t : traced) {
    if (t.reached) to_target_epochs.push_back(t.epochs);
  }
  if (!to_target_epochs.empty()) {
    r["engine.epochs_to_target"] = {Median(to_target_epochs), "count"};
  }
  r["engine.idle_cpu_s_per_s"] = {IdleEngineCpu(task), "s/s"};
  {
    const Clock::time_point c0 = Clock::now();
    const dw::matrix::CscMatrix csc =
        dw::matrix::CscMatrix::FromCsr(task.data->a);
    r["matrix.csc_build_s"] = {Seconds(c0, Clock::now()), "s"};
  }
  const Training& last = traced.back();
  r["engine.modeled_epoch_s"] = {last.modeled_epoch_s, "s", "modeled"};
  r["engine.logical_local_bytes"] = {
      static_cast<double>(last.traffic.local_read_bytes), "B", "modeled"};
  r["engine.logical_remote_bytes"] = {
      static_cast<double>(last.traffic.remote_read_bytes), "B", "modeled"};
  r["engine.logical_shared_write_bytes"] = {
      static_cast<double>(last.traffic.shared_write_bytes), "B", "modeled"};
  r["hw.cycles_per_row"] =
      have_cycles ? Figure{static_cast<double>(cycles) / (epochs * rows),
                           "cycles"}
                  : Figure{0.0, "cycles", "unavailable"};
  r["proc.steal_s"] = {out->timed.steal_s, "s"};
  if (!cfg.spans_path.empty() && !spans.Write(cfg.spans_path)) {
    out->notes.push_back("spans not written to " + cfg.spans_path);
  }
}

}  // namespace

Outcome RunTrainSgd(const RunConfig& cfg) {
  Outcome out;
  Dataset train;
  CsrMatrix held_a;
  std::vector<double> held_b;
  Index held = 0;
  {
    const Dataset full = dw::data::Rcv1(0.05, 101 + cfg.seed);
    const Index n = full.a.rows();
    held = n / 10;
    train.name = "RCV1-train";
    train.a = RowSlice(full.a, 0, n - held);
    train.b.assign(full.b.begin(), full.b.end() - held);
    held_a = RowSlice(full.a, n - held, n);
    held_b.assign(full.b.end() - held, full.b.end());
  }

  const Optimum opt = LogisticOptimum(train.a, train.b, 1e-7, 1000);
  const double opt_acc = Accuracy(held_a, held_b, opt.weights);
  out.notes.push_back("logistic optimum " + Num(opt.loss) + " after " +
                      std::to_string(opt.iterations) +
                      " L-BFGS iterations; held-out accuracy " +
                      Num(opt_acc));

  dw::models::LogisticSpec lr;
  TrainTask task;
  task.data = &train;
  task.spec = &lr;
  task.opts.topology = dw::numa::Local2();
  task.opts.workers_per_node = 2;
  task.opts.access = dw::engine::AccessMethod::kRowWise;
  task.opts.model_rep = dw::engine::ModelReplication::kPerNode;
  task.opts.seed = StreamSeed(cfg.seed, 1);
  task.target = opt.loss * (1.0 + kSgdTargetGap);
  task.epoch_budget = kSgdEpochBudget;
  task.ref_loss = [&train](const std::vector<double>& w) {
    return LogisticLoss(train.a, train.b, w);
  };
  {
    RssWatch rss;
    RunTraining(task, cfg, &rss, &out);
  }

  // Held-out accuracy of a fresh training to target.
  SpanLog off(false);
  const Training t = RunOneTraining(task, &off, &out);
  const double acc = Accuracy(held_a, held_b, t.weights);
  if (!HeldOutAccuracyPlausible(acc, opt_acc, kLabelNoise, held)) {
    out.Fail("held-out accuracy " + Num(acc) + " implausible against " +
             Num(opt_acc) + " at label noise " + Num(kLabelNoise));
  }
  out.notes.push_back("held-out accuracy " + Num(acc));
  return out;
}

Dataset ScdTable() {
  Dataset table;
  table.name = "dense-ls";
  table.a = dw::data::MakeDenseTable(
      {.rows = kScdRows, .cols = kScdCols, .seed = kScdTableSeed});
  table.b = dw::data::PlantRegressionTargets(table.a, 0.05, kScdTableSeed + 1);
  table.sparse = false;
  return table;
}

Outcome RunTrainScd(const RunConfig& cfg) {
  Outcome out;
  const Dataset table = ScdTable();
  const Optimum opt = LeastSquaresOptimum(table.a, table.b);

  dw::models::LeastSquaresSpec ls;
  TrainTask task;
  task.data = &table;
  task.spec = &ls;
  task.opts.topology = dw::numa::Local2();
  task.opts.workers_per_node = 2;
  task.opts.access = dw::engine::AccessMethod::kColWise;
  task.opts.model_rep = dw::engine::ModelReplication::kPerMachine;
  task.opts.seed = StreamSeed(cfg.seed, 2);
  task.target = opt.loss * (1.0 + kScdTargetGap);
  task.optimum = opt.loss;
  task.epoch_budget = kScdEpochBudget;
  task.ref_loss = [&table](const std::vector<double>& w) {
    return LeastSquaresLoss(table.a, table.b, w);
  };

  RssWatch rss;
  // Control: the same exact method on ONE worker must reach the target
  // within the budget, so a miss by the 4-worker plan is the program's.
  TrainTask control = task;
  control.opts.topology.num_nodes = 1;
  control.opts.workers_per_node = 1;
  SpanLog off(false);
  const Training c = RunOneTraining(control, &off, &out);
  if (!c.reached) {
    out.Fail("control (1 worker) missed the target " + Num(task.target) +
             " with best loss " + Num(c.best_loss));
  }
  out.notes.push_back("least-squares optimum " + Num(opt.loss) +
                      "; 1-worker control reached the target in " +
                      std::to_string(c.epochs) + " epochs");
  RunTraining(task, cfg, &rss, &out);
  if (out.failed > 0) {
    out.notes.push_back(
        "KNOWN FAULT: " + std::to_string(out.failed) + "/" +
        std::to_string(out.attempted) +
        " PerMachine trainings missed the target: LeastSquaresSpec::ColStep "
        "updates the shared aux = A.x without synchronization, so "
        "concurrent workers lose updates");
  }
  return out;
}

}  // namespace perfbench
