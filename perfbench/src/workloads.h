// The four perfbench workloads. Each generates its inputs from the seed,
// runs for `seconds` of timed work, checks every output against the
// benchmark's own computation and returns its figures.
#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/dataset.h"
#include "matrix/sparse_vector.h"
#include "models/model_spec.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty: nowhere.
  std::string spans_path;
};

/// train-scd's table is fixed, not drawn from the seed: the workload keeps
/// its failing trainings, whose share must not depend on the seed.
dw::data::Dataset ScdTable();
/// train-scd's target sits this far above the least-squares optimum, and
/// a training gets this many epochs to reach it.
inline constexpr double kScdTargetGap = 0.001;
inline constexpr int kScdEpochBudget = 20;

/// Traced-run probe of the scoring kernel alone: `PredictBatch` called
/// directly, one thread, on the workload's own rows and weights at
/// `batch` rows per call. Fills the kernels.* per-layer metrics.
void KernelProbe(const dw::models::ModelSpec& spec,
                 const std::vector<dw::matrix::SparseVectorView>& rows,
                 const std::vector<double>& w, size_t batch, Outcome* out);

Outcome RunTrainSgd(const RunConfig& cfg);
Outcome RunTrainScd(const RunConfig& cfg);
Outcome RunServeCarried(const RunConfig& cfg);
Outcome RunServeKeyedChurn(const RunConfig& cfg);

}  // namespace perfbench
