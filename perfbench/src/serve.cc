// serve-carried and serve-keyed-churn: one closed-loop generator thread
// keeps a fixed window of requests in flight through serve::ServingEngine;
// every resolved score is checked against the benchmark's own margin of
// some version that was current between submit and resolution.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "checks.h"
#include "data/synthetic.h"
#include "models/glm.h"
#include "serve/serving_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dw::matrix::Index;
using dw::matrix::SparseVectorView;

constexpr int kScoringWorkers = 2;
constexpr size_t kInFlight = 128;
/// serve-keyed-churn shape and churn: 12288 rows of 4096 doubles, a
/// 384 MiB store, larger than the host's last-level cache.
constexpr Index kStoreKeys = 12288;
constexpr Index kStoreDim = 4096;
constexpr Index kDeltaKeys = kStoreKeys / 100;  // 1% of keys per publish
constexpr uint64_t kKeyedPublishEvery = 65536;
/// Rows per delta of the initial load: a multiple of the store's 64-row
/// pages, so each load delta fills fresh pages and clones none.
constexpr Index kLoadChunk = 512;
const char* const kFamily = "lr";

dw::serve::ServingOptions ServingOpts() {
  dw::serve::ServingOptions o;
  o.num_threads = kScoringWorkers;
  o.batch.max_batch_size = 64;
  o.batch.max_delay = std::chrono::microseconds(200);
  return o;
}

dw::serve::ServingFamilyOptions FamilyOpts(Index dim) {
  dw::serve::ServingFamilyOptions f;
  f.traffic.dim = dim;
  f.replication_override = dw::serve::Replication::kPerNode;
  return f;
}

/// Uniform weights scaled so a row with `row_sq` = sum of squared
/// features has a margin of unit standard deviation: the link then stays
/// off its flat tails, where a wrong margin could still pass the check.
std::vector<double> RandomWeights(uint64_t seed, size_t dim, double row_sq) {
  Prng rng(seed);
  std::vector<double> w(dim);
  const double scale = std::sqrt(3.0 / row_sq);
  for (double& x : w) x = scale * rng.Symmetric();
  return w;
}

/// Per-request hooks of one closed loop.
struct LoopHooks {
  std::function<dw::StatusOr<std::future<double>>(uint64_t)> submit;
  /// Checks a resolved score given the version window [lo, hi].
  std::function<bool(uint64_t, uint32_t, uint32_t, double)> check;
  /// Versions of the served inputs whose publish has completed / started
  /// (a workload without publishes keeps version 0).
  std::function<uint32_t()> completed_version = [] { return 0u; };
  std::function<uint32_t()> started_version = [] { return 0u; };
  /// Called after each resolution with the running resolved count.
  std::function<void(uint64_t)> on_resolved = [](uint64_t) {};
  /// Requests per measurement window: rates, percentiles, CPU and steal
  /// are per window. Short windows (tens of ms) let a VM steal burst
  /// spoil a few windows instead of all of them.
  uint64_t window = 2048;
};

/// Per-window figures of one loop; window k covers the requests resolved
/// k-th in the timed phase, `LoopHooks::window` at a time.
struct LoopResult {
  std::vector<double> window_rates, window_p50_us, window_p99_us;
  std::vector<double> window_steal_s;  ///< machine-wide VM steal per window
  std::vector<double> window_cpu_s;    ///< process CPU per window
  uint64_t resolved = 0, failed = 0, mismatches = 0, retries = 0;
};

/// Runs whole windows until `seconds` pass (at least `min_windows`), then
/// drains the in-flight requests (checked, not timed).
LoopResult RunClosedLoop(const LoopHooks& h, uint64_t* next_request,
                         double seconds, size_t min_windows, SpanLog* spans) {
  struct Inflight {
    std::future<double> fut;
    Clock::time_point t0;
    uint64_t item;
    uint32_t v_lo;
  };
  LoopResult r;
  std::deque<Inflight> q;
  std::vector<double> window_lat;
  window_lat.reserve(h.window);
  const Clock::time_point start = Clock::now();
  Clock::time_point window_start = start;
  ProcSample window_proc = ProcSample::Now();
  bool submitting = true;
  auto submit_one = [&] {
    const uint64_t item = (*next_request)++;
    // Latency runs from the first call: time spent refused by admission
    // and retried counts.
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      const uint32_t v_lo = h.completed_version();
      dw::StatusOr<std::future<double>> f = [&] {
        ScopedSpan span(spans, "serve.submit");
        return h.submit(item);
      }();
      if (f.ok()) {
        q.push_back({std::move(f).value(), t0, item, v_lo});
        return;
      }
      if (f.status().code() != dw::Status::Code::kResourceExhausted) {
        ++r.failed;
        return;
      }
      ++r.retries;
      std::this_thread::yield();
    }
  };
  while (submitting || !q.empty()) {
    if (submitting && q.size() < kInFlight) {
      submit_one();
      continue;
    }
    Inflight req = std::move(q.front());
    q.pop_front();
    double score = 0.0;
    bool ok = true;
    try {
      ScopedSpan span(spans, "serve.wait");
      score = req.fut.get();
    } catch (const std::exception&) {
      ok = false;
    }
    const Clock::time_point t1 = Clock::now();
    if (!ok) {
      ++r.failed;
      continue;
    }
    if (!h.check(req.item, req.v_lo, h.started_version(), score)) {
      ++r.mismatches;
    }
    ++r.resolved;
    h.on_resolved(r.resolved);
    if (!submitting) continue;  // draining: checked, not timed
    window_lat.push_back(Seconds(req.t0, t1) * 1e6);
    if (window_lat.size() == h.window) {
      r.window_rates.push_back(h.window / Seconds(window_start, t1));
      r.window_p50_us.push_back(Quantile(window_lat, 0.5));
      r.window_p99_us.push_back(Quantile(window_lat, 0.99));
      window_lat.clear();
      const ProcSample now = ProcSample::Now();
      const ProcSample used = Delta(window_proc, now);
      r.window_steal_s.push_back(used.steal_s);
      r.window_cpu_s.push_back(used.cpu_s());
      window_proc = now;
      window_start = t1;
      if (r.window_rates.size() >= min_windows &&
          Seconds(start, t1) >= seconds) {
        submitting = false;
      }
    }
  }
  return r;
}

/// Share of windows, quietest first by VM steal, that rates and latency
/// percentiles are taken over: on a shared VM the hypervisor's steal, not
/// the program, sets the slowest windows' figures.
constexpr double kQuietShare = 0.25;

/// Folds one timed loop into the end-to-end figures.
void ReportLoop(const LoopResult& r, uint64_t window,
                const std::vector<double>& publish_us,
                const std::vector<double>& setup_s, double peak_rss_mb,
                Outcome* out) {
  const std::vector<size_t> quiet = Quietest(r.window_steal_s, kQuietShare);
  const std::vector<double> rates = Pick(r.window_rates, quiet);
  auto& m = out->end_to_end;
  m["rows_per_s"] = {Median(rates), "rows/s"};
  m["cpu_us_per_row"] = {Median(Pick(r.window_cpu_s, quiet)) * 1e6 / window,
                         "us"};
  m["train_s_to_target"] = {window / Median(rates), "s"};
  m["latency_p50_us"] = {Median(Pick(r.window_p50_us, quiet)), "us"};
  m["latency_p99_us"] = {Median(Pick(r.window_p99_us, quiet)), "us"};
  m["publish_p50_us"] = {Median(publish_us), "us"};
  m["setup_s"] = {Median(setup_s), "s"};
  m["peak_rss_mb"] = {peak_rss_mb, "MiB"};
  out->notes.push_back(std::to_string(quiet.size()) + " of " +
                       std::to_string(r.window_rates.size()) + " windows of " +
                       std::to_string(window) +
                       " requests taken as the quietest by VM steal");
}

void Account(const LoopResult& r, Outcome* out) {
  out->attempted += r.resolved + r.failed;
  out->failed += r.failed;
  if (r.mismatches > 0) {
    out->Fail(std::to_string(r.mismatches) +
              " scores matched no version of their row and model");
  }
}

/// Program-reported stage breakdown and the kernel probe, for the trace.
void ReportServingLayers(const dw::serve::ServingEngine& server,
                         const dw::models::ModelSpec& spec,
                         const std::vector<SparseVectorView>& rows,
                         const std::vector<double>& w, Outcome* out) {
  const dw::serve::ServingStats stats = server.Stats();
  const dw::serve::FamilyServingStats& f = stats.families.at(0);
  for (int s = 0; s < dw::obs::kNumStages; ++s) {
    out->report[std::string("serve.stage.") + dw::obs::StageName(s) + "_us"] =
        {f.mean_stage_us[s], "us"};
  }
  out->report["serve.mean_batch_rows"] = {f.mean_batch_rows, "rows"};
  out->report["serve.flush_size"] = {static_cast<double>(f.flush_size),
                                     "count"};
  out->report["serve.flush_deadline"] = {
      static_cast<double>(f.flush_deadline), "count"};

  KernelProbe(spec, rows, w,
              std::max<size_t>(
                  1, static_cast<size_t>(std::lround(f.mean_batch_rows))),
              out);
}

void ReportTraceCommon(const RunConfig& cfg, const LoopResult& plain,
                       const LoopResult& traced, const SpanLog& spans,
                       int cycles_fd, Outcome* out) {
  auto& l = out->per_layer;
  auto quiet_rate = [](const LoopResult& r) {
    return Median(Pick(r.window_rates, Quietest(r.window_steal_s, kQuietShare)));
  };
  l["trace.overhead"] = {quiet_rate(plain) / quiet_rate(traced), "ratio"};
  l["proc.user_s"] = {out->timed.user_s, "s"};
  l["proc.sys_s"] = {out->timed.sys_s, "s"};
  l["proc.nivcsw"] = {static_cast<double>(out->timed.nivcsw), "count"};
  auto& r = out->report;
  r["serve.submit_us"] = {spans.TotalSeconds("serve.submit") * 1e6 /
                              std::max<uint64_t>(1, spans.Count("serve.submit")),
                          "us"};
  r["serve.wait_us"] = {spans.TotalSeconds("serve.wait") * 1e6 /
                            std::max<uint64_t>(1, spans.Count("serve.wait")),
                        "us"};
  r["serve.retries"] = {static_cast<double>(traced.retries), "count"};
  r["proc.steal_s"] = {out->timed.steal_s, "s"};
  uint64_t cycles = 0;
  r["hw.cycles_per_row"] =
      ReadCycleCounter(cycles_fd, &cycles)
          ? Figure{static_cast<double>(cycles) / traced.resolved, "cycles"}
          : Figure{0.0, "cycles", "unavailable"};
  if (!cfg.spans_path.empty() && !spans.Write(cfg.spans_path)) {
    out->notes.push_back("spans not written to " + cfg.spans_path);
  }
}

}  // namespace

void KernelProbe(const dw::models::ModelSpec& spec,
                 const std::vector<SparseVectorView>& rows,
                 const std::vector<double>& w, size_t batch, Outcome* out) {
  std::vector<double> scores(batch);
  uint64_t done = 0, nnz = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.3) {
    for (size_t lo = 0; lo + batch <= rows.size(); lo += batch) {
      spec.PredictBatch(w.data(), static_cast<Index>(w.size()), &rows[lo],
                        batch, scores.data());
      done += batch;
    }
    elapsed = Seconds(t0, Clock::now());
  }
  for (const SparseVectorView& v : rows) nnz += v.nnz;
  const double nnz_per_row = static_cast<double>(nnz) / rows.size();
  auto& l = out->per_layer;
  l["kernels.rows_per_s"] = {done / elapsed, "rows/s"};
  l["kernels.model_bytes_per_row"] = {
      static_cast<double>(spec.PredictBatchModelBytes(
          static_cast<Index>(w.size()),
          static_cast<uint64_t>(nnz_per_row * batch), batch)) /
          batch,
      "B"};
  const bool dense = rows.front().IsDense();
  l["kernels.feature_bytes_per_row"] = {
      nnz_per_row * (sizeof(double) + (dense ? 0 : sizeof(Index))), "B"};
}

// ------------------------------------------------------------ carried ----

/// Times back-to-back refresh Publish calls of the same weights on the
/// idle server. The first few after start fault in fresh pages (~10x
/// slower) until the allocator settles; only the warm calls are kept.
std::vector<double> WarmRefreshes(dw::serve::ServingEngine* server,
                                  const std::vector<double>& w) {
  constexpr int kCold = 16, kWarm = 32;
  std::vector<double> us;
  for (int k = 0; k < kCold + kWarm; ++k) {
    const Clock::time_point t0 = Clock::now();
    server->Publish(kFamily, w);
    if (k >= kCold) us.push_back(Seconds(t0, Clock::now()) * 1e6);
  }
  return us;
}

Outcome RunServeCarried(const RunConfig& cfg) {
  Outcome out;
  // RCV1's shape: Rcv1(0.05)'s row count, the full corpus's 47k-word
  // vocabulary (so the model is RCV1-sized, 376 KB), ~77 nnz per row.
  dw::data::SparseCorpusParams cp;
  cp.rows = 39050;
  cp.cols = 47000;
  cp.avg_nnz_per_row = 77;
  cp.zipf_s = 1.05;
  cp.seed = 201 + cfg.seed;
  const dw::matrix::CsrMatrix a = dw::data::MakeSparseCorpus(cp);
  dw::models::LogisticSpec lr;

  // Request stream: row ids drawn from the seed.
  Prng pick(StreamSeed(cfg.seed, 3));
  std::vector<Index> stream(1 << 16);
  for (Index& r : stream) r = static_cast<Index>(pick.Below(a.rows()));
  const double row_sq = [&] {
    double s = 0.0;
    for (double v : a.values()) s += v * v;
    return s / a.rows();
  }();
  const std::vector<double> w =
      RandomWeights(StreamSeed(cfg.seed, 4), a.cols(), row_sq);

  // Set-up, repeated; the last server is the one measured. One set-up is
  // ~250 us, so it takes 200 of them for the median to settle, spread
  // 5 ms apart over a second so that one burst of VM steal cannot slow
  // them all. Each starts cold, as a process's one set-up would: the
  // memory the previous one freed is handed back to the OS first.
  constexpr int kSetups = 200;
  std::vector<double> setup_s;
  setup_s.reserve(kSetups);
  RssWatch rss;
  std::unique_ptr<dw::serve::ServingEngine> server;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (server) server->Stop();
    server.reset();
    malloc_trim(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<dw::serve::ServingEngine>(ServingOpts());
    dw::Status st = server->RegisterFamily(kFamily, &lr, FamilyOpts(a.cols()));
    if (st.ok()) server->Publish(kFamily, w);
    if (st.ok()) st = server->Start();
    setup_s.push_back(Seconds(t0, Clock::now()));
    if (!st.ok()) {
      out.Fail("set-up: " + st.ToString());
      return out;
    }
  }

  uint64_t next = 0;
  LoopHooks h;
  h.window = 2048;
  h.submit = [&](uint64_t i) {
    const SparseVectorView row = a.Row(stream[i % stream.size()]);
    return server->Score(kFamily,
                         std::vector<Index>(row.indices, row.indices + row.nnz),
                         std::vector<double>(row.values, row.values + row.nnz));
  };
  h.check = [&](uint64_t i, uint32_t, uint32_t, double score) {
    const SparseVectorView row = a.Row(stream[i % stream.size()]);
    return LogisticScoreMatches(score, ReferenceMargin(row, w.data()));
  };

  SpanLog off(false);
  Account(RunClosedLoop(h, &next, 0.0, 8, &off), &out);  // warm-up
  out.attempted = out.failed = 0;
  if (!cfg.trace) {
    const ProcSample p0 = ProcSample::Now();
    const LoopResult r = RunClosedLoop(h, &next, cfg.seconds, 100, &off);
    out.timed = Delta(p0, ProcSample::Now());
    Account(r, &out);
    // Peak over set-up and serving: the refreshes timed after the loop
    // leave old model versions for the allocator to reuse, which adds
    // 2-3.5 MiB that varies from run to run.
    const double peak_rss_mb = rss.PeakAboveBaselineMb();
    ReportLoop(r, h.window, WarmRefreshes(server.get(), w), setup_s,
               peak_rss_mb, &out);
  } else {
    const LoopResult plain =
        RunClosedLoop(h, &next, cfg.seconds / 2, 50, &off);
    Account(plain, &out);
    SpanLog spans(true);
    const ProcSample p0 = ProcSample::Now();
    const int cycles_fd = OpenCycleCounter();
    const LoopResult traced =
        RunClosedLoop(h, &next, cfg.seconds / 2, 50, &spans);
    out.timed = Delta(p0, ProcSample::Now());
    Account(traced, &out);
    ReportTraceCommon(cfg, plain, traced, spans, cycles_fd, &out);
    std::vector<SparseVectorView> views(a.rows());
    for (Index i = 0; i < a.rows(); ++i) views[i] = a.Row(i);
    ReportServingLayers(*server, lr, views, w, &out);
  }
  server->Stop();
  return out;
}

// ---------------------------------------------------------- keyed-churn --

namespace {

/// The benchmark's copy of each key's last kKept published row versions,
/// as margins. A request is in flight across at most a few publishes and
/// a key changes in about one publish of a hundred, so an older version
/// is never the one current at a submit; a score that would need one is
/// reported as a mismatch, never passed. The record's size is fixed, so
/// it adds nothing to the resident memory measured while serving.
class KeyedHistory {
 public:
  static constexpr size_t kKept = 4;
  explicit KeyedHistory(size_t keys) : per_key_(keys) {}
  /// Versions of one key must be added in increasing order.
  void Add(size_t key, uint32_t version, const RefMargin& ref) {
    std::lock_guard<std::mutex> lock(mu_);
    Ring& r = per_key_[key];
    r.entries[r.added % kKept] = {version, ref};
    ++r.added;
  }
  /// Whether `score` matches the version current at `lo` or any version
  /// published in (lo, hi].
  bool Matches(size_t key, uint32_t lo, uint32_t hi, double score) const {
    std::lock_guard<std::mutex> lock(mu_);
    const Ring& r = per_key_[key];
    for (uint64_t k = r.added; k-- > 0 && r.added - k <= kKept;) {
      const Entry& e = r.entries[k % kKept];
      if (e.version > hi) continue;
      if (LogisticScoreMatches(score, e.ref)) return true;
      if (e.version <= lo) break;  // older versions were never current
    }
    return false;
  }

 private:
  struct Entry {
    uint32_t version = 0;
    RefMargin ref;
  };
  struct Ring {
    std::array<Entry, kKept> entries;
    uint64_t added = 0;
  };
  mutable std::mutex mu_;
  std::vector<Ring> per_key_;
};

void FillRow(uint64_t seed, double* row) {
  Prng rng(seed);
  for (Index j = 0; j < kStoreDim; ++j) row[j] = rng.Symmetric();
}

}  // namespace

Outcome RunServeKeyedChurn(const RunConfig& cfg) {
  Outcome out;
  dw::models::LogisticSpec lr;
  // Store rows are uniform in [-1, 1): E[sum x^2] = dim / 3.
  const std::vector<double> w =
      RandomWeights(StreamSeed(cfg.seed, 5), kStoreDim, kStoreDim / 3.0);

  // Distinct u64 entity keys.
  std::vector<uint64_t> keys(kStoreKeys);
  {
    Prng rng(StreamSeed(cfg.seed, 6));
    std::vector<uint64_t> sorted;
    while (sorted.size() < kStoreKeys) {
      for (size_t k = sorted.size(); k < kStoreKeys; ++k) sorted.push_back(rng.Next());
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    }
    Prng shuffle(StreamSeed(cfg.seed, 7));
    for (size_t k = kStoreKeys; k-- > 1;) {
      std::swap(sorted[k], sorted[shuffle.Below(k + 1)]);
    }
    keys = sorted;
  }
  KeyedHistory history(kStoreKeys);
  Prng pick(StreamSeed(cfg.seed, 8));
  std::vector<uint32_t> stream(1 << 16);
  for (uint32_t& s : stream) s = static_cast<uint32_t>(pick.Below(kStoreKeys));
  // Buffers of the initial load and of the publisher, made before the
  // memory baseline: they hold the benchmark's inputs to the program.
  std::vector<double> chunk(static_cast<size_t>(kLoadChunk) * kStoreDim);
  std::vector<uint64_t> chunk_keys(kLoadChunk);
  std::vector<uint64_t> dkeys(kDeltaKeys);
  std::vector<uint32_t> dslots(kDeltaKeys);
  std::vector<double> drows(static_cast<size_t>(kDeltaKeys) * kStoreDim);
  std::vector<uint32_t> perm(kStoreKeys);
  std::vector<double> setup_s;

  // Set-up, repeated; the last server is the one measured. The initial
  // table is generated and loaded kLoadChunk rows at a time, so the
  // benchmark never holds a copy of the store; only program calls are
  // timed. Each set-up starts cold, as a process's one set-up would: the
  // memory the previous one freed is handed back to the OS first (reused
  // heap pages make a warm set-up ~3x faster, mostly page faults saved).
  RssWatch rss;
  std::unique_ptr<dw::serve::ServingEngine> server;
  constexpr int kSetups = 7;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (server) server->Stop();
    server.reset();
    malloc_trim(0);
    double program_s = 0.0;
    Clock::time_point t0 = Clock::now();
    server = std::make_unique<dw::serve::ServingEngine>(ServingOpts());
    dw::Status st = server->RegisterFamily(kFamily, &lr, FamilyOpts(kStoreDim));
    if (st.ok()) server->Publish(kFamily, w);
    dw::serve::StoreOptions sopts;
    sopts.placement_override = dw::serve::StorePlacement::kReplicated;
    if (st.ok()) st = server->RegisterStore(kFamily, kStoreKeys, kStoreDim, sopts);
    program_s += Seconds(t0, Clock::now());
    for (Index lo = 0; st.ok() && lo < kStoreKeys; lo += kLoadChunk) {
      for (Index k = lo; k < lo + kLoadChunk; ++k) {
        double* row = &chunk[static_cast<size_t>(k - lo) * kStoreDim];
        FillRow(StreamSeed(cfg.seed, 1000 + k), row);
        chunk_keys[k - lo] = keys[k];
        if (rep == 0) {
          history.Add(k, 0, ReferenceMargin(row, w.data(), kStoreDim));
        }
      }
      t0 = Clock::now();
      server->PublishStoreDelta(kFamily, chunk_keys, chunk);
      program_s += Seconds(t0, Clock::now());
    }
    t0 = Clock::now();
    if (st.ok()) st = server->Start();
    program_s += Seconds(t0, Clock::now());
    setup_s.push_back(program_s);
    if (!st.ok()) {
      out.Fail("set-up: " + st.ToString());
      return out;
    }
  }

  // Publisher: one delta of kDeltaKeys distinct keys per ticket; tickets
  // are issued by the generator every kKeyedPublishEvery resolutions.
  std::atomic<uint32_t> started{0}, completed{0};
  std::mutex mu;
  std::condition_variable cv;
  uint64_t tickets = 0;
  bool quit = false;
  std::vector<double> publish_us;
  std::vector<dw::serve::StorePublishReport> reports;
  // Stops and joins the publisher on every way out of this scope.
  struct PublisherStop {
    std::mutex& mu;
    std::condition_variable& cv;
    bool& quit;
    std::thread& thread;
    void operator()() {
      {
        std::lock_guard<std::mutex> lock(mu);
        quit = true;
        cv.notify_all();
      }
      if (thread.joinable()) thread.join();
    }
    ~PublisherStop() { (*this)(); }
  };
  std::thread publisher;
  PublisherStop stop_publisher{mu, cv, quit, publisher};
  publisher = std::thread([&] {
    for (uint32_t version = 1;; ++version) {
      Prng rng(StreamSeed(cfg.seed, 1u << 20 | version));
      for (uint32_t k = 0; k < kStoreKeys; ++k) perm[k] = k;
      for (Index d = 0; d < kDeltaKeys; ++d) {
        std::swap(perm[d], perm[d + rng.Below(kStoreKeys - d)]);
        dslots[d] = perm[d];
        dkeys[d] = keys[perm[d]];
        FillRow(rng.Next(), &drows[static_cast<size_t>(d) * kStoreDim]);
      }
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return quit || tickets >= version; });
        if (tickets < version) return;
      }
      for (Index d = 0; d < kDeltaKeys; ++d) {
        history.Add(dslots[d], version,
                    ReferenceMargin(&drows[static_cast<size_t>(d) * kStoreDim],
                                    w.data(), kStoreDim));
      }
      started = version;
      const Clock::time_point t0 = Clock::now();
      const dw::serve::StorePublishReport rep =
          server->PublishStoreDelta(kFamily, dkeys, drows);
      const double us = Seconds(t0, Clock::now()) * 1e6;
      completed = version;
      std::lock_guard<std::mutex> lock(mu);
      publish_us.push_back(us);
      reports.push_back(rep);
      cv.notify_all();
    }
  });

  uint64_t next = 0;
  uint64_t resolved_base = 0;
  LoopHooks h;
  h.window = 2 * kKeyedPublishEvery;  // two publishes each
  h.submit = [&](uint64_t i) {
    return server->ScoreKey(kFamily, keys[stream[i % stream.size()]]);
  };
  h.check = [&](uint64_t i, uint32_t lo, uint32_t hi, double score) {
    return history.Matches(stream[i % stream.size()], lo, hi, score);
  };
  h.completed_version = [&] { return completed.load(); };
  h.started_version = [&] { return started.load(); };
  h.on_resolved = [&](uint64_t resolved) {
    if ((resolved_base + resolved) % kKeyedPublishEvery != 0) return;
    std::lock_guard<std::mutex> lock(mu);
    ++tickets;
    cv.notify_all();
  };
  // Each phase ends once every publish it issued has landed, so a run's
  // work is fixed by its resolved count.
  auto run = [&](double seconds, size_t min_windows, SpanLog* spans) {
    LoopResult r = RunClosedLoop(h, &next, seconds, min_windows, spans);
    resolved_base += r.resolved;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed.load() >= tickets; });
    return r;
  };
  auto publishes_since = [&](size_t from) {
    std::lock_guard<std::mutex> lock(mu);
    return std::vector<double>(publish_us.begin() + from, publish_us.end());
  };

  SpanLog off(false);
  Account(run(0.0, 2, &off), &out);  // warm-up
  out.attempted = out.failed = 0;
  size_t first_publish = publishes_since(0).size();
  if (!cfg.trace) {
    const ProcSample p0 = ProcSample::Now();
    const LoopResult r = run(cfg.seconds, 8, &off);
    out.timed = Delta(p0, ProcSample::Now());
    Account(r, &out);
    ReportLoop(r, h.window, publishes_since(first_publish), setup_s,
               rss.PeakAboveBaselineMb(), &out);
  } else {
    const LoopResult plain = run(cfg.seconds / 2, 4, &off);
    Account(plain, &out);
    first_publish = publishes_since(0).size();
    SpanLog spans(true);
    const ProcSample p0 = ProcSample::Now();
    const int cycles_fd = OpenCycleCounter();
    const LoopResult traced = run(cfg.seconds / 2, 4, &spans);
    out.timed = Delta(p0, ProcSample::Now());
    Account(traced, &out);
    ReportTraceCommon(cfg, plain, traced, spans, cycles_fd, &out);

    // Store layer probes on the run's own key stream.
    const auto snap = server->FindStore(kFamily)->Acquire();
    std::vector<SparseVectorView> views;
    for (Index k = 0; k < kStoreKeys; ++k) {
      const auto slot = snap->LookupSlot(keys[k]);
      if (!slot) {
        out.Fail("key lookup missed a published key");
        break;
      }
      views.push_back({nullptr, snap->RowForNode(0, *slot), kStoreDim});
    }
    uint64_t hits = 0;
    const size_t lookups = 1 << 20;
    const Clock::time_point l0 = Clock::now();
    for (size_t i = 0; i < lookups; ++i) {
      hits += snap->LookupSlot(keys[stream[i % stream.size()]]).has_value();
    }
    out.report["store.lookup_ns"] = {
        Seconds(l0, Clock::now()) * 1e9 / lookups, "ns"};
    if (hits != lookups) out.Fail("key lookups missed during the probe");
    std::vector<double> delta_b, full_b;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (size_t k = first_publish; k < reports.size(); ++k) {
        delta_b.push_back(static_cast<double>(reports[k].delta_bytes));
        full_b.push_back(static_cast<double>(reports[k].full_bytes));
      }
    }
    out.report["store.delta_bytes"] = {Median(delta_b), "B"};
    out.report["store.full_bytes"] = {Median(full_b), "B"};
    out.report["store.publish_us"] = {
        Median(publishes_since(first_publish)), "us"};
    if (!views.empty()) ReportServingLayers(*server, lr, views, w, &out);
  }
  stop_publisher();
  server->Stop();
  for (const auto& rep : reports) {
    if (rep.evicted_keys != 0) out.Fail("a delta publish evicted keys");
  }
  out.notes.push_back(std::to_string(reports.size()) +
                      " delta publishes while serving");
  return out;
}

}  // namespace perfbench
