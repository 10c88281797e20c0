// Shared plumbing of the perfbench harness: clocks, process CPU and VM
// steal sampling, robust statistics, in-memory spans, the host/build
// fingerprint and the one-line JSON result the harness prints last.
#pragma once
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64: derives independent, reproducible streams from --seed.
uint64_t Mix(uint64_t x);
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Mix(seed * 0x9e3779b97f4a7c15ULL + Mix(stream));
}

/// Small deterministic generator for benchmark-made inputs.
class Prng {
 public:
  explicit Prng(uint64_t seed) : s_(seed) {}
  uint64_t Next() { return Mix(s_++); }
  /// Uniform in [0, 1).
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [-1, 1).
  double Symmetric() { return 2.0 * Uniform() - 1.0; }
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

/// Process CPU, context switches and VM steal at one instant.
struct ProcSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  long nivcsw = 0;  ///< involuntary context switches
  double steal_s = 0.0;  ///< machine-wide VM steal, /proc/stat
  static ProcSample Now();
  double cpu_s() const { return user_s + sys_s; }
};

/// Machine-wide VM steal so far, in seconds (/proc/stat; 0 if unreadable).
double StealSeconds();

/// Difference of two samples (b - a).
ProcSample Delta(const ProcSample& a, const ProcSample& b);

/// Resident memory the program adds above the benchmark's own. Built just
/// before the program's set-up, once the benchmark's inputs are made and
/// its scratch copies freed (and returned to the OS): the resident size
/// then is the baseline. The peak since is VmHWM when VmHWM rose past its
/// value at the baseline, else the largest VmRSS a sampler thread saw
/// (every 2 ms; it sleeps in between).
class RssWatch {
 public:
  RssWatch();
  ~RssWatch();
  RssWatch(const RssWatch&) = delete;
  RssWatch& operator=(const RssWatch&) = delete;
  /// Peak resident size since construction minus the baseline, MiB.
  double PeakAboveBaselineMb();

 private:
  double baseline_mb_ = 0.0;
  double hwm_at_baseline_mb_ = 0.0;
  std::atomic<double> sampled_peak_mb_{0.0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool quit_ = false;
  std::thread sampler_;
};

double Median(std::vector<double> v);
/// Indices of the samples whose VM steal is at most the `share` quantile
/// of `steal`: the quietest share of windows or trainings (ties kept).
std::vector<size_t> Quietest(const std::vector<double>& steal, double share);
/// v[i] for i in `idx`.
std::vector<double> Pick(const std::vector<double>& v,
                         const std::vector<size_t>& idx);
/// Linear-interpolated quantile q in [0, 1].
double Quantile(std::vector<double> v, double q);

/// Benchmark-side spans around public program calls, kept in memory and
/// written once at the end. Aggregates count every span; the stored list
/// is capped so a long run cannot grow without bound.
class SpanLog {
 public:
  explicit SpanLog(bool enabled, size_t capacity = 1 << 18);
  bool enabled() const { return enabled_; }
  void Add(const char* name, Clock::time_point t0, Clock::time_point t1);
  /// Durations (seconds) recorded under `name`, stored spans only.
  std::vector<double> Durations(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
  double TotalSeconds(const std::string& name) const;
  /// Writes every stored span as JSON lines {name, start_us, dur_us}.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point t0, t1;
  };
  struct Agg {
    const char* name;  ///< a string literal; compared by address first
    uint64_t count = 0;
    double total_s = 0.0;
  };
  const Agg* Find(const std::string& name) const;
  bool enabled_;
  size_t capacity_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Agg> agg_;
};

/// RAII span: records [construction, destruction) into `log` when on.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), name_(name), t0_(log->enabled() ? Clock::now()
                                                    : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (log_->enabled()) log_->Add(name_, t0_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  Clock::time_point t0_;
};

/// One reported figure. `kind` is "measured", "modeled" or "unavailable";
/// only measured figures may reach the gated result line.
struct Figure {
  double value = 0.0;
  std::string unit;
  std::string kind = "measured";
};

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Figure> end_to_end;
  std::map<std::string, Figure> per_layer;
  /// Figures printed in the trace report only (not in the result line).
  std::map<std::string, Figure> report;
  std::vector<std::string> notes;
  ProcSample timed;  ///< process deltas over the timed phase
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// Host, build and noise fingerprint as one JSON object.
std::string FingerprintJson(const std::string& git_sha,
                            const std::string& src_digest,
                            const ProcSample& timed);

/// Formats a double with every significant digit.
std::string Num(double v);
std::string Quote(const std::string& s);

/// The last line of stdout: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(const Outcome& out, bool trace);

/// Opens a hardware cycle counter for this process; -1 when the kernel
/// refuses (perf_event_paranoid, no PMU in the VM).
int OpenCycleCounter();
/// Reads and closes a counter opened by OpenCycleCounter.
bool ReadCycleCounter(int fd, uint64_t* cycles);

}  // namespace perfbench
