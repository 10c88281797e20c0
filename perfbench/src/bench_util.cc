#include "bench_util.h"

#include <linux/perf_event.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "kernels/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return 0.0;
  // user nice system idle iowait irq softirq steal
  uint64_t f[8] = {};
  for (auto& v : f) in >> v;
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(f[7]) / hz : 0.0;
}

namespace {

double TvSeconds(const timeval& tv) {
  return tv.tv_sec + tv.tv_usec * 1e-6;
}

std::string FirstMatch(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) return "";
      size_t b = colon + 1;
      while (b < line.size() && (line[b] == ' ' || line[b] == '\t')) ++b;
      return line.substr(b);
    }
  }
  return "";
}

int NumaNodes() {
  int nodes = 0;
  for (int n = 0; n < 1024; ++n) {
    std::ifstream probe("/sys/devices/system/node/node" + std::to_string(n) +
                        "/cpulist");
    if (!probe) break;
    ++nodes;
  }
  return nodes;
}

}  // namespace

ProcSample ProcSample::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.user_s = TvSeconds(ru.ru_utime);
  s.sys_s = TvSeconds(ru.ru_stime);
  s.nivcsw = ru.ru_nivcsw;
  s.steal_s = StealSeconds();
  return s;
}

ProcSample Delta(const ProcSample& a, const ProcSample& b) {
  ProcSample d;
  d.user_s = b.user_s - a.user_s;
  d.sys_s = b.sys_s - a.sys_s;
  d.nivcsw = b.nivcsw - a.nivcsw;
  d.steal_s = b.steal_s - a.steal_s;
  return d;
}

namespace {

/// A "Vm..." line of /proc/self/status in MiB (0 if unreadable).
double StatusMb(const char* key) {
  const std::string kb = FirstMatch("/proc/self/status", key);
  return kb.empty() ? 0.0 : std::strtod(kb.c_str(), nullptr) / 1024.0;
}

/// Resident size from /proc/self/statm (one short read), MiB.
double ResidentMb() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(in >> size >> resident)) return 0.0;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) /
         (1024.0 * 1024.0);
}

}  // namespace

RssWatch::RssWatch() {
  malloc_trim(0);  // freed benchmark scratch leaves the baseline
  baseline_mb_ = ResidentMb();
  hwm_at_baseline_mb_ = StatusMb("VmHWM");
  sampled_peak_mb_ = baseline_mb_;
  sampler_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(2),
                         [this] { return quit_; })) {
      const double now = ResidentMb();
      if (now > sampled_peak_mb_.load()) sampled_peak_mb_ = now;
    }
  });
}

RssWatch::~RssWatch() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  cv_.notify_all();
  sampler_.join();
}

double RssWatch::PeakAboveBaselineMb() {
  const double hwm = StatusMb("VmHWM");
  const double now = ResidentMb();
  if (now > sampled_peak_mb_.load()) sampled_peak_mb_ = now;
  const double peak =
      hwm > hwm_at_baseline_mb_ ? hwm : sampled_peak_mb_.load();
  return peak - baseline_mb_;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::vector<size_t> Quietest(const std::vector<double>& steal, double share) {
  const double cut = Quantile(steal, share);
  std::vector<size_t> idx;
  for (size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= cut) idx.push_back(i);
  }
  return idx;
}

std::vector<double> Pick(const std::vector<double>& v,
                         const std::vector<size_t>& idx) {
  std::vector<double> out;
  out.reserve(idx.size());
  for (size_t i : idx) out.push_back(v[i]);
  return out;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - lo;
  return v[lo] + (v[hi] - v[lo]) * frac;
}

SpanLog::SpanLog(bool enabled, size_t capacity)
    : enabled_(enabled), capacity_(capacity), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(capacity_);
}

void SpanLog::Add(const char* name, Clock::time_point t0,
                  Clock::time_point t1) {
  Agg* a = nullptr;
  for (Agg& g : agg_) {
    if (g.name == name) a = &g;
  }
  if (a == nullptr) a = &agg_.emplace_back(Agg{name});
  ++a->count;
  a->total_s += Seconds(t0, t1);
  if (spans_.size() < capacity_) spans_.push_back({name, t0, t1});
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(Seconds(s.t0, s.t1));
  }
  return out;
}

const SpanLog::Agg* SpanLog::Find(const std::string& name) const {
  for (const Agg& g : agg_) {
    if (name == g.name) return &g;
  }
  return nullptr;
}

uint64_t SpanLog::Count(const std::string& name) const {
  const Agg* a = Find(name);
  return a == nullptr ? 0 : a->count;
}

double SpanLog::TotalSeconds(const std::string& name) const {
  const Agg* a = Find(name);
  return a == nullptr ? 0.0 : a->total_s;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f, "{\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                 s.name, Seconds(origin_, s.t0) * 1e6,
                 Seconds(s.t0, s.t1) * 1e6);
  }
  return std::fclose(f) == 0;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string FingerprintJson(const std::string& git_sha,
                            const std::string& src_digest,
                            const ProcSample& timed) {
  std::ostringstream o;
  o << "{\"cpu_model\":"
    << Quote(FirstMatch("/proc/cpuinfo", "model name"))
    << ",\"online_cpus\":" << sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"numa_nodes\":" << NumaNodes() << ",\"kernel_level\":"
    << Quote(dw::kernels::ToString(dw::kernels::ActiveKernelLevel()))
    << ",\"compiler\":" << Quote(__VERSION__)
    << ",\"build_type\":" << Quote(PERFBENCH_BUILD_TYPE)
    << ",\"git_sha\":" << Quote(git_sha)
    << ",\"src_digest\":" << Quote(src_digest)
    << ",\"proc.steal_s\":" << Num(timed.steal_s)
    << ",\"proc.nivcsw\":" << timed.nivcsw
    << ",\"proc.user_s\":" << Num(timed.user_s)
    << ",\"proc.sys_s\":" << Num(timed.sys_s) << "}";
  return o.str();
}

std::string ResultLine(const Outcome& out, bool trace) {
  const auto& metrics = trace ? out.per_layer : out.end_to_end;
  std::ostringstream o;
  o << "{\"correct\": " << (out.correct ? "true" : "false")
    << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, fig] : metrics) {
    o << (first ? "" : ", ") << Quote(name) << ": {\"value\": "
      << Num(fig.value) << ", \"unit\": " << Quote(fig.unit) << "}";
    first = false;
  }
  o << "}}";
  return o.str();
}

int OpenCycleCounter() {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_CPU_CYCLES;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  return static_cast<int>(fd);
}

bool ReadCycleCounter(int fd, uint64_t* cycles) {
  if (fd < 0) return false;
  const bool ok = read(fd, cycles, sizeof(*cycles)) ==
                  static_cast<ssize_t>(sizeof(*cycles));
  close(fd);
  return ok;
}

}  // namespace perfbench
