// perfbench: the repository's one measured yardstick for training and
// serving. Usage:
//   perfbench --workload <train-sgd|train-scd|serve-carried|serve-keyed-churn>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--src-digest <digest>] [--spans <path>]
// Prints notes, a host/build/noise fingerprint, the traced run's layer
// report (with --trace 1), and as its LAST line one JSON object with
// exactly the keys correct, attempted, failed and metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha S] [--src-digest D] "
               "[--spans PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, git_sha = "unavailable", digest = "unavailable";
  RunConfig cfg;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(cfg.seconds > 0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      cfg.trace = val[0] == '1';
    } else if (key == "--git-sha") {
      git_sha = val;
    } else if (key == "--src-digest") {
      digest = val;
    } else if (key == "--spans") {
      cfg.spans_path = val;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_seed) return Usage("--seed <non-negative integer> is required");

  Outcome out;
  try {
    if (workload == "train-sgd") {
      out = RunTrainSgd(cfg);
    } else if (workload == "train-scd") {
      out = RunTrainScd(cfg);
    } else if (workload == "serve-carried") {
      out = RunServeCarried(cfg);
    } else if (workload == "serve-keyed-churn") {
      out = RunServeKeyedChurn(cfg);
    } else {
      return Usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "perfbench: %s attempted no operation\n",
                 workload.c_str());
    return 1;
  }

  for (const std::string& note : out.notes) {
    std::printf("# %s: %s\n", workload.c_str(), note.c_str());
  }
  std::printf("fingerprint: %s\n",
              FingerprintJson(git_sha, digest, out.timed).c_str());
  if (cfg.trace) {
    std::string report = "{";
    for (const auto& [name, fig] : out.report) {
      report += (report.size() > 1 ? ", " : "") + Quote(name) +
                ": {\"value\": " +
                (fig.kind == "unavailable" ? "null" : Num(fig.value)) +
                ", \"unit\": " + Quote(fig.unit) +
                ", \"kind\": " + Quote(fig.kind) + "}";
    }
    std::printf("trace_report: %s}\n", report.c_str());
  }
  std::printf("%s\n", ResultLine(out, cfg.trace).c_str());
  std::fflush(stdout);
  return 0;
}
