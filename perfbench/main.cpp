// oabench — the benchmark binary behind perfbench/run.py.
//
//   oabench generate|serve --seed N --seconds S --trace 0|1
//           --work DIR [--artifact FILE]
//
// Prints three machine-readable lines on stdout: `host {...}` (host
// record), `determinism {...}` (values that must repeat for a seed) and
// `result {...}` (ops, failures and metrics with units). Exits 1 when any
// op failed or was answered wrong.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "support/log.hpp"

namespace {

using namespace oabench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Median time of a fixed integer/float loop: host speed drift between
/// runs shows here, independent of the library.
double calibration_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_ms();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    double acc = 0.0;
    for (int i = 0; i < (1 << 23); ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      acc += static_cast<double>(x >> 40) * 1e-9;
    }
    volatile double sink = acc;
    (void)sink;
    ms.push_back(now_ms() - t0);
  }
  return median(ms);
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
           exact(v) + ", \"unit\": " + json_string(metric.unit) + "}";
    first = false;
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: oabench generate|serve --seed N --seconds S "
               "--trace 0|1 --work DIR [--artifact FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  oa::set_log_level(oa::LogLevel::kError);
  if (argc < 2) return usage();
  RunConfig cfg;
  cfg.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--work") {
      cfg.work_dir = v;
    } else if (arg == "--artifact") {
      cfg.artifact = v;
    } else {
      return usage();
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : 0;
  std::printf("host {\"hardware_concurrency\": %u, \"nproc\": %d, "
              "\"cpu_model\": %s, \"calib_ms\": %s}\n",
              std::thread::hardware_concurrency(), nproc,
              json_string(cpu_model()).c_str(),
              exact(calibration_ms()).c_str());
  std::fflush(stdout);

  Outcome out;
  if (cfg.workload == "generate") {
    out = run_generate(cfg);
  } else if (cfg.workload == "serve") {
    if (cfg.artifact.empty()) return usage();
    out = run_serve(cfg);
  } else {
    return usage();
  }

  std::string det = "{";
  for (const auto& [k, v] : out.determinism) {
    det += (det.size() > 1 ? ", " : "") + json_string(k) + ": " +
           json_string(v);
  }
  std::printf("determinism %s}\n", det.c_str());
  const bool correct = out.attempted > 0 && out.failed == 0;
  std::printf("result {\"correct\": %s, \"attempted\": %lld, \"failed\": "
              "%lld, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed),
              metrics_json(cfg.trace ? out.per_layer : out.end_to_end)
                  .c_str());
  return correct ? 0 : 1;
}
