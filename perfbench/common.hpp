// Shared plumbing of the benchmark binary: the run configuration, the
// sample statistics every metric is reported with, the in-memory span
// recorder behind the traced run, and the result lines run.py parses.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace oabench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for artifacts and the trace file.
  std::string work_dir;
  /// serve: the prepared library artifact.
  std::string artifact;
};

/// Set-up repetitions in a run; setup_s is their median.
constexpr int kSetupReps = 9;

/// Milliseconds on the steady clock.
double now_ms();

/// Linear-interpolated percentile (q in [0, 100]); 0 for no samples.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}
double geomean(const std::vector<double>& v);

/// Peak resident set of this process so far, in MB.
double rss_peak_mb();

struct Metric {
  double value = 0.0;
  std::string unit;
};
/// Metric table by name.
using Metrics = std::map<std::string, Metric>;
inline void set(Metrics& m, const std::string& name, double value,
                const std::string& unit) {
  m[name] = {value, unit};
}

/// Spans around the public calls the benchmark makes, kept in memory and
/// written as Chrome trace JSON at exit. Disabled recorders take no clock
/// reads. The client is single-threaded, so nesting is a plain stack.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    int64_t op = -1;
  };

  /// RAII span; ms() is its duration once closed (0 when disabled).
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, int64_t op);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double close();
    double ms() const { return ms_; }

   private:
    Tracer* tracer_;
    int id_ = -1;
    double ms_ = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Durations (ms) of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Chrome trace JSON; args carry op id, parent and self time.
  bool write_chrome(const std::string& path) const;
  /// Per-name total and self time, for the human summary.
  std::string self_time_table() const;

 private:
  /// Self time of every span: its duration minus what its children
  /// cover.
  std::vector<double> self_ms() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per-name sample lists for per-layer metrics (medians reported).
class Samples {
 public:
  void add(const std::string& name, double v) { s_[name].push_back(v); }
  double median_of(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> s_;
};

/// Everything a workload hands back to main().
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Outputs checked correct (ok_rate numerator).
  int64_t ok = 0;
  Metrics end_to_end;
  Metrics per_layer;
  /// Values that must repeat exactly between two runs with one seed.
  std::map<std::string, std::string> determinism;
};

Outcome run_generate(const RunConfig& cfg);
Outcome run_serve(const RunConfig& cfg);
/// Traced runs of generate: one rotation of an oacheck campaign seeded by
/// `seed`; adds its cases to `out`'s ops and the verify.* metrics to its
/// per-layer table.
void run_check_campaign(uint64_t seed, Tracer& tracer, Outcome& out);

/// Exact textual form of a double (round-trips).
std::string exact(double v);

}  // namespace oabench
