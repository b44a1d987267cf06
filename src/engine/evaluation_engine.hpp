// The EvaluationEngine: a parallel, memoizing evaluation service
// between the search policies (tuner/) and the simulator (gpusim/).
//
// The paper's OA framework spends essentially all of its time in the
// search stage ("the best among the set is searched for" across
// composed scripts x tile/unroll parameters). The engine owns the
// apply -> verify -> simulate pipeline for one (candidate, params)
// point and adds what a search policy should not have to know about:
//
//   * batch-parallel evaluation over support::ThreadPool with
//     deterministic result ordering — results come back indexed by the
//     request order, so `jobs = 1` and `jobs = N` pick the same winner;
//   * a content-addressed memoization cache keyed by (device, variant,
//     script fingerprint, tuning params, applied mask, eval config),
//     so repeated points across line-search rounds, the exhaustive
//     ablation, and the figure benches are evaluated once — negative
//     outcomes (verification/launch failures) are cached too, since
//     they are deterministic;
//   * a mask-level verification cache: two parameter points whose
//     scripts degenerate to the same applied-component mask share one
//     functional verification (same semantics, different speed);
//   * structured per-evaluation accounting (EngineStats) so benches
//     and the oagen CLI can report search-cost breakdowns.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blas3/routine.hpp"
#include "composer/composer.hpp"
#include "gpusim/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oa::engine {

struct EngineOptions {
  /// Parallel evaluation lanes for evaluate_batch; 0 selects the shared
  /// thread pool's full width (hardware_concurrency), 1 is strictly
  /// serial on the calling thread.
  size_t jobs = 0;
  /// Disable to force every point through the full pipeline (ablation /
  /// debugging).
  bool cache_enabled = true;
  /// Registry the engine's counters and per-stage latency histograms
  /// live in. Null (the default) gives the engine a private registry —
  /// stats stay isolated per engine, the historical behaviour — while
  /// the CLIs inject obs::MetricsRegistry::global() so one export file
  /// covers engine, tuner, composer, and serving runtime.
  obs::MetricsRegistry* metrics = nullptr;
  /// Span sink for apply/verify/simulate stage traces. Null disables
  /// trace collection (latency histograms are recorded regardless).
  obs::TraceCollector* tracer = nullptr;
};

/// Per-batch evaluation configuration; hashed into the cache key.
struct EvalConfig {
  /// Problem size used for the performance estimate.
  int64_t target_size = 1024;
  /// Problem size for functional verification (0 disables).
  int64_t verify_size = 72;
  /// Extra simulator knobs (int/bool params are overwritten per point).
  gpusim::RunOptions run_options;

  uint64_t fingerprint() const;
};

/// The outcome of one successful (candidate, params) evaluation.
struct Evaluation {
  composer::Candidate candidate;
  transforms::TuningParams params;
  ir::Program program;      // transformed, ready to simulate
  double seconds = 0.0;     // at target_size
  double gflops = 0.0;
  gpusim::Counters counters;
  /// Which script invocations applied under `params` (filter
  /// semantics): parameter points with different masks are different
  /// kernels.
  uint64_t applied_mask = 0;
  /// True when the verify+simulate stages were served from the
  /// memoization cache (the returned numbers are bitwise-identical to
  /// the fresh evaluation that populated the entry).
  bool from_cache = false;
};

/// Snapshot of the engine's accounting counters. Since the obs/
/// refactor this is a *view* assembled from the engine's
/// MetricsRegistry (the single source of truth — `oagen
/// --metrics-out` exports the same numbers); the struct survives as
/// the stable programmatic interface the benches and tests consume.
struct EngineStats {
  uint64_t requests = 0;        // evaluate() calls (batch points included)
  uint64_t cache_hits = 0;      // served from the memoization cache
  uint64_t cache_misses = 0;    // full pipeline executed
  uint64_t evaluations = 0;     // simulator performance runs
  uint64_t verify_runs = 0;     // functional verifications executed
  uint64_t verify_reused = 0;   // skipped via the mask-level cache
  uint64_t rejected = 0;        // non-ok outcomes (any stage)
  /// generate() results served whole from a library artifact or the
  /// process-wide session store (libgen/): zero pipeline work — no
  /// verify, no simulate — only the cheap re-apply that proves the
  /// artifact entry still matches the composed candidates.
  uint64_t warm_starts = 0;
  double apply_seconds = 0.0;   // wall time re-applying scripts
  double verify_seconds = 0.0;  // wall time in functional verification
  double simulate_seconds = 0.0;// wall time in performance simulation
  /// Simulate wall time split by variant name (where the search budget
  /// actually goes — TRSM's serial kernels dominate).
  std::map<std::string, double> simulate_seconds_by_variant;
  /// Ghost-mode fast-path statement accounting summed over performance
  /// runs (coverage() is the fraction priced analytically).
  gpusim::FastPathStats fastpath;
  /// The same accounting split by variant name (which routines still
  /// fall back to the interpreter).
  std::map<std::string, gpusim::FastPathStats> fastpath_by_variant;
  size_t cache_entries = 0;

  double hit_rate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
  std::string to_string() const;
};

class EvaluationEngine {
 public:
  explicit EvaluationEngine(const gpusim::Simulator& simulator,
                            EngineOptions options = {});
  ~EvaluationEngine();

  EvaluationEngine(const EvaluationEngine&) = delete;
  EvaluationEngine& operator=(const EvaluationEngine&) = delete;

  const gpusim::Simulator& simulator() const { return sim_; }
  const EngineOptions& options() const { return options_; }
  /// Effective parallel width (resolves jobs == 0).
  size_t jobs() const;

  /// One (candidate, params) point of the search space.
  struct Point {
    composer::Candidate candidate;
    transforms::TuningParams params;
  };

  /// Evaluate a single point: apply + verify + simulate, memoized.
  /// Thread-safe.
  StatusOr<Evaluation> evaluate(const blas3::Variant& variant,
                                const composer::Candidate& candidate,
                                const transforms::TuningParams& params,
                                const EvalConfig& config);

  /// Evaluate a batch of points in parallel (up to `jobs()` lanes).
  /// result[i] corresponds to points[i]; ordering is deterministic and
  /// independent of the parallel schedule.
  std::vector<StatusOr<Evaluation>> evaluate_batch(
      const blas3::Variant& variant, const std::vector<Point>& points,
      const EvalConfig& config);

  EngineStats stats() const;
  void reset_stats();
  void clear_cache();
  size_t cache_size() const;

  /// The registry all engine counters and stage-latency histograms
  /// live in (instrument names are prefixed "engine.").
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  /// Span sink for stage traces, or nullptr when tracing is off.
  obs::TraceCollector* tracer() const { return tracer_; }

  /// Account one evaluation served from a persistent library artifact /
  /// session store (OaFramework's warm-start path) — the engine did no
  /// pipeline work for it, but search-cost reports should show where
  /// results came from.
  void note_warm_start();

 private:
  /// The full pipeline for a cache miss; `applied` and `program` come
  /// from the already-executed apply stage.
  StatusOr<Evaluation> verify_and_simulate(
      const blas3::Variant& variant, const composer::Candidate& candidate,
      const transforms::TuningParams& params, const EvalConfig& config,
      ir::Program&& program, uint64_t applied);

  const gpusim::Simulator& sim_;
  EngineOptions options_;

  /// Backing registry when the caller did not inject one.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::TraceCollector* tracer_;

  /// Cached instrument handles (registry lookups take a mutex; the
  /// references are stable for the registry's lifetime).
  struct Instruments {
    obs::Counter* requests;
    obs::Counter* cache_hits;
    obs::Counter* cache_misses;
    obs::Counter* verify_reused;
    obs::Counter* rejected;
    obs::Counter* warm_starts;
    obs::Gauge* cache_entries;
    obs::Histogram* apply_us;
    obs::Histogram* verify_us;
    obs::Histogram* simulate_us;
  };
  Instruments ins_;

  mutable std::mutex mu_;
  /// Memoized outcomes (success payloads and deterministic rejections).
  std::unordered_map<uint64_t, std::shared_ptr<const StatusOr<Evaluation>>>
      cache_;
  /// Mask-level verification cache: keys whose (variant, script, mask)
  /// passed functional verification. Failures are not recorded here —
  /// they can be params-dependent — only in the point-level cache.
  std::unordered_set<uint64_t> verified_;

  /// Ghost-mode fast-path statement accounting, in total and per
  /// variant; not duplicated anywhere, so it stays a plain aggregate
  /// next to the registry.
  mutable std::mutex fastpath_mu_;
  gpusim::FastPathStats fastpath_;
  std::map<std::string, gpusim::FastPathStats> fastpath_by_variant_;
};

/// Functional verification helper shared with tests/benches: run
/// `program` at size (n x n) and compare against the CPU reference.
Status verify_program(const gpusim::Simulator& sim,
                      const blas3::Variant& variant,
                      const ir::Program& program, int64_t n,
                      const std::map<std::string, bool>& bool_params);

/// Functional execution of any program (tuned or baseline) on real
/// matrices, sized and validated by blas3::CallShape (an inconsistent
/// call is invalid_argument and writes nothing); the output is written
/// back into `b` (TRSM) or `*c`. Shared by OaFramework::run and the
/// serving runtime (runtime/LibraryRuntime).
Status execute_program(const gpusim::Simulator& sim,
                       const ir::Program& program,
                       const blas3::Variant& variant,
                       const blas3::Matrix& a, blas3::Matrix& b,
                       blas3::Matrix* c,
                       const std::map<std::string, bool>& bool_params);

/// Batched functional execution as a loop of members through the
/// interpreter — the semantic oracle for the fused native batched path
/// (exec::execute_batched). Operand vectors carry one matrix per batch
/// member and must share one member shape; `c` may be null for
/// families that update `b` in place.
Status execute_batched(const gpusim::Simulator& sim,
                       const ir::Program& program,
                       const blas3::Variant& variant,
                       const std::vector<blas3::Matrix>& a,
                       std::vector<blas3::Matrix>& b,
                       std::vector<blas3::Matrix>* c,
                       const std::map<std::string, bool>& bool_params);

/// Runtime bool parameters implied by adaptor conditions ("blank(A)
/// .zero = true" -> blank_zero = true).
std::map<std::string, bool> bools_for(const composer::Candidate& c);

/// Problem-size bindings for an n x n problem of `v`'s family
/// (blas3::CallShape::square(v, n).env()).
ir::Env size_env(const blas3::Variant& v, int64_t n);

}  // namespace oa::engine
