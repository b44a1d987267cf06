// The public entry point of the library: the OA (Optimization Adaptor)
// framework of the paper, Fig 1. Given a routine and a device, it
//   1. picks the adaptors that relate the routine to GEMM-NN
//      (Adaptor_Transpose / _Symmetry / _Triangular / _Solver),
//   2. composes them with the GEMM-NN EPOD script (composer/),
//   3. searches the generated variants and tuning parameters (tuner/),
// returning the best verified kernel for the simulated device.
//
// Typical use (see examples/quickstart.cpp):
//
//   oa::OaFramework oa(oa::gpusim::gtx285());
//   auto tuned = oa.generate(*oa::blas3::find_variant("SYMM-LL"));
//   auto result = oa.run(*tuned, a, b, &c);   // functional execution
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adl/adaptor.hpp"
#include "baseline/baseline.hpp"
#include "blas3/matrix.hpp"
#include "composer/composer.hpp"
#include "engine/evaluation_engine.hpp"
#include "gpusim/simulator.hpp"
#include "libgen/artifact.hpp"
#include "tuner/tuner.hpp"

namespace oa {

struct OaOptions {
  /// Problem size the tuner times candidates at.
  int64_t tuning_size = 1024;
  /// Functional-verification size (0 disables verification — not
  /// recommended).
  int64_t verify_size = 72;
  /// Exhaustive parameter sweep instead of orthogonal line search.
  bool exhaustive_search = false;
  /// Parallel evaluation lanes for the search (0 = all hardware
  /// threads, 1 = serial).
  size_t jobs = 0;
  /// Memoize evaluations across rounds, candidates, and variants.
  bool engine_cache = true;
  /// Warp-analytic ghost-mode fast path in every performance
  /// simulation (tuning, measurement, profiling). Counters are
  /// bit-identical either way; disable (`--no-fastpath` in the CLIs)
  /// only to cross-check or time the plain interpreter.
  bool fastpath = true;
  /// Base script to extend. Defaults to the paper's Fig 3 GEMM-NN
  /// script.
  epod::Script base_script = epod::gemm_nn_script();
  /// Serve generate() from a loaded library artifact / the process-wide
  /// session store when the entry's fingerprints still match the fresh
  /// candidates — zero verify/simulate calls for warm variants.
  bool warm_start = true;
  /// When a warm start is impossible (fingerprints drifted) but a
  /// library entry exists, seed the parameter search from the entry's
  /// tuned parameters instead of the default probe point
  /// (`oagen --warm-start`).
  bool seed_from_artifact = false;
  /// Observability sinks (docs/OBSERVABILITY.md). Null metrics gives
  /// the framework a private registry (per-instance stats, the
  /// historical behaviour); the CLIs inject
  /// obs::MetricsRegistry::global() so engine, tuner, composer, and
  /// runtime all export into one `--metrics-out` file. Null tracer
  /// disables span collection.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceCollector* tracer = nullptr;
};

class OaFramework {
 public:
  explicit OaFramework(const gpusim::DeviceModel& device,
                       OaOptions options = {});

  const gpusim::DeviceModel& device() const { return sim_.device(); }
  const gpusim::Simulator& simulator() const { return sim_; }

  /// The evaluation engine every generate() call tunes through: one
  /// memoization cache shared across variants, so cross-variant
  /// adaptor reuse (identical degenerated points) is measurable.
  engine::EvaluationEngine& engine() { return *engine_; }
  /// Search-cost accounting (cache hits, verify/simulate wall time).
  engine::EngineStats engine_stats() const { return engine_->stats(); }
  /// The registry all framework layers (engine, tuner, composer)
  /// record into — options.metrics when injected, otherwise the
  /// framework-owned instance.
  obs::MetricsRegistry& metrics() const { return engine_->metrics(); }

  /// Bound adaptors relating `v` to GEMM-NN (empty for GEMM-NN itself).
  static std::vector<adl::Adaptor> adaptors_for(const blas3::Variant& v);

  /// Candidate EPOD scripts for `v` (composer output).
  StatusOr<std::vector<composer::Candidate>> candidates_for(
      const blas3::Variant& v) const;

  /// Full generation: compose + search. Results are cached per variant,
  /// warm-started from a loaded library artifact or the process-wide
  /// SessionStore when options.warm_start (default) and the recorded
  /// fingerprints still match the freshly composed candidates.
  StatusOr<tuner::TunedVariant> generate(const blas3::Variant& v);

  /// Attach a library artifact as the warm-start source for later
  /// generate() calls (kFailedPrecondition unless it was generated for
  /// this device preset).
  Status set_library(libgen::Artifact artifact);
  /// set_library(libgen::load(path)).
  Status load_library(const std::string& path);
  /// The attached artifact, if any.
  const std::optional<libgen::Artifact>& library() const {
    return library_;
  }

  /// Snapshot of everything generated so far (plus any still-matching
  /// entries of the attached artifact) as a saveable artifact.
  libgen::Artifact export_library() const;

  /// Performance of a tuned variant at problem size n (GFLOPS).
  StatusOr<double> measure_gflops(const tuner::TunedVariant& tuned,
                                  const blas3::Variant& v, int64_t n) const;

  /// Performance of a baseline program at size n.
  StatusOr<double> measure_baseline_gflops(const ir::Program& program,
                                           const blas3::Variant& v,
                                           int64_t n) const;

  /// Profiler counters (per-SM, like the paper's tables) at size n.
  StatusOr<gpusim::Counters> profile(const ir::Program& program,
                                     const blas3::Variant& v, int64_t n,
                                     const std::map<std::string, bool>&
                                         bool_params = {}) const;

  /// Functional execution of any program (tuned or baseline) on real
  /// matrices; the output array is written back into `b` (TRSM) or `c`.
  /// Operands that fail blas3::CallShape::validate are rejected with
  /// invalid_argument.
  Status run(const ir::Program& program, const blas3::Variant& v,
             const blas3::Matrix& a, blas3::Matrix& b, blas3::Matrix* c,
             const std::map<std::string, bool>& bool_params = {}) const;

 private:
  gpusim::Simulator sim_;
  OaOptions options_;
  std::unique_ptr<engine::EvaluationEngine> engine_;
  std::map<std::string, tuner::TunedVariant> cache_;
  /// Warm-start source attached via set_library()/load_library().
  std::optional<libgen::Artifact> library_;
  /// Artifact entries for every generate() outcome (export_library()).
  std::map<std::string, libgen::ArtifactEntry> generated_;
  /// SessionStore key for this device preset (name + fingerprint).
  std::string store_key_;
};

}  // namespace oa
