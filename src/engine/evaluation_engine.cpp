#include "engine/evaluation_engine.hpp"

#include <optional>
#include <utility>

#include "blas3/call_shape.hpp"
#include "blas3/reference.hpp"
#include "blas3/source_ir.hpp"
#include "epod/script.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

namespace oa::engine {

using blas3::Variant;
using composer::Candidate;
using gpusim::RunOptions;
using transforms::TransformContext;
using transforms::TuningParams;

namespace {

/// Registry prefix under which per-variant simulate time is recorded.
constexpr const char* kSimulateByVariantPrefix =
    "engine.simulate_us.by_variant.";

}  // namespace

ir::Env size_env(const Variant& v, int64_t n) {
  return blas3::CallShape::square(v, n).env();
}

std::map<std::string, bool> bools_for(const Candidate& c) {
  std::map<std::string, bool> out;
  for (const std::string& cond : c.conditions) {
    // "blank(X).zero = true" enables the padded version; the benches
    // guarantee the blank triangle is stored as zeros.
    if (cond.find(".zero") != std::string::npos) out["blank_zero"] = true;
  }
  return out;
}

namespace {

/// One member of a validated call through the interpreter at `shape`.
Status interpret(const gpusim::Simulator& sim, const ir::Program& program,
                 const blas3::CallShape& shape, const blas3::Matrix& a,
                 blas3::Matrix& b, blas3::Matrix* c,
                 const std::map<std::string, bool>& bool_params) {
  gpusim::RunOptions opts;
  opts.int_params = shape.env();
  opts.bool_params = bool_params;
  blas3::Matrix& out = shape.output_of(b, c);
  // Reject a retargeted output shape before paying for the functional
  // run — read_back would refuse the result anyway.
  OA_RETURN_IF_ERROR(gpusim::check_read_back_shape(
      program, opts.int_params, shape.output(), out));
  gpusim::GlobalBuffers buffers = gpusim::make_buffers(
      program, opts.int_params, {{"A", &a}, {"B", &b}, {"C", c}});
  OA_RETURN_IF_ERROR(sim.run_functional(program, opts, buffers).status());
  return gpusim::read_back(buffers, program, opts.int_params,
                           shape.output(), out);
}

}  // namespace

Status verify_program(const gpusim::Simulator& sim, const Variant& variant,
                      const ir::Program& program, int64_t n,
                      const std::map<std::string, bool>& bool_params) {
  Rng rng(0xC0FFEE ^ static_cast<uint64_t>(n));
  const Precision p = variant.precision;
  blas3::Matrix a(n, n, p), b(n, n, p), c(n, n, p);
  a.fill_random(rng);
  b.fill_random(rng);
  if (variant.family == blas3::Family::kTrmm ||
      variant.family == blas3::Family::kTrsm ||
      variant.family == blas3::Family::kSymm) {
    a.make_triangular(variant.uplo);
  }
  if (variant.family == blas3::Family::kTrsm) {
    a.set_unit_diagonal();
    // Keep the solve well-conditioned so the absolute tolerance holds.
    a.scale_off_diagonal(1.0f / 16.0f);
  }

  blas3::Matrix ref_b = b;
  blas3::Matrix ref_c = c;
  const blas3::CallShape shape = blas3::CallShape::square(variant, n);
  OA_RETURN_IF_ERROR(
      interpret(sim, program, shape, a, b, &c, bool_params));
  blas3::run_reference(variant, a, ref_b, &ref_c);
  const double err = blas3::max_abs_diff(shape.output_of(b, &c),
                                         shape.output_of(ref_b, &ref_c));
  if (err > blas3::accumulation_tolerance(n, p)) {
    return illegal(
        str_format("functional verification failed: err=%g", err));
  }
  return Status::ok();
}

Status execute_program(const gpusim::Simulator& sim,
                       const ir::Program& program, const Variant& variant,
                       const blas3::Matrix& a, blas3::Matrix& b,
                       blas3::Matrix* c,
                       const std::map<std::string, bool>& bool_params) {
  const blas3::CallShape shape(variant, a, b, c);
  OA_RETURN_IF_ERROR(shape.validate());
  return interpret(sim, program, shape, a, b, c, bool_params);
}

Status execute_batched(const gpusim::Simulator& sim,
                       const ir::Program& program, const Variant& variant,
                       const std::vector<blas3::Matrix>& a,
                       std::vector<blas3::Matrix>& b,
                       std::vector<blas3::Matrix>* c,
                       const std::map<std::string, bool>& bool_params) {
  const blas3::CallShape shape(variant, a, b, c);
  OA_RETURN_IF_ERROR(shape.validate());
  // Loop-of-members through the interpreter: the semantic oracle the
  // fused native batched path (exec::execute_batched) is arbitrated
  // against. batch_grouping only relabels the launch layout, so the
  // member program is the program itself.
  for (size_t i = 0; i < a.size(); ++i) {
    OA_RETURN_IF_ERROR(interpret(sim, program, shape, a[i], b[i],
                                 c != nullptr ? &(*c)[i] : nullptr,
                                 bool_params));
  }
  return Status::ok();
}

uint64_t EvalConfig::fingerprint() const {
  Fingerprint fp;
  fp.mix(target_size)
      .mix(verify_size)
      .mix(run_options.max_sampled_classes)
      .mix(run_options.warps_per_block_sample)
      .mix(static_cast<uint64_t>(run_options.fastpath));
  return fp.digest();
}

std::string EngineStats::to_string() const {
  std::string s = str_format(
      "engine: %llu requests, %llu hits / %llu misses (%.0f%% hit rate, "
      "%zu cached), %llu simulations, %llu verifies (+%llu reused), "
      "%llu rejected; apply %.2fs, verify %.2fs, simulate %.2fs",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), hit_rate() * 100.0,
      cache_entries, static_cast<unsigned long long>(evaluations),
      static_cast<unsigned long long>(verify_runs),
      static_cast<unsigned long long>(verify_reused),
      static_cast<unsigned long long>(rejected), apply_seconds,
      verify_seconds, simulate_seconds);
  std::string out = s;
  if (warm_starts > 0) {
    out += str_format("; %llu warm-start(s) from library artifacts",
                      static_cast<unsigned long long>(warm_starts));
  }
  out += str_format("; fastpath %.0f%% (%llu collapsed loops)",
                    fastpath.coverage() * 100.0,
                    static_cast<unsigned long long>(
                        fastpath.collapsed_loops));
  for (const auto& [name, secs] : simulate_seconds_by_variant) {
    out += str_format("\n  simulate %-12s %.2fs", name.c_str(), secs);
    const auto fp = fastpath_by_variant.find(name);
    if (fp != fastpath_by_variant.end()) {
      out += str_format("  fastpath %.0f%%", fp->second.coverage() * 100.0);
    }
  }
  return out;
}

EvaluationEngine::EvaluationEngine(const gpusim::Simulator& simulator,
                                   EngineOptions options)
    : sim_(simulator), options_(options) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  tracer_ = options_.tracer;
  // Pre-register every instrument so an exported snapshot always
  // carries the full engine schema, even for stages that never ran
  // (a warm-started library reload has zero verifies/simulations).
  ins_.requests = &metrics_->counter("engine.requests");
  ins_.cache_hits = &metrics_->counter("engine.cache_hits");
  ins_.cache_misses = &metrics_->counter("engine.cache_misses");
  ins_.verify_reused = &metrics_->counter("engine.verify_reused");
  ins_.rejected = &metrics_->counter("engine.rejected");
  ins_.warm_starts = &metrics_->counter("engine.warm_starts");
  ins_.cache_entries = &metrics_->gauge("engine.cache_entries");
  ins_.apply_us = &metrics_->histogram("engine.apply_us");
  ins_.verify_us = &metrics_->histogram("engine.verify_us");
  ins_.simulate_us = &metrics_->histogram("engine.simulate_us");
}

EvaluationEngine::~EvaluationEngine() = default;

size_t EvaluationEngine::jobs() const {
  return options_.jobs == 0 ? ThreadPool::shared().size() : options_.jobs;
}

StatusOr<Evaluation> EvaluationEngine::evaluate(
    const Variant& variant, const Candidate& candidate,
    const TuningParams& params, const EvalConfig& config) {
  ins_.requests->add();
  if (Status compat = params.check(); !compat.is_ok()) {
    ins_.rejected->add();
    return failed_precondition("incompatible tuning parameters");
  }

  // Apply stage (always executed — it is cheap relative to simulation
  // and produces both the program and the applied-component mask the
  // cache key needs).
  obs::Span apply_span(tracer_, "engine.apply", ins_.apply_us);
  TransformContext ctx;
  ctx.params = params;
  ir::Program program = blas3::make_source_program(variant);
  auto applied = epod::apply_script_lenient(program, candidate.script, ctx);
  apply_span.finish();
  if (!applied.is_ok()) {
    ins_.rejected->add();
    return applied.status();
  }
  if (*applied == 0) {
    ins_.rejected->add();
    return failed_precondition("no component of the script applied");
  }

  // Content-addressed key: device preset, variant, script, params,
  // applied mask, eval config.
  Fingerprint key;
  key.mix(sim_.device().name)
      .mix(variant.name())
      .mix(candidate.fingerprint())
      .mix(params.fingerprint())
      .mix(*applied)
      .mix(config.fingerprint());
  const uint64_t digest = key.digest();

  if (options_.cache_enabled) {
    std::shared_ptr<const StatusOr<Evaluation>> entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(digest);
      if (it != cache_.end()) entry = it->second;
    }
    if (entry != nullptr) {
      ins_.cache_hits->add();
      if (!entry->is_ok()) ins_.rejected->add();
      StatusOr<Evaluation> out = *entry;
      if (out.is_ok()) out->from_cache = true;
      return out;
    }
  }

  StatusOr<Evaluation> result = verify_and_simulate(
      variant, candidate, params, config, std::move(program), *applied);
  ins_.cache_misses->add();
  if (!result.is_ok()) ins_.rejected->add();
  if (options_.cache_enabled) {
    auto entry = std::make_shared<const StatusOr<Evaluation>>(result);
    std::lock_guard<std::mutex> lock(mu_);
    // Concurrent evaluators of the same point race benignly: both
    // computed identical results, first insert wins.
    cache_.emplace(digest, std::move(entry));
    ins_.cache_entries->set(static_cast<double>(cache_.size()));
  }
  return result;
}

StatusOr<Evaluation> EvaluationEngine::verify_and_simulate(
    const Variant& variant, const Candidate& candidate,
    const TuningParams& params, const EvalConfig& config,
    ir::Program&& program, uint64_t applied) {
  const std::map<std::string, bool> bools = bools_for(candidate);

  // Verification depends on the *semantics* of the degenerated kernel,
  // which is determined by the applied-component mask, not the tile
  // sizes: points sharing a mask share one verification (a dropped
  // peel/binding changes the kernel's meaning, not just its speed).
  if (config.verify_size > 0) {
    Fingerprint vkey;
    // Device is part of the key: the functional run can reject a kernel
    // for device-dependent reasons (occupancy) before comparing output.
    vkey.mix(sim_.device().name)
        .mix(variant.name())
        .mix(candidate.fingerprint())
        .mix(applied)
        .mix(config.verify_size);
    const uint64_t vdigest = vkey.digest();
    // The mask-level verify cache stays on even with cache_enabled off:
    // sharing one verification per degenerated-script mask is the
    // pre-engine Tuner's semantics, not part of the memoization layer.
    bool already_verified = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      already_verified = verified_.contains(vdigest);
    }
    if (already_verified) {
      ins_.verify_reused->add();
    } else {
      obs::Span verify_span(tracer_, "engine.verify", ins_.verify_us);
      Status verified = verify_program(sim_, variant, program,
                                       config.verify_size, bools);
      verify_span.finish();
      // Only successes are shared across the mask: a failure can be
      // params-dependent (occupancy at the verify size), so it is
      // memoized per point, not per mask.
      if (verified.is_ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        verified_.insert(vdigest);
      }
      OA_RETURN_IF_ERROR(verified);
    }
  }

  RunOptions opts = config.run_options;
  opts.int_params =
      blas3::CallShape::square(variant, config.target_size).env();
  opts.bool_params = bools;
  obs::Span simulate_span(tracer_, "engine.simulate", ins_.simulate_us);
  auto perf = sim_.run_performance(program, opts);
  const double sim_us = simulate_span.finish();
  metrics_->histogram(kSimulateByVariantPrefix + variant.name())
      .record(sim_us);
  if (perf.is_ok()) {
    std::lock_guard<std::mutex> lock(fastpath_mu_);
    fastpath_ += perf->fastpath;
    fastpath_by_variant_[variant.name()] += perf->fastpath;
  }
  OA_RETURN_IF_ERROR(perf.status());

  Evaluation out;
  out.candidate = candidate;
  out.params = params;
  out.applied_mask = applied;
  out.program = std::move(program);
  out.seconds = perf->seconds;
  out.counters = perf->counters;
  // nominal_flops counts one member; batched variants are priced (and
  // credited) for the whole tuning batch.
  out.gflops = perf->gflops(
      blas3::nominal_flops(variant, config.target_size, config.target_size,
                           config.target_size) *
      static_cast<double>(blas3::tuning_batch(variant)));
  return out;
}

std::vector<StatusOr<Evaluation>> EvaluationEngine::evaluate_batch(
    const Variant& variant, const std::vector<Point>& points,
    const EvalConfig& config) {
  std::vector<std::optional<StatusOr<Evaluation>>> slots(points.size());
  ThreadPool::shared().parallel_for(
      points.size(),
      [&](size_t i) {
        slots[i].emplace(
            evaluate(variant, points[i].candidate, points[i].params,
                     config));
      },
      jobs());
  std::vector<StatusOr<Evaluation>> out;
  out.reserve(points.size());
  for (auto& slot : slots) out.push_back(*std::move(slot));
  return out;
}

EngineStats EvaluationEngine::stats() const {
  // A view over the registry: every counter below is also exported
  // verbatim by `--metrics-out` (histogram counts double as the
  // run counters, sums as the stage wall times).
  EngineStats out;
  out.requests = ins_.requests->value();
  out.cache_hits = ins_.cache_hits->value();
  out.cache_misses = ins_.cache_misses->value();
  out.evaluations = ins_.simulate_us->count();
  out.verify_runs = ins_.verify_us->count();
  out.verify_reused = ins_.verify_reused->value();
  out.rejected = ins_.rejected->value();
  out.warm_starts = ins_.warm_starts->value();
  out.apply_seconds = ins_.apply_us->sum() / 1e6;
  out.verify_seconds = ins_.verify_us->sum() / 1e6;
  out.simulate_seconds = ins_.simulate_us->sum() / 1e6;
  for (const auto& [name, hist] :
       metrics_->histograms_with_prefix(kSimulateByVariantPrefix)) {
    out.simulate_seconds_by_variant
        [name.substr(std::string_view(kSimulateByVariantPrefix).size())] =
        hist->sum() / 1e6;
  }
  {
    std::lock_guard<std::mutex> lock(fastpath_mu_);
    out.fastpath = fastpath_;
    out.fastpath_by_variant = fastpath_by_variant_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  out.cache_entries = cache_.size();
  return out;
}

void EvaluationEngine::reset_stats() {
  metrics_->reset("engine.");
  std::lock_guard<std::mutex> lock(fastpath_mu_);
  fastpath_ = gpusim::FastPathStats{};
  fastpath_by_variant_.clear();
}

void EvaluationEngine::note_warm_start() { ins_.warm_starts->add(); }

void EvaluationEngine::clear_cache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  verified_.clear();
  ins_.cache_entries->set(0.0);
}

size_t EvaluationEngine::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace oa::engine
