// generate: cold library generation along the `oagen --emit-lib` path.
// Each pass builds a fresh OaFramework with oagen's defaults and warm
// start off, generates the seed's 12 variants, then runs the pass tail
// (export_library -> exec::annotate_artifact -> libgen::save). Passes
// repeat to fill the run's seconds; every pass is the same work and the
// rates are taken over whole passes. Traced runs end with an oacheck
// campaign for the verify layer (check.cpp).
#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "exec/annotate.hpp"
#include "libgen/artifact.hpp"
#include "oa/oa.hpp"
#include "support/rng.hpp"

namespace oabench {
namespace {

using namespace oa;

/// oagen's default --tuning-size.
constexpr int64_t kTuningSize = 512;
/// Oracle re-verification size: neither the search's verify size (72)
/// nor its tuning size.
constexpr int64_t kOracleSize = 80;

OaOptions oagen_options() {
  OaOptions o;
  o.tuning_size = kTuningSize;
  o.warm_start = false;
  return o;
}

const blas3::Variant& variant(const std::string& name) {
  const blas3::Variant* v = blas3::find_variant(name);
  if (v == nullptr) {
    std::fprintf(stderr, "oabench: unknown variant %s\n", name.c_str());
    std::exit(1);
  }
  return *v;
}

std::string pick(Rng& rng, const std::vector<std::string>& pool) {
  return pool[rng.next_below(pool.size())];
}

/// The seed's 12 variants: per precision 1 GEMM, 2 SYMM, 2 TRMM and 1
/// batched GEMM, with every family's draw balanced so each seed does the
/// same search work and its winners have the same GFLOPS profile:
///   * SYMM: one left and one right side (right-side winners reach less
///     than half the GFLOPS of left-side ones);
///   * TRMM: one of four quads, each one transposed left and one right
///     TRMM per precision. A lone TRMM generate takes 1.6 s (DTRMM-LL-N)
///     to 9.5 s (DTRMM-RU-T) on 4 lanes; every quad sums to 12.2-12.8 s,
///     so the TRMM draw moves a pass by about 2%. DTRMM-RU-T is never
///     drawn, for the reason TRSM is left out: one draw would swamp the
///     pass.
std::vector<const blas3::Variant*> draw_variants(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x67656E);
  static const std::vector<std::string> kTrans = {"NN", "NT", "TN", "TT"};
  static const char* const kTrmmQuads[4][4] = {
      {"TRMM-LL-T", "TRMM-RU-N", "DTRMM-LU-T", "DTRMM-RL-N"},
      {"TRMM-LU-T", "TRMM-RU-T", "DTRMM-LL-T", "DTRMM-RL-T"},
      {"TRMM-LL-T", "TRMM-RL-T", "DTRMM-LL-T", "DTRMM-RU-N"},
      {"TRMM-LU-T", "TRMM-RL-N", "DTRMM-LL-T", "DTRMM-RU-N"}};
  const char* const* trmm = kTrmmQuads[rng.next_below(4)];
  std::vector<std::string> names;
  for (int d = 0; d < 2; ++d) {
    const std::string prefix = d == 0 ? "" : "D";
    names.push_back(prefix + "GEMM-" + pick(rng, kTrans));
    names.push_back(prefix + "SYMM-L" + pick(rng, {"L", "U"}));
    names.push_back(prefix + "SYMM-R" + pick(rng, {"L", "U"}));
    names.push_back(trmm[2 * d]);
    names.push_back(trmm[2 * d + 1]);
    names.push_back(prefix + "GEMM_" +
                    pick(rng, {"BATCHED", "STRIDED_BATCHED"}) + "-" +
                    pick(rng, kTrans));
  }
  std::vector<const blas3::Variant*> out;
  for (const std::string& n : names) out.push_back(&variant(n));
  return out;
}

struct Pass {
  std::vector<double> op_ms;
  std::vector<StatusOr<tuner::TunedVariant>> winners;
  std::vector<double> compose_ms;
  int64_t candidates = 0;
  engine::EngineStats stats;
  size_t lanes = 1;
  double wall_ms = 0.0;
  double annotate_ms = 0.0;
  double save_ms = 0.0;
  Status tail;
};

Pass run_pass(const std::vector<const blas3::Variant*>& variants,
              const std::string& lib_path, Tracer& tracer, int64_t first_op) {
  Pass p;
  const double start = now_ms();
  Tracer::Scope pass_span(&tracer, "pass", first_op);
  OaFramework fw(gpusim::gtx285(), oagen_options());
  p.lanes = fw.engine().jobs();
  for (size_t i = 0; i < variants.size(); ++i) {
    const int64_t op = first_op + static_cast<int64_t>(i);
    if (tracer.enabled()) {
      // Traced runs only: the composer is timed through the public call
      // generate() makes internally.
      Tracer::Scope s(&tracer, "oa.candidates_for", op);
      auto cands = fw.candidates_for(*variants[i]);
      p.compose_ms.push_back(s.close());
      if (cands.is_ok()) p.candidates += static_cast<int64_t>(cands->size());
    }
    Tracer::Scope s(&tracer, "oa.generate", op);
    const double t0 = now_ms();
    p.winners.push_back(fw.generate(*variants[i]));
    p.op_ms.push_back(now_ms() - t0);
  }
  p.stats = fw.engine_stats();
  {
    libgen::Artifact artifact = fw.export_library();
    Tracer::Scope annotate(&tracer, "exec.annotate_artifact", first_op);
    p.tail = exec::annotate_artifact(artifact, gpusim::gtx285());
    p.annotate_ms = annotate.close();
    if (p.tail.is_ok()) {
      Tracer::Scope save(&tracer, "libgen.save", first_op);
      p.tail = libgen::save(artifact, lib_path);
      p.save_ms = save.close();
    }
  }
  p.wall_ms = now_ms() - start;
  return p;
}

bool same_winner(const tuner::TunedVariant& a, const tuner::TunedVariant& b) {
  return a.gflops == b.gflops && a.applied_mask == b.applied_mask &&
         a.params.fingerprint() == b.params.fingerprint() &&
         a.candidate.fingerprint() == b.candidate.fingerprint();
}

}  // namespace

Outcome run_generate(const RunConfig& cfg) {
  Outcome out;
  Tracer tracer(cfg.trace);
  const std::vector<const blas3::Variant*> variants = draw_variants(cfg.seed);
  const std::string lib_path = cfg.work_dir + "/generate.oalib";

  // Set-up: framework construction plus one warm-up generate() in a
  // throwaway framework, repeated; setup_s is the median.
  std::vector<double> setup_ms;
  for (int r = 0; r < kSetupReps; ++r) {
    const double t0 = now_ms();
    OaFramework fw(gpusim::gtx285(), oagen_options());
    OaFramework throwaway(gpusim::gtx285(), oagen_options());
    (void)throwaway.generate(variant("GEMM-NN"));
    setup_ms.push_back(now_ms() - t0);
  }

  // Timed phase: the whole number of passes that best fills the run's
  // seconds (at least one).
  std::vector<Pass> passes;
  const double start = now_ms();
  do {
    passes.push_back(run_pass(variants, lib_path, tracer,
                              static_cast<int64_t>(passes.size() *
                                                   variants.size())));
  } while (now_ms() - start + passes.back().wall_ms / 2 < cfg.seconds * 1e3);
  const double rss_mb = rss_peak_mb();

  // Oracle, outside the timed phase: every winner re-verifies at a size
  // the search never used. Later passes must reproduce pass 1's winners
  // exactly; an identical winner shares pass 1's verdict.
  gpusim::Simulator sim(gpusim::gtx285());
  std::vector<bool> first_ok(variants.size(), false);
  std::vector<double> op_ms;
  std::vector<double> gflops;
  Samples layer;
  for (size_t pi = 0; pi < passes.size(); ++pi) {
    const Pass& p = passes[pi];
    for (size_t i = 0; i < variants.size(); ++i) {
      ++out.attempted;
      op_ms.push_back(p.op_ms[i]);
      const auto& w = p.winners[i];
      bool ok = w.is_ok() && p.tail.is_ok();
      if (ok && pi > 0) {
        ok = first_ok[i] && passes[0].winners[i].is_ok() &&
             same_winner(*passes[0].winners[i], *w);
      } else if (ok) {
        Tracer::Scope s(&tracer, "engine.verify_program",
                        static_cast<int64_t>(i));
        Status verified =
            engine::verify_program(sim, *variants[i], w->program,
                                   kOracleSize, tuner::bools_for(w->candidate));
        layer.add("verify", s.close());
        ok = verified.is_ok();
        if (!ok) {
          std::fprintf(stderr, "oracle: %s: %s\n",
                       variants[i]->name().c_str(),
                       verified.to_string().c_str());
        }
        first_ok[i] = ok;
        gflops.push_back(w->gflops);
        if (tracer.enabled()) {
          gpusim::RunOptions opts;
          opts.int_params = engine::size_env(*variants[i], kTuningSize);
          opts.bool_params = tuner::bools_for(w->candidate);
          Tracer::Scope sim_span(&tracer, "gpusim.run_performance",
                                 static_cast<int64_t>(i));
          (void)sim.run_performance(w->program, opts);
          layer.add("simulate", sim_span.close());
        }
      } else if (!w.is_ok()) {
        std::fprintf(stderr, "generate %s: %s\n",
                     variants[i]->name().c_str(),
                     w.status().to_string().c_str());
      }
      if (ok) ++out.ok;
    }
    if (!p.tail.is_ok()) {
      std::fprintf(stderr, "pass tail: %s\n", p.tail.to_string().c_str());
    }
  }
  out.failed = out.attempted - out.ok;

  double wall_ms = 0.0;
  std::vector<double> apply_s, verify_s, simulate_s, lane_use, annotate_ms,
      save_ms, compose_ms;
  for (const Pass& p : passes) {
    wall_ms += p.wall_ms;
    apply_s.push_back(p.stats.apply_seconds);
    verify_s.push_back(p.stats.verify_seconds);
    simulate_s.push_back(p.stats.simulate_seconds);
    double gen_ms = 0.0;
    for (double ms : p.op_ms) gen_ms += ms;
    const double busy =
        p.stats.apply_seconds + p.stats.verify_seconds +
        p.stats.simulate_seconds;
    lane_use.push_back(busy / (gen_ms / 1e3 * static_cast<double>(p.lanes)));
    annotate_ms.push_back(p.annotate_ms);
    save_ms.push_back(p.save_ms);
    compose_ms.insert(compose_ms.end(), p.compose_ms.begin(),
                      p.compose_ms.end());
  }

  const double kernel_gflops =
      gflops.size() == variants.size() ? geomean(gflops) : 0.0;
  Metrics& e = out.end_to_end;
  set(e, "setup_s", median(setup_ms) / 1e3, "s");
  set(e, "ops_per_s", static_cast<double>(out.attempted) / (wall_ms / 1e3),
      "1/s");
  set(e, "lat_p50_ms", median(op_ms), "ms");
  set(e, "lat_p99_ms", percentile(op_ms, 99.0), "ms");
  set(e, "ok_rate",
      static_cast<double>(out.ok) / static_cast<double>(out.attempted),
      "ratio");
  set(e, "rss_peak_mb", rss_mb, "MB");
  set(e, "kernel_gflops", kernel_gflops, "GFLOP/s");

  const engine::EngineStats& s = passes.front().stats;
  Metrics& l = out.per_layer;
  set(l, "composer.compose_ms", median(compose_ms), "ms");
  set(l, "composer.candidates", static_cast<double>(passes.front().candidates),
      "count");
  set(l, "engine.points", static_cast<double>(s.requests), "count");
  set(l, "engine.evaluations", static_cast<double>(s.evaluations), "count");
  set(l, "engine.verify_runs", static_cast<double>(s.verify_runs), "count");
  set(l, "engine.verify_reused", static_cast<double>(s.verify_reused),
      "count");
  set(l, "engine.cache_hit_rate", s.hit_rate(), "ratio");
  set(l, "engine.apply_s", median(apply_s), "s");
  set(l, "engine.verify_s", median(verify_s), "s");
  set(l, "engine.simulate_s", median(simulate_s), "s");
  set(l, "engine.lane_use", median(lane_use), "ratio");
  set(l, "gpusim.simulate_call_ms", layer.median_of("simulate"), "ms");
  set(l, "gpusim.fastpath_coverage", s.fastpath.coverage(), "ratio");
  set(l, "gpusim.verify_call_ms", layer.median_of("verify"), "ms");
  set(l, "exec.annotate_ms", median(annotate_ms), "ms");
  set(l, "libgen.save_ms", median(save_ms), "ms");
  set(l, "trace.op_p50_ms", median(tracer.durations("oa.generate")), "ms");

  std::string names;
  for (const blas3::Variant* v : variants) names += v->name() + " ";
  out.determinism["variants"] = names;
  out.determinism["engine.points"] = std::to_string(s.requests);
  out.determinism["engine.evaluations"] = std::to_string(s.evaluations);
  out.determinism["engine.verify_runs"] = std::to_string(s.verify_runs);
  out.determinism["kernel_gflops"] = exact(kernel_gflops);
  if (tracer.enabled()) {
    out.determinism["composer.candidates"] =
        std::to_string(passes.front().candidates);
    run_check_campaign(cfg.seed, tracer, out);
    tracer.write_chrome(cfg.work_dir + "/trace-generate.json");
    std::fputs(tracer.self_time_table().c_str(), stderr);
  }
  return out;
}

}  // namespace oabench
