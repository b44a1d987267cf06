// oagen — command-line driver for the OA framework.
//
//   oagen --list                                   list routines/devices
//   oagen --routine SYMM-LL [--device gtx285]      generate + report
//   oagen --routine GEMM-TN --show-candidates      composer output only
//   oagen --routine TRMM-LL-N --script file.epod   apply a user script
//   oagen --routine SYMM-LL --adaptor file.adl     use a custom adaptor
//   oagen --routine SYMM-LL --size 4096            performance at size N
//   oagen --emit-lib lib.oalib                     generate the whole
//                                                  library artifact
//   oagen --load-lib lib.oalib [--routine NAME]    warm-start from it
//   oagen --dump-scripts                           candidate scripts
//                                                  (CI cache key)
//
// Scripts and adaptors use the syntax documented in docs/LANGUAGES.md;
// the artifact format in docs/ARTIFACT.md.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "blas3/source_ir.hpp"
#include "epod/script.hpp"
#include "exec/annotate.hpp"
#include "libgen/artifact.hpp"
#include "oa/oa.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ir/printer.hpp"
#include "runtime/library_runtime.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "tuner/tuner.hpp"

namespace {

using namespace oa;

/// Strict base-10 parse: the whole string must be a number (no empty
/// strings, no trailing garbage, no overflow) — `--size 12garbage` is a
/// usage error, not a silent 12 (and `--size` with nothing after it is
/// not a silent 0, which std::atoll("") used to produce).
bool parse_int64(const char* s, int64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

const gpusim::DeviceModel* device_by_name(const std::string& name) {
  if (name == "geforce9800" || name == "9800") {
    return &gpusim::geforce_9800();
  }
  if (name == "gtx285" || name == "285") return &gpusim::gtx285();
  if (name == "fermi" || name == "c2050") return &gpusim::fermi_c2050();
  return nullptr;
}

StatusOr<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return not_found("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage() {
  std::printf(
      "usage: oagen --routine NAME [options]\n"
      "       oagen --list\n\n"
      "options:\n"
      "  --device geforce9800|gtx285|fermi   target GPU (default gtx285)\n"
      "  --size N                            measure GFLOPS at N "
      "(default 1024)\n"
      "  --tuning-size N                     search problem size "
      "(default 512)\n"
      "  --precision s|d|all                 restrict to single (s/f32) "
      "or double (d/f64) routines; library\n"
      "                                      modes default to all\n"
      "  --variants A,B,...                  generate a comma-separated "
      "list of routines (underscore\n"
      "                                      spellings like "
      "GEMM_BATCHED_NN accepted)\n"
      "  --quick                             smoke-test search budget "
      "(small tuning/verify sizes)\n"
      "  --show-candidates                   print the composer output "
      "and exit\n"
      "  --show-kernel                       print the generated kernel "
      "IR\n"
      "  --script FILE                       apply an EPOD script "
      "instead of searching\n"
      "  --adaptor FILE                      compose a custom ADL "
      "adaptor (bound to A)\n"
      "  --exhaustive                        exhaustive parameter sweep\n"
      "  --jobs N                            parallel evaluation lanes "
      "(default: all cores)\n"
      "  --no-cache                          disable evaluation "
      "memoization\n"
      "  --no-fastpath                       pure interpreter simulation "
      "(counters are identical; slower)\n"
      "  --engine-stats                      print search-cost breakdown "
      "after generation\n"
      "  --emit-lib FILE                     generate (all routines "
      "unless --routine) and save the library artifact\n"
      "  --load-lib FILE                     load a library artifact; "
      "matching entries are served without re-tuning\n"
      "  --no-warm-start                     ignore artifact/session "
      "warm starts (always search)\n"
      "  --warm-start                        when an artifact entry is "
      "stale, seed the search from its parameters\n"
      "  --dump-scripts                      print the candidate EPOD "
      "scripts (text serialization) and exit\n"
      "  --metrics-out FILE                  export the process-wide "
      "metrics registry as JSON on exit\n"
      "  --trace-out FILE                    export collected spans as "
      "Chrome trace JSON on exit\n");
  return 2;
}

/// Serve every artifact entry through a LibraryRuntime sharing the
/// process-wide registry, so a `--metrics-out` export also carries the
/// serving-side counters and per-outcome dispatch-latency histograms.
/// Runs only for `--metrics-out` (it exists to populate the serving
/// metrics; `--trace-out` alone adds no extra work). Sizes are bounded
/// so the check stays cheap even for a full library artifact.
/// Requests go through serve() — admission control plus native
/// execution, the production path — so the export reflects the
/// deployed configuration (docs/SERVING.md).
void serving_self_check(const gpusim::DeviceModel& device,
                        libgen::Artifact artifact) {
  runtime::RuntimeOptions ropt;
  ropt.metrics = &obs::MetricsRegistry::global();
  runtime::LibraryRuntime rt(device, std::move(artifact), ropt);
  for (const libgen::ArtifactEntry& entry :
       rt.snapshot()->artifact().entries) {
    const blas3::Variant* v = blas3::find_variant(entry.variant);
    if (v == nullptr) continue;
    for (int64_t n :
         {int64_t{96}, std::min<int64_t>(entry.tuned_size, 256)}) {
      Rng rng(0x0B5E ^ static_cast<uint64_t>(n));
      const Precision p = v->precision;
      blas3::Matrix a(n, n, p), b(n, n, p), c(n, n, p);
      a.fill_random(rng);
      b.fill_random(rng);
      if (v->family == blas3::Family::kTrmm ||
          v->family == blas3::Family::kTrsm ||
          v->family == blas3::Family::kSymm) {
        a.make_triangular(v->uplo);
      }
      if (v->family == blas3::Family::kTrsm) {
        a.set_unit_diagonal();
        a.scale_off_diagonal(1.0f / 16.0f);
      }
      auto outcome = rt.serve(*v, a, b, &c);
      if (!outcome.is_ok()) {
        std::printf("self-check %s at N=%lld: %s\n", v->name().c_str(),
                    static_cast<long long>(n),
                    outcome.status().to_string().c_str());
      }
    }
  }
  std::printf("serving self-check: %s\n", rt.stats().to_string().c_str());
}

/// Writes the observability exports when main returns, whatever the
/// exit path.
struct ObsExport {
  std::string metrics_path;
  std::string trace_path;
  ~ObsExport() {
    if (!metrics_path.empty() &&
        !obs::write_json(obs::MetricsRegistry::global(), metrics_path)) {
      std::fprintf(stderr, "oagen: cannot write metrics to '%s'\n",
                   metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (out) {
        out << obs::TraceCollector::global().to_chrome_json();
      } else {
        std::fprintf(stderr, "oagen: cannot write trace to '%s'\n",
                     trace_path.c_str());
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarning);
  std::string routine, device_name = "gtx285", script_path, adaptor_path;
  std::string emit_lib, load_lib, metrics_out, trace_out, variants_arg;
  std::string precision_arg = "all";
  int64_t size = 1024, tuning_size = 512, jobs = 0;
  bool list = false, show_candidates = false, show_kernel = false,
       exhaustive = false, no_cache = false, engine_stats = false,
       no_fastpath = false, no_warm_start = false, seed_warm_start = false,
       dump_scripts = false, quick = false, tuning_size_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A value flag with nothing after it is a usage error, never an
    // empty string or a silently-parsed 0.
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "oagen: %s needs a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    auto next_int = [&](int64_t min_value, int64_t* out) -> bool {
      const char* v = next();
      if (v == nullptr) return false;
      if (!parse_int64(v, out) || *out < min_value) {
        std::fprintf(stderr,
                     "oagen: %s needs an integer >= %lld, got '%s'\n",
                     arg.c_str(), static_cast<long long>(min_value), v);
        return false;
      }
      return true;
    };
    auto next_str = [&](std::string* out) -> bool {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        if (v != nullptr) {
          std::fprintf(stderr, "oagen: %s needs a non-empty value\n",
                       arg.c_str());
        }
        return false;
      }
      *out = v;
      return true;
    };
    if (arg == "--routine") {
      if (!next_str(&routine)) return usage();
    } else if (arg == "--device") {
      if (!next_str(&device_name)) return usage();
    } else if (arg == "--size") {
      if (!next_int(1, &size)) return usage();
    } else if (arg == "--tuning-size") {
      if (!next_int(1, &tuning_size)) return usage();
      tuning_size_set = true;
    } else if (arg == "--variants") {
      if (!next_str(&variants_arg)) return usage();
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--precision") {
      if (!next_str(&precision_arg)) return usage();
    } else if (arg == "--script") {
      if (!next_str(&script_path)) return usage();
    } else if (arg == "--adaptor") {
      if (!next_str(&adaptor_path)) return usage();
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--show-candidates") {
      show_candidates = true;
    } else if (arg == "--show-kernel") {
      show_kernel = true;
    } else if (arg == "--exhaustive") {
      exhaustive = true;
    } else if (arg == "--jobs") {
      if (!next_int(0, &jobs)) return usage();
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--no-fastpath") {
      no_fastpath = true;
    } else if (arg == "--engine-stats") {
      engine_stats = true;
    } else if (arg == "--emit-lib") {
      if (!next_str(&emit_lib)) return usage();
    } else if (arg == "--load-lib") {
      if (!next_str(&load_lib)) return usage();
    } else if (arg == "--no-warm-start") {
      no_warm_start = true;
    } else if (arg == "--warm-start") {
      seed_warm_start = true;
    } else if (arg == "--dump-scripts") {
      dump_scripts = true;
    } else if (arg == "--metrics-out") {
      if (!next_str(&metrics_out)) return usage();
    } else if (arg == "--trace-out") {
      if (!next_str(&trace_out)) return usage();
    } else {
      std::fprintf(stderr, "oagen: unknown flag '%s'\n", arg.c_str());
      return usage();
    }
  }
  ObsExport obs_export{metrics_out, trace_out};

  // Strict precision selection: "s"/"f32", "d"/"f64", or "all" (the
  // default — library generation covers the whole 48-variant family).
  const bool all_precisions = precision_arg == "all";
  Precision precision = kLegacyPrecision;
  if (!all_precisions && !parse_precision(precision_arg, &precision)) {
    std::fprintf(stderr,
                 "oagen: --precision must be s, d, f32, f64 or all, got "
                 "'%s'\n",
                 precision_arg.c_str());
    return usage();
  }

  if (list) {
    std::printf("devices: geforce9800, gtx285, fermi\nroutines:\n");
    for (const auto& v : blas3::all_variants()) {
      std::printf("  %s\n", v.name().c_str());
    }
    std::printf("batched routines:\n");
    for (const auto& v : blas3::batched_variants()) {
      std::printf("  %s\n", v.name().c_str());
    }
    return 0;
  }

  // --variants: an explicit multi-routine target list ("GEMM_BATCHED_NN"
  // underscore spellings resolve through the find_variant alias).
  std::vector<const blas3::Variant*> chosen;
  if (!variants_arg.empty()) {
    if (!routine.empty()) {
      std::fprintf(stderr,
                   "oagen: --routine and --variants are exclusive\n");
      return usage();
    }
    std::stringstream names(variants_arg);
    std::string name;
    while (std::getline(names, name, ',')) {
      if (name.empty()) continue;
      const blas3::Variant* v = blas3::find_variant(name);
      if (v == nullptr) {
        std::printf("unknown routine '%s' (try --list)\n", name.c_str());
        return 1;
      }
      chosen.push_back(v);
    }
    if (chosen.empty()) {
      std::fprintf(stderr, "oagen: --variants names no routine\n");
      return usage();
    }
  }

  // Library modes (--emit-lib / --load-lib / --dump-scripts /
  // --variants) default to every routine unless narrowed.
  const bool library_mode = !emit_lib.empty() || !load_lib.empty() ||
                            dump_scripts || !chosen.empty();
  if (routine.empty() && !library_mode) return usage();
  const blas3::Variant* variant = nullptr;
  if (!routine.empty()) {
    variant = blas3::find_variant(routine);
    if (variant == nullptr) {
      std::printf("unknown routine '%s' (try --list)\n", routine.c_str());
      return 1;
    }
    // A named routine already encodes its precision ("DGEMM-NN" is the
    // f64 GEMM); a contradicting --precision is a usage error, not a
    // silent override.
    if (!all_precisions && variant->precision != precision) {
      std::fprintf(stderr, "oagen: routine %s is %s but --precision asked "
                           "for %s\n",
                   variant->name().c_str(),
                   precision_name(variant->precision),
                   precision_name(precision));
      return usage();
    }
  }
  const gpusim::DeviceModel* device = device_by_name(device_name);
  if (device == nullptr) {
    std::printf("unknown device '%s'\n", device_name.c_str());
    return 1;
  }

  OaOptions options;
  options.tuning_size = tuning_size;
  if (quick) {
    // Smoke-test budget: small search size (unless --tuning-size was
    // explicit) and a small verification grid. Matches the CI batched
    // smoke lane, where wall-clock matters more than peak GFLOPS.
    if (!tuning_size_set) options.tuning_size = 96;
    options.verify_size = 48;
  }
  options.exhaustive_search = exhaustive;
  options.jobs = static_cast<size_t>(jobs);
  options.engine_cache = !no_cache;
  options.fastpath = !no_fastpath;
  options.warm_start = !no_warm_start;
  options.seed_from_artifact = seed_warm_start;
  // One registry for the whole pipeline: engine, tuner, composer, and
  // the serving self-check all export into the same --metrics-out file.
  const bool observability = !metrics_out.empty() || !trace_out.empty();
  if (observability) {
    options.metrics = &obs::MetricsRegistry::global();
  }
  if (!trace_out.empty()) {
    options.tracer = &obs::TraceCollector::global();
  }
  OaFramework framework(*device, options);

  std::vector<const blas3::Variant*> targets;
  if (!chosen.empty()) {
    targets = chosen;
  } else if (variant != nullptr) {
    targets.push_back(variant);
  } else {
    for (const blas3::Variant& v : blas3::all_variants()) {
      if (all_precisions || v.precision == precision) targets.push_back(&v);
    }
    // Library generation covers the batched families too — the catalog
    // an artifact serves is 64 routines, not 48 (docs/BATCHED.md).
    for (const blas3::Variant& v : blas3::batched_variants()) {
      if (all_precisions || v.precision == precision) targets.push_back(&v);
    }
  }

  // --- candidate scripts in the artifact text serialization ----------
  if (dump_scripts) {
    for (const blas3::Variant* v : targets) {
      auto candidates = framework.candidates_for(*v);
      if (!candidates.is_ok()) {
        std::printf("%s: %s\n", v->name().c_str(),
                    candidates.status().to_string().c_str());
        return 1;
      }
      std::printf("=== %s: %zu candidate script(s) ===\n",
                  v->name().c_str(), candidates->size());
      for (const composer::Candidate& c : *candidates) {
        std::printf("%s", epod::to_text(c.script).c_str());
      }
    }
    return 0;
  }

  if (!load_lib.empty()) {
    Status loaded = framework.load_library(load_lib);
    if (!loaded.is_ok()) {
      std::printf("load-lib: %s\n", loaded.to_string().c_str());
      return 1;
    }
    std::printf("loaded %zu library entr%s from %s\n",
                framework.library()->entries.size(),
                framework.library()->entries.size() == 1 ? "y" : "ies",
                load_lib.c_str());
  }

  // --- whole-library generation / warm service -----------------------
  if (!emit_lib.empty() || !chosen.empty() ||
      (variant == nullptr && !load_lib.empty())) {
    int failures = 0;
    for (const blas3::Variant* v : targets) {
      auto tuned = framework.generate(*v);
      if (!tuned.is_ok()) {
        std::printf("%-12s FAILED: %s\n", v->name().c_str(),
                    tuned.status().to_string().c_str());
        ++failures;
        continue;
      }
      std::printf("%-12s %8.1f GFLOPS  (%s)\n", v->name().c_str(),
                  tuned->gflops, tuned->params.to_string().c_str());
    }
    if (engine_stats) {
      std::printf("\n%s\n", framework.engine_stats().to_string().c_str());
    }
    if (!emit_lib.empty()) {
      libgen::Artifact artifact = framework.export_library();
      Status annotated = exec::annotate_artifact(artifact, *device);
      if (!annotated.is_ok()) {
        std::printf("emit-lib: exec annotation: %s\n",
                    annotated.to_string().c_str());
        return 1;
      }
      Status saved = libgen::save(artifact, emit_lib);
      if (!saved.is_ok()) {
        std::printf("emit-lib: %s\n", saved.to_string().c_str());
        return 1;
      }
      std::printf("\nwrote %zu entr%s to %s\n", artifact.entries.size(),
                  artifact.entries.size() == 1 ? "y" : "ies",
                  emit_lib.c_str());
    }
    if (!metrics_out.empty()) {
      serving_self_check(*device, framework.export_library());
    }
    return failures == 0 ? 0 : 1;
  }

  // --- show composer output ------------------------------------------
  if (show_candidates) {
    StatusOr<std::vector<composer::Candidate>> candidates =
        framework.candidates_for(*variant);
    if (!adaptor_path.empty()) {
      auto text = read_file(adaptor_path);
      if (!text.is_ok()) {
        std::printf("%s\n", text.status().to_string().c_str());
        return 1;
      }
      auto adaptor = adl::parse_adaptor(*text);
      if (!adaptor.is_ok()) {
        std::printf("ADL error: %s\n",
                    adaptor.status().to_string().c_str());
        return 1;
      }
      ir::Program source = blas3::make_source_program(*variant);
      transforms::TransformContext ctx;
      candidates = composer::compose(epod::gemm_nn_script(),
                                     {adaptor->bind("A")}, source, ctx);
    }
    if (!candidates.is_ok()) {
      std::printf("%s\n", candidates.status().to_string().c_str());
      return 1;
    }
    std::printf("%zu candidate script(s) for %s:\n\n", candidates->size(),
                variant->name().c_str());
    for (size_t i = 0; i < candidates->size(); ++i) {
      std::printf("--- %zu ---\n%s\n", i + 1,
                  (*candidates)[i].script.to_string().c_str());
    }
    return 0;
  }

  // --- user-provided script ------------------------------------------
  if (!script_path.empty()) {
    auto text = read_file(script_path);
    if (!text.is_ok()) {
      std::printf("%s\n", text.status().to_string().c_str());
      return 1;
    }
    auto script = epod::parse_script(*text);
    if (!script.is_ok()) {
      std::printf("script error: %s\n",
                  script.status().to_string().c_str());
      return 1;
    }
    ir::Program program = blas3::make_source_program(*variant);
    transforms::TransformContext ctx;
    auto mask = epod::apply_script_lenient(program, *script, ctx);
    if (!mask.is_ok()) {
      std::printf("apply failed: %s\n", mask.status().to_string().c_str());
      return 1;
    }
    std::printf("applied %d of %zu component(s)\n",
                __builtin_popcountll(*mask), script->invocations.size());
    Status verified =
        tuner::verify_program(framework.simulator(), *variant, program, 72,
                              {{"blank_zero", true}});
    std::printf("verification: %s\n", verified.to_string().c_str());
    auto gflops =
        framework.measure_baseline_gflops(program, *variant, size);
    if (gflops.is_ok()) {
      std::printf("performance at N=%lld on %s: %.1f GFLOPS\n",
                  static_cast<long long>(size), device->name.c_str(),
                  *gflops);
    }
    if (show_kernel) std::printf("\n%s\n", ir::to_string(program).c_str());
    return verified.is_ok() ? 0 : 1;
  }

  // --- full generation -----------------------------------------------
  auto tuned = framework.generate(*variant);
  if (engine_stats) {
    std::printf("%s\n\n", framework.engine_stats().to_string().c_str());
  }
  if (!tuned.is_ok()) {
    std::printf("generation failed: %s\n",
                tuned.status().to_string().c_str());
    return 1;
  }
  std::printf("best EPOD script for %s on %s (params %s):\n\n%s\n",
              variant->name().c_str(), device->name.c_str(),
              tuned->params.to_string().c_str(),
              tuned->candidate.script.to_string().c_str());
  auto gflops = framework.measure_gflops(*tuned, *variant, size);
  if (gflops.is_ok()) {
    std::printf("performance at N=%lld: %.1f GFLOPS\n",
                static_cast<long long>(size), *gflops);
  }
  auto cublas = baseline::cublas_like(*variant, *device);
  if (cublas.is_ok()) {
    auto base = framework.measure_baseline_gflops(*cublas, *variant, size);
    if (base.is_ok() && *base > 0 && gflops.is_ok()) {
      std::printf("CUBLAS-like baseline: %.1f GFLOPS (speedup %.2fx)\n",
                  *base, *gflops / *base);
    }
  }
  if (show_kernel) {
    std::printf("\n%s\n", ir::to_string(tuned->program).c_str());
  }
  if (!metrics_out.empty()) {
    serving_self_check(*device, framework.export_library());
  }
  return 0;
}
