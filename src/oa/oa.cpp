#include "oa/oa.hpp"

#include <algorithm>

#include "blas3/call_shape.hpp"
#include "blas3/source_ir.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace oa {

using blas3::Family;
using blas3::Trans;
using blas3::Variant;

OaFramework::OaFramework(const gpusim::DeviceModel& device,
                         OaOptions options)
    : sim_(device),
      options_(std::move(options)),
      engine_(std::make_unique<engine::EvaluationEngine>(
          sim_, engine::EngineOptions{options_.jobs, options_.engine_cache,
                                      options_.metrics, options_.tracer})),
      store_key_(str_format("%s#%016llx", device.name.c_str(),
                            static_cast<unsigned long long>(
                                libgen::device_fingerprint(device)))) {}

std::vector<adl::Adaptor> OaFramework::adaptors_for(const Variant& v) {
  std::vector<adl::Adaptor> out;
  switch (v.family) {
    case Family::kGemm:
      if (v.trans_a == Trans::kT) {
        out.push_back(adl::adaptor_transpose().bind("A"));
      }
      if (v.trans_b == Trans::kT) {
        out.push_back(adl::adaptor_transpose().bind("B"));
      }
      // Batched families add the batch-dimension grouping axis: every
      // member-schedule candidate exists with per_member and with
      // batch_tiled grid layout, and the search prices both.
      if (v.batch != blas3::Batch::kSingle) {
        out.push_back(adl::adaptor_batch().bind("A"));
      }
      break;
    case Family::kSymm:
      out.push_back(adl::adaptor_symmetry().bind("A"));
      break;
    case Family::kTrmm:
      out.push_back(adl::adaptor_triangular().bind("A"));
      if (v.trans == Trans::kT) {
        out.push_back(adl::adaptor_transpose().bind("A"));
      }
      break;
    case Family::kTrsm:
      out.push_back(adl::adaptor_solver().bind("A"));
      if (v.trans == Trans::kT) {
        out.push_back(adl::adaptor_transpose().bind("A"));
      }
      break;
    case Family::kSyrk:
      // Extension: the triangular *output* space reuses the same
      // peel/padding machinery; padding would overwrite the blank
      // triangle of C and is rejected by functional verification, so
      // the search settles on the empty or peeled rule.
      out.push_back(adl::adaptor_triangular().bind("C"));
      break;
  }
  return out;
}

StatusOr<std::vector<composer::Candidate>> OaFramework::candidates_for(
    const Variant& v) const {
  ir::Program source = blas3::make_source_program(v);
  obs::Span compose_span(engine_->tracer(), "oa.compose",
                         &engine_->metrics().histogram("oa.compose_us"));
  // The GEMM-NN base script extends unmodified to every routine:
  // thread_grouping assigns the serialized grid dimension to whichever
  // loop carries a dependence (TRSM's solve dimension, either side),
  // and loop_tiling orders the point chain by actual nesting. For the
  // structured families the *mirrored* grouping (Lj across grid Y) is
  // composed as well — right-side routines carry their triangle along
  // j, and the search picks whichever orientation wins.
  transforms::TransformContext ctx;
  ctx.metrics = &engine_->metrics();
  auto result =
      composer::compose(options_.base_script, adaptors_for(v), source, ctx);
  if (!result.is_ok()) return result.status();
  if (v.family != Family::kGemm) {
    auto mirrored_script = epod::parse_script(R"(
      (Ljj, Lii) = thread_grouping(Lj, Li);
      (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
      loop_unroll(Ljjj, Lkkk);
      SM_alloc(B, Transpose);
      reg_alloc(C);
    )");
    if (mirrored_script.is_ok()) {
      auto mirrored =
          composer::compose(*mirrored_script, adaptors_for(v), source, ctx);
      if (mirrored.is_ok()) {
        for (composer::Candidate& c : *mirrored) {
          if (std::find(result->begin(), result->end(), c) ==
              result->end()) {
            result->push_back(std::move(c));
          }
        }
      }
    }
  }
  // Staging twin: CC 1.0 serializes broadcast/strided global reads, so
  // the tuning experience also includes optionally staging the
  // structured operand in shared memory; the allocator appends the
  // declaration and the search decides whether it pays off.
  if (source.find_global("A") != nullptr) {
    const size_t original = result->size();
    for (size_t i = 0; i < original; ++i) {
      composer::Candidate twin = (*result)[i];
      bool has_a_alloc = false;
      for (const auto& inv : twin.script.invocations) {
        if (inv.component == "SM_alloc" && !inv.args.empty() &&
            inv.args[0] == "A") {
          has_a_alloc = true;
        }
      }
      if (has_a_alloc) continue;
      twin.script.invocations.push_back(
          transforms::Invocation{"SM_alloc", {"A", "NoChange"}, {}});
      if (std::find(result->begin(), result->end(), twin) ==
          result->end()) {
        result->push_back(std::move(twin));
      }
    }
  }
  // The base script names GEMM's arrays; routines without a separate C
  // (TRSM updates B in place) have their memory declarations retargeted
  // to the actual output array — the allocator's job in the paper.
  const char* out_array = blas3::output_array(v);
  for (composer::Candidate& c : *result) {
    for (transforms::Invocation& inv : c.script.invocations) {
      if (!transforms::is_memory_component(inv.component)) continue;
      // batch_grouping's argument is a layout mode, not an array.
      if (inv.component == "batch_grouping") continue;
      if (!inv.args.empty() && source.find_global(inv.args[0]) == nullptr) {
        inv.args[0] = out_array;
      }
    }
  }
  return result;
}

Status OaFramework::set_library(libgen::Artifact artifact) {
  OA_RETURN_IF_ERROR(libgen::check_device(artifact, sim_.device()));
  library_ = std::move(artifact);
  return Status::ok();
}

Status OaFramework::load_library(const std::string& path) {
  OA_ASSIGN_OR_RETURN(libgen::Artifact artifact, libgen::load(path));
  return set_library(std::move(artifact));
}

libgen::Artifact OaFramework::export_library() const {
  libgen::Artifact artifact;
  artifact.device = sim_.device().name;
  artifact.device_fp = libgen::device_fingerprint(sim_.device());
  artifact.generator = "oa::OaFramework";
  if (library_) {
    // Re-exporting a loaded library keeps entries that were not
    // regenerated this session; fresh results below replace stale ones.
    artifact.entries = library_->entries;
  }
  for (const auto& [name, entry] : generated_) {
    artifact.upsert(entry);
  }
  return artifact;
}

StatusOr<tuner::TunedVariant> OaFramework::generate(const Variant& v) {
  auto it = cache_.find(v.name());
  if (it != cache_.end()) return it->second;
  obs::Span generate_span(
      engine_->tracer(), "oa.generate." + v.name(),
      &engine_->metrics().histogram("oa.generate_us"));

  OA_ASSIGN_OR_RETURN(std::vector<composer::Candidate> candidates,
                      candidates_for(v));

  const libgen::ArtifactEntry* lib_entry =
      library_ ? library_->find(v.name()) : nullptr;
  const int64_t tuned_size =
      v.family == Family::kTrsm
          ? std::max<int64_t>(options_.tuning_size, 2048)
          : options_.tuning_size;
  auto admit = [&](tuner::TunedVariant eval,
                   int64_t size) -> tuner::TunedVariant {
    engine_->note_warm_start();
    libgen::SessionStore::instance().put(store_key_, v.name(),
                                         {eval, size});
    generated_[v.name()] = libgen::make_entry(v, eval, size);
    cache_.emplace(v.name(), eval);
    return eval;
  };
  if (options_.warm_start) {
    // First a loaded artifact, then the process-wide session store: a
    // recorded result is served without any verify/simulate call when
    // its candidate fingerprint still matches a fresh candidate and the
    // script re-applies to the identical component mask.
    if (lib_entry != nullptr) {
      auto warm = libgen::reconstruct(*lib_entry, v, candidates);
      if (warm.is_ok()) {
        OA_LOG(kInfo) << v.name() << ": warm start from library artifact";
        return admit(*std::move(warm), lib_entry->tuned_size);
      }
      OA_LOG(kInfo) << v.name() << ": artifact entry stale ("
                    << warm.status().to_string() << "), searching";
    }
    auto stored =
        libgen::SessionStore::instance().get(store_key_, v.name());
    if (stored) {
      const uint64_t fp = stored->eval.candidate.fingerprint();
      for (const composer::Candidate& c : candidates) {
        if (c.fingerprint() == fp) {
          OA_LOG(kInfo) << v.name() << ": warm start from session store";
          return admit(std::move(stored->eval), stored->tuned_size);
        }
      }
    }
  }

  tuner::TuneOptions topt;
  // Wave-serialized solvers have size-dependent trade-offs (launch
  // overhead vs parallel width): tune them at a size large enough for
  // the asymptotic regime (folded into tuned_size above).
  topt.target_size = tuned_size;
  topt.verify_size = options_.verify_size;
  topt.exhaustive = options_.exhaustive_search;
  topt.run_options.fastpath = options_.fastpath;
  if (options_.seed_from_artifact && lib_entry != nullptr) {
    // The artifact's tuning experience drifted but is still a good
    // neighbourhood: start the line search from its parameters.
    topt.seed = lib_entry->params;
  }
  // All variants tune through the shared engine: identical points that
  // reappear across variants (cross-variant adaptor reuse) and across
  // the figure benches hit its cache instead of re-simulating.
  tuner::Tuner tuner(*engine_, topt);
  OA_ASSIGN_OR_RETURN(tuner::TunedVariant best, tuner.tune(v, candidates));
  libgen::SessionStore::instance().put(store_key_, v.name(),
                                       {best, tuned_size});
  generated_[v.name()] = libgen::make_entry(v, best, tuned_size);
  cache_.emplace(v.name(), best);
  return best;
}

StatusOr<double> OaFramework::measure_gflops(
    const tuner::TunedVariant& tuned, const Variant& v, int64_t n) const {
  gpusim::RunOptions opts;
  opts.fastpath = options_.fastpath;
  opts.int_params = blas3::CallShape::square(v, n).env();
  opts.bool_params = tuner::bools_for(tuned.candidate);
  OA_ASSIGN_OR_RETURN(gpusim::RunResult result,
                      sim_.run_performance(tuned.program, opts));
  return result.gflops(blas3::nominal_flops(v, n, n, n) *
                       static_cast<double>(blas3::tuning_batch(v)));
}

StatusOr<double> OaFramework::measure_baseline_gflops(
    const ir::Program& program, const Variant& v, int64_t n) const {
  gpusim::RunOptions opts;
  opts.fastpath = options_.fastpath;
  opts.int_params = blas3::CallShape::square(v, n).env();
  OA_ASSIGN_OR_RETURN(gpusim::RunResult result,
                      sim_.run_performance(program, opts));
  return result.gflops(blas3::nominal_flops(v, n, n, n) *
                       static_cast<double>(blas3::tuning_batch(v)));
}

StatusOr<gpusim::Counters> OaFramework::profile(
    const ir::Program& program, const Variant& v, int64_t n,
    const std::map<std::string, bool>& bool_params) const {
  gpusim::RunOptions opts;
  opts.fastpath = options_.fastpath;
  opts.int_params = blas3::CallShape::square(v, n).env();
  opts.bool_params = bool_params;
  OA_ASSIGN_OR_RETURN(gpusim::RunResult result,
                      sim_.run_performance(program, opts));
  // cuda_profile reports per kernel; the paper profiles the main
  // computation kernel (e.g. ssymm_main_hw_lo_left_fulltile), so
  // data-layout pre-passes (GM_map) are not included.
  return gpusim::report_per_sm(result.kernels.back().counters,
                               sim_.device());
}

Status OaFramework::run(const ir::Program& program, const Variant& v,
                        const blas3::Matrix& a, blas3::Matrix& b,
                        blas3::Matrix* c,
                        const std::map<std::string, bool>& bool_params)
    const {
  // Shared with runtime::LibraryRuntime, which serves the same matrix
  // conventions without an OaFramework; blas3::CallShape validates the
  // operands there.
  return engine::execute_program(sim_, program, v, a, b, c, bool_params);
}

}  // namespace oa
