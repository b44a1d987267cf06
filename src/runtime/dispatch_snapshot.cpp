#include "runtime/dispatch_snapshot.hpp"

#include <utility>

#include "baseline/baseline.hpp"
#include "blas3/call_shape.hpp"
#include "engine/evaluation_engine.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace oa::runtime {

using blas3::Family;
using blas3::Side;
using blas3::Trans;
using blas3::Uplo;
using blas3::Variant;

int variant_code(const Variant& v) {
  // Only the fields name() prints for the family take part in the
  // code; everything else is forced to its default so a caller-built
  // Variant with stray values in ignored fields still lands on the
  // catalog variant of the same name.
  int ta = 0, tb = 0, side = 0, uplo = 0, tr = 0;
  switch (v.family) {
    case Family::kGemm:
      ta = v.trans_a == Trans::kT;
      tb = v.trans_b == Trans::kT;
      break;
    case Family::kSymm:
      side = v.side == Side::kRight;
      uplo = v.uplo == Uplo::kUpper;
      break;
    case Family::kTrmm:
    case Family::kTrsm:
      side = v.side == Side::kRight;
      uplo = v.uplo == Uplo::kUpper;
      tr = v.trans == Trans::kT;
      break;
    case Family::kSyrk:
      uplo = v.uplo == Uplo::kUpper;
      tr = v.trans == Trans::kT;
      break;
  }
  // Only GEMM has batched family members today; the batch axis is
  // canonicalized away everywhere else.
  const int batch =
      v.family == Family::kGemm ? static_cast<int>(v.batch) : 0;
  int code = static_cast<int>(v.family);
  code = code * 2 + ta;
  code = code * 2 + tb;
  code = code * 2 + side;
  code = code * 2 + uplo;
  code = code * 2 + tr;
  code = code * 2 + (v.precision == Precision::kF64 ? 1 : 0);
  code = code * 3 + batch;
  return code;
}

int DispatchSnapshot::size_bucket(int64_t n) {
  if (n <= 1) return 0;
  // floor(log2(n)) as a single bit scan; n > 0 here so clz is defined.
  const int b = 63 - __builtin_clzll(static_cast<uint64_t>(n));
  return b < kBuckets ? b : kBuckets - 1;
}

namespace {
/// Admission: what serving does to each kernel of an entry (compile,
/// gate_launch, lower), done once at the entry's tuned size. Lowering
/// refuses only for kernel structure, never for a size, so an entry
/// admitted here lowers at every call shape; the lowered kernels stay
/// in `cache` for the first requests.
Status admit(const gpusim::DeviceModel& device,
             const DispatchSnapshot::Entry& e, exec::ExecCache& cache) {
  const ir::Env env =
      blas3::CallShape::square(*e.variant, e.tuned_size).env();
  for (const ir::Kernel& kernel : e.program.kernels) {
    auto ck = gpusim::compile_kernel(e.program, kernel, env, e.bool_params);
    if (!ck.is_ok()) return ck.status();
    if (auto gated = gpusim::gate_launch(device, *ck); !gated.is_ok()) {
      return gated.status();
    }
    if (auto ek = cache.get_or_compile(*ck); !ek.is_ok()) return ek.status();
  }
  return Status::ok();
}
}  // namespace

std::shared_ptr<const BaselineTable> BaselineTable::build(
    const gpusim::DeviceModel& device) {
  auto table = std::make_shared<BaselineTable>();
  auto add = [&](const Variant& v) {
    auto program = baseline::cublas_like(v, device);
    if (!program.is_ok()) return;  // null entry -> reference fallback
    table->programs_[static_cast<size_t>(variant_code(v))] =
        std::make_unique<const ir::Program>(std::move(program).value());
  };
  for (const Variant& v : blas3::all_variants()) add(v);
  for (const Variant& v : blas3::extension_variants()) add(v);
  // Batched codes reuse the member GEMM schedule: cublas_like builds
  // the member program, and the serving loop supplies the batch.
  for (const Variant& v : blas3::batched_variants()) add(v);
  return table;
}

std::shared_ptr<const DispatchSnapshot> DispatchSnapshot::build(
    const gpusim::DeviceModel& device, libgen::Artifact artifact,
    std::shared_ptr<const BaselineTable> baselines, exec::ExecCache& cache) {
  auto snap = std::make_shared<DispatchSnapshot>();
  snap->artifact_ = std::move(artifact);
  snap->baselines_ = std::move(baselines);
  snap->plans_.resize(kVariantCodes);
  for (Plan& plan : snap->plans_) {
    plan.entry.fill(-1);
    plan.exact.fill(0);
  }

  snap->load_status_ = libgen::check_device(snap->artifact_, device);
  if (!snap->load_status_.is_ok()) {
    // Graceful degradation: a mismatched artifact serves nothing from
    // the table; every request takes the fallback path.
    return snap;
  }

  // Registered buckets per variant code, in artifact order (a repeated
  // (variant, bucket) keeps the last entry, as the mutable-map table
  // always did).
  std::map<int, std::map<int, int16_t>> registered;
  size_t skipped = 0;
  std::string skip_reason;
  for (const libgen::ArtifactEntry& entry : snap->artifact_.entries) {
    const Variant* v = blas3::find_variant(entry.variant);
    if (v == nullptr) {
      ++skipped;
      skip_reason = "unknown variant '" + entry.variant + "'";
      continue;
    }
    auto eval = libgen::reconstruct(entry, *v, {entry.candidate()});
    if (!eval.is_ok()) {
      ++skipped;
      skip_reason = entry.variant + ": " + eval.status().message();
      continue;
    }
    Entry e;
    e.variant = v;
    e.program = std::move(eval->program);
    e.bool_params = engine::bools_for(eval->candidate);
    e.gflops = entry.gflops;
    e.tuned_size = entry.tuned_size;
    if (Status refused = admit(device, e, cache); !refused.is_ok()) {
      ++skipped;
      skip_reason = entry.variant + ": " + refused.message();
      continue;
    }
    registered[variant_code(*v)][size_bucket(entry.tuned_size)] =
        static_cast<int16_t>(snap->entries_.size());
    snap->entries_.push_back(std::move(e));
  }
  if (skipped > 0) {
    snap->load_status_ = failed_precondition(str_format(
        "%zu artifact entr%s not servable (last: %s)", skipped,
        skipped == 1 ? "y" : "ies", skip_reason.c_str()));
  }

  // Resolve the whole plan table now so dispatch() is two array loads:
  // exact buckets are hits, every other bucket is pre-pointed at its
  // nearest registered neighbour (ties to the lower bucket — these
  // affine schedules are size-agnostic, so a tuned kernel from an
  // adjacent regime beats the baseline).
  for (const auto& [code, buckets] : registered) {
    Plan& plan = snap->plans_[static_cast<size_t>(code)];
    for (int want = 0; want < kBuckets; ++want) {
      auto exact = buckets.find(want);
      if (exact != buckets.end()) {
        plan.entry[static_cast<size_t>(want)] = exact->second;
        plan.exact[static_cast<size_t>(want)] = 1;
        continue;
      }
      auto lo = buckets.lower_bound(want);
      int16_t idx;
      if (lo == buckets.end()) {
        idx = std::prev(lo)->second;
      } else if (lo == buckets.begin()) {
        idx = lo->second;
      } else {
        auto below = std::prev(lo);
        idx = (lo->first - want) < (want - below->first) ? lo->second
                                                         : below->second;
      }
      plan.entry[static_cast<size_t>(want)] = idx;
    }
  }
  return snap;
}

}  // namespace oa::runtime
