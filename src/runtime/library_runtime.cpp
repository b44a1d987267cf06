#include "runtime/library_runtime.hpp"

#include <utility>

#include "blas3/call_shape.hpp"
#include "blas3/reference.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace oa::runtime {

using blas3::Variant;

namespace {
/// Fallback executions carry no rule-implied bool params.
const std::map<std::string, bool>& no_bool_params() {
  static const std::map<std::string, bool> empty;
  return empty;
}

/// Stats key for the per-family request split: the routine family with
/// its batch qualifier ("GEMM", "GEMM_BATCHED", "GEMM_STRIDED_BATCHED",
/// "TRSM", ...). Precisions share a key — the split already exists on
/// its own axis.
std::string family_key(blas3::Family family, blas3::Batch batch) {
  std::string key = blas3::family_name(family);
  if (batch == blas3::Batch::kBatched) key += "_BATCHED";
  if (batch == blas3::Batch::kStridedBatched) key += "_STRIDED_BATCHED";
  return key;
}
}  // namespace

const char* outcome_name(DispatchOutcome outcome) {
  switch (outcome) {
    case DispatchOutcome::kHit: return "hit";
    case DispatchOutcome::kNearHit: return "near-hit";
    case DispatchOutcome::kFallbackBaseline: return "baseline-fallback";
    case DispatchOutcome::kFallbackReference: return "reference-fallback";
    case DispatchOutcome::kShed: return "shed";
  }
  return "?";
}

std::string DispatchStats::to_string() const {
  std::string out = str_format(
      "dispatch: %llu requests — %llu hits, %llu near-hits, %llu "
      "baseline fallbacks, %llu reference fallbacks, %llu shed, %llu "
      "recovered kernel errors, %llu failed; f32 %llu req / %llu tuned, "
      "f64 %llu req / %llu tuned; %llu native serves; %llu reloads",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(near_hits),
      static_cast<unsigned long long>(baseline_fallbacks),
      static_cast<unsigned long long>(reference_fallbacks),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(recovered_errors),
      static_cast<unsigned long long>(failed_requests),
      static_cast<unsigned long long>(requests_f32),
      static_cast<unsigned long long>(tuned_served_f32),
      static_cast<unsigned long long>(requests_f64),
      static_cast<unsigned long long>(tuned_served_f64),
      static_cast<unsigned long long>(native_serves),
      static_cast<unsigned long long>(reloads));
  if (batched_requests > 0) {
    out += str_format("; %llu batched calls (%llu members)",
                      static_cast<unsigned long long>(batched_requests),
                      static_cast<unsigned long long>(batched_members));
  }
  for (const auto& [family, count] : requests_by_family) {
    out += str_format("\n  %-21s %llu requests", family.c_str(),
                      static_cast<unsigned long long>(count));
  }
  return out;
}

LibraryRuntime::LibraryRuntime(const gpusim::DeviceModel& device,
                               libgen::Artifact artifact,
                               RuntimeOptions options)
    : device_(device) {
  if (options.metrics != nullptr) {
    metrics_ = options.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  // Pre-register every serving instrument so an exported snapshot
  // always carries the full runtime schema, even for outcomes that
  // never happened.
  ins_.requests = &metrics_->counter("runtime.requests");
  for (Precision p : {Precision::kF32, Precision::kF64}) {
    const int i = static_cast<int>(p);
    const std::string suffix = std::string(".") + precision_name(p);
    ins_.requests_by_prec[i] =
        &metrics_->counter("runtime.requests" + suffix);
    ins_.tuned_served_by_prec[i] =
        &metrics_->counter("runtime.tuned_served" + suffix);
  }
  ins_.hits = &metrics_->counter("runtime.hits");
  ins_.near_hits = &metrics_->counter("runtime.near_hits");
  ins_.baseline_fallbacks = &metrics_->counter("runtime.baseline_fallbacks");
  ins_.reference_fallbacks =
      &metrics_->counter("runtime.reference_fallbacks");
  ins_.shed = &metrics_->counter("runtime.shed");
  ins_.recovered_errors = &metrics_->counter("runtime.recovered_errors");
  ins_.failed_requests = &metrics_->counter("runtime.failed_requests");
  ins_.reloads = &metrics_->counter("runtime.reloads");
  ins_.batched_requests = &metrics_->counter("runtime.batched_requests");
  ins_.batched_members = &metrics_->counter("runtime.batched_members");
  for (int f = 0; f < 5; ++f) {
    const auto family = static_cast<blas3::Family>(f);
    for (int bm = 0; bm < 3; ++bm) {
      // Batched families only exist for GEMM; other rows alias their
      // single-mode counter so a stray Variant cannot mint a key.
      const blas3::Batch batch = family == blas3::Family::kGemm
                                     ? static_cast<blas3::Batch>(bm)
                                     : blas3::Batch::kSingle;
      ins_.family_requests[f][bm] = &metrics_->counter(
          "runtime.requests.family." + family_key(family, batch));
    }
  }
  ins_.hit_us = &metrics_->histogram("runtime.dispatch_us.hit");
  ins_.near_hit_us = &metrics_->histogram("runtime.dispatch_us.near_hit");
  ins_.baseline_us =
      &metrics_->histogram("runtime.dispatch_us.baseline_fallback");
  ins_.reference_us =
      &metrics_->histogram("runtime.dispatch_us.reference_fallback");
  ins_.shed_us = &metrics_->histogram("runtime.dispatch_us.shed");
  ins_.failed_us = &metrics_->histogram("runtime.dispatch_us.failed");
  ins_.serve_us = &metrics_->histogram("runtime.serve_us");
  ins_.reload_us = &metrics_->histogram("runtime.reload_us");
  ins_.table_size = &metrics_->gauge("runtime.table_size");

  baselines_ = BaselineTable::build(device);
  auto snap = DispatchSnapshot::build(device, std::move(artifact),
                                      baselines_, exec_cache_);
  if (!snap->load_status().is_ok()) {
    OA_LOG(kWarning) << "LibraryRuntime: "
                     << snap->load_status().to_string()
                     << (snap->table_size() == 0 ? " — serving fallbacks only"
                                                 : "");
  }
  publish(std::move(snap));

  AdmissionController::Options adm;
  adm.slo_p99_us = options.slo_p99_us;
  adm.max_queue_depth = options.max_queue_depth;
  admission_ =
      std::make_unique<AdmissionController>(adm, ins_.serve_us);
}

void LibraryRuntime::publish(std::shared_ptr<const DispatchSnapshot> snap) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  ins_.table_size->set(static_cast<double>(snap->table_size()));
  // The replaced snapshot lands in `snap` and is released after the
  // lock, by whichever of it and the requests holding it goes last.
  snapshot_.swap(snap);
}

Status LibraryRuntime::swap_artifact(libgen::Artifact artifact) {
  const double start_us = obs::now_us();
  // Admission lowers every entry into the exec cache *before*
  // publishing, so requests never race a cold compile after a reload
  // (unchanged entries hit anyway — keys are content-addressed).
  std::shared_ptr<const DispatchSnapshot> snap = DispatchSnapshot::build(
      device_, std::move(artifact), baselines_, exec_cache_);
  const Status status = snap->load_status();
  publish(std::move(snap));
  ins_.reloads->add();
  ins_.reload_us->record(obs::now_us() - start_us);
  if (!status.is_ok()) {
    OA_LOG(kWarning) << "LibraryRuntime: swap_artifact: "
                     << status.to_string();
  }
  return status;
}

int64_t LibraryRuntime::dispatch_size(const Variant& v,
                                      const blas3::Matrix& a,
                                      const blas3::Matrix& b,
                                      const blas3::Matrix* c) {
  return blas3::CallShape(v, a, b, c).dispatch_size();
}

LibraryRuntime::Dispatch LibraryRuntime::dispatch_on(
    const DispatchSnapshot& snap, const Variant& v, int64_t n) const {
  Dispatch d;
  bool exact = false;
  const DispatchSnapshot::Entry* entry =
      snap.lookup(variant_code(v), size_bucket(n), &exact);
  if (entry == nullptr) return d;
  d.outcome = exact ? DispatchOutcome::kHit : DispatchOutcome::kNearHit;
  d.program = &entry->program;
  d.bool_params = &entry->bool_params;
  d.tuned_gflops = entry->gflops;
  return d;
}

LibraryRuntime::Dispatch LibraryRuntime::dispatch(const Variant& v,
                                                  int64_t n) const {
  std::shared_ptr<const DispatchSnapshot> snap = snapshot();
  Dispatch d = dispatch_on(*snap, v, n);
  d.snapshot = std::move(snap);  // keeps the pointers handed out alive
  return d;
}

void LibraryRuntime::count_request(const Variant& v) const {
  ins_.requests->add();
  ins_.requests_by_prec[static_cast<int>(v.precision)]->add();
  ins_.family_requests[static_cast<int>(v.family)]
                      [static_cast<int>(v.batch)]
      ->add();
}

StatusOr<DispatchOutcome> LibraryRuntime::serve_call(
    const blas3::CallShape& shape, const Variant& v, double start_us,
    std::span<blas3::Matrix> b, std::span<blas3::Matrix> c) const {
  // One snapshot for the whole request: dispatch, execution and
  // fallbacks all resolve against the same immutable table, however
  // many hot reloads land meanwhile.
  const std::shared_ptr<const DispatchSnapshot> snap = snapshot();
  // An empty call has no work for a kernel, and the tuned and baseline
  // kernels would only refuse it: the reference answers it.
  const bool kernels = !shape.empty();
  const Dispatch d =
      kernels ? dispatch_on(*snap, v, shape.dispatch_size()) : Dispatch{};
  const std::span<blas3::Matrix> out = shape.output_of(b, &c);
  // Whole-call latency lands in the histogram of the *final* outcome,
  // so p99 per path answers "what does a request cost when it ends up
  // here" — including the failed attempts before it.
  auto settle = [&](obs::Histogram* h) {
    const double us = obs::now_us() - start_us;
    h->record(us);
    ins_.serve_us->record(us);
    admission_->on_complete();
  };
  // Kernel failures along the way are only "recovered" if some later
  // stage actually answers the request.
  uint64_t pending_errors = 0;

  if (d.program != nullptr) {
    Status served = exec::execute_call(device_, *d.program, shape, out,
                                       *d.bool_params, exec_cache_);
    if (served.is_ok()) {
      if (d.outcome == DispatchOutcome::kHit) {
        ins_.hits->add();
        settle(ins_.hit_us);
      } else {
        ins_.near_hits->add();
        settle(ins_.near_hit_us);
      }
      ins_.tuned_served_by_prec[static_cast<int>(v.precision)]->add();
      return d.outcome;
    }
    // A tuned kernel that fails at this problem size (occupancy,
    // launch, an out-of-bounds access) is usually recovered by the
    // fallback chain — counted as recovered only once a fallback
    // serves the request.
    ++pending_errors;
    OA_LOG(kWarning) << "LibraryRuntime: tuned " << v.name()
                     << " failed (" << served.to_string()
                     << "), falling back";
  }

  const ir::Program* base =
      kernels ? snap->baseline(variant_code(v)) : nullptr;
  if (base != nullptr) {
    Status served = exec::execute_call(device_, *base, shape, out,
                                       no_bool_params(), exec_cache_);
    if (served.is_ok()) {
      ins_.baseline_fallbacks->add();
      ins_.recovered_errors->add(pending_errors);
      settle(ins_.baseline_us);
      return DispatchOutcome::kFallbackBaseline;
    }
    ++pending_errors;
  }

  // execute_call writes no output unless every kernel succeeded, so the
  // reference starts from the caller's operands (TRSM solves b in place).
  const std::span<const blas3::Matrix> a = shape.operand("A");
  for (size_t i = 0; i < a.size(); ++i) {
    blas3::run_reference(v, a[i], b[i], c.empty() ? nullptr : &c[i]);
  }
  ins_.reference_fallbacks->add();
  ins_.recovered_errors->add(pending_errors);
  settle(ins_.reference_us);
  return DispatchOutcome::kFallbackReference;
}

template <typename RunOne>
StatusOr<DispatchOutcome> LibraryRuntime::admitted(
    const Variant& v, const RunOne& run_one) const {
  const double start_us = obs::now_us();
  // The depth the candidate sees excludes itself.
  if (!admission_->admit(in_flight_.load(std::memory_order_relaxed))) {
    count_request(v);
    ins_.shed->add();
    ins_.shed_us->record(obs::now_us() - start_us);
    return DispatchOutcome::kShed;
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  StatusOr<DispatchOutcome> outcome = run_one();
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  return outcome;
}

Status LibraryRuntime::reject(const Status& status, double start_us) const {
  ins_.failed_requests->add();
  ins_.failed_us->record(obs::now_us() - start_us);
  return status;
}

StatusOr<DispatchOutcome> LibraryRuntime::run(const Variant& v,
                                              const blas3::Matrix& a,
                                              blas3::Matrix& b,
                                              blas3::Matrix* c) const {
  const double start_us = obs::now_us();
  count_request(v);
  const blas3::CallShape shape(v, a, b, c);
  if (Status bad = shape.validate(); !bad.is_ok()) {
    return reject(bad, start_us);
  }
  return serve_call(shape, v, start_us, {&b, 1},
                    c != nullptr ? std::span<blas3::Matrix>(c, 1)
                                 : std::span<blas3::Matrix>());
}

StatusOr<DispatchOutcome> LibraryRuntime::serve(const Variant& v,
                                                const blas3::Matrix& a,
                                                blas3::Matrix& b,
                                                blas3::Matrix* c) const {
  return admitted(v, [&] { return run(v, a, b, c); });
}

StatusOr<DispatchOutcome> LibraryRuntime::run_batched(
    const Variant& v, const std::vector<blas3::Matrix>& a,
    std::vector<blas3::Matrix>& b, std::vector<blas3::Matrix>* c) const {
  const double start_us = obs::now_us();
  count_request(v);
  ins_.batched_requests->add();
  ins_.batched_members->add(static_cast<uint64_t>(a.size()));

  if (v.batch == blas3::Batch::kSingle) {
    return reject(invalid_argument("run_batched needs a batched variant; " +
                                   v.name() + " is single"),
                  start_us);
  }
  // Members of one shape only (docs/BATCHED.md): a ragged batch is a
  // bad call, not a native failure to fall back from.
  const blas3::CallShape shape(v, a, b, c);
  if (Status bad = shape.validate(); !bad.is_ok()) {
    return reject(bad, start_us);
  }

  // One member-size dispatch for the whole batch; the batched variant
  // has its own code, so tuned batched entries never collide with
  // single-GEMM ones.
  return serve_call(shape, v, start_us, b,
                    c != nullptr ? std::span<blas3::Matrix>(*c)
                                 : std::span<blas3::Matrix>());
}

StatusOr<DispatchOutcome> LibraryRuntime::serve_batched(
    const Variant& v, const std::vector<blas3::Matrix>& a,
    std::vector<blas3::Matrix>& b, std::vector<blas3::Matrix>* c) const {
  return admitted(v, [&] { return run_batched(v, a, b, c); });
}

DispatchStats LibraryRuntime::stats() const {
  DispatchStats s;
  s.hits = ins_.hits->value();
  s.near_hits = ins_.near_hits->value();
  s.baseline_fallbacks = ins_.baseline_fallbacks->value();
  s.reference_fallbacks = ins_.reference_fallbacks->value();
  s.shed = ins_.shed->value();
  s.recovered_errors = ins_.recovered_errors->value();
  s.failed_requests = ins_.failed_requests->value();
  // Derived, not read from the raw entry counter: the consistency
  // contract (header) promises requests == sum(components) in every
  // snapshot, which independent relaxed counters cannot offer.
  s.requests = s.hits + s.near_hits + s.baseline_fallbacks +
               s.reference_fallbacks + s.shed + s.failed_requests;
  // Every tuned and baseline answer ran as native code.
  s.native_serves = s.hits + s.near_hits + s.baseline_fallbacks;
  s.requests_f32 =
      ins_.requests_by_prec[static_cast<int>(Precision::kF32)]->value();
  s.requests_f64 =
      ins_.requests_by_prec[static_cast<int>(Precision::kF64)]->value();
  s.tuned_served_f32 =
      ins_.tuned_served_by_prec[static_cast<int>(Precision::kF32)]->value();
  s.tuned_served_f64 =
      ins_.tuned_served_by_prec[static_cast<int>(Precision::kF64)]->value();
  s.reloads = ins_.reloads->value();
  s.batched_requests = ins_.batched_requests->value();
  s.batched_members = ins_.batched_members->value();
  for (int f = 0; f < 5; ++f) {
    const auto family = static_cast<blas3::Family>(f);
    const int modes = family == blas3::Family::kGemm ? 3 : 1;
    for (int bm = 0; bm < modes; ++bm) {
      const uint64_t count = ins_.family_requests[f][bm]->value();
      if (count > 0) {
        s.requests_by_family[family_key(
            family, static_cast<blas3::Batch>(bm))] = count;
      }
    }
  }
  return s;
}

void LibraryRuntime::reset_stats() {
  metrics_->reset("runtime.");
  // The table itself survives a stats sweep; restore its size gauge.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  ins_.table_size->set(static_cast<double>(snapshot_->table_size()));
}

}  // namespace oa::runtime
