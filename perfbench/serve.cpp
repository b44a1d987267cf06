// serve: closed-loop BLAS3 traffic from one client through
// LibraryRuntime::serve() / serve_batched() with default RuntimeOptions.
// The seed fixes one cycle of requests (class mix, variants, shapes and
// operand values) and its reference outputs; the client replays whole
// cycles until the run's seconds are spent, so every run serves the same
// multiset of requests and the dispatch shares repeat exactly.
#include <cstdio>
#include <memory>

#include "blas3/reference.hpp"
#include "common.hpp"
#include "engine/evaluation_engine.hpp"
#include "exec/executor.hpp"
#include "gpusim/compiled.hpp"
#include "libgen/artifact.hpp"
#include "runtime/library_runtime.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace oabench {
namespace {

using namespace oa;
using blas3::Matrix;

enum Class { kSmall, kMiss, kLarge, kBatched, kClasses };
const char* const kClassNames[kClasses] = {"small", "miss", "large",
                                           "batched"};

/// One cycle: 75% small, 10% miss, 10% large, 5% batched.
constexpr int kSmallCount = 120;
constexpr int kMissCount = 16;
constexpr int kLargeCount = 16;
constexpr int kBatchedCount = 8;

const blas3::Variant& variant(const char* name) {
  return *blas3::find_variant(name);
}

/// Tuned variants of the serving artifact, which run.py emits with
/// `oagen --emit-lib FILE --variants <kTuned>,<kBatchedVariants>`.
const std::vector<const char*> kTuned = {
    "GEMM-NN", "GEMM-TN", "SYMM-LL", "TRMM-LL-N",
    "DGEMM-NN", "DGEMM-TN", "DSYMM-LL", "DTRMM-LL-N"};
/// Variants the artifact lacks: served by the baseline fallback.
const std::vector<const char*> kMissing = {"GEMM-TT", "DGEMM-TT", "TRSM-LL-N",
                                           "DTRSM-LL-N"};
const std::vector<const char*> kBatchedVariants = {
    "GEMM_BATCHED-NN", "DGEMM_STRIDED_BATCHED-NN"};

/// One call: a single member, or one per batch member. `want` is the
/// reference output (c, or b for TRSM); `k` the reduction length that
/// sets the tolerance.
struct Request {
  Class cls = kSmall;
  const blas3::Variant* v = nullptr;
  std::vector<Matrix> a, b, c, want;
  int64_t k = 0;
  std::string describe() const {
    return std::string(kClassNames[cls]) + ":" + v->name() + ":" +
           std::to_string(a.size()) + "x" + std::to_string(a[0].rows()) +
           "," + std::to_string(a[0].cols()) + "," +
           std::to_string(b[0].rows()) + "," + std::to_string(b[0].cols());
  }
};

bool is_trsm(const blas3::Variant& v) {
  return v.family == blas3::Family::kTrsm;
}

/// Appends the operands of one member with output extents m x n and
/// reduction length k (GEMM; structured families are square over the
/// left side, m).
void add_member(Request& r, int64_t m, int64_t n, int64_t k, Rng& rng) {
  const blas3::Variant& v = *r.v;
  const Precision p = v.precision;
  Matrix a, b;
  if (v.family == blas3::Family::kGemm) {
    a = v.trans_a == blas3::Trans::kN ? Matrix(m, k, p) : Matrix(k, m, p);
    b = v.trans_b == blas3::Trans::kN ? Matrix(k, n, p) : Matrix(n, k, p);
    r.k = k;
  } else {
    a = Matrix(m, m, p);
    b = Matrix(m, n, p);
    r.k = m;
  }
  Matrix c(m, n, p);
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill_random(rng);
  if (v.family != blas3::Family::kGemm) a.make_triangular(v.uplo);
  if (is_trsm(v)) {
    // Well-conditioned unit solve, as engine::verify_program builds it.
    a.set_unit_diagonal();
    a.scale_off_diagonal(1.0f / 16.0f);
  }
  r.a.push_back(std::move(a));
  r.b.push_back(std::move(b));
  r.c.push_back(std::move(c));
}

/// Reference output of member i, computed once in prep.
void compute_reference(Request& r, size_t i) {
  Matrix b = r.b[i];
  Matrix c = r.c[i];
  blas3::run_reference(*r.v, r.a[i], b, &c);
  r.want.push_back(is_trsm(*r.v) ? std::move(b) : std::move(c));
}

/// `count` extents at the midpoints of equal strata of [lo, hi]: every
/// seed serves the same sizes, in its own order.
std::vector<int64_t> grid(int count, int64_t lo, int64_t hi) {
  std::vector<int64_t> out;
  const double width = static_cast<double>(hi - lo + 1) / count;
  for (int i = 0; i < count; ++i) {
    out.push_back(lo + static_cast<int64_t>((i + 0.5) * width));
  }
  return out;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

std::vector<int64_t> stratified(int count, int64_t lo, int64_t hi,
                                Rng& rng) {
  std::vector<int64_t> out = grid(count, lo, hi);
  shuffle(out, rng);
  return out;
}

/// The seed's request cycle. Each variant of a class gets an equal share
/// of the class's requests and the same stratified sizes; the seed draws
/// which call gets which size, the rectangular GEMM shapes, the order
/// and the operand values.
std::vector<Request> build_cycle(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x736572);
  std::vector<Request> cycle;
  auto add_single = [&](Class cls, const std::vector<const char*>& names,
                        int count, int64_t lo, int64_t hi) {
    const int per = count / static_cast<int>(names.size());
    for (const char* name : names) {
      const blas3::Variant& v = variant(name);
      const std::vector<int64_t> ms = stratified(per, lo, hi, rng);
      const std::vector<int64_t> ns = stratified(per, lo, hi, rng);
      const std::vector<int64_t> ks = stratified(per, lo, hi, rng);
      for (int i = 0; i < per; ++i) {
        Request r;
        r.cls = cls;
        r.v = &v;
        // Small GEMM calls are rectangular; everything else is square.
        const bool rect = cls == kSmall && v.family == blas3::Family::kGemm;
        const int64_t m = ms[static_cast<size_t>(i)];
        add_member(r, m, rect ? ns[static_cast<size_t>(i)] : m,
                   rect ? ks[static_cast<size_t>(i)] : m, rng);
        cycle.push_back(std::move(r));
      }
    }
  };
  add_single(kSmall, kTuned, kSmallCount, 32, 96);
  add_single(kMiss, kMissing, kMissCount, 32, 96);
  add_single(kLarge, kTuned, kLargeCount, 128, 192);
  // Batch counts pair with extents in opposite order (most members with
  // the smallest extent), so the batched work is the same for every seed.
  const int per = kBatchedCount / static_cast<int>(kBatchedVariants.size());
  const std::vector<int64_t> counts = grid(per, 8, 32);
  const std::vector<int64_t> extents = grid(per, 16, 48);
  for (const char* name : kBatchedVariants) {
    std::vector<int> order(static_cast<size_t>(per));
    for (int i = 0; i < per; ++i) order[static_cast<size_t>(i)] = i;
    shuffle(order, rng);
    for (int i : order) {
      Request r;
      r.cls = kBatched;
      r.v = &variant(name);
      const int64_t e = extents[static_cast<size_t>(per - 1 - i)];
      for (int64_t j = 0; j < counts[static_cast<size_t>(i)]; ++j) {
        add_member(r, e, e, e, rng);
      }
      cycle.push_back(std::move(r));
    }
  }
  shuffle(cycle, rng);
  return cycle;
}

/// Fresh copies of a request's in/out operands b and c.
struct Scratch {
  std::vector<Matrix> b, c;
  void reset(const Request& r) {
    b = r.b;
    c = r.c;
  }
};

StatusOr<runtime::DispatchOutcome> serve(const runtime::LibraryRuntime& rt,
                                         const Request& r, Scratch& s) {
  if (r.cls == kBatched) return rt.serve_batched(*r.v, r.a, s.b, &s.c);
  return rt.serve(*r.v, r.a[0], s.b[0], &s.c[0]);
}

bool answer_correct(const Request& r, const Scratch& s) {
  const double tol = blas3::accumulation_tolerance(r.k, r.v->precision);
  for (size_t i = 0; i < r.a.size(); ++i) {
    const Matrix& got = is_trsm(*r.v) ? s.b[i] : s.c[i];
    if (got.rows() != r.want[i].rows() || got.cols() != r.want[i].cols() ||
        blas3::max_abs_diff(got, r.want[i]) > tol) {
      return false;
    }
  }
  return true;
}

bool served_ok(const StatusOr<runtime::DispatchOutcome>& outcome) {
  return outcome.is_ok() && *outcome != runtime::DispatchOutcome::kShed;
}

/// One fixed warm-up request per class, independent of the seed.
std::vector<Request> warmup_requests() {
  Rng rng(0x5741524D);
  std::vector<Request> out;
  auto single = [&](Class cls, const char* name, int64_t n) {
    Request r;
    r.cls = cls;
    r.v = &variant(name);
    add_member(r, n, n, n, rng);
    out.push_back(std::move(r));
  };
  single(kSmall, "GEMM-NN", 64);
  single(kMiss, "GEMM-TT", 64);
  single(kLarge, "GEMM-NN", 160);
  Request b;
  b.cls = kBatched;
  b.v = &variant("GEMM_BATCHED-NN");
  for (int i = 0; i < 16; ++i) add_member(b, 32, 32, 32, rng);
  out.push_back(std::move(b));
  return out;
}

/// Shadow executions of the dispatched program (traced run only): the
/// interpreter (what serving runs today) and the native backend on a
/// warm cache, each on its own scratch copy.
struct Shadow {
  double dispatch_us = 0.0;
  double interp_ms = 0.0;
  double native_ms = 0.0;
};

Shadow shadow_run(const runtime::LibraryRuntime& rt, const Request& r,
                  Scratch& s, exec::ExecCache& cache, Tracer& tracer,
                  int64_t op) {
  Shadow out;
  const int64_t n =
      runtime::LibraryRuntime::dispatch_size(*r.v, r.a[0], r.b[0], &r.c[0]);
  runtime::LibraryRuntime::Dispatch d;
  {
    Tracer::Scope span(&tracer, "runtime.dispatch", op);
    d = rt.dispatch(*r.v, n);
    out.dispatch_us = span.close() * 1e3;
  }
  static const std::map<std::string, bool> kNoBools;
  const ir::Program* program = d.program;
  const std::map<std::string, bool>* bools = d.bool_params;
  if (program == nullptr) {
    program = d.snapshot->baseline(runtime::variant_code(*r.v));
    bools = &kNoBools;
  }
  if (program == nullptr) return out;
  gpusim::Simulator sim(rt.device());
  const bool batched = r.cls == kBatched;
  s.reset(r);
  {
    Tracer::Scope span(&tracer, batched ? "engine.execute_batched"
                                        : "engine.execute_program",
                       op);
    if (batched) {
      (void)engine::execute_batched(sim, *program, *r.v, r.a, s.b, &s.c,
                                    *bools);
    } else {
      (void)engine::execute_program(sim, *program, *r.v, r.a[0], s.b[0],
                                    &s.c[0], *bools);
    }
    out.interp_ms = span.close();
  }
  s.reset(r);
  {
    Tracer::Scope span(&tracer, batched ? "exec.execute_batched"
                                        : "exec.execute_program",
                       op);
    if (batched) {
      (void)exec::execute_batched(rt.device(), *program, *r.v, r.a, s.b,
                                  &s.c, *bools, cache);
    } else {
      (void)exec::execute_program(rt.device(), *program, *r.v, r.a[0],
                                  s.b[0], &s.c[0], *bools, cache);
    }
    out.native_ms = span.close();
  }
  return out;
}

}  // namespace

Outcome run_serve(const RunConfig& cfg) {
  Outcome out;
  Tracer tracer(cfg.trace);
  Samples layer;

  // Prep (outside setup_s): the seeded cycle and its reference outputs.
  std::vector<Request> cycle = build_cycle(cfg.seed);
  Fingerprint seq_fp;
  for (Request& r : cycle) {
    seq_fp.mix(std::string_view(r.describe()));
    Tracer::Scope span(&tracer, "blas3.run_reference", -1);
    for (size_t i = 0; i < r.a.size(); ++i) compute_reference(r, i);
    layer.add(std::string("reference.") + kClassNames[r.cls], span.close());
  }
  std::vector<Request> warmup = warmup_requests();
  for (Request& r : warmup) {
    for (size_t i = 0; i < r.a.size(); ++i) compute_reference(r, i);
  }

  // Set-up, repeated: load + construction + one warm-up request per
  // class. The last repetition's runtime serves the timed phase.
  std::unique_ptr<runtime::LibraryRuntime> rt;
  Scratch scratch;
  std::vector<double> setup_ms;
  bool setup_ok = true;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rt.reset();
    const double t0 = now_ms();
    Tracer::Scope load(&tracer, "libgen.load", -1);
    StatusOr<libgen::Artifact> artifact = libgen::load(cfg.artifact);
    layer.add("load", load.close());
    if (!artifact.is_ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   artifact.status().to_string().c_str());
      out.attempted = 1;
      out.failed = 1;
      return out;
    }
    {
      Tracer::Scope span(&tracer, "runtime.construct", -1);
      rt = std::make_unique<runtime::LibraryRuntime>(gpusim::gtx285(),
                                                     *std::move(artifact));
      layer.add("construct", span.close());
    }
    Tracer::Scope warm(&tracer, "runtime.warmup", -1);
    for (const Request& r : warmup) {
      scratch.reset(r);
      const bool ok =
          served_ok(serve(*rt, r, scratch)) && answer_correct(r, scratch);
      setup_ok = setup_ok && ok;
    }
    layer.add("warmup", warm.close());
    setup_ms.push_back(now_ms() - t0);
  }
  if (!setup_ok) std::fprintf(stderr, "serve: warm-up answer wrong\n");

  // kernel_gflops: simulated GFLOPS of the tuned kernel each request
  // dispatches to (fallbacks have none).
  std::vector<double> dispatched_gflops;
  for (const Request& r : cycle) {
    const double g =
        rt->dispatch(*r.v, runtime::LibraryRuntime::dispatch_size(
                               *r.v, r.a[0], r.b[0], &r.c[0]))
            .tuned_gflops;
    if (g > 0) dispatched_gflops.push_back(g);
  }

  exec::ExecCache native_cache;
  if (tracer.enabled()) {
    // Cold compile of every artifact kernel into the traced run's own
    // cache, then one untimed native pass so exec.native_ms is warm.
    for (const auto& entry : rt->snapshot()->entries()) {
      const ir::Env env = engine::size_env(*entry.variant, entry.tuned_size);
      for (const ir::Kernel& kernel : entry.program.kernels) {
        Tracer::Scope span(&tracer, "exec.compile", -1);
        auto ck = gpusim::compile_kernel(entry.program, kernel, env,
                                         entry.bool_params);
        if (ck.is_ok()) (void)native_cache.get_or_compile(*ck);
        layer.add("compile", span.close());
      }
    }
    Tracer untraced(false);
    for (const Request& r : cycle) {
      shadow_run(*rt, r, scratch, native_cache, untraced, -1);
    }
  }

  // Timed phase: whole cycles, one closed-loop client.
  const runtime::DispatchStats before = rt->stats();
  std::vector<double> lat_ms;
  std::vector<double> class_ms[kClasses];
  int64_t cycles = 0;
  const double start = now_ms();
  do {
    for (size_t i = 0; i < cycle.size(); ++i) {
      const Request& r = cycle[i];
      const int64_t op = cycles * static_cast<int64_t>(cycle.size()) +
                         static_cast<int64_t>(i);
      scratch.reset(r);
      double ms = 0.0;
      StatusOr<runtime::DispatchOutcome> outcome =
          runtime::DispatchOutcome::kShed;
      {
        Tracer::Scope span(&tracer, r.cls == kBatched
                                        ? "runtime.serve_batched"
                                        : "runtime.serve",
                           op);
        const double t0 = now_ms();
        outcome = serve(*rt, r, scratch);
        ms = now_ms() - t0;
      }
      ++out.attempted;
      const bool ok = served_ok(outcome) && answer_correct(r, scratch);
      if (ok) {
        ++out.ok;
      } else if (out.attempted - out.ok <= 5) {
        std::fprintf(stderr, "serve: %s -> %s\n", r.describe().c_str(),
                     outcome.is_ok() ? "wrong answer or shed"
                                     : outcome.status().to_string().c_str());
      }
      lat_ms.push_back(ms);
      class_ms[r.cls].push_back(ms);
      if (tracer.enabled()) {
        const Shadow sh =
            shadow_run(*rt, r, scratch, native_cache, tracer, op);
        const std::string cls = kClassNames[r.cls];
        layer.add("dispatch_us", sh.dispatch_us);
        layer.add("interp." + cls, sh.interp_ms);
        layer.add("native." + cls, sh.native_ms);
        layer.add("overhead." + cls, ms - sh.interp_ms);
      }
    }
    ++cycles;
  } while (now_ms() - start < cfg.seconds * 1e3);
  const double wall_ms = now_ms() - start;
  const double rss_mb = rss_peak_mb();
  const runtime::DispatchStats after = rt->stats();
  if (!setup_ok) out.ok = 0;
  out.failed = out.attempted - out.ok;

  Metrics& e = out.end_to_end;
  set(e, "setup_s", median(setup_ms) / 1e3, "s");
  set(e, "ops_per_s", static_cast<double>(out.attempted) / (wall_ms / 1e3),
      "1/s");
  set(e, "lat_p50_ms", median(lat_ms), "ms");
  set(e, "lat_p99_ms", percentile(lat_ms, 99.0), "ms");
  set(e, "ok_rate",
      static_cast<double>(out.ok) / static_cast<double>(out.attempted),
      "ratio");
  set(e, "rss_peak_mb", rss_mb, "MB");
  set(e, "kernel_gflops", geomean(dispatched_gflops), "GFLOP/s");

  const double requests = static_cast<double>(after.requests - before.requests);
  auto share = [&](uint64_t a, uint64_t b) {
    return requests > 0 ? static_cast<double>(a - b) / requests : 0.0;
  };
  const double tuned = share(after.hits + after.near_hits,
                             before.hits + before.near_hits);
  const double baseline =
      share(after.baseline_fallbacks, before.baseline_fallbacks);
  const double reference =
      share(after.reference_fallbacks, before.reference_fallbacks);
  const double native = share(after.native_serves, before.native_serves);
  const uint64_t failed = after.failed_requests - before.failed_requests;

  Metrics& l = out.per_layer;
  for (int c = 0; c < kClasses; ++c) {
    const std::string cls = kClassNames[c];
    set(l, "runtime.serve_ms." + cls, median(class_ms[c]), "ms");
    set(l, "runtime.overhead_ms." + cls, layer.median_of("overhead." + cls),
        "ms");
    set(l, "gpusim.exec_ms." + cls, layer.median_of("interp." + cls), "ms");
    set(l, "exec.native_ms." + cls, layer.median_of("native." + cls), "ms");
    set(l, "blas3.reference_ms." + cls, layer.median_of("reference." + cls),
        "ms");
  }
  set(l, "runtime.dispatch_us", layer.median_of("dispatch_us"), "us");
  set(l, "runtime.construct_ms", layer.median_of("construct"), "ms");
  set(l, "runtime.warmup_ms", layer.median_of("warmup"), "ms");
  set(l, "runtime.tuned_share", tuned, "ratio");
  set(l, "runtime.baseline_share", baseline, "ratio");
  set(l, "runtime.reference_share", reference, "ratio");
  set(l, "runtime.native_share", native, "ratio");
  set(l, "runtime.failed", static_cast<double>(failed), "count");
  set(l, "libgen.load_ms", layer.median_of("load"), "ms");
  set(l, "exec.compile_ms", layer.median_of("compile"), "ms");
  set(l, "trace.op_p50_ms", median(lat_ms), "ms");

  out.determinism["sequence"] = std::to_string(seq_fp.digest());
  out.determinism["runtime.tuned_share"] = exact(tuned);
  out.determinism["runtime.baseline_share"] = exact(baseline);
  out.determinism["runtime.reference_share"] = exact(reference);
  out.determinism["runtime.native_share"] = exact(native);
  out.determinism["runtime.failed"] = std::to_string(failed);
  out.determinism["kernel_gflops"] = exact(geomean(dispatched_gflops));
  if (tracer.enabled()) {
    tracer.write_chrome(cfg.work_dir + "/trace-serve.json");
    std::fputs(tracer.self_time_table().c_str(), stderr);
  }
  std::fprintf(stderr, "serve: %lld requests in %lld cycles of %zu\n",
               static_cast<long long>(out.attempted),
               static_cast<long long>(cycles), cycle.size());
  return out;
}

}  // namespace oabench
