// Native execution backend throughput benchmark (docs/EXECUTION.md).
//
//   $ ./bench/exec_throughput [--out BENCH_exec.json] [--n N]
//                             [--reps N] [--quick]
//
// Times the same tuned kernels through both functional backends:
//
//   interpreter — engine::execute_program (the lockstep gpusim
//                 functional path every prior PR served results with);
//   native      — exec::execute_program (lowered tapes, x86-64 JIT
//                 where the host supports it, portable executor
//                 otherwise).
//
// For tuned GEMM-NN and DGEMM-NN it reports ms/run and
// GFLOP-equivalent throughput (2*M*N*K per run) for each backend, the
// speedup, the max |diff| between the two results (must be within the
// accumulation tolerance; bit-equal on race-free kernels), the
// exec-cache counters proving that warm re-execution compiles nothing,
// and the loops its kernels run four trips at a time (vector_loops;
// the JSON also records the host's thread count and AVX2 flag).
//
// Results land in BENCH_exec.json (schema-checked and uploaded by the
// CI tier-1 lane, which asserts native >= 17x interpreter on tuned
// GEMM-NN on AVX2 hosts and >= 12x elsewhere, vector loops in GEMM-NN
// on AVX2 hosts, and warm_recompiles == 0).
//
// A third, batched row times tuned GEMM_BATCHED-NN at batch=256 with
// 64x64 members: the fused native batched path (one run_batched) vs
// per-member dispatch (256 interpreter requests, the pre-batched
// serving path). The process exits non-zero unless that row shows
// >= 5x.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/evaluation_engine.hpp"
#include "exec/executor.hpp"
#include "exec/jit_x86.hpp"
#include "libgen/artifact.hpp"
#include "oa/oa.hpp"
#include "obs/trace.hpp"
#include "runtime/library_runtime.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace oa {
namespace {

using blas3::Matrix;
using blas3::Variant;

struct Row {
  std::string variant;
  int64_t n = 0;
  int64_t batch = 0;  // 0 = single row; else the batched-family row
  double interp_ms = 0.0;        // per run
  double native_ms = 0.0;        // per run
  double interp_gflops = 0.0;
  double native_gflops = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
  bool within_tolerance = false;
  int64_t warm_recompiles = 0;   // compiles during the timed loop
  int64_t cache_compiles = 0;    // total over the variant's lifetime
  int64_t cache_hits = 0;
  int64_t jit_kernels = 0;
  int64_t portable_kernels = 0;
  int64_t vector_loops = 0;      // four-trip loop copies in its kernels
};

Row bench_variant(const gpusim::Simulator& sim,
                  const runtime::DispatchSnapshot::Entry& entry,
                  int64_t n, int interp_reps, int native_reps,
                  exec::ExecCache& cache) {
  const Variant& v = *entry.variant;
  const Precision p = v.precision;
  Rng rng(0xE8EC ^ static_cast<uint64_t>(n));
  Matrix a(n, n, p), b(n, n, p), c(n, n, p);
  a.fill_random(rng);
  b.fill_random(rng);

  Row row;
  row.variant = v.name();
  row.n = n;

  // Interpreter: one warm-up run (also the correctness reference),
  // then the timed loop.
  Matrix ib = b, ic = c;
  Status interp = engine::execute_program(sim, entry.program, v, a, ib,
                                          &ic, entry.bool_params);
  if (!interp.is_ok()) {
    std::fprintf(stderr, "exec_throughput: interpreter %s: %s\n",
                 v.name().c_str(), interp.to_string().c_str());
    std::exit(1);
  }
  double t0 = obs::now_us();
  for (int r = 0; r < interp_reps; ++r) {
    Matrix tb = b, tc = c;
    (void)engine::execute_program(sim, entry.program, v, a, tb, &tc,
                                  entry.bool_params);
  }
  row.interp_ms = (obs::now_us() - t0) / 1000.0 / interp_reps;

  // Native: the first run compiles + lowers (cold). Everything after
  // it must be pure cache hits — `warm_recompiles` proves it.
  Matrix nb = b, nc = c;
  const int64_t vector_before = cache.stats().vector_loops;
  Status native = exec::execute_program(sim.device(), entry.program, v,
                                        a, nb, &nc, entry.bool_params,
                                        cache);
  if (!native.is_ok()) {
    std::fprintf(stderr, "exec_throughput: native %s: %s\n",
                 v.name().c_str(), native.to_string().c_str());
    std::exit(1);
  }
  row.vector_loops = cache.stats().vector_loops - vector_before;
  const int64_t compiles_before = cache.stats().compiles;
  t0 = obs::now_us();
  for (int r = 0; r < native_reps; ++r) {
    Matrix tb = b, tc = c;
    (void)exec::execute_program(sim.device(), entry.program, v, a, tb,
                                &tc, entry.bool_params, cache);
  }
  row.native_ms = (obs::now_us() - t0) / 1000.0 / native_reps;
  row.warm_recompiles = cache.stats().compiles - compiles_before;

  const double flop = 2.0 * static_cast<double>(n) * n * n;
  row.interp_gflops =
      row.interp_ms > 0 ? flop / (row.interp_ms * 1e6) : 0.0;
  row.native_gflops =
      row.native_ms > 0 ? flop / (row.native_ms * 1e6) : 0.0;
  row.speedup = row.native_ms > 0 ? row.interp_ms / row.native_ms : 0.0;

  row.max_abs_diff = blas3::max_abs_diff(ic, nc);
  row.within_tolerance =
      row.max_abs_diff <= blas3::accumulation_tolerance(n, p);

  const exec::ExecStats stats = cache.stats();
  row.cache_compiles = stats.compiles;
  row.cache_hits = stats.cache_hits;
  row.jit_kernels = stats.jit_kernels;
  row.portable_kernels = stats.portable_kernels;

  std::printf(
      "%-10s n=%-4lld interp %9.2f ms (%6.2f GF)  native %7.3f ms "
      "(%7.2f GF)  speedup %6.1fx  diff=%g%s  warm_recompiles=%lld  "
      "vector_loops=%lld\n",
      v.name().c_str(), static_cast<long long>(n), row.interp_ms,
      row.interp_gflops, row.native_ms, row.native_gflops, row.speedup,
      row.max_abs_diff, row.within_tolerance ? "" : "  OFF-TOLERANCE",
      static_cast<long long>(row.warm_recompiles),
      static_cast<long long>(row.vector_loops));
  return row;
}

/// Batched-family row: the fused native batched path
/// (exec::execute_batched — one compile/gate, one sweep over count x
/// blocks, the path run_batched serves from) against per-member
/// interpreter dispatch — the same 256 members issued as 256
/// independent interpreter executions, the oracle the fused path is
/// arbitrated against. For the Row fields, interp_* carries the
/// per-member-dispatch leg and native_* the fused leg (the JSON writer
/// renames them for batched rows).
Row bench_batched(const gpusim::Simulator& sim,
                  const runtime::DispatchSnapshot::Entry& entry,
                  int64_t member_n, int64_t batch, int per_member_reps,
                  int fused_reps, exec::ExecCache& cache) {
  const Variant& v = *entry.variant;
  const Precision p = v.precision;
  Rng rng(0xBA7C4 ^ static_cast<uint64_t>(member_n));
  std::vector<Matrix> a, b, c;
  for (int64_t i = 0; i < batch; ++i) {
    Matrix ai(member_n, member_n, p), bi(member_n, member_n, p);
    ai.fill_random(rng);
    bi.fill_random(rng);
    a.push_back(std::move(ai));
    b.push_back(std::move(bi));
    c.emplace_back(member_n, member_n, p);
  }

  Row row;
  row.variant = v.name();
  row.n = member_n;
  row.batch = batch;

  auto run_per_member = [&](std::vector<Matrix>& tb,
                            std::vector<Matrix>& tc) -> Status {
    for (int64_t i = 0; i < batch; ++i) {
      OA_RETURN_IF_ERROR(engine::execute_program(
          sim, entry.program, v, a[static_cast<size_t>(i)],
          tb[static_cast<size_t>(i)], &tc[static_cast<size_t>(i)],
          entry.bool_params));
    }
    return Status::ok();
  };

  // Per-member dispatch leg: warm-up (also the correctness reference),
  // then the timed loop.
  std::vector<Matrix> ib = b, ic = c;
  Status per_member = run_per_member(ib, ic);
  if (!per_member.is_ok()) {
    std::fprintf(stderr, "exec_throughput: per-member %s: %s\n",
                 v.name().c_str(), per_member.to_string().c_str());
    std::exit(1);
  }
  double t0 = obs::now_us();
  for (int r = 0; r < per_member_reps; ++r) {
    std::vector<Matrix> tb = b, tc = c;
    (void)run_per_member(tb, tc);
  }
  row.interp_ms = (obs::now_us() - t0) / 1000.0 / per_member_reps;

  // Fused leg: everything after the (already warm) first run must be
  // cache hits.
  std::vector<Matrix> nb = b, nc = c;
  const int64_t vector_before = cache.stats().vector_loops;
  Status fused = exec::execute_batched(sim.device(), entry.program, v, a,
                                       nb, &nc, entry.bool_params, cache);
  if (!fused.is_ok()) {
    std::fprintf(stderr, "exec_throughput: fused %s: %s\n",
                 v.name().c_str(), fused.to_string().c_str());
    std::exit(1);
  }
  row.vector_loops = cache.stats().vector_loops - vector_before;
  const int64_t compiles_before = cache.stats().compiles;
  t0 = obs::now_us();
  for (int r = 0; r < fused_reps; ++r) {
    std::vector<Matrix> tb = b, tc = c;
    (void)exec::execute_batched(sim.device(), entry.program, v, a, tb,
                                &tc, entry.bool_params, cache);
  }
  row.native_ms = (obs::now_us() - t0) / 1000.0 / fused_reps;
  row.warm_recompiles = cache.stats().compiles - compiles_before;

  const double flop = 2.0 * static_cast<double>(batch) * member_n *
                      member_n * member_n;
  row.interp_gflops =
      row.interp_ms > 0 ? flop / (row.interp_ms * 1e6) : 0.0;
  row.native_gflops =
      row.native_ms > 0 ? flop / (row.native_ms * 1e6) : 0.0;
  row.speedup = row.native_ms > 0 ? row.interp_ms / row.native_ms : 0.0;

  double diff = 0.0;
  for (int64_t i = 0; i < batch; ++i) {
    diff = std::max(diff, blas3::max_abs_diff(ic[static_cast<size_t>(i)],
                                              nc[static_cast<size_t>(i)]));
  }
  row.max_abs_diff = diff;
  row.within_tolerance =
      diff <= blas3::accumulation_tolerance(member_n, p);

  const exec::ExecStats stats = cache.stats();
  row.cache_compiles = stats.compiles;
  row.cache_hits = stats.cache_hits;
  row.jit_kernels = stats.jit_kernels;
  row.portable_kernels = stats.portable_kernels;

  std::printf(
      "%-10s n=%-4lld batch=%-4lld per-member %9.2f ms (%6.2f GF)  "
      "fused %7.3f ms (%7.2f GF)  speedup %6.1fx  diff=%g%s  "
      "warm_recompiles=%lld  vector_loops=%lld\n",
      v.name().c_str(), static_cast<long long>(member_n),
      static_cast<long long>(batch), row.interp_ms, row.interp_gflops,
      row.native_ms, row.native_gflops, row.speedup, row.max_abs_diff,
      row.within_tolerance ? "" : "  OFF-TOLERANCE",
      static_cast<long long>(row.warm_recompiles),
      static_cast<long long>(row.vector_loops));
  return row;
}

void write_json(const std::string& path, const gpusim::DeviceModel& device,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "exec_throughput: cannot write %s\n",
                 path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"exec_throughput\",\n");
  std::fprintf(f, "  \"device\": \"%s\",\n", device.name.c_str());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"jit_supported\": %s,\n",
               exec::jit_supported() ? "true" : "false");
  std::fprintf(f, "  \"avx2\": %s,\n", exec::jit_avx2() ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (r.batch > 0) {
      // Batched row: both legs are native; the keys name the batching
      // contrast instead of the backend contrast.
      std::fprintf(
          f,
          "    {\"variant\": \"%s\", \"n\": %lld, \"batch\": %lld, "
          "\"per_member_ms_per_run\": %.4f, \"fused_ms_per_run\": %.4f, "
          "\"per_member_gflops\": %.4f, \"fused_gflops\": %.4f, "
          "\"speedup\": %.2f, \"max_abs_diff\": %g, "
          "\"within_tolerance\": %s, \"warm_recompiles\": %lld, "
          "\"vector_loops\": %lld}%s\n",
          r.variant.c_str(), static_cast<long long>(r.n),
          static_cast<long long>(r.batch), r.interp_ms, r.native_ms,
          r.interp_gflops, r.native_gflops, r.speedup, r.max_abs_diff,
          r.within_tolerance ? "true" : "false",
          static_cast<long long>(r.warm_recompiles),
          static_cast<long long>(r.vector_loops),
          i + 1 < rows.size() ? "," : "");
      continue;
    }
    std::fprintf(
        f,
        "    {\"variant\": \"%s\", \"n\": %lld, "
        "\"interp_ms_per_run\": %.4f, \"native_ms_per_run\": %.4f, "
        "\"interp_gflops\": %.4f, \"native_gflops\": %.4f, "
        "\"speedup\": %.2f, \"max_abs_diff\": %g, "
        "\"within_tolerance\": %s, \"warm_recompiles\": %lld, "
        "\"cache_compiles\": %lld, \"cache_hits\": %lld, "
        "\"jit_kernels\": %lld, \"portable_kernels\": %lld, "
        "\"vector_loops\": %lld}%s\n",
        r.variant.c_str(), static_cast<long long>(r.n), r.interp_ms,
        r.native_ms, r.interp_gflops, r.native_gflops, r.speedup,
        r.max_abs_diff, r.within_tolerance ? "true" : "false",
        static_cast<long long>(r.warm_recompiles),
        static_cast<long long>(r.cache_compiles),
        static_cast<long long>(r.cache_hits),
        static_cast<long long>(r.jit_kernels),
        static_cast<long long>(r.portable_kernels),
        static_cast<long long>(r.vector_loops),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace oa

int main(int argc, char** argv) {
  using namespace oa;
  set_log_level(LogLevel::kWarning);

  std::string out_path = "BENCH_exec.json";
  int64_t n = 256;
  int interp_reps = 3;
  int native_reps = 30;
  int64_t tuning_size = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--n" && i + 1 < argc) {
      n = std::atoll(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      native_reps = std::atoi(argv[++i]);
    } else if (arg == "--quick") {
      n = 192;
      interp_reps = 1;
      native_reps = 10;
      tuning_size = 128;
    } else {
      std::printf(
          "usage: exec_throughput [--out FILE] [--n N] [--reps N] "
          "[--quick]\n");
      return 2;
    }
  }

  const gpusim::DeviceModel& device = gpusim::gtx285();
  gpusim::Simulator sim(device);
  OaOptions options;
  options.tuning_size = tuning_size;
  options.verify_size = 48;
  OaFramework framework(device, options);
  std::printf("tuning the bench kernels on %s...\n", device.name.c_str());
  for (const char* name : {"GEMM-NN", "DGEMM-NN", "GEMM_BATCHED-NN"}) {
    auto tuned = framework.generate(*blas3::find_variant(name));
    if (!tuned.is_ok()) {
      std::printf("  %s failed: %s\n", name,
                  tuned.status().to_string().c_str());
      return 1;
    }
  }
  const libgen::Artifact artifact = framework.export_library();
  runtime::LibraryRuntime rt(device, artifact);
  std::shared_ptr<const runtime::DispatchSnapshot> snap = rt.snapshot();

  std::vector<Row> rows;
  exec::ExecCache cache;
  for (const runtime::DispatchSnapshot::Entry& entry : snap->entries()) {
    if (entry.variant->batch != blas3::Batch::kSingle) {
      rows.push_back(bench_batched(sim, entry, /*member_n=*/64,
                                   /*batch=*/256, interp_reps,
                                   native_reps, cache));
    } else {
      rows.push_back(bench_variant(sim, entry, n, interp_reps,
                                   native_reps, cache));
    }
  }

  write_json(out_path, device, rows);

  bool ok = !rows.empty();
  bool saw_batched = false;
  for (const Row& r : rows) {
    ok = ok && r.within_tolerance && r.warm_recompiles == 0 &&
         r.speedup > 1.0;
    // The batched acceptance bar: the fused path must beat per-member
    // dispatch by >= 5x at batch=256, 64x64 members.
    if (r.batch > 0) {
      saw_batched = true;
      ok = ok && r.speedup >= 5.0;
    }
  }
  return ok && saw_batched ? 0 : 1;
}
