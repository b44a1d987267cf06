// Closed-loop load benchmark for the serving path (docs/SERVING.md).
//
//   $ ./bench/serve_load [--out BENCH_serve.json] [--duration-ms N]
//                        [--reloads N] [--quick]
//
// Three sections, all against one small generated library (both
// precisions):
//
//   1. closed-loop serve — N client threads issuing a mixed
//      f32/f64 request stream through serve() (admission control plus
//      native execution): QPS, latency percentiles, native serves and
//      recovered kernel errors;
//   2. admission control — the same closed loop against a tight
//      latency SLO and queue bound: shed rate and the accounting
//      invariant requests == served + shed;
//   3. swap-under-load — clients hammer run() while another thread
//      hot-reloads the artifact in a loop: every request must be
//      answered (zero drops) across >= 100 snapshot republishes.
//
// Results land in BENCH_serve.json (consumed by the CI smoke lane,
// checked in at the repo root for the current container).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "libgen/artifact.hpp"
#include "oa/oa.hpp"
#include "obs/trace.hpp"
#include "runtime/library_runtime.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace oa {
namespace {

using blas3::Variant;
using runtime::DispatchOutcome;
using runtime::LibraryRuntime;

/// One request of the closed-loop mix.
struct RequestShape {
  const Variant* v;
  int64_t n;
};

/// Both precisions, hit and near-hit buckets, more than one family —
/// small sizes keep a serve cheap so the closed loop weighs the
/// serving machinery next to kernel execution.
std::vector<RequestShape> request_mix() {
  std::vector<RequestShape> mix;
  for (const char* name : {"GEMM-NN", "DGEMM-NN", "SYMM-LL", "DSYMM-LL"}) {
    const Variant* v = blas3::find_variant(name);
    if (v == nullptr) continue;
    mix.push_back({v, 48});
    mix.push_back({v, 96});
  }
  return mix;
}

void prepare(const Variant& v, Rng& rng, blas3::Matrix& a,
             blas3::Matrix& b) {
  a.fill_random(rng);
  b.fill_random(rng);
  if (v.family == blas3::Family::kTrmm ||
      v.family == blas3::Family::kTrsm ||
      v.family == blas3::Family::kSymm) {
    a.make_triangular(v.uplo);
  }
  if (v.family == blas3::Family::kTrsm) {
    a.set_unit_diagonal();
    a.scale_off_diagonal(1.0f / 16.0f);
  }
}

/// Pre-built inputs per mix entry, reused by every client thread
/// (serve() only writes b/c for TRSM-free mixes into per-thread
/// copies).
struct PreparedRequest {
  const Variant* v;
  blas3::Matrix a, b, c;
};

std::vector<PreparedRequest> prepare_mix(
    const std::vector<RequestShape>& mix) {
  std::vector<PreparedRequest> prepared;
  Rng rng(0x5E21);
  for (const RequestShape& shape : mix) {
    PreparedRequest p;
    p.v = shape.v;
    p.a = blas3::Matrix(shape.n, shape.n, shape.v->precision);
    p.b = blas3::Matrix(shape.n, shape.n, shape.v->precision);
    p.c = blas3::Matrix(shape.n, shape.n, shape.v->precision);
    prepare(*shape.v, rng, p.a, p.b);
    prepared.push_back(std::move(p));
  }
  return prepared;
}

double pct(const obs::Histogram& h, double p) {
  return h.count() == 0 ? 0.0 : h.percentile(p);
}

// --- sections 1+2: closed-loop serve ---------------------------------

struct ServeRow {
  std::string mode;
  int clients;
  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t native_serves = 0;
  uint64_t recovered_errors = 0;
  double qps = 0.0;
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  double shed_rate = 0.0;
  uint64_t requests_f32 = 0, requests_f64 = 0;
  bool accounting_ok = false;
};

ServeRow run_closed_loop(const gpusim::DeviceModel& device,
                         const libgen::Artifact& artifact,
                         const std::vector<PreparedRequest>& mix,
                         const std::string& mode, int clients,
                         double duration_ms,
                         runtime::RuntimeOptions ropt) {
  LibraryRuntime rt(device, artifact, ropt);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < clients; ++t) {
    workers.emplace_back([&, t] {
      // Per-thread copies of the write targets; `a` is shared
      // read-only.
      std::vector<blas3::Matrix> b, c;
      for (const PreparedRequest& p : mix) {
        b.push_back(p.b);
        c.push_back(p.c);
      }
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        // Skewed mix: half the traffic hits the hottest key, the rest
        // spreads over the tail.
        ++i;
        const size_t k = i % 2 == 0 ? 0 : (i / 2) % mix.size();
        auto outcome = rt.serve(*mix[k].v, mix[k].a, b[k], &c[k]);
        if (!outcome.is_ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        } else if (*outcome == DispatchOutcome::kShed) {
          // A real client backs off when shed; a tight retry loop
          // would only measure the shed fast path.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
    });
  }
  const double t0 = obs::now_us();
  while (obs::now_us() - t0 < duration_ms * 1000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (std::thread& w : workers) w.join();
  const double elapsed_us = obs::now_us() - t0;

  const runtime::DispatchStats stats = rt.stats();
  ServeRow row;
  row.mode = mode;
  row.clients = clients;
  row.requests = stats.requests;
  row.shed = stats.shed;
  row.native_serves = stats.native_serves;
  row.recovered_errors = stats.recovered_errors;
  row.qps = elapsed_us > 0
                ? static_cast<double>(stats.requests) / elapsed_us * 1e6
                : 0.0;
  const obs::Histogram& serve_us =
      rt.metrics().histogram("runtime.serve_us");
  row.p50_us = pct(serve_us, 50);
  row.p95_us = pct(serve_us, 95);
  row.p99_us = pct(serve_us, 99);
  row.shed_rate = stats.requests > 0 ? static_cast<double>(stats.shed) /
                                           static_cast<double>(stats.requests)
                                     : 0.0;
  row.requests_f32 = stats.requests_f32;
  row.requests_f64 = stats.requests_f64;
  // The derived-sum contract: every request is accounted to exactly
  // one outcome once the loop has drained, and nothing errored.
  row.accounting_ok =
      errors.load() == 0 &&
      stats.requests == stats.hits + stats.near_hits +
                            stats.baseline_fallbacks +
                            stats.reference_fallbacks + stats.shed +
                            stats.failed_requests &&
      stats.failed_requests == 0;
  std::printf(
      "serve     mode=%-12s clients=%d  %6.0f req/s  p50=%-6.0f "
      "p99=%-8.0f shed=%.1f%%  native=%llu recovered=%llu%s\n",
      mode.c_str(), clients, row.qps, row.p50_us, row.p99_us,
      row.shed_rate * 100.0,
      static_cast<unsigned long long>(row.native_serves),
      static_cast<unsigned long long>(row.recovered_errors),
      row.accounting_ok ? "" : "  ACCOUNTING MISMATCH");
  return row;
}

// --- section 3: swap under load --------------------------------------

struct SwapResult {
  uint64_t reloads = 0;
  uint64_t requests = 0;
  uint64_t answered = 0;
  uint64_t dropped = 0;  // requests that returned an error status
  bool zero_drops = false;
};

SwapResult run_swap_under_load(const gpusim::DeviceModel& device,
                               const libgen::Artifact& artifact,
                               const std::vector<PreparedRequest>& mix,
                               int clients, int reloads) {
  LibraryRuntime rt(device, artifact);
  // Alternate between the full artifact and a truncated one so every
  // swap genuinely changes the published table.
  libgen::Artifact small = artifact;
  if (small.entries.size() > 1) {
    small.entries.resize(small.entries.size() / 2);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sent{0}, ok{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < clients; ++t) {
    workers.emplace_back([&, t] {
      std::vector<blas3::Matrix> b, c;
      for (const PreparedRequest& p : mix) {
        b.push_back(p.b);
        c.push_back(p.c);
      }
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t k = i++ % mix.size();
        sent.fetch_add(1, std::memory_order_relaxed);
        auto outcome = rt.run(*mix[k].v, mix[k].a, b[k], &c[k]);
        if (outcome.is_ok()) ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int i = 0; i < reloads; ++i) {
    Status swapped =
        rt.swap_artifact(i % 2 == 0 ? small : artifact);
    if (!swapped.is_ok()) {
      std::printf("swap %d: %s\n", i, swapped.to_string().c_str());
    }
    // Space the reloads out so clients actually serve between
    // republishes (a reload every ~10ms is already far more violent
    // than any production cadence).
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Let the clients keep serving against the last snapshot long
  // enough for the drop accounting to mean something.
  const double t_wait = obs::now_us();
  while (sent.load() < 200 && obs::now_us() - t_wait < 10e6) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (std::thread& w : workers) w.join();

  SwapResult r;
  r.reloads = rt.stats().reloads;
  r.requests = sent.load();
  r.answered = ok.load();
  r.dropped = r.requests - r.answered;
  r.zero_drops = r.dropped == 0 && r.reloads >= static_cast<uint64_t>(reloads);
  std::printf(
      "swap      %llu reloads under %d clients: %llu requests, %llu "
      "answered, %llu dropped%s\n",
      static_cast<unsigned long long>(r.reloads), clients,
      static_cast<unsigned long long>(r.requests),
      static_cast<unsigned long long>(r.answered),
      static_cast<unsigned long long>(r.dropped),
      r.zero_drops ? "" : "  DROPPED REQUESTS");
  return r;
}

// --- JSON emission ---------------------------------------------------

void write_json(const std::string& path, const gpusim::DeviceModel& device,
                const std::vector<ServeRow>& serve,
                const SwapResult& swap) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "serve_load: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"serve_load\",\n");
  std::fprintf(f, "  \"device\": \"%s\",\n", device.name.c_str());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"closed_loop\": [\n");
  for (size_t i = 0; i < serve.size(); ++i) {
    const ServeRow& r = serve[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"clients\": %d, \"requests\": %llu, "
        "\"qps\": %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f, "
        "\"p99_us\": %.1f, \"shed\": %llu, \"shed_rate\": %.4f, "
        "\"native_serves\": %llu, \"recovered_errors\": %llu, "
        "\"requests_f32\": %llu, \"requests_f64\": %llu, "
        "\"accounting_ok\": %s}%s\n",
        r.mode.c_str(), r.clients,
        static_cast<unsigned long long>(r.requests), r.qps, r.p50_us,
        r.p95_us, r.p99_us, static_cast<unsigned long long>(r.shed),
        r.shed_rate, static_cast<unsigned long long>(r.native_serves),
        static_cast<unsigned long long>(r.recovered_errors),
        static_cast<unsigned long long>(r.requests_f32),
        static_cast<unsigned long long>(r.requests_f64),
        r.accounting_ok ? "true" : "false",
        i + 1 < serve.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"swap_under_load\": {\"reloads\": %llu, \"requests\": %llu, "
      "\"answered\": %llu, \"dropped\": %llu, \"zero_drops\": %s}\n",
      static_cast<unsigned long long>(swap.reloads),
      static_cast<unsigned long long>(swap.requests),
      static_cast<unsigned long long>(swap.answered),
      static_cast<unsigned long long>(swap.dropped),
      swap.zero_drops ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace oa

int main(int argc, char** argv) {
  using namespace oa;
  set_log_level(LogLevel::kWarning);

  std::string out_path = "BENCH_serve.json";
  double duration_ms = 1200.0;
  int reloads = 120;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--duration-ms" && i + 1 < argc) {
      duration_ms = std::atof(argv[++i]);
    } else if (arg == "--reloads" && i + 1 < argc) {
      reloads = std::atoi(argv[++i]);
    } else if (arg == "--quick") {
      duration_ms = 300.0;
      reloads = 100;
    } else {
      std::printf(
          "usage: serve_load [--out FILE] [--duration-ms N] "
          "[--reloads N] [--quick]\n");
      return 2;
    }
  }

  // One small two-precision library for every section.
  const gpusim::DeviceModel& device = gpusim::gtx285();
  OaOptions options;
  options.tuning_size = 256;
  options.verify_size = 48;
  OaFramework framework(device, options);
  std::printf("generating the bench library on %s...\n",
              device.name.c_str());
  for (const char* name :
       {"GEMM-NN", "DGEMM-NN", "SYMM-LL", "DSYMM-LL"}) {
    auto tuned = framework.generate(*blas3::find_variant(name));
    if (!tuned.is_ok()) {
      std::printf("  %s failed: %s\n", name,
                  tuned.status().to_string().c_str());
      return 1;
    }
  }
  const libgen::Artifact artifact = framework.export_library();

  const std::vector<RequestShape> mix = request_mix();
  const std::vector<PreparedRequest> prepared = prepare_mix(mix);

  // Sections 1+2: closed-loop serving.
  std::vector<ServeRow> serve_rows;
  for (int clients : {1, 2, 4, 8}) {
    serve_rows.push_back(run_closed_loop(device, artifact, prepared,
                                         "direct", clients, duration_ms,
                                         {}));
  }
  {
    // Tight SLO + shallow queue: with 8 closed-loop clients the
    // admission controller must shed; the row proves shed accounting.
    runtime::RuntimeOptions ropt;
    ropt.slo_p99_us = 200.0;
    ropt.max_queue_depth = 2;
    serve_rows.push_back(run_closed_loop(device, artifact, prepared,
                                         "admission", 8, duration_ms,
                                         ropt));
  }

  // Section 3: hot reloads under load.
  const SwapResult swap =
      run_swap_under_load(device, artifact, prepared, 4, reloads);

  write_json(out_path, device, serve_rows, swap);

  const bool ok = swap.zero_drops &&
                  std::all_of(serve_rows.begin(), serve_rows.end(),
                              [](const ServeRow& r) {
                                return r.accounting_ok;
                              });
  return ok ? 0 : 1;
}
