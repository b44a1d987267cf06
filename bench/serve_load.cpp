// Closed-loop load benchmark for the serving path (docs/SERVING.md).
//
//   $ ./bench/serve_load [--out BENCH_serve.json] [--duration-ms N]
//                        [--reloads N] [--quick]
//
// Four sections, all against one small generated library (both
// precisions):
//
//   1. dispatch microbench — pure lookup throughput of the lock-free
//      snapshot dispatcher vs the pre-refactor design (mutex around a
//      string-keyed map, per-dispatch bool_params copy), 1..8 client
//      threads, plus heap allocations per dispatch (the hot-path
//      micro-fix this bench exists to prove: snapshot dispatch is
//      allocation-free);
//   2. closed-loop serve — N client threads issuing a mixed
//      f32/f64 request stream through serve() (admission control plus
//      native execution): QPS, latency percentiles, native serves and
//      interpreter fallbacks;
//   3. admission control — the same closed loop against a tight
//      latency SLO and queue bound: shed rate and the accounting
//      invariant requests == served + shed;
//   4. swap-under-load — clients hammer run() while another thread
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
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "libgen/artifact.hpp"
#include "oa/oa.hpp"
#include "obs/trace.hpp"
#include "runtime/library_runtime.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

// --- allocation counter ----------------------------------------------
// Replacing global new/delete lets the microbench report heap
// allocations per dispatch; the old design paid one map node per
// bool_param copied, the snapshot design pays zero.
static std::atomic<uint64_t> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace oa {
namespace {

using blas3::Variant;
using runtime::DispatchOutcome;
using runtime::DispatchSnapshot;
using runtime::LibraryRuntime;

/// The pre-refactor dispatcher, preserved as the comparison baseline:
/// one mutex around a string-keyed index, nearest-bucket resolution on
/// every call, and a per-dispatch copy of the entry's bool_params —
/// exactly the costs the DispatchSnapshot design removed. Built over
/// the same entries the snapshot serves, so both answer identically.
class LegacyDispatcher {
 public:
  explicit LegacyDispatcher(const DispatchSnapshot& snap) {
    for (const DispatchSnapshot::Entry& e : snap.entries()) {
      index_[e.variant->name()]
            [LibraryRuntime::size_bucket(e.tuned_size)] = table_.size();
      table_.push_back(&e);
    }
  }

  struct Result {
    const ir::Program* program = nullptr;
    std::map<std::string, bool> bool_params;  // the old per-call copy
    bool hit = false;
  };

  Result dispatch(const Variant& v, int64_t n) const {
    std::lock_guard<std::mutex> lock(mu_);
    Result r;
    auto it = index_.find(v.name());
    if (it == index_.end()) return r;
    const std::map<int, size_t>& buckets = it->second;
    const int want = LibraryRuntime::size_bucket(n);
    size_t idx;
    auto exact = buckets.find(want);
    if (exact != buckets.end()) {
      idx = exact->second;
      r.hit = true;
    } else {
      auto lo = buckets.lower_bound(want);
      if (lo == buckets.end()) {
        idx = std::prev(lo)->second;
      } else if (lo == buckets.begin()) {
        idx = lo->second;
      } else {
        auto below = std::prev(lo);
        idx = (lo->first - want) < (want - below->first) ? lo->second
                                                         : below->second;
      }
    }
    r.program = &table_[idx]->program;
    r.bool_params = table_[idx]->bool_params;
    return r;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::map<int, size_t>> index_;
  std::vector<const DispatchSnapshot::Entry*> table_;
};

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

// --- section 1: dispatch microbench ----------------------------------

struct DispatchRow {
  int threads;
  /// The serving hot path: snapshot pinned once and reused across
  /// requests (as run()'s thread-local pin does), lookup per request.
  double snapshot_mops;
  /// The public dispatch() API: thread-cached pin handed out with
  /// every Dispatch (one shared_ptr copy per call).
  double api_mops;
  double legacy_mops;  // mutex + string map + bool_params copy
  double speedup;      // snapshot_mops / legacy_mops
  double api_speedup;  // api_mops / legacy_mops
};

template <typename DispatchFn>
double measure_mops(int threads, int64_t ops_per_thread,
                    const DispatchFn& one_op) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  const double t0_barrier = obs::now_us();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int64_t i = 0; i < ops_per_thread; ++i) {
        one_op(t, i);
      }
    });
  }
  while (ready.load() < threads) {
  }
  (void)t0_barrier;
  const double t0 = obs::now_us();
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  const double us = obs::now_us() - t0;
  return us > 0 ? static_cast<double>(threads * ops_per_thread) / us
                : 0.0;
}

std::vector<DispatchRow> run_dispatch_microbench(
    const LibraryRuntime& rt, const std::vector<RequestShape>& mix,
    int64_t ops_per_thread, uint64_t* snapshot_allocs_per_kop,
    uint64_t* legacy_allocs_per_kop) {
  std::shared_ptr<const DispatchSnapshot> snap = rt.snapshot();
  LegacyDispatcher legacy(*snap);

  // Consuming `sink` keeps the optimizer honest in all three loops.
  std::atomic<uint64_t> sink{0};
  // The serving hot path exactly as run() executes it: the thread-local
  // snapshot pin is amortized across requests, each lookup is a
  // variant-code encode + bit scan + two array loads.
  auto snapshot_op = [&](int, int64_t i) {
    const RequestShape& r = mix[static_cast<size_t>(i) % mix.size()];
    bool exact = false;
    const DispatchSnapshot::Entry* e =
        snap->lookup(runtime::variant_code(*r.v),
                     DispatchSnapshot::size_bucket(r.n), &exact);
    sink.fetch_add(e != nullptr, std::memory_order_relaxed);
  };
  // The public dispatch() API: same lookup plus a pinned shared_ptr
  // handed to the caller with every Dispatch.
  auto api_op = [&](int, int64_t i) {
    const RequestShape& r = mix[static_cast<size_t>(i) % mix.size()];
    LibraryRuntime::Dispatch d = rt.dispatch(*r.v, r.n);
    sink.fetch_add(d.program != nullptr, std::memory_order_relaxed);
  };
  auto legacy_op = [&](int, int64_t i) {
    const RequestShape& r = mix[static_cast<size_t>(i) % mix.size()];
    LegacyDispatcher::Result d = legacy.dispatch(*r.v, r.n);
    sink.fetch_add(d.program != nullptr, std::memory_order_relaxed);
  };

  // Allocation cost per 1000 dispatches, measured single-threaded on
  // the API path (the one that hands anything to a caller).
  const int64_t kAllocOps = 4096;
  uint64_t before = g_allocs.load();
  for (int64_t i = 0; i < kAllocOps; ++i) api_op(0, i);
  *snapshot_allocs_per_kop =
      (g_allocs.load() - before) * 1000 / kAllocOps;
  before = g_allocs.load();
  for (int64_t i = 0; i < kAllocOps; ++i) legacy_op(0, i);
  *legacy_allocs_per_kop = (g_allocs.load() - before) * 1000 / kAllocOps;

  std::vector<DispatchRow> rows;
  for (int threads : {1, 2, 4, 8}) {
    DispatchRow row;
    row.threads = threads;
    row.snapshot_mops = measure_mops(threads, ops_per_thread, snapshot_op);
    row.api_mops = measure_mops(threads, ops_per_thread, api_op);
    row.legacy_mops = measure_mops(threads, ops_per_thread, legacy_op);
    row.speedup =
        row.legacy_mops > 0 ? row.snapshot_mops / row.legacy_mops : 0.0;
    row.api_speedup =
        row.legacy_mops > 0 ? row.api_mops / row.legacy_mops : 0.0;
    rows.push_back(row);
    std::printf(
        "dispatch  threads=%d  snapshot %8.2f Mops/s  api %8.2f Mops/s  "
        "legacy %8.2f Mops/s  speedup %.2fx (api %.2fx)\n",
        threads, row.snapshot_mops, row.api_mops, row.legacy_mops,
        row.speedup, row.api_speedup);
  }
  return rows;
}

// --- sections 2+3: closed-loop serve ---------------------------------

struct ServeRow {
  std::string mode;
  int clients;
  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t native_serves = 0;
  uint64_t native_fallbacks = 0;
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
  row.native_fallbacks = stats.native_fallbacks;
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
      "p99=%-8.0f shed=%.1f%%  native=%llu fallbacks=%llu%s\n",
      mode.c_str(), clients, row.qps, row.p50_us, row.p99_us,
      row.shed_rate * 100.0,
      static_cast<unsigned long long>(row.native_serves),
      static_cast<unsigned long long>(row.native_fallbacks),
      row.accounting_ok ? "" : "  ACCOUNTING MISMATCH");
  return row;
}

// --- section 4: swap under load --------------------------------------

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
                const std::vector<DispatchRow>& dispatch,
                uint64_t snapshot_allocs_per_kop,
                uint64_t legacy_allocs_per_kop,
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
  std::fprintf(f, "  \"dispatch_microbench\": {\n");
  std::fprintf(f, "    \"snapshot_allocs_per_1k_dispatches\": %llu,\n",
               static_cast<unsigned long long>(snapshot_allocs_per_kop));
  std::fprintf(f, "    \"legacy_allocs_per_1k_dispatches\": %llu,\n",
               static_cast<unsigned long long>(legacy_allocs_per_kop));
  std::fprintf(f, "    \"threads\": [\n");
  for (size_t i = 0; i < dispatch.size(); ++i) {
    const DispatchRow& r = dispatch[i];
    std::fprintf(f,
                 "      {\"threads\": %d, \"snapshot_mops\": %.3f, "
                 "\"api_mops\": %.3f, \"legacy_mops\": %.3f, "
                 "\"speedup\": %.3f, \"api_speedup\": %.3f}%s\n",
                 r.threads, r.snapshot_mops, r.api_mops, r.legacy_mops,
                 r.speedup, r.api_speedup,
                 i + 1 < dispatch.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f, "  \"closed_loop\": [\n");
  for (size_t i = 0; i < serve.size(); ++i) {
    const ServeRow& r = serve[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"clients\": %d, \"requests\": %llu, "
        "\"qps\": %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f, "
        "\"p99_us\": %.1f, \"shed\": %llu, \"shed_rate\": %.4f, "
        "\"native_serves\": %llu, \"native_fallbacks\": %llu, "
        "\"requests_f32\": %llu, \"requests_f64\": %llu, "
        "\"accounting_ok\": %s}%s\n",
        r.mode.c_str(), r.clients,
        static_cast<unsigned long long>(r.requests), r.qps, r.p50_us,
        r.p95_us, r.p99_us, static_cast<unsigned long long>(r.shed),
        r.shed_rate, static_cast<unsigned long long>(r.native_serves),
        static_cast<unsigned long long>(r.native_fallbacks),
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
  int64_t dispatch_ops = 200000;
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
      dispatch_ops = 50000;
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

  // Section 1: pure dispatch throughput, snapshot vs legacy.
  LibraryRuntime dispatch_rt(device, artifact);
  uint64_t snapshot_allocs = 0, legacy_allocs = 0;
  const std::vector<DispatchRow> dispatch_rows = run_dispatch_microbench(
      dispatch_rt, mix, dispatch_ops, &snapshot_allocs, &legacy_allocs);
  std::printf(
      "dispatch  allocations per 1k dispatches: snapshot %llu, legacy "
      "%llu\n",
      static_cast<unsigned long long>(snapshot_allocs),
      static_cast<unsigned long long>(legacy_allocs));

  // Sections 2+3: closed-loop serving.
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

  // Section 4: hot reloads under load.
  const SwapResult swap =
      run_swap_under_load(device, artifact, prepared, 4, reloads);

  write_json(out_path, device, dispatch_rows, snapshot_allocs,
             legacy_allocs, serve_rows, swap);

  const bool ok = swap.zero_drops &&
                  std::all_of(serve_rows.begin(), serve_rows.end(),
                              [](const ServeRow& r) {
                                return r.accounting_ok;
                              });
  return ok ? 0 : 1;
}
