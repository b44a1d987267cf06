// google-benchmark microbenchmarks for the simulator substrate itself:
// kernel compilation, warp-level block interpretation (ghost and
// functional), and the dependence tester. These guard the costs that
// the tuner's search multiplies by thousands.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "blas3/matrix.hpp"
#include "blas3/source_ir.hpp"
#include "deps/dependence.hpp"
#include "epod/script.hpp"
#include "gpusim/simulator.hpp"
#include "support/rng.hpp"
#include "transforms/transform.hpp"

namespace {

using namespace oa;

ir::Program tuned_gemm(const char* variant = "GEMM-NN") {
  ir::Program p = blas3::make_source_program(*blas3::find_variant(variant));
  transforms::TransformContext ctx;
  auto mask = epod::apply_script_lenient(p, epod::gemm_nn_script(), ctx);
  if (!mask.is_ok()) std::abort();
  return p;
}

void BM_CompileKernel(benchmark::State& state) {
  ir::Program p = tuned_gemm();
  ir::Env params{{"M", 1024}, {"N", 1024}, {"K", 1024}};
  for (auto _ : state) {
    auto compiled =
        gpusim::compile_kernel(p, p.main_kernel(), params, {});
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_CompileKernel);

void ghost_block_bench(benchmark::State& state, bool fastpath) {
  ir::Program p = tuned_gemm();
  ir::Env params{{"M", 256}, {"N", 256}, {"K", 256}};
  auto compiled = gpusim::compile_kernel(p, p.main_kernel(), params, {});
  if (!compiled.is_ok()) std::abort();
  const auto& dev = gpusim::gtx285();
  int64_t flops = 0;
  for (auto _ : state) {
    gpusim::BlockSim sim(*compiled, dev, /*functional=*/false, nullptr,
                         fastpath);
    gpusim::Counters c;
    if (!sim.run(0, 0, 0, static_cast<int>(
                              compiled->launch.threads_per_block()),
                 c)
             .is_ok()) {
      std::abort();
    }
    flops += c.flops;
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(flops);
}

void BM_BlockSimGhost(benchmark::State& state) {
  ghost_block_bench(state, /*fastpath=*/true);
}
BENCHMARK(BM_BlockSimGhost);

void BM_BlockSimGhostInterp(benchmark::State& state) {
  ghost_block_bench(state, /*fastpath=*/false);
}
BENCHMARK(BM_BlockSimGhostInterp);

void BM_FunctionalGemm64(benchmark::State& state) {
  ir::Program p = tuned_gemm();
  gpusim::Simulator sim(gpusim::gtx285());
  gpusim::RunOptions opts;
  opts.int_params = {{"M", 64}, {"N", 64}, {"K", 64}};
  Rng rng(1);
  blas3::Matrix a(64, 64), b(64, 64), c(64, 64);
  a.fill_random(rng);
  b.fill_random(rng);
  for (auto _ : state) {
    gpusim::GlobalBuffers buffers = gpusim::make_buffers(
        p, opts.int_params, {{"A", &a}, {"B", &b}, {"C", &c}});
    auto result = sim.run_functional(p, opts, buffers);
    if (!result.is_ok()) std::abort();
    benchmark::DoNotOptimize(buffers);
  }
}
BENCHMARK(BM_FunctionalGemm64);

void BM_PerformanceGemm1024(benchmark::State& state) {
  ir::Program p = tuned_gemm();
  gpusim::Simulator sim(gpusim::gtx285());
  gpusim::RunOptions opts;
  opts.int_params = {{"M", 1024}, {"N", 1024}, {"K", 1024}};
  for (auto _ : state) {
    auto result = sim.run_performance(p, opts);
    if (!result.is_ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PerformanceGemm1024);

void BM_DependenceTest(benchmark::State& state) {
  ir::Program p =
      blas3::make_source_program(*blas3::find_variant("TRSM-LL-N"));
  const ir::Node* li = p.main_kernel().find("Li");
  ir::Env params{{"M", 256}, {"N", 256}};
  for (auto _ : state) {
    bool carried = deps::carries_dependence(p.main_kernel(), *li, params,
                                            deps::Mode::kStrict);
    benchmark::DoNotOptimize(carried);
  }
}
BENCHMARK(BM_DependenceTest);

// ---- --json: fast-path speedup report (BENCH_sim.json) --------------
//
// Runs the tuned GEMM-NN and DGEMM-NN ghost simulations of one block
// at N=4096 on every device preset, fast path on vs off, and writes
// per-device, per-precision ns/block, speedup, and fast-path coverage
// (f64's 8-byte accesses price differently, so its ghost throughput is
// tracked separately). Triangular rows price the unpadded version of a
// padded TRMM-RL-N schedule (16x16 threads, `k = max(j, kk)`) on two
// blocks of an N=512 grid: the last block column, whose k range is its
// own diagonal band, and the first, whose k tiles lie mostly off the
// diagonal. CI uploads the file as an artifact; EXPERIMENTS.md records
// representative numbers.

ir::Program unpadded_trmm() {
  ir::Program p =
      blas3::make_source_program(*blas3::find_variant("TRMM-RL-N"));
  transforms::TransformContext ctx;
  ctx.params.block_tile_y = 64;
  ctx.params.block_tile_x = 64;
  ctx.params.threads_y = 16;
  ctx.params.threads_x = 16;
  auto script = epod::parse_script(R"(
    (Lii, Ljj) = thread_grouping(Li, Lj);
    (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
    padding_triangular(A);
    SM_alloc(B, Transpose);
    reg_alloc(C);
  )");
  if (!script.is_ok()) std::abort();
  auto mask = epod::apply_script_lenient(p, *script, ctx);
  if (!mask.is_ok()) std::abort();
  return p;
}

struct DeviceReport {
  std::string name;
  std::string precision;
  std::string block;  // triangular rows: "diagonal" / "off-diagonal"
  int64_t by = 0, bx = 0;
  double interp_ns = 0.0;
  double fast_ns = 0.0;
  double coverage = 0.0;
  int64_t collapsed_loops = 0;
  double speedup() const { return fast_ns > 0 ? interp_ns / fast_ns : 0; }
};

double time_ghost_block(const gpusim::CompiledKernel& ck,
                        const gpusim::DeviceModel& dev, bool fastpath,
                        gpusim::FastPathStats* stats_out, int64_t by = 0,
                        int64_t bx = 0) {
  const int threads = static_cast<int>(ck.launch.threads_per_block());
  auto run_once = [&]() {
    gpusim::BlockSim sim(ck, dev, /*functional=*/false, nullptr, fastpath);
    gpusim::Counters c;
    if (!sim.run(by, bx, 0, threads, c).is_ok()) std::abort();
    if (stats_out != nullptr) *stats_out = sim.fastpath_stats();
  };
  run_once();  // warmup
  double elapsed = 0.0;
  int iters = 0;
  do {
    const auto t0 = std::chrono::steady_clock::now();
    run_once();
    elapsed += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    ++iters;
  } while (elapsed < 0.2 && iters < 1000);
  return elapsed / iters * 1e9;
}

int write_json_report(const std::string& path) {
  ir::Env params{{"M", 4096}, {"N", 4096}, {"K", 4096}};
  const std::vector<std::pair<std::string, const gpusim::DeviceModel*>>
      devices = {{"geforce9800", &gpusim::geforce_9800()},
                 {"gtx285", &gpusim::gtx285()},
                 {"fermi", &gpusim::fermi_c2050()}};
  const std::vector<std::pair<const char*, const char*>> precisions = {
      {"f32", "GEMM-NN"}, {"f64", "DGEMM-NN"}};
  std::vector<DeviceReport> reports;
  for (const auto& [prec, variant] : precisions) {
    ir::Program p = tuned_gemm(variant);
    for (const auto& [name, dev] : devices) {
      auto compiled =
          gpusim::compile_kernel(p, p.main_kernel(), params, {});
      if (!compiled.is_ok()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     compiled.status().to_string().c_str());
        return 1;
      }
      DeviceReport r;
      r.name = name;
      r.precision = prec;
      gpusim::FastPathStats stats;
      r.interp_ns = time_ghost_block(*compiled, *dev, false, nullptr);
      r.fast_ns = time_ghost_block(*compiled, *dev, true, &stats);
      r.coverage = stats.coverage();
      r.collapsed_loops = stats.collapsed_loops;
      reports.push_back(r);
      std::printf(
          "%-12s %s interp %12.0f ns/block   fast %9.0f ns/block   "
          "speedup %6.2fx   coverage %5.1f%%\n",
          name.c_str(), prec, r.interp_ns, r.fast_ns, r.speedup(),
          r.coverage * 100.0);
    }
  }
  std::vector<DeviceReport> triangular;
  {
    const ir::Program p = unpadded_trmm();
    auto compiled = gpusim::compile_kernel(p, p.main_kernel(),
                                           {{"M", 512}, {"N", 512}}, {});
    if (!compiled.is_ok()) {
      std::fprintf(stderr, "compile failed: %s\n",
                   compiled.status().to_string().c_str());
      return 1;
    }
    const int64_t last = compiled->launch.grid_x - 1;
    for (const auto& [name, dev] : devices) {
      for (const auto& [block, bx] :
           {std::pair<const char*, int64_t>{"diagonal", last},
            {"off-diagonal", 0}}) {
        DeviceReport r;
        r.name = name;
        r.precision = "f32";
        r.block = block;
        r.bx = bx;
        gpusim::FastPathStats stats;
        r.interp_ns =
            time_ghost_block(*compiled, *dev, false, nullptr, 0, bx);
        r.fast_ns = time_ghost_block(*compiled, *dev, true, &stats, 0, bx);
        r.coverage = stats.coverage();
        r.collapsed_loops = stats.collapsed_loops;
        triangular.push_back(r);
        std::printf(
            "%-12s TRMM %-12s interp %9.0f ns/block   fast %9.0f "
            "ns/block   speedup %6.2fx   coverage %5.1f%%\n",
            name.c_str(), block, r.interp_ns, r.fast_ns, r.speedup(),
            r.coverage * 100.0);
      }
    }
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  const auto write_rows = [&out](const std::vector<DeviceReport>& rows) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const DeviceReport& r = rows[i];
      char block[96] = "";
      if (!r.block.empty()) {
        std::snprintf(block, sizeof(block),
                      "\"block\": \"%s\", \"by\": %lld, \"bx\": %lld, ",
                      r.block.c_str(), static_cast<long long>(r.by),
                      static_cast<long long>(r.bx));
      }
      char buf[640];
      std::snprintf(buf, sizeof(buf),
                    "    {\"device\": \"%s\", \"precision\": \"%s\", %s"
                    "\"interp_ns_per_block\": %.0f, "
                    "\"fast_ns_per_block\": %.0f, \"speedup\": %.2f, "
                    "\"fastpath_coverage\": %.4f, \"collapsed_loops\": "
                    "%lld}%s\n",
                    r.name.c_str(), r.precision.c_str(), block, r.interp_ns,
                    r.fast_ns, r.speedup(), r.coverage,
                    static_cast<long long>(r.collapsed_loops),
                    i + 1 < rows.size() ? "," : "");
      out << buf;
    }
  };
  out << "{\n  \"benchmark\": \"gpusim_fastpath\",\n"
      << "  \"problem\": \"tuned GEMM-NN / DGEMM-NN, N=4096, ghost "
         "mode, one block\",\n  \"devices\": [\n";
  write_rows(reports);
  out << "  ],\n  \"triangular_problem\": \"TRMM-RL-N, padded schedule "
         "without blank_zero (k = max(j, kk)), 16x16 threads, 64x64 "
         "tiles, N=512, ghost mode, one block\",\n  \"triangular\": [\n";
  write_rows(triangular);
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Extract --json <path> before google-benchmark parses the rest.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!json_path.empty()) return write_json_report(json_path);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
