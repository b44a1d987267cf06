// Ablation (DESIGN.md §6.1): sampled vs exhaustive performance
// simulation. The launcher classifies thread blocks by workload
// signature and interpolates between sampled classes; this bench
// quantifies the counter error and the speedup of sampling on the
// triangular routines (where every block row is its own class).
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "blas3/call_shape.hpp"
#include "blas3/source_ir.hpp"
#include "epod/script.hpp"
#include "support/strings.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oa;
  int64_t n = 1024;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--size" && i + 1 < argc) {
      n = std::atoll(argv[++i]);
    }
  }
  std::printf(
      "== Ablation: sampled vs exhaustive performance simulation "
      "(N = %lld) ==\n\n",
      static_cast<long long>(n));

  gpusim::Simulator sim(gpusim::gtx285());
  TextTable table({"routine", "mode", "classes", "instr (M)", "bytes (MB)",
                   "sim wall (s)", "instr err"});

  for (const char* name : {"GEMM-NN", "TRMM-LL-N", "TRMM-LU-N"}) {
    const blas3::Variant v = *blas3::find_variant(name);
    ir::Program p = blas3::make_source_program(v);
    transforms::TransformContext ctx;
    auto script = epod::parse_script(R"(
      (Lii, Ljj) = thread_grouping(Li, Lj);
      (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
      loop_unroll(Ljjj, Lkkk);
      SM_alloc(B, Transpose);
      reg_alloc(C);
    )");
    if (!script.is_ok()) return 1;
    if (!epod::apply_script_lenient(p, *script, ctx).is_ok()) return 1;

    gpusim::RunOptions opts;
    opts.int_params = blas3::CallShape::square(v, n).env();
    opts.warps_per_block_sample = 0;  // isolate the class-sampling effect

    opts.max_sampled_classes = 1 << 20;
    auto t0 = std::chrono::steady_clock::now();
    auto exact = sim.run_performance(p, opts);
    const double exact_wall = seconds_since(t0);
    if (!exact.is_ok()) {
      std::printf("%s: %s\n", name, exact.status().to_string().c_str());
      continue;
    }

    opts.max_sampled_classes = 8;
    t0 = std::chrono::steady_clock::now();
    auto sampled = sim.run_performance(p, opts);
    const double sampled_wall = seconds_since(t0);
    if (!sampled.is_ok()) continue;

    const double err =
        std::abs(static_cast<double>(sampled->counters.instructions) -
                 static_cast<double>(exact->counters.instructions)) /
        static_cast<double>(exact->counters.instructions);
    table.add_row({name, "exhaustive", "all",
                   str_format("%.0f", exact->counters.instructions / 1e6),
                   str_format("%.0f", exact->counters.global_bytes / 1e6),
                   str_format("%.3f", exact_wall), "-"});
    table.add_row({name, "sampled (<=8)", "8",
                   str_format("%.0f", sampled->counters.instructions / 1e6),
                   str_format("%.0f", sampled->counters.global_bytes / 1e6),
                   str_format("%.3f", sampled_wall),
                   str_format("%.2f%%", err * 100)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "counters are affine in the block row for BLAS3 trapezoids, so\n"
      "endpoint interpolation is near-exact while simulating far fewer "
      "blocks.\n");
  return 0;
}
