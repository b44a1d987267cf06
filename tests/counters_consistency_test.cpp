// Cross-mode consistency: the sampled performance simulation must agree
// with the exhaustive functional run on instruction and traffic
// counters for transformed kernels of every family — homogeneous grids
// exactly, triangular/serial ones within the interpolation tolerance.
#include <gtest/gtest.h>

#include "blas3/matrix.hpp"
#include "blas3/source_ir.hpp"
#include "epod/script.hpp"
#include "gpusim/simulator.hpp"
#include "support/rng.hpp"
#include "transforms/transform.hpp"

namespace oa::gpusim {
namespace {

struct CaseSpec {
  const char* variant;
  const char* script;
  double tolerance;  // relative, instructions + bytes
  std::string name;
};

// Listed test names embed the printed parameter; print the variant
// rather than raw bytes, which include string-literal addresses.
void PrintTo(const CaseSpec& spec, std::ostream* os) { *os << spec.variant; }

std::vector<CaseSpec> cases() {
  static const char* kGemmScript = R"(
    (Lii, Ljj) = thread_grouping(Li, Lj);
    (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
    loop_unroll(Ljjj, Lkkk);
    SM_alloc(B, Transpose);
    reg_alloc(C);
  )";
  static const char* kTrmmScript = R"(
    (Lii, Ljj) = thread_grouping(Li, Lj);
    (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
    peel_triangular(A);
    loop_unroll(Ljjj, Lkkk);
    SM_alloc(B, Transpose);
    reg_alloc(C);
  )";
  static const char* kTrsmScript = R"(
    (Lii, Ljj) = thread_grouping(Li, Lj);
    (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
    peel_triangular(A);
    binding_triangular(A, 0);
    SM_alloc(B, Transpose);
    reg_alloc(B);
  )";
  return {
      {"GEMM-NN", kGemmScript, 0.0, "GEMM_NN"},
      {"GEMM-TN", kGemmScript, 0.0, "GEMM_TN"},
      {"TRMM-LL-N", kTrmmScript, 0.05, "TRMM_LL_N"},
      {"TRMM-LU-N", kTrmmScript, 0.05, "TRMM_LU_N"},
      {"TRSM-LL-N", kTrsmScript, 0.05, "TRSM_LL_N"},
  };
}

class CounterConsistency : public ::testing::TestWithParam<CaseSpec> {};

TEST_P(CounterConsistency, SampledMatchesFunctional) {
  const CaseSpec& spec = GetParam();
  const blas3::Variant v = *blas3::find_variant(spec.variant);
  ir::Program p = blas3::make_source_program(v);
  transforms::TransformContext ctx;
  ctx.params.block_tile_y = 32;
  ctx.params.block_tile_x = 16;
  ctx.params.threads_y = 32;
  ctx.params.threads_x = 1;
  ctx.params.k_tile = 16;
  ctx.params.unroll = 4;
  auto script = epod::parse_script(spec.script);
  ASSERT_TRUE(script.is_ok());
  auto mask = epod::apply_script_lenient(p, *script, ctx);
  ASSERT_TRUE(mask.is_ok());

  const int64_t n = 96;
  RunOptions opts;
  opts.int_params = v.family == blas3::Family::kGemm
                        ? ir::Env{{"M", n}, {"N", n}, {"K", n}}
                        : ir::Env{{"M", n}, {"N", n}};
  opts.warps_per_block_sample = 0;

  Simulator sim(gtx285());
  auto perf = sim.run_performance(p, opts);
  ASSERT_TRUE(perf.is_ok()) << perf.status().to_string();

  Rng rng(21);
  blas3::Matrix a(n, n), b(n, n), c(n, n);
  a.fill_random(rng);
  b.fill_random(rng);
  if (v.family != blas3::Family::kGemm) a.make_triangular(v.uplo);
  if (v.family == blas3::Family::kTrsm) {
    a.set_unit_diagonal();
    a.scale_off_diagonal(1.0f / 16.0f);
  }
  GlobalBuffers buffers = make_buffers(
      p, opts.int_params, {{"A", &a}, {"B", &b}, {"C", &c}});
  auto func = sim.run_functional(p, opts, buffers);
  ASSERT_TRUE(func.is_ok()) << func.status().to_string();

  auto rel = [](int64_t x, int64_t y) {
    return y == 0 ? (x == 0 ? 0.0 : 1.0)
                  : std::abs(static_cast<double>(x - y)) /
                        static_cast<double>(y);
  };
  EXPECT_LE(rel(perf->counters.instructions, func->counters.instructions),
            spec.tolerance)
      << perf->counters.instructions << " vs "
      << func->counters.instructions;
  EXPECT_LE(rel(perf->counters.global_bytes, func->counters.global_bytes),
            spec.tolerance);
  EXPECT_LE(rel(perf->counters.flops, func->counters.flops),
            spec.tolerance);
  // FLOPs are exact in both modes for these scripts when the grid is
  // homogeneous.
  if (spec.tolerance == 0.0) {
    EXPECT_EQ(perf->counters.flops, func->counters.flops);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, CounterConsistency,
                         ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<CaseSpec>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace oa::gpusim
