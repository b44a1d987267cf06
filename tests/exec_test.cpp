// Native execution backend gate: every catalog variant (48: the
// paper's 24 at f32 plus the f64 family) through three schedules
// (untransformed source, family-script tuned, cublas-like baseline)
// must compute results that match the CPU reference within the
// accumulation tolerance — and the JIT and the portable tape executor
// must agree bit-for-bit, since they implement the same segment ABI.
// Also covers the cache-keying regressions (f32/f64 must not alias),
// the W^X/JIT-unavailable fallback path, and warm re-serve (zero
// recompiles on a second execution).
#include <gtest/gtest.h>

#include "baseline/baseline.hpp"
#include "blas3/matrix.hpp"
#include "blas3/reference.hpp"
#include "blas3/routine.hpp"
#include "blas3/source_ir.hpp"
#include "engine/evaluation_engine.hpp"
#include "epod/script.hpp"
#include "exec/code_buffer.hpp"
#include "exec/executor.hpp"
#include "exec/jit_x86.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simulator.hpp"
#include "support/rng.hpp"
#include "transforms/transform.hpp"

namespace oa::exec {
namespace {

const char* family_script(blas3::Family f) {
  static const char* kGemm = R"(
    (Lii, Ljj) = thread_grouping(Li, Lj);
    (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
    loop_unroll(Ljjj, Lkkk);
    SM_alloc(B, Transpose);
    reg_alloc(C);
  )";
  static const char* kTrmm = R"(
    (Lii, Ljj) = thread_grouping(Li, Lj);
    (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
    peel_triangular(A);
    loop_unroll(Ljjj, Lkkk);
    SM_alloc(B, Transpose);
    reg_alloc(C);
  )";
  static const char* kTrsm = R"(
    (Lii, Ljj) = thread_grouping(Li, Lj);
    (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
    peel_triangular(A);
    binding_triangular(A, 0);
    SM_alloc(B, Transpose);
    reg_alloc(B);
  )";
  switch (f) {
    case blas3::Family::kTrmm: return kTrmm;
    case blas3::Family::kTrsm: return kTrsm;
    default: return kGemm;
  }
}

ir::Program tuned_program(const blas3::Variant& v) {
  ir::Program p = blas3::make_source_program(v);
  transforms::TransformContext ctx;
  ctx.params.block_tile_y = 32;
  ctx.params.block_tile_x = 16;
  ctx.params.threads_y = 32;
  ctx.params.threads_x = 1;
  ctx.params.k_tile = 16;
  ctx.params.unroll = 4;
  auto script = epod::parse_script(family_script(v.family));
  EXPECT_TRUE(script.is_ok());
  auto mask = epod::apply_script_lenient(p, *script, ctx);
  EXPECT_TRUE(mask.is_ok());
  return p;
}

/// Inputs matching engine::verify_program's generator, so native
/// results are comparable against the same reference the engine uses.
struct Problem {
  blas3::Matrix a, b, c;
  blas3::Matrix expected;  // reference output (b for TRSM, c otherwise)

  Problem(const blas3::Variant& v, int64_t n)
      : a(n, n, v.precision),
        b(n, n, v.precision),
        c(n, n, v.precision),
        expected(n, n, v.precision) {
    Rng rng(0xC0FFEE ^ static_cast<uint64_t>(n));
    a.fill_random(rng);
    b.fill_random(rng);
    if (v.family == blas3::Family::kTrmm ||
        v.family == blas3::Family::kTrsm ||
        v.family == blas3::Family::kSymm) {
      a.make_triangular(v.uplo);
    }
    if (v.family == blas3::Family::kTrsm) {
      a.set_unit_diagonal();
      a.scale_off_diagonal(1.0 / 16.0);
    }
    blas3::Matrix rb = b, rc = c;
    blas3::run_reference(v, a, rb, &rc);
    expected = v.family == blas3::Family::kTrsm ? rb : rc;
  }
};

Status run_native(const blas3::Variant& v, const ir::Program& p,
                  const Problem& prob, ExecCache& cache,
                  blas3::Matrix* out, const ExecOptions& options = {}) {
  blas3::Matrix b = prob.b, c = prob.c;
  OA_RETURN_IF_ERROR(execute_program(gpusim::gtx285(), p, v, prob.a, b,
                                     &c, {}, cache, options));
  *out = v.family == blas3::Family::kTrsm ? b : c;
  return Status::ok();
}

class ExecAllVariants : public ::testing::TestWithParam<blas3::Variant> {};

TEST_P(ExecAllVariants, MatchesReferenceAllSchedules) {
  const blas3::Variant v = GetParam();
  const int64_t n = 96;
  const Problem prob(v, n);
  const double tol = blas3::accumulation_tolerance(n, v.precision);

  std::vector<std::pair<std::string, ir::Program>> programs;
  programs.emplace_back("source", blas3::make_source_program(v));
  programs.emplace_back("tuned", tuned_program(v));
  auto base = baseline::cublas_like(v, gpusim::gtx285());
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  programs.emplace_back("baseline", std::move(*base));

  ExecCache cache;
  for (const auto& [label, p] : programs) {
    blas3::Matrix out(n, n, v.precision);
    Status s = run_native(v, p, prob, cache, &out);
    ASSERT_TRUE(s.is_ok()) << label << ": " << s.to_string();
    const double err = blas3::max_abs_diff(out, prob.expected);
    EXPECT_LE(err, tol) << label << ": native err " << err;
  }
  // On x86-64 hosts every kernel must have gone through the JIT.
  if (jit_supported()) {
    const ExecStats st = cache.stats();
    EXPECT_GT(st.jit_kernels, 0);
    EXPECT_EQ(st.portable_kernels, 0);
  }
}

TEST_P(ExecAllVariants, JitAndPortableBitIdentical) {
  const blas3::Variant v = GetParam();
  const int64_t n = 64;
  const Problem prob(v, n);
  const ir::Program p = tuned_program(v);

  ExecCache cache;
  blas3::Matrix jit_out(n, n, v.precision);
  ASSERT_TRUE(run_native(v, p, prob, cache, &jit_out).is_ok());
  blas3::Matrix tape_out(n, n, v.precision);
  ExecOptions portable;
  portable.force_portable = true;
  ASSERT_TRUE(
      run_native(v, p, prob, cache, &tape_out, portable).is_ok());
  EXPECT_EQ(blas3::max_abs_diff(jit_out, tape_out), 0.0)
      << "JIT and portable executor disagree";
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, ExecAllVariants,
    ::testing::ValuesIn(blas3::all_variants()),
    [](const ::testing::TestParamInfo<blas3::Variant>& info) {
      std::string name = info.param.name();
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(ExecCacheTest, WarmReExecuteCompilesNothing) {
  const blas3::Variant* v = blas3::find_variant("GEMM-NN");
  ASSERT_NE(v, nullptr);
  const int64_t n = 96;
  const Problem prob(*v, n);
  const ir::Program p = tuned_program(*v);

  ExecCache cache;
  blas3::Matrix out(n, n, v->precision);
  ASSERT_TRUE(run_native(*v, p, prob, cache, &out).is_ok());
  const ExecStats cold = cache.stats();
  EXPECT_GT(cold.compiles, 0);

  ASSERT_TRUE(run_native(*v, p, prob, cache, &out).is_ok());
  const ExecStats warm = cache.stats();
  EXPECT_EQ(warm.compiles, cold.compiles) << "warm re-serve recompiled";
  EXPECT_GT(warm.cache_hits, cold.cache_hits);
}

TEST(ExecCacheTest, PrecisionDoesNotAliasInCache) {
  // The f32 and f64 variants of the same routine produce same-shape
  // kernels; their compiled signatures (and so their exec-cache keys)
  // must differ, or an f64 serve could run f32 arithmetic.
  const blas3::Variant* sv = blas3::find_variant("GEMM-NN");
  const blas3::Variant* dv = blas3::find_variant("DGEMM-NN");
  ASSERT_NE(sv, nullptr);
  ASSERT_NE(dv, nullptr);
  const ir::Env sizes = {{"M", 64}, {"N", 64}, {"K", 64}};

  const ir::Program sp = blas3::make_source_program(*sv);
  const ir::Program dp = blas3::make_source_program(*dv);
  auto sk = gpusim::compile_kernel(sp, sp.main_kernel(), sizes, {});
  auto dk = gpusim::compile_kernel(dp, dp.main_kernel(), sizes, {});
  ASSERT_TRUE(sk.is_ok());
  ASSERT_TRUE(dk.is_ok());
  EXPECT_NE(sk->signature(0, 0), dk->signature(0, 0))
      << "precision not folded into CompiledKernel::signature";
  EXPECT_NE(kernel_key(*sk), kernel_key(*dk));

  // End to end: executing both variants populates distinct cache
  // entries (no hit on the second compile).
  ExecCache cache;
  const Problem sprob(*sv, 64), dprob(*dv, 64);
  blas3::Matrix sout(64, 64, sv->precision), dout(64, 64, dv->precision);
  ASSERT_TRUE(run_native(*sv, sp, sprob, cache, &sout).is_ok());
  const int64_t after_f32 = cache.stats().compiles;
  ASSERT_TRUE(run_native(*dv, dp, dprob, cache, &dout).is_ok());
  EXPECT_GT(cache.stats().compiles, after_f32)
      << "f64 kernel hit the f32 cache entry";
}

TEST(ExecFallbackTest, ForcedPortableStillComputes) {
  // The fallback path must be complete on its own: with the JIT
  // disabled the portable tape executor serves every request.
  const blas3::Variant* v = blas3::find_variant("TRSM-LL-N");
  ASSERT_NE(v, nullptr);
  const int64_t n = 96;
  const Problem prob(*v, n);

  ExecCache cache;
  ExecOptions portable;
  portable.force_portable = true;
  blas3::Matrix out(n, n, v->precision);
  Status s = run_native(*v, tuned_program(*v), prob, cache, &out,
                        portable);
  ASSERT_TRUE(s.is_ok()) << s.to_string();
  EXPECT_LE(blas3::max_abs_diff(out, prob.expected),
            blas3::accumulation_tolerance(n, v->precision));
  const ExecStats st = cache.stats();
  EXPECT_EQ(st.jit_kernels, 0);
  EXPECT_GT(st.portable_kernels, 0);
}

TEST(ExecFallbackTest, CodeBufferRejectsEmptyInput) {
  auto buf = CodeBuffer::make({});
  EXPECT_FALSE(buf.is_ok());
}

TEST(ExecFallbackTest, OutOfBoundsMatchesInterpreterDiagnostic) {
  // A kernel that indexes past an array must fail with the
  // interpreter's exact out-of-bounds diagnostic, not crash — the
  // bounds checks (and the ErrorCell protocol behind them) are part of
  // the segment ABI, in the JIT'd code as much as in the portable
  // executor. Hand-build a one-statement kernel that stores to row 10
  // of a 4x4 array.
  gpusim::CompiledKernel ck;
  ck.name = "oob_probe";
  ck.precision = Precision::kF32;
  ck.launch.grid_x = 1;
  ck.launch.grid_y = 1;
  ck.launch.block_x = 1;
  ck.launch.block_y = 1;
  gpusim::CArray arr;
  arr.name = "A";
  arr.space = ir::MemSpace::kGlobal;
  arr.rows = 4;
  arr.cols = 4;
  arr.ld = 4;
  arr.elements = 16;
  ck.arrays.push_back(arr);
  ck.num_slots = 1;
  gpusim::CNode asg;
  asg.kind = gpusim::CNode::Kind::kAssign;
  asg.lhs.array = 0;
  asg.lhs.row.constant = 10;
  asg.lhs.col.constant = 0;
  gpusim::COp c0;
  c0.kind = gpusim::COp::Kind::kConst;
  c0.constant = 1.0;
  asg.tape.push_back(c0);
  asg.tape_depth = 1;
  ck.body.push_back(std::move(asg));

  for (const bool force_portable : {false, true}) {
    ExecCache cache;
    ExecOptions options;
    options.force_portable = force_portable;
    auto ek = cache.get_or_compile(ck, options);
    ASSERT_TRUE(ek.is_ok()) << ek.status().to_string();
    gpusim::GlobalBuffers buffers;
    buffers.data["A"] = std::vector<double>(16, 0.0);
    Status s = run_lowered(**ek, buffers, /*count=*/1, nullptr);
    ASSERT_FALSE(s.is_ok()) << (force_portable ? "portable" : "jit");
    EXPECT_NE(s.message().find(
                  "out-of-bounds access to A: (10, 0) not in 4x4"),
              std::string::npos)
        << s.to_string();
  }
}

}  // namespace
}  // namespace oa::exec
