// Native execution backend gate: every catalog variant (48: the
// paper's 24 at f32 plus the f64 family) through three schedules
// (untransformed source, family-script tuned, cublas-like baseline)
// must compute results that match the CPU reference within the
// accumulation tolerance — and the JIT and the portable tape executor
// must agree bit-for-bit, since they implement the same segment ABI.
// Also covers the cache-keying regressions (f32/f64 must not alias),
// the W^X/JIT-unavailable fallback path, warm re-serve (zero
// recompiles on a second execution), and hand-built kernels that hold
// the JIT's loop proofs, register allocation, load hoisting and
// four-trip vector copies to the interpreter's statuses and bits.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <tuple>

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
#include "gpusim/block_sim.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simulator.hpp"
#include "support/precision.hpp"
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

/// Bitwise equality: unlike ==, tells -0.0 from +0.0 and matches NaNs.
bool same_bits(std::span<const double> x, std::span<const double> y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
}

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

/// Runs `p` natively on seeded operands of an M x N output (K deep for
/// GEMM) in the variant's layout and returns the output.
Status run_rect(const blas3::Variant& v, const ir::Program& p, int64_t m,
                int64_t n, int64_t k, ExecCache& cache, blas3::Matrix* out,
                const ExecOptions& options) {
  const Precision prec = v.precision;
  const bool gemm = v.family == blas3::Family::kGemm;
  const int64_t side = v.side == blas3::Side::kLeft ? m : n;
  blas3::Matrix a = gemm ? (v.trans_a == blas3::Trans::kN
                                ? blas3::Matrix(m, k, prec)
                                : blas3::Matrix(k, m, prec))
                         : blas3::Matrix(side, side, prec);
  blas3::Matrix b = gemm && v.trans_b == blas3::Trans::kT
                        ? blas3::Matrix(n, k, prec)
                        : blas3::Matrix(gemm ? k : m, n, prec);
  blas3::Matrix c(m, n, prec);
  Rng rng(0x7EC7);
  a.fill_random(rng);
  b.fill_random(rng);
  if (!gemm) a.make_triangular(v.uplo);
  if (v.family == blas3::Family::kTrsm) {
    a.set_unit_diagonal();
    a.scale_off_diagonal(1.0 / 16.0);
  }
  OA_RETURN_IF_ERROR(execute_program(gpusim::gtx285(), p, v, a, b, &c, {},
                                     cache, options));
  *out = v.family == blas3::Family::kTrsm ? b : c;
  return Status::ok();
}

TEST_P(ExecAllVariants, JitAndPortableBitIdentical) {
  // Every schedule at a square tile-multiple size and at a rectangular
  // one that is not, so boundary tiles run the checked loops and
  // interior tiles the proven ones.
  const blas3::Variant v = GetParam();
  std::vector<std::pair<std::string, ir::Program>> programs;
  programs.emplace_back("source", blas3::make_source_program(v));
  programs.emplace_back("tuned", tuned_program(v));
  auto base = baseline::cublas_like(v, gpusim::gtx285());
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  programs.emplace_back("baseline", std::move(*base));

  ExecCache cache;
  ExecOptions portable;
  portable.force_portable = true;
  for (const auto& [label, p] : programs) {
    for (const auto& [m, n, k] : {std::tuple<int64_t, int64_t, int64_t>{
                                      64, 64, 64},
                                  {75, 53, 41}}) {
      blas3::Matrix jit_out, tape_out;
      Status s = run_rect(v, p, m, n, k, cache, &jit_out, {});
      ASSERT_TRUE(s.is_ok()) << label << ": " << s.to_string();
      s = run_rect(v, p, m, n, k, cache, &tape_out, portable);
      ASSERT_TRUE(s.is_ok()) << label << ": " << s.to_string();
      EXPECT_TRUE(same_bits(jit_out.data(), tape_out.data()))
          << label << " at " << m << "x" << n << "x" << k
          << ": JIT and portable executor disagree";
    }
  }
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

// ---- Hand-built kernels -------------------------------------------
//
// Single-block, single-lane CompiledKernels over explicit arrays, run
// by the interpreter (gpusim::BlockSim, functional), the JIT and the
// portable executor on identical buffers.

gpusim::CExpr affine(int64_t constant,
                     std::vector<std::pair<int, int64_t>> terms = {}) {
  gpusim::CExpr e;
  e.constant = constant;
  e.terms = std::move(terms);
  return e;
}

gpusim::CExpr var(int slot) { return affine(0, {{slot, 1}}); }

gpusim::CRef ref(int array, gpusim::CExpr row, gpusim::CExpr col) {
  gpusim::CRef r;
  r.array = array;
  r.row = std::move(row);
  r.col = std::move(col);
  return r;
}

gpusim::CNode loop(int slot, gpusim::CExpr lb, gpusim::CExpr ub,
                   std::vector<gpusim::CNode> body, int64_t step = 1) {
  gpusim::CNode n;
  n.kind = gpusim::CNode::Kind::kLoop;
  n.var_slot = slot;
  n.step = step;
  n.lb.terms.push_back(std::move(lb));
  n.ub.terms.push_back(std::move(ub));
  n.body = std::move(body);
  return n;
}

/// lhs <op> rhs, where rhs is a postfix tape over `loads`.
gpusim::CNode assign(gpusim::CRef lhs, ir::AssignOp op,
                     std::vector<gpusim::CRef> loads,
                     std::vector<gpusim::COp::Kind> tape) {
  gpusim::CNode n;
  n.kind = gpusim::CNode::Kind::kAssign;
  n.lhs = std::move(lhs);
  n.op = op;
  n.rmw_load = op != ir::AssignOp::kAssign;
  int next_load = 0, depth = 0;
  for (gpusim::COp::Kind k : tape) {
    gpusim::COp c;
    c.kind = k;
    if (k == gpusim::COp::Kind::kConst) c.constant = 1.0;
    if (k == gpusim::COp::Kind::kLoad) c.load = next_load++;
    depth += (k == gpusim::COp::Kind::kConst ||
              k == gpusim::COp::Kind::kLoad) ? 1
             : k == gpusim::COp::Kind::kNeg ? 0 : -1;
    n.tape_depth = std::max(n.tape_depth, depth);
    n.tape.push_back(c);
  }
  n.loads = std::move(loads);
  return n;
}

gpusim::CompiledKernel probe_kernel(
    Precision precision, int num_slots,
    const std::vector<std::pair<std::string, int64_t>>& square_arrays,
    std::vector<gpusim::CNode> body) {
  gpusim::CompiledKernel ck;
  ck.name = "probe";
  ck.precision = precision;
  ck.launch.grid_x = 1;
  ck.launch.grid_y = 1;
  ck.launch.block_x = 1;
  ck.launch.block_y = 1;
  for (const auto& [name, n] : square_arrays) {
    gpusim::CArray arr;
    arr.name = name;
    arr.space = ir::MemSpace::kGlobal;
    arr.rows = n;
    arr.cols = n;
    arr.ld = n;
    arr.elements = n * n;
    ck.arrays.push_back(arr);
  }
  ck.num_slots = num_slots;
  ck.body = std::move(body);
  // The interpreter's load-reuse model indexes by reference site.
  auto number_sites = [&ck](auto& self, std::vector<gpusim::CNode>& nodes)
      -> void {
    for (gpusim::CNode& n : nodes) {
      n.lhs.site = ck.num_sites++;
      for (gpusim::CRef& r : n.loads) r.site = ck.num_sites++;
      self(self, n.body);
    }
  };
  number_sites(number_sites, ck.body);
  return ck;
}

/// Seeded inputs for every array of `ck`.
gpusim::GlobalBuffers probe_buffers(const gpusim::CompiledKernel& ck) {
  gpusim::GlobalBuffers buffers;
  Rng rng(0x5EED);
  for (const gpusim::CArray& a : ck.arrays) {
    std::vector<double>& buf =
        buffers.data[a.name] = std::vector<double>(
            static_cast<size_t>(a.elements), 0.0);
    rng.fill(std::span<double>(buf));
    for (double& x : buf) x = round_to(ck.precision, x);
  }
  return buffers;
}

/// Runs `ck` on the interpreter, then the JIT and the portable
/// executor on copies of the same inputs: all three must end with the
/// same status message and bit-identical buffers (partial writes
/// included when the kernel faults). Returns the interpreter's status.
Status expect_backends_agree(const gpusim::CompiledKernel& ck) {
  const gpusim::GlobalBuffers inputs = probe_buffers(ck);
  gpusim::GlobalBuffers want = inputs;
  gpusim::BlockSim interp(ck, gpusim::gtx285(), /*functional=*/true, &want);
  gpusim::Counters counters;
  const Status interp_status = interp.run(0, 0, 0, 1, counters);
  for (const bool force_portable : {false, true}) {
    const char* label = force_portable ? "portable" : "jit";
    ExecCache cache;
    ExecOptions options;
    options.force_portable = force_portable;
    auto ek = cache.get_or_compile(ck, options);
    EXPECT_TRUE(ek.is_ok()) << ek.status().to_string();
    if (!ek.is_ok()) continue;
    EXPECT_EQ((*ek)->jit, !force_portable && jit_supported()) << label;
    gpusim::GlobalBuffers got = inputs;
    const Status s = run_lowered(**ek, got, /*count=*/1, nullptr);
    EXPECT_EQ(s.is_ok(), interp_status.is_ok()) << label << ": "
                                                << s.to_string();
    EXPECT_EQ(s.message(), interp_status.message()) << label;
    for (const auto& [name, buf] : want.data) {
      EXPECT_TRUE(same_bits(got.data[name], buf))
          << label << ": array " << name;
    }
  }
  return interp_status;
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

TEST(ExecFallbackTest, FaultOnTheLastTripMatchesInterpreter) {
  // The same 4x4 probe inside `for r in [0, 5)`: A[r][0] = A[r][1] + 1
  // is in range on every trip but the last, so the entry proof fails
  // and the checked loop must fault exactly where the interpreter does,
  // after the same four partial writes. The [0, 4) twin is proven in
  // range and runs unchecked — to the same result. With step 3, the
  // last trip of [0, 7) is r = 6 (faults) and of [0, 6) r = 3 (proven).
  using K = gpusim::COp::Kind;
  struct Probe {
    int64_t limit, step;
    const char* fault;  // expected diagnostic, or null
  };
  const Probe probes[] = {
      {5, 1, "out-of-bounds access to A: (4, 1) not in 4x4"},
      {4, 1, nullptr},
      {7, 3, "out-of-bounds access to A: (6, 1) not in 4x4"},
      {6, 3, nullptr},
  };
  for (const Probe& probe : probes) {
    std::vector<gpusim::CNode> inner;
    inner.push_back(assign(ref(0, var(0), affine(0)), ir::AssignOp::kAssign,
                           {ref(0, var(0), affine(1))},
                           {K::kLoad, K::kConst, K::kAdd}));
    std::vector<gpusim::CNode> body;
    body.push_back(loop(0, affine(0), affine(probe.limit), std::move(inner),
                        probe.step));
    const gpusim::CompiledKernel ck =
        probe_kernel(Precision::kF32, 1, {{"A", 4}}, std::move(body));
    const Status s = expect_backends_agree(ck);
    if (probe.fault != nullptr) {
      EXPECT_NE(s.message().find(probe.fault), std::string::npos)
          << s.to_string();
    } else {
      EXPECT_TRUE(s.is_ok()) << s.to_string();
    }
  }
}

TEST(ExecFallbackTest, MoreLiveLocalsThanRegisters) {
  // Six nested loops keep twelve locals (a variable and a hoisted
  // limit each) live in the innermost one — more than the JIT's seven
  // allocatable registers, so some stay in the stack frame — plus a
  // slot base. Five access shapes need more pointer registers than
  // the proven loop has left, so one pointer lives in a stack slot.
  // The two inner loops step by 2 and 3, so the proof's last trip and
  // the pointers' strides scale with the step.
  using K = gpusim::COp::Kind;
  for (const Precision p : {Precision::kF32, Precision::kF64}) {
    // With r = i0 + 2*i1 + 4*i2 and c = i3 + 2*i4 + 4*i5 + s6:
    //   C[r][c] += A[r+1][c] * B[r][c+1] + A[c][r] * B[c+1][r]
    auto row = [](int64_t c) {
      return affine(c, {{0, 1}, {1, 2}, {2, 4}});
    };
    auto col = [](int64_t c) {
      return affine(c, {{3, 1}, {4, 2}, {5, 4}, {6, 1}});
    };
    std::vector<gpusim::CNode> body;
    body.push_back(assign(
        ref(2, row(0), col(0)), ir::AssignOp::kAddAssign,
        {ref(0, row(1), col(0)), ref(1, row(0), col(1)),
         ref(0, col(0), row(0)), ref(1, col(1), row(0))},
        {K::kLoad, K::kLoad, K::kMul, K::kLoad, K::kLoad, K::kMul,
         K::kAdd}));
    // (trip limit, step) per slot, innermost last: i4 in {0, 2, 4},
    // i5 in {0, 3, 6}.
    const std::pair<int64_t, int64_t> trips[] = {{2, 1}, {2, 1}, {2, 1},
                                                 {2, 1}, {5, 2}, {7, 3}};
    for (int slot = 5; slot >= 0; --slot) {
      std::vector<gpusim::CNode> wrap;
      wrap.push_back(std::move(body.back()));
      body.clear();
      body.push_back(loop(slot, affine(0), affine(trips[slot].first),
                          std::move(wrap), trips[slot].second));
    }
    gpusim::CompiledKernel ck = probe_kernel(
        p, 7, {{"A", 36}, {"B", 36}, {"C", 36}}, std::move(body));
    // Slot 6 is a frame slot (0) the loops never write: a slot base.
    const Status s = expect_backends_agree(ck);
    EXPECT_TRUE(s.is_ok()) << s.to_string();
  }
}

TEST(ExecFallbackTest, LoopStoringTheArrayItLoads) {
  // An in-place TRSM-style update: for k in [0, i),
  //   B[i][j] = B[i][j] - A[i][k] * B[k][j].
  // B[i][j] is loop-invariant in k but B is stored every trip, so the
  // load must not be hoisted out of the proven loop.
  using K = gpusim::COp::Kind;
  for (const Precision p : {Precision::kF32, Precision::kF64}) {
    std::vector<gpusim::CNode> k_body;
    k_body.push_back(assign(
        ref(1, var(0), var(1)), ir::AssignOp::kAssign,
        {ref(1, var(0), var(1)), ref(0, var(0), var(2)),
         ref(1, var(2), var(1))},
        {K::kLoad, K::kLoad, K::kLoad, K::kMul, K::kSub}));
    std::vector<gpusim::CNode> j_body;
    j_body.push_back(loop(2, affine(0), var(0), std::move(k_body)));
    std::vector<gpusim::CNode> i_body;
    i_body.push_back(loop(1, affine(0), affine(6), std::move(j_body)));
    std::vector<gpusim::CNode> body;
    body.push_back(loop(0, affine(0), affine(6), std::move(i_body)));
    const gpusim::CompiledKernel ck =
        probe_kernel(p, 3, {{"A", 6}, {"B", 6}}, std::move(body));
    const Status s = expect_backends_agree(ck);
    EXPECT_TRUE(s.is_ok()) << s.to_string();
  }
}

// ---- Four-trip vector copies ----------------------------------------
//
// On AVX2 hosts the JIT gives a proven loop a vector copy when its
// trips are independent; every other loop, and every loop on other
// hosts, stays scalar. Either way all three backends agree bit for bit.

/// Square side of the vector probes' arrays: room for 65 trips
/// starting at row 1, plus one row of offset.
constexpr int64_t kSide = 72;

/// `for j in [1, 1 + trips) step step` around `body`, over kSide x
/// kSide arrays named by `arrays`; slot 0 is j.
gpusim::CompiledKernel one_loop(Precision p, int64_t trips,
                                const std::vector<std::string>& arrays,
                                std::vector<gpusim::CNode> body,
                                int64_t step = 1) {
  std::vector<std::pair<std::string, int64_t>> square;
  for (const std::string& name : arrays) square.emplace_back(name, kSide);
  std::vector<gpusim::CNode> top;
  top.push_back(loop(0, affine(1), affine(1 + trips), std::move(body), step));
  return probe_kernel(p, 1, square, std::move(top));
}

/// The loops of `ck` the JIT gave a vector copy, as a fresh cache's
/// vector_loops gauge reports them.
int64_t vector_loops(const gpusim::CompiledKernel& ck) {
  ExecCache cache;
  auto ek = cache.get_or_compile(ck);
  EXPECT_TRUE(ek.is_ok()) << ek.status().to_string();
  if (!ek.is_ok()) return -1;
  EXPECT_EQ(cache.stats().vector_loops, (*ek)->vector_loops);
  return cache.stats().vector_loops;
}

constexpr ir::AssignOp kAllAssignOps[] = {
    ir::AssignOp::kAssign, ir::AssignOp::kAddAssign,
    ir::AssignOp::kSubAssign, ir::AssignOp::kDivAssign};

TEST(VectorLoops, UnitStrideUpdateAtEveryTripCount) {
  // Y[j] op= a * X[j] with a = A[0][0] hoisted: the shape of the tuned
  // GEMM inner loop. Trip counts 0-9 and 63-65 run no vector trip, one,
  // and several, each with 0-3 remainder trips for the scalar copy.
  using K = gpusim::COp::Kind;
  const int64_t trip_counts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65};
  for (const Precision p : {Precision::kF32, Precision::kF64}) {
    for (const ir::AssignOp op : kAllAssignOps) {
      for (const int64_t trips : trip_counts) {
        SCOPED_TRACE(testing::Message()
                     << (p == Precision::kF64 ? "f64" : "f32") << " op "
                     << static_cast<int>(op) << " trips " << trips);
        std::vector<gpusim::CNode> body;
        body.push_back(assign(ref(2, var(0), affine(0)), op,
                              {ref(0, affine(0), affine(0)),
                               ref(1, var(0), affine(0))},
                              {K::kLoad, K::kLoad, K::kMul}));
        const gpusim::CompiledKernel ck =
            one_loop(p, trips, {"A", "X", "Y"}, std::move(body));
        const Status s = expect_backends_agree(ck);
        EXPECT_TRUE(s.is_ok()) << s.to_string();
        EXPECT_EQ(vector_loops(ck), jit_avx2() ? 1 : 0);
      }
    }
  }
}

TEST(VectorLoops, ConstantNegationDivisionAndReadBack) {
  // Y[j] op= -X[j] / (a + 1), then Z[j] = Y[j] * X[j] - 1: a broadcast
  // constant, a sign flip, a division, and a load of the array the
  // loop stores, at the index it stores.
  using K = gpusim::COp::Kind;
  for (const Precision p : {Precision::kF32, Precision::kF64}) {
    for (const ir::AssignOp op : kAllAssignOps) {
      for (const int64_t trips : {0, 3, 4, 7, 65}) {
        SCOPED_TRACE(testing::Message()
                     << (p == Precision::kF64 ? "f64" : "f32") << " op "
                     << static_cast<int>(op) << " trips " << trips);
        std::vector<gpusim::CNode> body;
        body.push_back(assign(ref(2, var(0), affine(0)), op,
                              {ref(1, var(0), affine(0)),
                               ref(0, affine(0), affine(0))},
                              {K::kLoad, K::kNeg, K::kLoad, K::kConst,
                               K::kAdd, K::kDiv}));
        body.push_back(assign(ref(3, var(0), affine(0)),
                              ir::AssignOp::kAssign,
                              {ref(2, var(0), affine(0)),
                               ref(1, var(0), affine(0))},
                              {K::kLoad, K::kLoad, K::kMul, K::kConst,
                               K::kSub}));
        const gpusim::CompiledKernel ck =
            one_loop(p, trips, {"A", "X", "Y", "Z"}, std::move(body));
        const Status s = expect_backends_agree(ck);
        EXPECT_TRUE(s.is_ok()) << s.to_string();
        EXPECT_EQ(vector_loops(ck), jit_avx2() ? 1 : 0);
      }
    }
  }
}

TEST(VectorLoops, DependentOrStridedLoopsStayScalar) {
  // Loops that fail the independence test: one array stored at two
  // offsets (both directions; the second reads what the previous trip
  // wrote), a store and a load that move a whole column per trip, a
  // reduction into one cell, and a step of 2. Each must keep its
  // scalar code and agree with the interpreter.
  using K = gpusim::COp::Kind;
  const std::vector<K> times_a = {K::kLoad, K::kLoad, K::kMul};
  const gpusim::CRef a = ref(0, affine(0), affine(0));
  struct Case {
    const char* name;
    gpusim::CRef store;
    gpusim::CRef load;
    ir::AssignOp op = ir::AssignOp::kAssign;
    int64_t step = 1;
  };
  const Case cases[] = {
      {"X[j] = X[j+1] * a", ref(1, var(0), affine(0)),
       ref(1, affine(1, {{0, 1}}), affine(0))},
      {"X[j+1] = X[j] * a", ref(1, affine(1, {{0, 1}}), affine(0)),
       ref(1, var(0), affine(0))},
      {"Y[0][j] = X[j] * a", ref(2, affine(0), var(0)),
       ref(1, var(0), affine(0))},
      {"Y[j] = X[0][j] * a", ref(2, var(0), affine(0)),
       ref(1, affine(0), var(0))},
      {"Y[0] += X[j] * a", ref(2, affine(0), affine(0)),
       ref(1, var(0), affine(0)), ir::AssignOp::kAddAssign},
      {"Y[j] = X[j] * a, step 2", ref(2, var(0), affine(0)),
       ref(1, var(0), affine(0)), ir::AssignOp::kAssign, 2},
  };
  for (const Precision p : {Precision::kF32, Precision::kF64}) {
    for (const Case& c : cases) {
      for (const int64_t trips : {9, 64}) {
        SCOPED_TRACE(testing::Message()
                     << (p == Precision::kF64 ? "f64 " : "f32 ") << c.name
                     << " trips " << trips);
        std::vector<gpusim::CNode> body;
        body.push_back(assign(c.store, c.op, {a, c.load}, times_a));
        const gpusim::CompiledKernel ck = one_loop(
            p, trips, {"A", "X", "Y"}, std::move(body), c.step);
        const Status s = expect_backends_agree(ck);
        EXPECT_TRUE(s.is_ok()) << s.to_string();
        EXPECT_EQ(vector_loops(ck), 0);
      }
    }
  }
}

TEST(VectorLoops, MorePointerGroupsThanRegisters) {
  // Y[j] = (X0[j] + X1[j] + ... + X10[j]) * a: twelve streamed
  // pointers, more than the proven loop has registers for, so some
  // live in stack slots and step there.
  using K = gpusim::COp::Kind;
  std::vector<std::string> arrays = {"A", "Y"};
  std::vector<gpusim::CRef> loads;
  std::vector<K> tape;
  for (int i = 0; i < 11; ++i) {
    arrays.push_back("X" + std::to_string(i));
    loads.push_back(ref(2 + i, var(0), affine(0)));
    tape.push_back(K::kLoad);
    if (i > 0) tape.push_back(K::kAdd);
  }
  loads.push_back(ref(0, affine(0), affine(0)));
  tape.push_back(K::kLoad);
  tape.push_back(K::kMul);
  for (const Precision p : {Precision::kF32, Precision::kF64}) {
    for (const int64_t trips : {3, 4, 9, 65}) {
      SCOPED_TRACE(testing::Message()
                   << (p == Precision::kF64 ? "f64" : "f32") << " trips "
                   << trips);
      std::vector<gpusim::CNode> body;
      body.push_back(assign(ref(1, var(0), affine(0)), ir::AssignOp::kAssign,
                            loads, tape));
      const gpusim::CompiledKernel ck =
          one_loop(p, trips, arrays, std::move(body));
      const Status s = expect_backends_agree(ck);
      EXPECT_TRUE(s.is_ok()) << s.to_string();
      EXPECT_EQ(vector_loops(ck), jit_avx2() ? 1 : 0);
    }
  }
}

}  // namespace
}  // namespace oa::exec
