// Batched-family gate: every batched catalog variant (16: s/d GEMM_
// BATCHED and GEMM_STRIDED_BATCHED x NN/NT/TN/TT) must compute, through
// the fused native batched path (exec::execute_batched), results that
// are bit-identical to the interpreter loop-of-members oracle
// (engine::execute_batched) and within the accumulation tolerance of a
// loop of CPU references. Also covers batch-count edges (1, 2, 7,
// 1024), degenerate member shapes (M=1, K=1), operand-count
// validation, and the serving path: a 4-thread hammer of mixed single
// and batched requests across a swap_artifact() hot reload with zero
// drops and consistent per-family DispatchStats.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "blas3/matrix.hpp"
#include "blas3/reference.hpp"
#include "blas3/routine.hpp"
#include "blas3/source_ir.hpp"
#include "engine/evaluation_engine.hpp"
#include "epod/script.hpp"
#include "exec/executor.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simulator.hpp"
#include "libgen/artifact.hpp"
#include "oa/oa.hpp"
#include "runtime/library_runtime.hpp"
#include "support/rng.hpp"
#include "transforms/transform.hpp"

namespace oa {
namespace {

using blas3::Matrix;
using blas3::Variant;

ir::Program tuned_program(const Variant& v) {
  static const char* kScript = R"(
    (Lii, Ljj) = thread_grouping(Li, Lj);
    (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
    loop_unroll(Ljjj, Lkkk);
    SM_alloc(B, Transpose);
    reg_alloc(C);
  )";
  ir::Program p = blas3::make_source_program(v);
  transforms::TransformContext ctx;
  ctx.params.block_tile_y = 16;
  ctx.params.block_tile_x = 16;
  ctx.params.threads_y = 4;
  ctx.params.threads_x = 4;
  ctx.params.k_tile = 8;
  ctx.params.unroll = 2;
  auto script = epod::parse_script(kScript);
  EXPECT_TRUE(script.is_ok());
  auto mask = epod::apply_script_lenient(p, *script, ctx);
  EXPECT_TRUE(mask.is_ok()) << mask.status().to_string();
  return p;
}

/// One operand set per member at an explicit rectangular shape; every
/// member gets distinct random data from one sequential stream.
struct BatchedProblem {
  std::vector<Matrix> a, b, c;

  BatchedProblem(const Variant& v, int64_t m, int64_t n, int64_t k,
                 int64_t count, uint64_t seed) {
    Rng rng(seed);
    for (int64_t i = 0; i < count; ++i) {
      Matrix ai = v.trans_a == blas3::Trans::kN ? Matrix(m, k, v.precision)
                                                : Matrix(k, m, v.precision);
      Matrix bi = v.trans_b == blas3::Trans::kN ? Matrix(k, n, v.precision)
                                                : Matrix(n, k, v.precision);
      ai.fill_random(rng);
      bi.fill_random(rng);
      a.push_back(std::move(ai));
      b.push_back(std::move(bi));
      c.emplace_back(m, n, v.precision);
    }
  }

  /// Loop-of-reference oracle: one CPU reference per member.
  std::vector<Matrix> reference(const Variant& v) const {
    std::vector<Matrix> ref = c;
    for (size_t i = 0; i < a.size(); ++i) {
      Matrix rb = b[i];
      blas3::run_reference(v, a[i], rb, &ref[i]);
    }
    return ref;
  }
};

double max_member_diff(const std::vector<Matrix>& got,
                       const std::vector<Matrix>& want) {
  double err = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    err = std::max(err, blas3::max_abs_diff(got[i], want[i]));
  }
  return err;
}

/// Run the fused native batched path and (optionally) the interpreter
/// loop, asserting native==interpreter bit-for-bit and native==CPU
/// reference loop within the accumulation tolerance.
void expect_batched_matches(const Variant& v, const ir::Program& p,
                            int64_t m, int64_t n, int64_t k, int64_t count,
                            bool against_interpreter = true) {
  SCOPED_TRACE(testing::Message() << v.name() << " m=" << m << " n=" << n
                                  << " k=" << k << " batch=" << count);
  const BatchedProblem prob(v, m, n, k, count,
                            0xBA7C4ED ^ static_cast<uint64_t>(count));
  exec::ExecCache cache;

  std::vector<Matrix> native_b = prob.b;
  std::vector<Matrix> native_c = prob.c;
  Status run = exec::execute_batched(gpusim::gtx285(), p, v, prob.a,
                                     native_b, &native_c, {}, cache);
  ASSERT_TRUE(run.is_ok()) << run.to_string();

  const std::vector<Matrix> ref = prob.reference(v);
  const double tol = blas3::accumulation_tolerance(k, v.precision);
  EXPECT_LE(max_member_diff(native_c, ref), tol);

  if (against_interpreter) {
    gpusim::Simulator sim(gpusim::gtx285());
    std::vector<Matrix> interp_b = prob.b;
    std::vector<Matrix> interp_c = prob.c;
    Status loop = engine::execute_batched(sim, p, v, prob.a, interp_b,
                                          &interp_c, {});
    ASSERT_TRUE(loop.is_ok()) << loop.to_string();
    // Same segment ABI on both backends: not "close", identical.
    EXPECT_EQ(max_member_diff(native_c, interp_c), 0.0);
  }
}

// --- the full batched catalog ---------------------------------------

class BatchedAllVariants : public ::testing::TestWithParam<Variant> {};

TEST_P(BatchedAllVariants, NativeMatchesInterpreterLoopAndReference) {
  const Variant v = GetParam();
  expect_batched_matches(v, tuned_program(v), /*m=*/40, /*n=*/25,
                         /*k=*/33, /*count=*/3);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, BatchedAllVariants,
    ::testing::ValuesIn(blas3::batched_variants()),
    [](const ::testing::TestParamInfo<Variant>& info) {
      std::string name = info.param.name();
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// --- batch-count edges ----------------------------------------------

TEST(BatchedEdges, BatchCountSweepBothPrecisions) {
  for (const char* name : {"GEMM_BATCHED-NN", "DGEMM_BATCHED-NN"}) {
    const Variant& v = *blas3::find_variant(name);
    const ir::Program p = tuned_program(v);
    for (int64_t count : {1, 2, 7}) {
      expect_batched_matches(v, p, 24, 17, 19, count);
    }
    // batch=1024: the fused native path stays cheap; the 1024-member
    // interpreter loop would not, so arbitration is reference-only.
    expect_batched_matches(v, p, 12, 9, 10, 1024,
                           /*against_interpreter=*/false);
  }
}

TEST(BatchedEdges, DegenerateMemberShapes) {
  // M=1 members (a row per member) and K=1 members (rank-1 update per
  // member), strided and plain, both precisions.
  expect_batched_matches(*blas3::find_variant("GEMM_STRIDED_BATCHED-NT"),
                         tuned_program(
                             *blas3::find_variant("GEMM_STRIDED_BATCHED-NT")),
                         /*m=*/1, /*n=*/37, /*k=*/20, /*count=*/4);
  expect_batched_matches(*blas3::find_variant("DGEMM_BATCHED-TN"),
                         tuned_program(*blas3::find_variant("DGEMM_BATCHED-TN")),
                         /*m=*/23, /*n=*/9, /*k=*/1, /*count=*/5);
  expect_batched_matches(*blas3::find_variant("DGEMM_STRIDED_BATCHED-TT"),
                         tuned_program(
                             *blas3::find_variant("DGEMM_STRIDED_BATCHED-TT")),
                         /*m=*/1, /*n=*/13, /*k=*/1, /*count=*/7);
}

TEST(BatchedEdges, StridedAndPlainBatchedAgreeBitForBit) {
  // The strided family is a storage contract, not different math: the
  // same member data through GEMM_BATCHED-NN and GEMM_STRIDED_BATCHED-NN
  // (same schedule) must produce identical bits.
  const Variant& plain = *blas3::find_variant("GEMM_BATCHED-NN");
  const Variant& strided = *blas3::find_variant("GEMM_STRIDED_BATCHED-NN");
  const BatchedProblem prob(plain, 31, 22, 27, 5, 0x5151);
  exec::ExecCache cache;

  std::vector<Matrix> pb = prob.b, pc = prob.c;
  Status run_plain = exec::execute_batched(gpusim::gtx285(),
                                           tuned_program(plain), plain,
                                           prob.a, pb, &pc, {}, cache);
  ASSERT_TRUE(run_plain.is_ok()) << run_plain.to_string();

  std::vector<Matrix> sb = prob.b, sc = prob.c;
  Status run_strided = exec::execute_batched(gpusim::gtx285(),
                                             tuned_program(strided), strided,
                                             prob.a, sb, &sc, {}, cache);
  ASSERT_TRUE(run_strided.is_ok()) << run_strided.to_string();

  EXPECT_EQ(max_member_diff(pc, sc), 0.0);
}

TEST(BatchedEdges, MismatchedOperandCountsAreRejected) {
  const Variant& v = *blas3::find_variant("GEMM_BATCHED-NN");
  const ir::Program p = tuned_program(v);
  exec::ExecCache cache;

  BatchedProblem prob(v, 16, 16, 16, 3, 1);
  prob.b.pop_back();  // 3 A members, 2 B members
  Status bad = exec::execute_batched(gpusim::gtx285(), p, v, prob.a,
                                     prob.b, &prob.c, {}, cache);
  EXPECT_FALSE(bad.is_ok());

  std::vector<Matrix> none;
  std::vector<Matrix> none_b, none_c;
  Status empty = exec::execute_batched(gpusim::gtx285(), p, v, none,
                                       none_b, &none_c, {}, cache);
  EXPECT_FALSE(empty.is_ok());

  // Strided members must share one member shape.
  BatchedProblem ragged(v, 16, 16, 16, 2, 2);
  ragged.a[1] = Matrix(16, 24, v.precision);
  Status shape = exec::execute_batched(gpusim::gtx285(), p, v, ragged.a,
                                       ragged.b, &ragged.c, {}, cache);
  EXPECT_FALSE(shape.is_ok());
}

// --- serving: mixed single+batched hammer across a hot reload --------

/// One real tuned library with a single and a batched GEMM entry per
/// process (generation is the expensive part).
const libgen::Artifact& mixed_artifact() {
  static const libgen::Artifact artifact = [] {
    libgen::SessionStore::instance().clear();
    OaOptions opt;
    opt.tuning_size = 96;
    opt.verify_size = 48;
    OaFramework framework(gpusim::gtx285(), opt);
    auto single = framework.generate(*blas3::find_variant("GEMM-NN"));
    EXPECT_TRUE(single.is_ok()) << single.status().to_string();
    auto batched = framework.generate(*blas3::find_variant("GEMM_BATCHED-NN"));
    EXPECT_TRUE(batched.is_ok()) << batched.status().to_string();
    return framework.export_library();
  }();
  return artifact;
}

TEST(BatchedServing, FourThreadHammerAcrossHotReloadZeroDrops) {
  runtime::LibraryRuntime rt(gpusim::gtx285(), mixed_artifact());
  ASSERT_EQ(rt.table_size(), 2u);

  const Variant& single = *blas3::find_variant("GEMM-NN");
  const Variant& batched = *blas3::find_variant("GEMM_BATCHED-NN");
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 8;
  constexpr int64_t kMemberSize = 96;
  constexpr int64_t kBatch = 4;

  std::atomic<int> failures{0};
  std::atomic<int> sheds{0};
  std::atomic<bool> reloaded{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xF00D + static_cast<uint64_t>(t));
      for (int i = 0; i < kItersPerThread; ++i) {
        // Alternate single and batched traffic on every thread, so both
        // request families cross the reload boundary concurrently.
        if (i % 2 == 0) {
          Matrix a(kMemberSize, kMemberSize), b(kMemberSize, kMemberSize),
              c(kMemberSize, kMemberSize);
          a.fill_random(rng);
          b.fill_random(rng);
          auto outcome = rt.serve(single, a, b, &c);
          if (!outcome.is_ok() ||
              *outcome == runtime::DispatchOutcome::kShed) {
            (outcome.is_ok() ? sheds : failures)++;
          }
        } else {
          BatchedProblem prob(batched, kMemberSize, kMemberSize,
                              kMemberSize, kBatch,
                              0xBEE5 + static_cast<uint64_t>(t * 100 + i));
          // Oracle before serving: serve_batched writes prob.c in place.
          const std::vector<Matrix> ref = prob.reference(batched);
          auto outcome =
              rt.serve_batched(batched, prob.a, prob.b, &prob.c);
          if (!outcome.is_ok() ||
              *outcome == runtime::DispatchOutcome::kShed) {
            (outcome.is_ok() ? sheds : failures)++;
            continue;
          }
          // Spot-check numerics on the last iteration of each thread:
          // a wrong answer served without error is the worst drop.
          if (i + 2 >= kItersPerThread) {
            const double tol = blas3::accumulation_tolerance(
                kMemberSize, batched.precision);
            if (max_member_diff(prob.c, ref) > tol) failures++;
          }
        }
        // Thread 0 hot-reloads mid-hammer; everyone else keeps serving.
        if (t == 0 && i == kItersPerThread / 2) {
          Status swapped = rt.swap_artifact(mixed_artifact());
          if (!swapped.is_ok()) failures++;
          reloaded = true;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(sheds.load(), 0);
  EXPECT_TRUE(reloaded.load());

  const runtime::DispatchStats stats = rt.stats();
  const uint64_t singles = kThreads * (kItersPerThread / 2);
  const uint64_t batches = kThreads * (kItersPerThread / 2);
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.batched_requests, batches);
  EXPECT_EQ(stats.batched_members, batches * kBatch);
  ASSERT_EQ(stats.requests_by_family.count("GEMM"), 1u);
  ASSERT_EQ(stats.requests_by_family.count("GEMM_BATCHED"), 1u);
  EXPECT_EQ(stats.requests_by_family.at("GEMM"), singles);
  EXPECT_EQ(stats.requests_by_family.at("GEMM_BATCHED"), batches);
}

}  // namespace
}  // namespace oa
