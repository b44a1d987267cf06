// LibraryRuntime tests: dispatch policy (hit / near hit / fallback),
// functional correctness of served answers, graceful degradation on
// mismatched artifacts, and thread safety of the serving path.
#include <gtest/gtest.h>

#include <atomic>

#include "blas3/reference.hpp"
#include "blas3/source_ir.hpp"
#include "engine/evaluation_engine.hpp"
#include "exec/executor.hpp"
#include "libgen/artifact.hpp"
#include "oa/oa.hpp"
#include "runtime/library_runtime.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace oa {
namespace {

using blas3::Variant;
using libgen::Artifact;
using runtime::DispatchOutcome;
using runtime::LibraryRuntime;

OaOptions quick_options() {
  OaOptions opt;
  opt.tuning_size = 256;
  opt.verify_size = 48;
  return opt;
}

/// One real tuned GEMM-NN artifact per process (generation is the
/// expensive part; every test serves from the same library).
const Artifact& gemm_artifact() {
  static const Artifact artifact = [] {
    libgen::SessionStore::instance().clear();
    OaFramework framework(gpusim::gtx285(), quick_options());
    auto tuned = framework.generate(*blas3::find_variant("GEMM-NN"));
    EXPECT_TRUE(tuned.is_ok()) << tuned.status().to_string();
    return framework.export_library();
  }();
  return artifact;
}

void make_inputs(const Variant& v, uint64_t seed, int64_t n,
                 blas3::Matrix& a, blas3::Matrix& b, blas3::Matrix& c) {
  Rng rng(seed);
  a = blas3::Matrix(n, n);
  b = blas3::Matrix(n, n);
  c = blas3::Matrix(n, n);
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

/// Serve (v, n) and compare against the CPU reference.
void serve_and_check(const LibraryRuntime& rt, const Variant& v,
                     int64_t n, DispatchOutcome expected) {
  blas3::Matrix a, b, c;
  make_inputs(v, 0xBEEF ^ static_cast<uint64_t>(n), n, a, b, c);
  blas3::Matrix ref_b = b, ref_c = c;
  auto outcome = rt.run(v, a, b, &c);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_EQ(*outcome, expected)
      << runtime::outcome_name(*outcome) << " at n=" << n;
  blas3::run_reference(v, a, ref_b, &ref_c);
  const blas3::Matrix& got = v.family == blas3::Family::kTrsm ? b : c;
  const blas3::Matrix& want =
      v.family == blas3::Family::kTrsm ? ref_b : ref_c;
  EXPECT_LE(blas3::max_abs_diff(got, want),
            blas3::accumulation_tolerance(n));
}

TEST(SizeBucket, IsFloorLog2) {
  EXPECT_EQ(LibraryRuntime::size_bucket(1), 0);
  EXPECT_EQ(LibraryRuntime::size_bucket(255), 7);
  EXPECT_EQ(LibraryRuntime::size_bucket(256), 8);
  EXPECT_EQ(LibraryRuntime::size_bucket(511), 8);
  EXPECT_EQ(LibraryRuntime::size_bucket(512), 9);
  EXPECT_EQ(LibraryRuntime::size_bucket(0), 0);
}

TEST(LibraryRuntime, HitServesTheTunedKernelCorrectly) {
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  ASSERT_TRUE(rt.load_status().is_ok())
      << rt.load_status().to_string();
  ASSERT_EQ(rt.table_size(), 1u);
  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  // Tuned at 256 -> bucket 8 covers [256, 512).
  serve_and_check(rt, gemm, 256, DispatchOutcome::kHit);
  serve_and_check(rt, gemm, 300, DispatchOutcome::kHit);

  runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.recovered_errors, 0u);
  EXPECT_EQ(stats.failed_requests, 0u);
  // The stats struct is a view over the runtime's metrics registry.
  EXPECT_EQ(rt.metrics().counter_value("runtime.requests"), 2u);
  EXPECT_EQ(rt.metrics().histogram("runtime.dispatch_us.hit").count(),
            2u);
  EXPECT_GT(
      rt.metrics().histogram("runtime.dispatch_us.hit").percentile(50),
      0.0);
}

TEST(LibraryRuntime, NearHitServesFromTheNearestBucket) {
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  serve_and_check(rt, gemm, 64, DispatchOutcome::kNearHit);
  serve_and_check(rt, gemm, 130, DispatchOutcome::kNearHit);
  EXPECT_EQ(rt.stats().near_hits, 2u);
  // Requests above the tuned bucket are near hits too (pure lookup —
  // serving at n=600 is interpreter-priced and slow).
  EXPECT_EQ(rt.dispatch(gemm, 600).outcome, DispatchOutcome::kNearHit);
}

/// The GEMM-NN artifact with the tuned entry (bucket 8, marker 2.0)
/// cloned into buckets 6 and 10: the artifact format does not hash
/// tuned_size/gflops into the candidate fingerprint, so the clones
/// reconstruct fine and give a three-bucket dispatch table whose
/// served entry is identifiable by its gflops marker.
Artifact multi_bucket_artifact() {
  Artifact artifact = gemm_artifact();
  EXPECT_EQ(artifact.entries.size(), 1u);
  artifact.entries[0].gflops = 2.0;
  libgen::ArtifactEntry lo = artifact.entries[0];
  lo.tuned_size = 64;  // bucket 6
  lo.gflops = 1.0;
  libgen::ArtifactEntry hi = artifact.entries[0];
  hi.tuned_size = 1024;  // bucket 10
  hi.gflops = 3.0;
  artifact.entries.push_back(lo);
  artifact.entries.push_back(hi);
  return artifact;
}

TEST(LibraryRuntime, NearHitBucketSelectionEdgeCases) {
  LibraryRuntime rt(gpusim::gtx285(), multi_bucket_artifact());
  ASSERT_EQ(rt.table_size(), 3u);
  const Variant& gemm = *blas3::find_variant("GEMM-NN");

  // Below every registered bucket: clamp to the lowest (6).
  LibraryRuntime::Dispatch below = rt.dispatch(gemm, 2);
  EXPECT_EQ(below.outcome, DispatchOutcome::kNearHit);
  EXPECT_EQ(below.tuned_gflops, 1.0);

  // Above every registered bucket: clamp to the highest (10).
  LibraryRuntime::Dispatch above = rt.dispatch(gemm, 1 << 14);
  EXPECT_EQ(above.outcome, DispatchOutcome::kNearHit);
  EXPECT_EQ(above.tuned_gflops, 3.0);

  // Equidistant between buckets 6 and 8 (want = 7): the tie goes to
  // the lower bucket.
  LibraryRuntime::Dispatch tie_lo = rt.dispatch(gemm, 128);
  EXPECT_EQ(tie_lo.outcome, DispatchOutcome::kNearHit);
  EXPECT_EQ(tie_lo.tuned_gflops, 1.0);

  // Equidistant between buckets 8 and 10 (want = 9): lower again.
  LibraryRuntime::Dispatch tie_mid = rt.dispatch(gemm, 512);
  EXPECT_EQ(tie_mid.outcome, DispatchOutcome::kNearHit);
  EXPECT_EQ(tie_mid.tuned_gflops, 2.0);

  // Strictly nearer wins over the tie rule (want = 9 is gone if the
  // request sits in a registered bucket).
  EXPECT_EQ(rt.dispatch(gemm, 300).outcome, DispatchOutcome::kHit);
}

TEST(LibraryRuntime, DispatchSizeUsesTrueFamilyDims) {
  const Variant& gemm_nn = *blas3::find_variant("GEMM-NN");
  const Variant& gemm_tn = *blas3::find_variant("GEMM-TN");
  const Variant& symm = *blas3::find_variant("SYMM-LL");
  // Tall GEMM: M dominates but only shows in a and c — the old
  // max(b.rows, b.cols) dispatch would have used 8.
  blas3::Matrix a(300, 8), b(8, 8), c(300, 8);
  EXPECT_EQ(LibraryRuntime::dispatch_size(gemm_nn, a, b, &c), 300);
  // Deep GEMM: K only shows in the operand shapes, transposed A holds
  // it in rows.
  blas3::Matrix at(500, 8), b2(500, 8), c2(8, 8);
  EXPECT_EQ(LibraryRuntime::dispatch_size(gemm_tn, at, b2, &c2), 500);
  // SYRK never reads b, so a stray b shape must not steer dispatch.
  const auto& exts = blas3::extension_variants();
  if (!exts.empty()) {
    blas3::Matrix sa(64, 32), sb(4096, 4096), sc(64, 64);
    EXPECT_EQ(LibraryRuntime::dispatch_size(exts.front(), sa, sb, &sc),
              64);
  }
  // Side-structured families: b carries both true dims.
  blas3::Matrix ta(96, 96), tb(96, 200), tc(96, 200);
  EXPECT_EQ(LibraryRuntime::dispatch_size(symm, ta, tb, &tc), 200);
}

TEST(LibraryRuntime, FailedRequestIsNotReportedAsRecovered) {
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  // SYMM-LL is not in the artifact and needs an output matrix: the
  // call is rejected before any path runs, so nothing can recover it.
  blas3::Matrix a, b, c;
  const Variant& symm = *blas3::find_variant("SYMM-LL");
  make_inputs(symm, 1, 32, a, b, c);
  auto outcome = rt.run(symm, a, b, nullptr);
  EXPECT_FALSE(outcome.is_ok());
  runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.failed_requests, 1u);
  EXPECT_EQ(stats.recovered_errors, 0u);
  EXPECT_EQ(
      rt.metrics().histogram("runtime.dispatch_us.failed").count(), 1u);
}

TEST(LibraryRuntime, RejectsInconsistentOperands) {
  // GEMM-NN with A 4x4096 but B 4x4: A says K = 4096, B says K = 4. An
  // empty artifact sends the call down the fallback chain, which must
  // refuse it rather than answer from zero-padded staging (baseline) or
  // out-of-bounds reads (reference).
  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  {
    LibraryRuntime rt(gpusim::gtx285(), Artifact{});
    Rng rng(0x4096);
    blas3::Matrix a(4, 4096), b(4, 4), c(4, 4);
    a.fill_random(rng);
    b.fill_random(rng);
    for (bool serve : {false, true}) {
      auto outcome =
          serve ? rt.serve(gemm, a, b, &c) : rt.run(gemm, a, b, &c);
      ASSERT_FALSE(outcome.is_ok()) << runtime::outcome_name(*outcome);
      EXPECT_EQ(outcome.status().code(), ErrorCode::kInvalidArgument);
    }
    EXPECT_EQ(blas3::max_abs_diff(c, blas3::Matrix(4, 4)), 0.0)
        << "a rejected call must not write its output";
    const runtime::DispatchStats stats = rt.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.failed_requests, 2u);
    EXPECT_EQ(
        rt.metrics().histogram("runtime.dispatch_us.failed").count(), 2u);
  }

  // The same call outside the runtime: the interpreter, the native
  // backend and OaFramework::run validate it through the same CallShape.
  {
    const ir::Program program = blas3::make_source_program(gemm);
    const gpusim::Simulator sim(gpusim::gtx285());
    exec::ExecCache cache;
    const OaFramework framework(gpusim::gtx285(), quick_options());
    Rng rng(0x4096);
    blas3::Matrix a(4, 4096), b(4, 4), c(4, 4);
    a.fill_random(rng);
    b.fill_random(rng);
    const Status rejections[] = {
        engine::execute_program(sim, program, gemm, a, b, &c, {}),
        exec::execute_program(sim.device(), program, gemm, a, b, &c, {},
                              cache),
        framework.run(program, gemm, a, b, &c),
    };
    for (const Status& s : rejections) {
      EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument) << s.to_string();
    }
    EXPECT_EQ(blas3::max_abs_diff(c, blas3::Matrix(4, 4)), 0.0)
        << "a rejected call must not write its output";
  }

  // One inconsistent member rejects the whole batched call.
  const Variant& batched = *blas3::find_variant("GEMM_BATCHED-NN");
  LibraryRuntime rt(gpusim::gtx285(), Artifact{});
  std::vector<blas3::Matrix> a(3, blas3::Matrix(8, 8));
  std::vector<blas3::Matrix> b(3, blas3::Matrix(8, 8));
  std::vector<blas3::Matrix> c(3, blas3::Matrix(8, 8));
  b[1] = blas3::Matrix(8, 9);  // N = 9 for B, 8 for C
  auto direct = rt.run_batched(batched, a, b, &c);
  ASSERT_FALSE(direct.is_ok());
  EXPECT_EQ(direct.status().code(), ErrorCode::kInvalidArgument);
  auto served = rt.serve_batched(batched, a, b, &c);
  ASSERT_FALSE(served.is_ok());
  EXPECT_EQ(served.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(rt.stats().failed_requests, 2u);

  // A ragged batch — every member consistent on its own, but 16x16 next
  // to 24x24 — is not one batched call: rejected up front and counted
  // as failed, never served from a fallback.
  std::vector<blas3::Matrix> ra{blas3::Matrix(16, 16), blas3::Matrix(24, 24)};
  std::vector<blas3::Matrix> rb = ra, rc = ra;
  auto ragged = rt.run_batched(batched, ra, rb, &rc);
  ASSERT_FALSE(ragged.is_ok()) << runtime::outcome_name(*ragged);
  EXPECT_EQ(ragged.status().code(), ErrorCode::kInvalidArgument);
  const runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.failed_requests, 3u);
  EXPECT_EQ(stats.recovered_errors, 0u);
  EXPECT_EQ(stats.baseline_fallbacks, 0u);
}

TEST(LibraryRuntime, EmptyCallsGoStraightToTheReference) {
  // A call with M, N or K = 0 holds no work for a kernel; the tuned and
  // baseline kernels would only refuse it (a degenerate launch or
  // array), so it must be answered by the reference without a single
  // kernel error — bit-for-bit the reference's output.
  struct Probe {
    const char* variant;
    int64_t ar, ac, br, bc;  // C matches the output: M x N
  };
  const Probe probes[] = {
      {"GEMM-NN", 0, 5, 5, 7},   // M = 0
      {"GEMM-NN", 5, 0, 0, 7},   // K = 0 (C is left as it was)
      {"GEMM-NN", 5, 5, 5, 0},   // N = 0
      {"SYMM-LL", 0, 0, 0, 6},   // M = 0
      {"TRMM-LL-N", 6, 6, 6, 0},  // N = 0
      {"TRSM-LL-N", 0, 0, 0, 4},  // M = 0
  };
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  Rng rng(0xE0);
  uint64_t calls = 0;
  for (const Probe& p : probes) {
    const Variant& v = *blas3::find_variant(p.variant);
    const bool gemm = v.family == blas3::Family::kGemm;
    blas3::Matrix a(p.ar, p.ac), b(p.br, p.bc);
    blas3::Matrix c(gemm ? p.ar : p.br, p.bc);
    a.fill_random(rng);
    b.fill_random(rng);
    c.fill_random(rng);
    for (bool serve : {false, true}) {
      blas3::Matrix rb = b, rc = c, want_b = b, want_c = c;
      blas3::run_reference(v, a, want_b, &want_c);
      auto outcome = serve ? rt.serve(v, a, rb, &rc) : rt.run(v, a, rb, &rc);
      ++calls;
      ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
      EXPECT_EQ(*outcome, DispatchOutcome::kFallbackReference)
          << p.variant << ": " << runtime::outcome_name(*outcome);
      EXPECT_EQ(blas3::max_abs_diff(rb, want_b), 0.0) << p.variant;
      EXPECT_EQ(blas3::max_abs_diff(rc, want_c), 0.0) << p.variant;
    }
  }

  // Batched: two members with K = 0.
  const Variant& batched = *blas3::find_variant("GEMM_BATCHED-NN");
  std::vector<blas3::Matrix> a(2, blas3::Matrix(4, 0));
  std::vector<blas3::Matrix> b(2, blas3::Matrix(0, 4));
  std::vector<blas3::Matrix> c(2, blas3::Matrix(4, 4));
  for (blas3::Matrix& m : c) m.fill_random(rng);
  for (bool serve : {false, true}) {
    std::vector<blas3::Matrix> rb = b, rc = c;
    auto outcome = serve ? rt.serve_batched(batched, a, rb, &rc)
                         : rt.run_batched(batched, a, rb, &rc);
    ++calls;
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    EXPECT_EQ(*outcome, DispatchOutcome::kFallbackReference);
    for (size_t i = 0; i < c.size(); ++i) {
      blas3::Matrix want_b = b[i], want_c = c[i];
      blas3::run_reference(batched, a[i], want_b, &want_c);
      EXPECT_EQ(blas3::max_abs_diff(rc[i], want_c), 0.0);
    }
  }

  const runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.reference_fallbacks, calls);
  EXPECT_EQ(stats.recovered_errors, 0u);
  EXPECT_EQ(stats.failed_requests, 0u);
}

TEST(LibraryRuntime, MissFallsBackToTheBaselineCorrectly) {
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  // Routines the artifact does not cover.
  serve_and_check(rt, *blas3::find_variant("GEMM-NT"), 96,
                  DispatchOutcome::kFallbackBaseline);
  serve_and_check(rt, *blas3::find_variant("SYMM-LL"), 96,
                  DispatchOutcome::kFallbackBaseline);
  serve_and_check(rt, *blas3::find_variant("TRSM-LL-N"), 96,
                  DispatchOutcome::kFallbackBaseline);
  EXPECT_EQ(rt.stats().baseline_fallbacks, 3u);
}

TEST(LibraryRuntime, VariantWithoutABaselineFallsBackToTheReference) {
  // The SYRK extension has no CUBLAS-like baseline schedule, so a call
  // the artifact does not cover ends at the CPU reference.
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  const Variant& syrk = *blas3::find_variant("SYRK-LN");
  ASSERT_EQ(rt.snapshot()->baseline(runtime::variant_code(syrk)), nullptr);
  serve_and_check(rt, syrk, 64, DispatchOutcome::kFallbackReference);
  const runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.reference_fallbacks, 1u);
  EXPECT_EQ(stats.native_serves, 0u);
  EXPECT_EQ(stats.recovered_errors, 0u);
}

TEST(LibraryRuntime, MismatchedDeviceArtifactDegradesGracefully) {
  // A gtx285 artifact served on fermi: nothing crashes, the table is
  // empty, load_status explains why, every request falls back and is
  // still answered correctly.
  LibraryRuntime rt(gpusim::fermi_c2050(), gemm_artifact());
  EXPECT_FALSE(rt.load_status().is_ok());
  EXPECT_EQ(rt.table_size(), 0u);
  serve_and_check(rt, *blas3::find_variant("GEMM-NN"), 96,
                  DispatchOutcome::kFallbackBaseline);
}

TEST(LibraryRuntime, DispatchIsAPureLookup) {
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  LibraryRuntime::Dispatch d = rt.dispatch(gemm, 256);
  EXPECT_EQ(d.outcome, DispatchOutcome::kHit);
  ASSERT_NE(d.program, nullptr);
  EXPECT_GT(d.tuned_gflops, 0.0);
  LibraryRuntime::Dispatch miss =
      rt.dispatch(*blas3::find_variant("TRMM-LL-N"), 256);
  EXPECT_EQ(miss.program, nullptr);
  // Lookups never touch the serving counters.
  EXPECT_EQ(rt.stats().requests, 0u);
}

// Fuzzed request shapes: degenerate dims (n = 1), power-of-two bucket
// boundaries (63/64/65, 255/256/257), primes, and mixed variants
// served concurrently. The invariants under fire: every request is
// answered correctly and counted exactly once (requests = hits +
// near hits + fallbacks + failures), each per-outcome latency
// histogram count equals its counter (one source of truth), and
// recovered_errors stays zero when every path serves cleanly.
TEST(LibraryRuntime, FuzzedRequestShapesKeepCountersConsistent) {
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  const std::vector<int64_t> sizes = {1,  2,   3,   31,  63,  64,  65,
                                      97, 127, 128, 129, 255, 256, 257};
  const std::vector<const Variant*> variants = {
      blas3::find_variant("GEMM-NN"), blas3::find_variant("GEMM-TT"),
      blas3::find_variant("SYMM-LL"), blas3::find_variant("TRMM-LL-N"),
      blas3::find_variant("TRSM-RU-T")};
  constexpr size_t kRequests = 40;
  std::atomic<int> wrong{0};
  ThreadPool::shared().parallel_for(kRequests, [&](size_t i) {
    Rng rng(0xF00D + i);  // shape is a function of i, not of schedule
    const Variant& v = *variants[i % variants.size()];
    const int64_t n =
        sizes[static_cast<size_t>(rng.next_below(sizes.size()))];
    blas3::Matrix a, b, c;
    make_inputs(v, i, n, a, b, c);
    blas3::Matrix ref_b = b, ref_c = c;
    auto outcome = rt.run(v, a, b, &c);
    if (!outcome.is_ok()) {
      ++wrong;
      return;
    }
    blas3::run_reference(v, a, ref_b, &ref_c);
    const blas3::Matrix& got = v.family == blas3::Family::kTrsm ? b : c;
    const blas3::Matrix& want =
        v.family == blas3::Family::kTrsm ? ref_b : ref_c;
    if (blas3::max_abs_diff(got, want) >
        blas3::accumulation_tolerance(n)) {
      ++wrong;
    }
  });
  EXPECT_EQ(wrong.load(), 0);

  const runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.requests, stats.hits + stats.near_hits +
                                stats.baseline_fallbacks +
                                stats.reference_fallbacks +
                                stats.failed_requests);
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.recovered_errors, 0u);
  EXPECT_EQ(rt.metrics().histogram("runtime.dispatch_us.hit").count(),
            stats.hits);
  EXPECT_EQ(
      rt.metrics().histogram("runtime.dispatch_us.near_hit").count(),
      stats.near_hits);
  EXPECT_EQ(rt.metrics()
                .histogram("runtime.dispatch_us.baseline_fallback")
                .count(),
            stats.baseline_fallbacks);
  EXPECT_EQ(rt.metrics()
                .histogram("runtime.dispatch_us.reference_fallback")
                .count(),
            stats.reference_fallbacks);
  EXPECT_EQ(rt.metrics().histogram("runtime.dispatch_us.failed").count(),
            stats.failed_requests);
}

TEST(LibraryRuntime, ConcurrentServingIsSafeAndCounted) {
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  const Variant& symm = *blas3::find_variant("SYMM-LL");
  constexpr size_t kRequests = 12;
  std::atomic<int> failures{0};
  ThreadPool::shared().parallel_for(
      kRequests, [&](size_t i) {
        // A mix of hits (GEMM-NN at its tuned bucket), near hits and
        // baseline fallbacks, racing on the same dispatch table.
        const Variant& v = i % 3 == 2 ? symm : gemm;
        const int64_t n = i % 2 == 0 ? 256 : 72;
        blas3::Matrix a, b, c;
        make_inputs(v, i, n, a, b, c);
        blas3::Matrix ref_b = b, ref_c = c;
        auto outcome = rt.run(v, a, b, &c);
        if (!outcome.is_ok()) {
          ++failures;
          return;
        }
        blas3::run_reference(v, a, ref_b, &ref_c);
        if (blas3::max_abs_diff(c, ref_c) >
            blas3::accumulation_tolerance(n)) {
          ++failures;
        }
        rt.dispatch(v, n);  // racing pure lookups too
      });
  EXPECT_EQ(failures.load(), 0);
  runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.hits + stats.near_hits + stats.baseline_fallbacks +
                stats.reference_fallbacks,
            kRequests);
  EXPECT_EQ(stats.hits, 4u);               // GEMM-NN at 256
  EXPECT_EQ(stats.near_hits, 4u);          // GEMM-NN at 72
  EXPECT_EQ(stats.baseline_fallbacks, 4u); // SYMM-LL
  rt.reset_stats();
  EXPECT_EQ(rt.stats().requests, 0u);
}

}  // namespace
}  // namespace oa
