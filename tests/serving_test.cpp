// Serving-path tests: hot reload (swap_artifact) under concurrent
// load, admission control / load shedding, the shed-accounting
// invariant documented in DispatchStats, and native execution (the
// interpreter oracle, admission of entries that lower, the bounded
// exec cache).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "blas3/call_shape.hpp"
#include "blas3/reference.hpp"
#include "blas3/source_ir.hpp"
#include "engine/evaluation_engine.hpp"
#include "epod/script.hpp"
#include "exec/annotate.hpp"
#include "exec/tape.hpp"
#include "libgen/artifact.hpp"
#include "oa/oa.hpp"
#include "obs/metrics.hpp"
#include "runtime/library_runtime.hpp"
#include "support/rng.hpp"

namespace oa {
namespace {

using blas3::Variant;
using libgen::Artifact;
using runtime::AdmissionController;
using runtime::DispatchOutcome;
using runtime::LibraryRuntime;

/// One real tuned GEMM-NN artifact per process (generation is the
/// expensive part; every test serves from the same library).
const Artifact& gemm_artifact() {
  static const Artifact artifact = [] {
    libgen::SessionStore::instance().clear();
    OaOptions opt;
    opt.tuning_size = 256;
    opt.verify_size = 48;
    OaFramework framework(gpusim::gtx285(), opt);
    auto tuned = framework.generate(*blas3::find_variant("GEMM-NN"));
    EXPECT_TRUE(tuned.is_ok()) << tuned.status().to_string();
    return framework.export_library();
  }();
  return artifact;
}

/// The artifact with its tuned entry cloned into two more size buckets
/// (same trick as runtime_test): three servable entries instead of one.
Artifact three_bucket_artifact() {
  Artifact artifact = gemm_artifact();
  EXPECT_EQ(artifact.entries.size(), 1u);
  libgen::ArtifactEntry lo = artifact.entries[0];
  lo.tuned_size = 64;
  libgen::ArtifactEntry hi = artifact.entries[0];
  hi.tuned_size = 1024;
  artifact.entries.push_back(lo);
  artifact.entries.push_back(hi);
  return artifact;
}

/// A request long enough (~2 s natively on a 4-thread host) to still be
/// in flight when another thread reacts to it.
constexpr int64_t kLongRequestN = 1024;

void make_inputs(int64_t n, uint64_t seed, blas3::Matrix& a,
                 blas3::Matrix& b, blas3::Matrix& c) {
  Rng rng(seed);
  a = blas3::Matrix(n, n);
  b = blas3::Matrix(n, n);
  c = blas3::Matrix(n, n);
  a.fill_random(rng);
  b.fill_random(rng);
}

// --- hot reload ------------------------------------------------------

TEST(SwapArtifact, PublishesNewTableAndKeepsOldSnapshotAlive) {
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  ASSERT_EQ(rt.table_size(), 1u);
  const Variant& gemm = *blas3::find_variant("GEMM-NN");

  // Pin a dispatch from the first snapshot.
  LibraryRuntime::Dispatch d = rt.dispatch(gemm, 256);
  ASSERT_EQ(d.outcome, DispatchOutcome::kHit);
  ASSERT_NE(d.program, nullptr);

  Status swapped = rt.swap_artifact(three_bucket_artifact());
  EXPECT_TRUE(swapped.is_ok()) << swapped.to_string();
  EXPECT_EQ(rt.table_size(), 3u);
  EXPECT_EQ(rt.stats().reloads, 1u);

  // The pinned dispatch still points into the old (1-entry) snapshot.
  ASSERT_NE(d.snapshot, nullptr);
  EXPECT_EQ(d.snapshot->table_size(), 1u);
  EXPECT_NE(d.program, nullptr);
  EXPECT_FALSE(d.bool_params == nullptr);

  // New requests see the new table: n=64 was a near hit before the
  // swap, now its bucket has its own entry.
  EXPECT_EQ(rt.dispatch(gemm, 64).outcome, DispatchOutcome::kHit);

  // And serving still answers correctly after the reload.
  blas3::Matrix a, b, c;
  make_inputs(256, 0xD00D, a, b, c);
  auto outcome = rt.run(gemm, a, b, &c);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_EQ(*outcome, DispatchOutcome::kHit);
}

TEST(SwapArtifact, DegradedArtifactStillPublishes) {
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  ASSERT_TRUE(rt.load_status().is_ok());

  Artifact bogus = gemm_artifact();
  bogus.entries[0].variant = "NOT-A-ROUTINE";
  Status swapped = rt.swap_artifact(bogus);
  EXPECT_FALSE(swapped.is_ok());
  EXPECT_FALSE(rt.load_status().is_ok());
  EXPECT_EQ(rt.table_size(), 0u);

  // Serving degrades to the fallback chain instead of failing.
  blas3::Matrix a, b, c;
  make_inputs(96, 0xFA11, a, b, c);
  auto outcome = rt.run(*blas3::find_variant("GEMM-NN"), a, b, &c);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(*outcome == DispatchOutcome::kFallbackBaseline ||
              *outcome == DispatchOutcome::kFallbackReference);
}

TEST(SwapArtifact, SwapUnderLoadDropsNoRequests) {
  // Clients hammer run() with real std::threads (the shared pool has a
  // single worker on 1-core machines) while the main thread republishes
  // the snapshot in a tight loop. Every request must be answered: the
  // snapshot a request pinned stays alive for its whole serve.
  constexpr int kClients = 4;
  constexpr int kReloads = 120;
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  const Variant& gemm = *blas3::find_variant("GEMM-NN");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sent{0}, answered{0}, tuned{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      blas3::Matrix a, b, c;
      make_inputs(48, 0xC11E47 + static_cast<uint64_t>(t), a, b, c);
      while (!stop.load(std::memory_order_relaxed)) {
        sent.fetch_add(1, std::memory_order_relaxed);
        auto outcome = rt.run(gemm, a, b, &c);
        if (outcome.is_ok()) {
          answered.fetch_add(1, std::memory_order_relaxed);
          if (*outcome == DispatchOutcome::kHit ||
              *outcome == DispatchOutcome::kNearHit) {
            tuned.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  const Artifact& one = gemm_artifact();
  const Artifact three = three_bucket_artifact();
  for (int i = 0; i < kReloads; ++i) {
    Status swapped = rt.swap_artifact(i % 2 == 0 ? three : one);
    EXPECT_TRUE(swapped.is_ok()) << swapped.to_string();
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(answered.load(), sent.load()) << "dropped requests";
  EXPECT_EQ(tuned.load(), sent.load())
      << "every request should have served from a tuned table";
  runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.reloads, static_cast<uint64_t>(kReloads));
  EXPECT_EQ(stats.requests, sent.load());
  EXPECT_EQ(stats.requests,
            stats.hits + stats.near_hits + stats.baseline_fallbacks +
                stats.reference_fallbacks + stats.shed +
                stats.failed_requests);
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.shed, 0u);  // run() never sheds
}

TEST(SwapArtifact, DestroyedRuntimeReleasesItsSnapshot) {
  // A request holds its snapshot only while it is served: once the
  // runtime is gone, nothing the serving thread keeps may hold its
  // table (or the baselines it shares) alive.
  std::weak_ptr<const runtime::DispatchSnapshot> weak;
  {
    LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
    weak = rt.snapshot();
    blas3::Matrix a, b, c;
    make_inputs(64, 0x5A17, a, b, c);
    auto outcome = rt.serve(*blas3::find_variant("GEMM-NN"), a, b, &c);
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    EXPECT_NE(*outcome, DispatchOutcome::kShed);
  }
  EXPECT_TRUE(weak.expired()) << "the destroyed runtime's snapshot lives on";
}

// --- admission control / shedding ------------------------------------

TEST(AdmissionController, DepthBoundIsHard) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("test.serve_us");
  AdmissionController::Options opt;
  opt.max_queue_depth = 2;
  AdmissionController admission(opt, &h);
  EXPECT_TRUE(admission.admit(0));
  EXPECT_TRUE(admission.admit(1));
  EXPECT_FALSE(admission.admit(2));
  EXPECT_FALSE(admission.admit(100));
}

TEST(AdmissionController, SloShedsOnRecentTrafficOnly) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("test.serve_us");
  AdmissionController::Options opt;
  opt.slo_p99_us = 100.0;
  opt.window_every = 1;  // rotate on every completion
  AdmissionController admission(opt, &h);

  // Idle server always admits, whatever the history says.
  for (int i = 0; i < 100; ++i) h.record(10000.0);
  EXPECT_TRUE(admission.admit(0));
  // Recent p99 (10ms) is far above the 100us SLO: shed while busy.
  EXPECT_FALSE(admission.admit(1));

  // A completion rotates the window: the bad spell ages out and the
  // controller re-admits (lifetime p99 is still 10ms).
  admission.on_complete();
  EXPECT_TRUE(admission.admit(1));
  EXPECT_GT(h.percentile(99), 1000.0);

  // Fresh fast traffic keeps admitting at shallow depth but sheds when
  // expected queueing delay alone (depth x recent p50) blows the SLO.
  for (int i = 0; i < 100; ++i) h.record(60.0);
  EXPECT_TRUE(admission.admit(1));
  EXPECT_FALSE(admission.admit(10));
}

TEST(Serve, ShedsDeterministicallyWhenQueueIsFull) {
  // One long native request occupies the only slot (depth 1); with
  // max_queue_depth = 1 the next serve() must shed, and the shed is
  // accounted exactly once.
  runtime::RuntimeOptions ropt;
  ropt.max_queue_depth = 1;
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact(), ropt);
  const Variant& gemm = *blas3::find_variant("GEMM-NN");

  std::atomic<bool> long_ok{false};
  std::thread long_request([&] {
    blas3::Matrix a, b, c;
    make_inputs(kLongRequestN, 0x1EAD, a, b, c);
    auto outcome = rt.serve(gemm, a, b, &c);
    long_ok = outcome.is_ok() && *outcome == DispatchOutcome::kNearHit;
  });

  // The raw entry counter is bumped after admission, so once it reads
  // 1 the long request holds the slot until its kernel finishes.
  while (rt.metrics().counter_value("runtime.requests") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  blas3::Matrix a, b, c;
  make_inputs(256, 0x5EED, a, b, c);
  auto shed = rt.serve(gemm, a, b, &c);
  ASSERT_TRUE(shed.is_ok()) << shed.status().to_string();
  EXPECT_EQ(*shed, DispatchOutcome::kShed);

  long_request.join();
  EXPECT_TRUE(long_ok.load());

  runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.near_hits, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.requests,
            stats.hits + stats.near_hits + stats.baseline_fallbacks +
                stats.reference_fallbacks + stats.shed +
                stats.failed_requests);
  EXPECT_EQ(rt.metrics().counter_value("runtime.shed"), 1u);
  EXPECT_EQ(
      rt.metrics().histogram("runtime.dispatch_us.shed").count(), 1u);
}

TEST(Serve, UncoalescedServeMatchesRunSemantics) {
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  blas3::Matrix a, b, c;
  make_inputs(256, 0xD12EC7, a, b, c);
  blas3::Matrix c_run = c;
  auto outcome = rt.serve(gemm, a, b, &c);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_EQ(*outcome, DispatchOutcome::kHit);
  auto direct = rt.run(gemm, a, b, &c_run);
  ASSERT_TRUE(direct.is_ok()) << direct.status().to_string();
  EXPECT_EQ(*direct, DispatchOutcome::kHit);
  EXPECT_EQ(blas3::max_abs_diff(c, c_run), 0.0);
  runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.native_serves, 2u);
}

// --- native execution --------------------------------------------------

TEST(NativeServing, ServesComputedResultsBitEqualToInterpreter) {
  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  blas3::Matrix a, b, c;
  make_inputs(256, 0xBEEF, a, b, c);

  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  blas3::Matrix c_served = c;
  auto outcome = rt.run(gemm, a, b, &c_served);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  ASSERT_EQ(*outcome, DispatchOutcome::kHit);

  // The interpreter oracle on the program the runtime dispatched to.
  const LibraryRuntime::Dispatch d = rt.dispatch(gemm, 256);
  ASSERT_NE(d.program, nullptr);
  const gpusim::Simulator sim(gpusim::gtx285());
  blas3::Matrix c_interp = c;
  Status interp = engine::execute_program(sim, *d.program, gemm, a, b,
                                          &c_interp, *d.bool_params);
  ASSERT_TRUE(interp.is_ok()) << interp.to_string();

  // The native backend serves the same bits the interpreter computes
  // (lane-major vs lockstep changes nothing for race-free kernels).
  EXPECT_EQ(blas3::max_abs_diff(c_interp, c_served), 0.0);
  const auto stats = rt.stats();
  EXPECT_EQ(stats.native_serves, 1u);
  EXPECT_EQ(stats.recovered_errors, 0u);
  // Admission lowered the entry into the cache at tuned_size, so the
  // serve itself (same size) compiled nothing.
  const exec::ExecStats xs = rt.exec_stats();
  EXPECT_GT(xs.compiles, 0);
  EXPECT_GT(xs.cache_hits, 0);
}

/// A one-entry TRMM-LL-N library whose kernel the native backend
/// refuses: SM_alloc stages B inside the trapezoid loop *before*
/// binding_triangular guards that loop with threadIdx == 0, so the
/// staging barriers sit under a threadIdx-dependent branch — lowering's
/// precondition rejects that statically, whatever the problem size.
Artifact unlowerable_trmm_artifact() {
  Artifact artifact;
  artifact.device = gpusim::gtx285().name;
  artifact.device_fp = libgen::device_fingerprint(gpusim::gtx285());
  libgen::ArtifactEntry e;
  e.variant = "TRMM-LL-N";
  auto script = epod::parse_script(
      "//! routine: TRMM-LL-N\n"
      "(Lii, Ljj) = thread_grouping(Li, Lj);\n"
      "(Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);\n"
      "peel_triangular(A);\n"
      "SM_alloc(B, Transpose);\n"
      "binding_triangular(A, 0);\n");
  EXPECT_TRUE(script.is_ok()) << script.status().to_string();
  e.script = *script;
  e.params.block_tile_y = e.params.block_tile_x = 16;
  e.params.threads_y = e.params.threads_x = 1;
  e.params.k_tile = 16;
  e.params.unroll = 1;
  e.applied_mask = 0x1f;  // all five components apply
  e.candidate_fingerprint = e.candidate().fingerprint();
  e.tuned_size = 64;
  e.gflops = 1.0;
  artifact.entries.push_back(e);
  return artifact;
}

TEST(NativeServing, UnlowerableEntryIsRefusedAtLoad) {
  const Artifact artifact = unlowerable_trmm_artifact();
  const Variant& trmm = *blas3::find_variant("TRMM-LL-N");

  // Refusal depends on the kernel's structure, not on the call size:
  // the entry's kernel compiles and passes the launch gate at every
  // size, and lowering refuses it at every size.
  const libgen::ArtifactEntry& entry = artifact.entries.at(0);
  auto eval = libgen::reconstruct(entry, trmm, {entry.candidate()});
  ASSERT_TRUE(eval.is_ok()) << eval.status().to_string();
  const std::map<std::string, bool> bools =
      engine::bools_for(eval->candidate);
  for (int64_t size : {16, 64, 75, 256}) {
    const ir::Env env = blas3::CallShape::square(trmm, size).env();
    for (const ir::Kernel& kernel : eval->program.kernels) {
      auto ck = gpusim::compile_kernel(eval->program, kernel, env, bools);
      ASSERT_TRUE(ck.is_ok()) << ck.status().to_string();
      ASSERT_TRUE(gpusim::gate_launch(gpusim::gtx285(), *ck).is_ok());
      auto lowered = exec::lower_kernel(*ck);
      ASSERT_FALSE(lowered.is_ok()) << "n=" << size;
      EXPECT_EQ(lowered.status().code(), ErrorCode::kFailedPrecondition)
          << "n=" << size << ": " << lowered.status().to_string();
    }
  }

  // Admission refuses the entry at load, naming it and why.
  LibraryRuntime rt(gpusim::gtx285(), artifact);
  ASSERT_FALSE(rt.load_status().is_ok());
  EXPECT_NE(rt.load_status().message().find("TRMM-LL-N"), std::string::npos)
      << rt.load_status().to_string();
  EXPECT_EQ(rt.table_size(), 0u);
  EXPECT_EQ(rt.exec_stats().failed_lowerings, 1);

  // Its calls take the baseline, which runs natively.
  constexpr int64_t n = 64;
  Rng rng(0x7A11);
  blas3::Matrix a(n, n), b(n, n), c(n, n);
  a.fill_random(rng);
  b.fill_random(rng);
  a.make_triangular(trmm.uplo);
  blas3::Matrix ref_b = b, ref_c = c;
  blas3::run_reference(trmm, a, ref_b, &ref_c);

  auto outcome = rt.serve(trmm, a, b, &c);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_EQ(*outcome, DispatchOutcome::kFallbackBaseline);
  EXPECT_LE(blas3::max_abs_diff(c, ref_c),
            blas3::accumulation_tolerance(n));

  const runtime::DispatchStats stats = rt.stats();
  EXPECT_EQ(stats.baseline_fallbacks, 1u);
  EXPECT_EQ(stats.native_serves, 1u);
  EXPECT_EQ(stats.recovered_errors, 0u);
  EXPECT_EQ(stats.failed_requests, 0u);

  // A hot reload refuses it the same way: the new snapshot publishes
  // with an empty table.
  LibraryRuntime swapped(gpusim::gtx285(), gemm_artifact());
  ASSERT_EQ(swapped.table_size(), 1u);
  EXPECT_FALSE(swapped.swap_artifact(artifact).is_ok());
  EXPECT_EQ(swapped.table_size(), 0u);
}

/// The tuned GEMM-NN entry re-parameterised so its kernel spills on
/// gtx285: a 64x64 block tile on 16x1 threads gives every thread 256
/// register elements, far over the per-thread register ceiling.
Artifact spilling_gemm_artifact() {
  Artifact artifact = gemm_artifact();
  libgen::ArtifactEntry& e = artifact.entries.at(0);
  e.params.block_tile_y = e.params.block_tile_x = 64;
  e.params.threads_y = 16;
  e.params.threads_x = 1;
  e.tuned_size = 128;
  transforms::TransformContext ctx;
  ctx.params = e.params;
  ir::Program program =
      blas3::make_source_program(*blas3::find_variant(e.variant));
  auto mask = epod::apply_script_lenient(program, e.script, ctx);
  EXPECT_TRUE(mask.is_ok()) << mask.status().to_string();
  e.applied_mask = *mask;
  return artifact;
}

TEST(NativeServing, PrewarmAndSidecarUseTheGatedKernel) {
  // Spilling is part of the exec-cache key, so admission (which warms
  // the cache) and the artifact sidecar must see the kernel after the
  // launch gate, as serving does.
  Artifact artifact = spilling_gemm_artifact();
  LibraryRuntime rt(gpusim::gtx285(), artifact);
  ASSERT_EQ(rt.table_size(), 1u) << rt.load_status().to_string();
  const int64_t warmed = rt.exec_stats().compiles;
  EXPECT_GT(warmed, 0);

  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  blas3::Matrix a, b, c;
  make_inputs(128, 0x5B111, a, b, c);
  blas3::Matrix ref_b = b, ref_c = c;
  blas3::run_reference(gemm, a, ref_b, &ref_c);
  auto outcome = rt.run(gemm, a, b, &c);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_EQ(*outcome, DispatchOutcome::kHit);
  EXPECT_LE(blas3::max_abs_diff(c, ref_c),
            blas3::accumulation_tolerance(128));
  EXPECT_EQ(rt.stats().native_serves, 1u);
  EXPECT_EQ(rt.exec_stats().compiles, warmed)
      << "the first run at the tuned size compiled a kernel admission "
         "missed";

  // The sidecar records the key of the kernel serving compiled.
  ASSERT_TRUE(exec::annotate_artifact(artifact, gpusim::gtx285()).is_ok());
  const LibraryRuntime::Dispatch d = rt.dispatch(gemm, 128);
  ASSERT_NE(d.program, nullptr);
  const std::vector<libgen::ExecRecord>& records =
      artifact.entries[0].exec;
  ASSERT_EQ(records.size(), d.program->kernels.size());
  const ir::Env env = blas3::CallShape(gemm, a, b, &c).env();
  bool spilled = false;
  for (size_t i = 0; i < records.size(); ++i) {
    auto ck = gpusim::compile_kernel(*d.program, d.program->kernels[i], env,
                                     *d.bool_params);
    ASSERT_TRUE(ck.is_ok()) << ck.status().to_string();
    ASSERT_TRUE(gpusim::gate_launch(gpusim::gtx285(), *ck).is_ok());
    for (const gpusim::CArray& arr : ck->arrays) spilled |= arr.spilled;
    EXPECT_EQ(records[i].key, exec::kernel_key(*ck)) << records[i].kernel;
  }
  EXPECT_TRUE(spilled) << "the entry no longer spills; the test is moot";
}

TEST(NativeServing, ExecCacheStaysBoundedAcrossCallShapes) {
  // Kernels are specialised to the call's M/N/K, so every distinct call
  // shape compiles a kernel of its own. Serve more shapes than the
  // cache holds: the cache evicts instead of growing, and every answer
  // stays correct.
  LibraryRuntime rt(gpusim::gtx285(), gemm_artifact());
  const Variant& gemm = *blas3::find_variant("GEMM-NN");
  const size_t bound = exec::ExecCache::kCapacity;
  size_t shapes = 0;
  int wrong = 0;
  Rng rng(0xCAC4E);
  for (int64_t m = 1; shapes <= bound; ++m) {
    for (int64_t n = 1; n <= 10; ++n) {
      for (int64_t k = 1; k <= 10; ++k) {
        blas3::Matrix a(m, k), b(k, n), c(m, n);
        a.fill_random(rng);
        b.fill_random(rng);
        blas3::Matrix ref_b = b, ref_c = c;
        blas3::run_reference(gemm, a, ref_b, &ref_c);
        auto outcome = rt.run(gemm, a, b, &c);
        if (!outcome.is_ok() ||
            blas3::max_abs_diff(c, ref_c) >
                blas3::accumulation_tolerance(k)) {
          ++wrong;
        }
        ++shapes;
      }
    }
  }
  EXPECT_EQ(wrong, 0);
  const exec::ExecStats xs = rt.exec_stats();
  EXPECT_GE(xs.compiles, static_cast<int64_t>(shapes));
  EXPECT_LE(xs.entries, static_cast<int64_t>(bound));
  EXPECT_GT(xs.evictions, 0);
  EXPECT_EQ(rt.stats().recovered_errors, 0u);
}

}  // namespace
}  // namespace oa
