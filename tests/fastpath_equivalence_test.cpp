// Fast-path equivalence gate: the warp-analytic ghost executor must
// produce bit-identical counters to the lockstep interpreter — not
// approximately equal, identical. All 48 BLAS3 variants (the paper's
// 24 at f32 and the doubled f64 family, whose 8-byte accesses price
// differently) run on all three device presets through three schedules
// (untransformed source, family-script tuned, cublas-like baseline)
// with the fast path on and off, and every counter field is compared.
// This is the guarantee that lets the tuner's search run entirely on
// the fast path without ever re-validating against the interpreter.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>

#include "baseline/baseline.hpp"
#include "blas3/routine.hpp"
#include "blas3/source_ir.hpp"
#include "epod/script.hpp"
#include "gpusim/simulator.hpp"
#include "ir/kernel.hpp"
#include "transforms/transform.hpp"
#include "verify/harness.hpp"

namespace oa::gpusim {
namespace {

using ir::AffineExpr;
using ir::Bound;
using ir::NodePtr;

const char* family_script(blas3::Family f) {
  // The per-family schedules of the counter-consistency suite: they
  // exercise thread grouping, tiling, unrolling, shared-memory and
  // register allocation — i.e. every fast-path mechanism (affine
  // slots, closed-form coalescing, loop collapsing, masked tile
  // loads).
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
    default: return kGemm;  // GEMM / SYMM (lenient application)
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

class FastPathEquivalence
    : public ::testing::TestWithParam<blas3::Variant> {};

TEST_P(FastPathEquivalence, CountersBitIdentical) {
  const blas3::Variant v = GetParam();
  const int64_t n = 96;
  const std::vector<std::pair<const char*, const DeviceModel*>> devices = {
      {"geforce9800", &geforce_9800()},
      {"gtx285", &gtx285()},
      {"fermi", &fermi_c2050()}};
  for (const auto& [dev_name, dev] : devices) {
    std::vector<std::pair<std::string, ir::Program>> programs;
    programs.emplace_back("source", blas3::make_source_program(v));
    programs.emplace_back("tuned", tuned_program(v));
    auto base = baseline::cublas_like(v, *dev);
    ASSERT_TRUE(base.is_ok()) << base.status().to_string();
    programs.emplace_back("baseline", std::move(*base));

    for (auto& [label, p] : programs) {
      RunOptions opts;
      opts.int_params = v.family == blas3::Family::kGemm
                            ? ir::Env{{"M", n}, {"N", n}, {"K", n}}
                            : ir::Env{{"M", n}, {"N", n}};

      Simulator sim(*dev);
      opts.fastpath = true;
      auto fast = sim.run_performance(p, opts);
      ASSERT_TRUE(fast.is_ok())
          << dev_name << " " << label << ": " << fast.status().to_string();
      opts.fastpath = false;
      auto interp = sim.run_performance(p, opts);
      ASSERT_TRUE(interp.is_ok())
          << dev_name << " " << label << ": "
          << interp.status().to_string();

      EXPECT_TRUE(fast->counters == interp->counters)
          << dev_name << " " << label << "\nfast:   "
          << fast->counters.to_string()
          << "\ninterp: " << interp->counters.to_string();
      ASSERT_EQ(fast->kernels.size(), interp->kernels.size());
      for (size_t i = 0; i < fast->kernels.size(); ++i) {
        EXPECT_TRUE(fast->kernels[i].counters ==
                    interp->kernels[i].counters)
            << dev_name << " " << label << " kernel "
            << fast->kernels[i].name;
      }
      // The interpreter run must not have touched the fast path, and
      // the fast run should have priced at least part of the work
      // analytically on these affine kernels.
      EXPECT_EQ(interp->fastpath.fast_statements, 0);
      EXPECT_GT(fast->fastpath.fast_statements, 0)
          << dev_name << " " << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, FastPathEquivalence,
    ::testing::ValuesIn(blas3::all_variants()),
    [](const ::testing::TestParamInfo<blas3::Variant>& info) {
      std::string name = info.param.name();
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Rectangular problem shapes make boundary tiles of a peeled loop fall
// back to the interpreter while interior tiles stay analytic, so the
// same load site alternates between the triple-summary and per-lane
// register-reuse mechanisms. The first four shapes are oacheck finds
// (seeds 1, 2, 3, 7) that exposed exactly that handoff going stale;
// the rest cover degenerate and prime extents.
class FastPathEquivalenceRect
    : public ::testing::TestWithParam<blas3::Variant> {};

TEST_P(FastPathEquivalenceRect, CountersBitIdenticalRectangular) {
  const blas3::Variant v = GetParam();
  const std::vector<std::array<int64_t, 3>> shapes = {
      {92, 29, 84}, {63, 72, 67}, {34, 67, 3}, {64, 66, 75},
      {1, 96, 33},  {97, 1, 17},  {31, 89, 1}};
  const std::vector<std::pair<const char*, const DeviceModel*>> devices = {
      {"geforce9800", &geforce_9800()},
      {"gtx285", &gtx285()},
      {"fermi", &fermi_c2050()}};
  for (const auto& [dev_name, dev] : devices) {
    ir::Program p = tuned_program(v);
    for (const auto& [m, n, k] : shapes) {
      RunOptions opts;
      opts.int_params = v.family == blas3::Family::kGemm
                            ? ir::Env{{"M", m}, {"N", n}, {"K", k}}
                            : ir::Env{{"M", m}, {"N", n}};

      Simulator sim(*dev);
      opts.fastpath = true;
      auto fast = sim.run_performance(p, opts);
      opts.fastpath = false;
      auto interp = sim.run_performance(p, opts);
      ASSERT_EQ(fast.is_ok(), interp.is_ok())
          << dev_name << " " << m << "x" << n << "x" << k;
      if (!fast.is_ok()) continue;

      EXPECT_TRUE(fast->counters == interp->counters)
          << dev_name << " " << m << "x" << n << "x" << k << "\nfast:   "
          << fast->counters.to_string()
          << "\ninterp: " << interp->counters.to_string();
      ASSERT_EQ(fast->kernels.size(), interp->kernels.size());
      for (size_t i = 0; i < fast->kernels.size(); ++i) {
        EXPECT_TRUE(fast->kernels[i].counters ==
                    interp->kernels[i].counters)
            << dev_name << " " << m << "x" << n << "x" << k << " kernel "
            << fast->kernels[i].name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, FastPathEquivalenceRect,
    ::testing::ValuesIn(blas3::all_variants()),
    [](const ::testing::TestParamInfo<blas3::Variant>& info) {
      std::string name = info.param.name();
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- Per-execution lane decompositions -----------------------------
//
// The executor binds a loop variable's lane coefficients on each
// execution of its loop, from the lb term that binds for the block (a
// conditionally affine variable such as TRMM's `k = max(j, kk)`), and
// runs a loop in lockstep whenever ub - lb of the binding terms takes
// one value over the simulated lanes. The cases below pin both rules.

const std::vector<std::pair<const char*, const DeviceModel*>>& devices() {
  static const std::vector<std::pair<const char*, const DeviceModel*>> d =
      {{"geforce9800", &geforce_9800()},
       {"gtx285", &gtx285()},
       {"fermi", &fermi_c2050()}};
  return d;
}

/// TRMM-RL-N tiled and padded; without blank_zero the unpadded version
/// runs, whose reduction loop is `k = max(j, kk)`.
ir::Program padded_trmm(int64_t threads_y, int64_t threads_x) {
  ir::Program p =
      blas3::make_source_program(*blas3::find_variant("TRMM-RL-N"));
  transforms::TransformContext ctx;
  ctx.params.block_tile_y = 64;
  ctx.params.block_tile_x = 64;
  ctx.params.threads_y = threads_y;
  ctx.params.threads_x = threads_x;
  ctx.params.k_tile = 16;
  ctx.params.unroll = 4;
  auto script = epod::parse_script(R"(
    (Lii, Ljj) = thread_grouping(Li, Lj);
    (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
    padding_triangular(A);
    SM_alloc(B, Transpose);
    reg_alloc(C);
  )");
  EXPECT_TRUE(script.is_ok());
  auto mask = epod::apply_script_lenient(p, *script, ctx);
  EXPECT_TRUE(mask.is_ok());
  return p;
}

// With 16x16 threads `j` varies along tx, so the term of
// `k = max(j, kk)` that binds changes from one k tile to the next. With
// threads=(64,1) tx is always 0, so binding terms that differ in their
// tx coefficient still give every lane one trip count. Per case (the
// same on every device), the fast path handed `interp_before`
// statement executions back to the interpreter before either rule,
// and hands back at most `interp_max` with both; without the
// trip-count rule the (64,1) cases leave 3862 and 2876.
TEST(FastPathTriangular, UnpaddedTrmmPricesAnalytically) {
  struct Case {
    int64_t threads_y, threads_x, n, interp_before, interp_max;
  };
  const Case cases[] = {{16, 16, 75, 4208, 3680},
                        {16, 16, 128, 6176, 4128},
                        {64, 1, 75, 6106, 3256},
                        {64, 1, 128, 8512, 256}};
  for (const Case& c : cases) {
    const ir::Program p = padded_trmm(c.threads_y, c.threads_x);
    for (const auto& [dev_name, dev] : devices()) {
      const std::string label = std::string(dev_name) + " threads=(" +
                                std::to_string(c.threads_y) + "," +
                                std::to_string(c.threads_x) +
                                ") N=" + std::to_string(c.n);
      RunOptions opts;
      opts.int_params = {{"M", c.n}, {"N", c.n}};  // blank_zero off
      Simulator sim(*dev);
      opts.fastpath = true;
      auto fast = sim.run_performance(p, opts);
      opts.fastpath = false;
      auto interp = sim.run_performance(p, opts);
      ASSERT_TRUE(fast.is_ok()) << label << ": " << fast.status().to_string();
      ASSERT_TRUE(interp.is_ok()) << label;
      EXPECT_TRUE(fast->counters == interp->counters)
          << label << "\nfast:   " << fast->counters.to_string()
          << "\ninterp: " << interp->counters.to_string();
      EXPECT_LT(fast->fastpath.interp_statements, c.interp_before) << label;
      EXPECT_LE(fast->fastpath.interp_statements, c.interp_max) << label;
    }
  }
}

/// One block of bx x by threads (`tx`, `ty`) over a global G with
/// `rows` x 64 elements; `body` is the kernel's sequential region.
ir::Program crafted(int64_t rows, int64_t bx, int64_t by,
                    std::vector<NodePtr> body) {
  ir::Program p;
  p.name = "crafted";
  p.globals = {{"G", ir::MemSpace::kGlobal, AffineExpr(rows),
                AffineExpr(64), 0}};
  auto tx = ir::make_loop("Ltx", "tx", Bound(0), Bound(AffineExpr(bx)));
  tx->map = ir::LoopMap::kThreadX;
  tx->body = std::move(body);
  auto ty = ir::make_loop("Lty", "ty", Bound(0), Bound(AffineExpr(by)));
  ty->map = ir::LoopMap::kThreadY;
  ty->body.push_back(std::move(tx));
  auto blk = ir::make_loop("Lby", "by", Bound(0), Bound(AffineExpr(1)));
  blk->map = ir::LoopMap::kBlockY;
  blk->body.push_back(std::move(ty));
  ir::Kernel k;
  k.name = "main";
  k.body.push_back(std::move(blk));
  p.kernels.push_back(std::move(k));
  return p;
}

/// G[row][col] += 1 (a load and a store of one element).
NodePtr bump(AffineExpr row, AffineExpr col) {
  return ir::make_assign(ir::ArrayRef{"G", {row, col}},
                         ir::AssignOp::kAddAssign, ir::make_const(1.0));
}

NodePtr loop(const char* var, Bound lb, Bound ub, NodePtr stmt) {
  auto l = ir::make_loop(std::string("L") + var, var, std::move(lb),
                         std::move(ub));
  l->body.push_back(std::move(stmt));
  return l;
}

struct SliceRun {
  Status status;
  Counters counters;
  FastPathStats stats;
};

/// Ghost-mode pricing of lanes [l0, l1) of the program's one block.
SliceRun run_slice(const ir::Program& p, const DeviceModel& dev, int l0,
                   int l1, bool fastpath) {
  auto ck = compile_kernel(p, p.main_kernel(), {}, {});
  EXPECT_TRUE(ck.is_ok()) << ck.status().to_string();
  BlockSim sim(*ck, dev, /*functional=*/false, nullptr, fastpath);
  SliceRun out;
  out.status = sim.run(0, 0, l0, l1, out.counters);
  out.stats = sim.fastpath_stats();
  return out;
}

/// Fast path against interpreter on one slice: the same outcome, and
/// bit-identical counters when both succeed.
SliceRun expect_equivalent(const ir::Program& p, int l0, int l1,
                           const std::string& label) {
  SliceRun fast;
  for (const auto& [dev_name, dev] : devices()) {
    fast = run_slice(p, *dev, l0, l1, /*fastpath=*/true);
    const SliceRun interp = run_slice(p, *dev, l0, l1, /*fastpath=*/false);
    EXPECT_EQ(fast.status.is_ok(), interp.status.is_ok())
        << label << " on " << dev_name << ": fast "
        << fast.status.to_string() << ", interp "
        << interp.status.to_string();
    if (fast.status.is_ok() && interp.status.is_ok()) {
      EXPECT_TRUE(fast.counters == interp.counters)
          << label << " on " << dev_name << "\nfast:   "
          << fast.counters.to_string()
          << "\ninterp: " << interp.counters.to_string();
    }
  }
  return fast;
}

// `k` from ty to 2*ty + 3: the binding terms differ only in their ty
// coefficient. On the warp slice [96, 128) of a 32x4 block every lane
// sits in row ty = 3, so every lane runs 3 + 3 trips — the constant
// lane offset is part of the trip count.
TEST(FastPathLaneOffset, TripCountIncludesTheFixedAxisOffset) {
  const auto k_loop = [](AffineExpr row) {
    return loop("k", Bound(AffineExpr::sym("ty")),
                Bound(AffineExpr::sym("ty", 2) + 3),
                bump(std::move(row), AffineExpr::sym("tx")));
  };
  std::vector<NodePtr> body;
  body.push_back(k_loop(AffineExpr::sym("k")));
  const SliceRun plain =
      expect_equivalent(crafted(16, 32, 4, std::move(body)), 96, 128,
                        "lane-offset loop");
  ASSERT_TRUE(plain.status.is_ok());
  EXPECT_EQ(plain.stats.interp_statements, 0);

  // The same loop inside a collapsed loop over r: the collapse proof
  // must also count the offset trips. Row k + 32*r peaks at 8 + 96 on
  // the last trip, so 105 rows hold every access and 104 rows miss the
  // last one — which the collapse must not skip over.
  for (const int64_t rows : {105, 104}) {
    std::vector<NodePtr> nest;
    nest.push_back(loop("r", Bound(0), Bound(AffineExpr(4)),
                        k_loop(AffineExpr::sym("k") +
                               AffineExpr::sym("r", 32))));
    const SliceRun run = expect_equivalent(
        crafted(rows, 32, 4, std::move(nest)), 96, 128,
        "collapsed lane-offset loop, rows=" + std::to_string(rows));
    EXPECT_EQ(run.status.is_ok(), rows == 105);
    if (rows == 105) {
      EXPECT_EQ(run.stats.collapsed_loops, 1);
    }
  }
}

// A collapsed loop over r whose body holds a conditionally affine loop
// `k = max(tx + c, ...)`: the collapse proof must price k's references
// with the coefficients of the term that binds (tx's, here), or refuse.
// Each shape is run with just enough rows, and with one row too few on
// the collapsed loop's last trip only.
TEST(FastPathNestedCollapse, ConditionalLoopInsideACollapse) {
  const auto row = [] {
    return AffineExpr::sym("k") + AffineExpr::sym("r", 32);
  };
  // Uniform-component bounds are points: the binding term is resolved
  // exactly, k = tx.
  const auto points = [&] {
    Bound lb(AffineExpr::sym("tx"));
    lb.add_term(AffineExpr(0));
    return loop("k", std::move(lb), Bound(AffineExpr::sym("tx") + 1),
                bump(row(), AffineExpr(0)));
  };
  // A bound over the nested m makes the terms intervals: the proof
  // cannot tell which term binds (tx + 5 does, for every m).
  const auto intervals = [&] {
    Bound lb(AffineExpr::sym("tx") + 5);
    lb.add_term(AffineExpr::sym("m"));
    return loop("m", Bound(0), Bound(AffineExpr(2)),
                loop("k", std::move(lb), Bound(AffineExpr::sym("tx") + 6),
                     bump(row(), AffineExpr(0))));
  };
  struct Shape {
    const char* name;
    std::function<NodePtr()> inner;
    int64_t rows;  // just enough: the last trip's peak row + 1
    int64_t collapsed;
  };
  const Shape shapes[] = {{"points", points, 31 + 96 + 1, 1},
                          {"intervals", intervals, 36 + 96 + 1, 0}};
  for (const Shape& shape : shapes) {
    for (const int64_t rows : {shape.rows, shape.rows - 1}) {
      std::vector<NodePtr> body;
      body.push_back(loop("r", Bound(0), Bound(AffineExpr(4)), shape.inner()));
      const SliceRun run = expect_equivalent(
          crafted(rows, 32, 1, std::move(body)), 0, 32,
          std::string(shape.name) + " rows=" + std::to_string(rows));
      EXPECT_EQ(run.status.is_ok(), rows == shape.rows) << shape.name;
      if (rows == shape.rows) {
        EXPECT_EQ(run.stats.interp_statements, 0) << shape.name;
        EXPECT_EQ(run.stats.collapsed_loops, shape.collapsed) << shape.name;
      }
    }
  }
}

// Beyond the fixed per-family schedules: a seeded batch of fuzzer-made
// schedule/params/shape combinations, each cross-checked fast vs
// interpreter by the verify harness. Deterministic — the same cases
// oacheck --seed 7 --check fastpath would run.
TEST(FastPathFuzzedSchedules, SeededCampaignNoDivergence) {
  verify::HarnessOptions options;
  options.seed = 7;
  options.cases = 96;
  options.fuzzer.differential = false;
  options.fuzzer.roundtrip = false;
  options.fuzzer.mutation = false;
  options.fuzzer.fastpath = true;
  verify::Harness harness(gtx285(), options);
  const verify::Report report = harness.run();
  EXPECT_TRUE(report.ok()) << report.summary();
  for (const verify::CaseResult& r : report.results) {
    EXPECT_NE(r.verdict, verify::Verdict::kFail)
        << r.fuzz.to_string() << " | " << r.detail;
  }
}

}  // namespace
}  // namespace oa::gpusim
