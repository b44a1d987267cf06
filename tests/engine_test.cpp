#include <gtest/gtest.h>

#include "blas3/routine.hpp"
#include "engine/evaluation_engine.hpp"
#include "epod/script.hpp"
#include "gpusim/simulator.hpp"
#include "ir/printer.hpp"
#include "oa/oa.hpp"
#include "tuner/tuner.hpp"

namespace oa::engine {
namespace {

using blas3::find_variant;
using blas3::Variant;

EvalConfig quick_config() {
  EvalConfig cfg;
  cfg.target_size = 256;
  cfg.verify_size = 48;
  return cfg;
}

composer::Candidate gemm_candidate() {
  composer::Candidate c;
  c.script = epod::gemm_nn_script();
  return c;
}

transforms::TuningParams volkov_point() {
  transforms::TuningParams p;
  p.block_tile_y = 64;
  p.block_tile_x = 16;
  p.threads_y = 64;
  p.threads_x = 1;
  p.k_tile = 16;
  p.unroll = 4;
  return p;
}

void expect_identical(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.gflops, b.gflops);
  EXPECT_EQ(a.applied_mask, b.applied_mask);
  EXPECT_EQ(a.params.to_string(), b.params.to_string());
  EXPECT_EQ(a.candidate.script.to_string(), b.candidate.script.to_string());
  EXPECT_EQ(a.counters.instructions, b.counters.instructions);
  EXPECT_EQ(a.counters.flops, b.counters.flops);
  EXPECT_EQ(a.counters.global_bytes, b.counters.global_bytes);
  EXPECT_EQ(a.counters.shared_load, b.counters.shared_load);
  EXPECT_EQ(a.counters.gld_coherent, b.counters.gld_coherent);
  EXPECT_EQ(a.counters.gld_incoherent, b.counters.gld_incoherent);
  EXPECT_EQ(ir::to_string(a.program), ir::to_string(b.program));
}

TEST(Fingerprints, StableAndSensitive) {
  composer::Candidate c = gemm_candidate();
  EXPECT_EQ(c.fingerprint(), gemm_candidate().fingerprint());
  composer::Candidate other = c;
  other.conditions.push_back("blank(A).zero = true");
  EXPECT_NE(c.fingerprint(), other.fingerprint());

  epod::Script s = c.script;
  EXPECT_EQ(s.fingerprint(), c.script.fingerprint());
  s.invocations.pop_back();
  EXPECT_NE(s.fingerprint(), c.script.fingerprint());

  transforms::TuningParams p = volkov_point();
  EXPECT_EQ(p.fingerprint(), volkov_point().fingerprint());
  p.unroll = 16;
  EXPECT_NE(p.fingerprint(), volkov_point().fingerprint());
}

TEST(Cache, HitIsBitwiseIdenticalToFreshEvaluation) {
  gpusim::Simulator sim(gpusim::gtx285());
  EvaluationEngine eng(sim);
  auto first = eng.evaluate(*find_variant("GEMM-NN"), gemm_candidate(),
                            volkov_point(), quick_config());
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_FALSE(first->from_cache);

  auto second = eng.evaluate(*find_variant("GEMM-NN"), gemm_candidate(),
                             volkov_point(), quick_config());
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(second->from_cache);
  expect_identical(*first, *second);

  EngineStats stats = eng.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.evaluations, 1u);
  EXPECT_GT(stats.hit_rate(), 0.0);
}

TEST(Cache, KeyedByDeviceParamsAndConfig) {
  gpusim::Simulator s285(gpusim::gtx285());
  EvaluationEngine eng(s285);
  const Variant& v = *find_variant("GEMM-NN");
  ASSERT_TRUE(
      eng.evaluate(v, gemm_candidate(), volkov_point(), quick_config())
          .is_ok());

  // Different params and different target size are distinct entries.
  transforms::TuningParams p2 = volkov_point();
  p2.unroll = 16;
  ASSERT_TRUE(
      eng.evaluate(v, gemm_candidate(), p2, quick_config()).is_ok());
  EvalConfig big = quick_config();
  big.target_size = 512;
  ASSERT_TRUE(
      eng.evaluate(v, gemm_candidate(), volkov_point(), big).is_ok());
  EXPECT_EQ(eng.stats().cache_hits, 0u);
  EXPECT_EQ(eng.cache_size(), 3u);

  // Verification is shared across points with the same applied mask.
  EXPECT_EQ(eng.stats().verify_runs, 1u);
  EXPECT_EQ(eng.stats().verify_reused, 2u);
}

TEST(Cache, NegativeOutcomesAreMemoized) {
  gpusim::Simulator sim(gpusim::gtx285());
  EvaluationEngine eng(sim);
  const Variant& v = *find_variant("GEMM-NN");
  // A launchable-looking point that cannot fit: giant shared tile.
  transforms::TuningParams bad;
  bad.block_tile_y = 64;
  bad.block_tile_x = 64;
  bad.threads_y = 8;
  bad.threads_x = 8;
  bad.k_tile = 32;
  bad.unroll = 1;
  auto first = eng.evaluate(v, gemm_candidate(), bad, quick_config());
  auto second = eng.evaluate(v, gemm_candidate(), bad, quick_config());
  EXPECT_EQ(first.is_ok(), second.is_ok());
  if (!first.is_ok()) {
    EXPECT_EQ(first.status().code(), second.status().code());
    EXPECT_EQ(eng.stats().cache_hits, 1u);
  }
}

TEST(Cache, DisabledEngineAlwaysEvaluates) {
  gpusim::Simulator sim(gpusim::gtx285());
  EngineOptions opts;
  opts.cache_enabled = false;
  EvaluationEngine eng(sim, opts);
  const Variant& v = *find_variant("GEMM-NN");
  ASSERT_TRUE(
      eng.evaluate(v, gemm_candidate(), volkov_point(), quick_config())
          .is_ok());
  ASSERT_TRUE(
      eng.evaluate(v, gemm_candidate(), volkov_point(), quick_config())
          .is_ok());
  EXPECT_EQ(eng.stats().cache_hits, 0u);
  EXPECT_EQ(eng.stats().evaluations, 2u);
  EXPECT_EQ(eng.cache_size(), 0u);
}

TEST(Batch, ResultsComeBackInRequestOrder) {
  gpusim::Simulator sim(gpusim::gtx285());
  EvaluationEngine eng(sim);
  const Variant& v = *find_variant("GEMM-NN");
  std::vector<EvaluationEngine::Point> points;
  for (int unroll : {1, 4, 16}) {
    EvaluationEngine::Point pt;
    pt.candidate = gemm_candidate();
    pt.params = volkov_point();
    pt.params.unroll = unroll;
    points.push_back(std::move(pt));
  }
  auto results = eng.evaluate_batch(v, points, quick_config());
  ASSERT_EQ(results.size(), points.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].is_ok()) << results[i].status().to_string();
    EXPECT_EQ(results[i]->params.unroll, points[i].params.unroll);
  }
}

// The acceptance property of the engine refactor: a parallel search
// must pick exactly the winner the serial search picks, for both a
// plain and a structured routine, on two device presets.
TEST(ParallelEqualsSerial, SameBestVariantAcrossDevices) {
  for (const gpusim::DeviceModel* device :
       {&gpusim::gtx285(), &gpusim::geforce_9800()}) {
    for (const char* name : {"GEMM-NN", "SYMM-LL"}) {
      OaFramework framework(*device, {});
      const Variant& v = *find_variant(name);
      auto candidates = framework.candidates_for(v);
      ASSERT_TRUE(candidates.is_ok()) << name;

      tuner::TuneOptions topt;
      topt.target_size = 256;
      topt.verify_size = 48;

      topt.jobs = 1;
      tuner::Tuner serial(framework.simulator(), topt);
      auto serial_best = serial.tune(v, *candidates);
      ASSERT_TRUE(serial_best.is_ok())
          << device->name << "/" << name << ": "
          << serial_best.status().to_string();

      topt.jobs = 0;  // hardware_concurrency
      tuner::Tuner parallel(framework.simulator(), topt);
      auto parallel_best = parallel.tune(v, *candidates);
      ASSERT_TRUE(parallel_best.is_ok())
          << device->name << "/" << name << ": "
          << parallel_best.status().to_string();

      expect_identical(*serial_best, *parallel_best);
    }
  }
}

TEST(LineSearchRounds, SecondRoundNeverWorseAndStopsEarly) {
  gpusim::Simulator sim(gpusim::gtx285());
  tuner::TuneOptions one;
  one.target_size = 256;
  one.verify_size = 48;
  one.line_search_rounds = 1;
  tuner::Tuner single(sim, one);
  auto single_best =
      single.tune(*find_variant("GEMM-NN"), {gemm_candidate()});
  ASSERT_TRUE(single_best.is_ok());

  tuner::TuneOptions many = one;
  many.line_search_rounds = 4;
  tuner::Tuner multi(sim, many);
  auto multi_best =
      multi.tune(*find_variant("GEMM-NN"), {gemm_candidate()});
  ASSERT_TRUE(multi_best.is_ok());
  EXPECT_LE(multi_best->seconds, single_best->seconds);
  // The early-stop keeps rounds 3/4 from re-simulating anything: every
  // later round's points either were tried or hit the cache, so the
  // engine ran strictly fewer simulations than 4x the single-round
  // count.
  EXPECT_LT(multi.engine().stats().evaluations,
            4 * single.engine().stats().evaluations);
}

TEST(SharedEngine, CrossVariantCacheCarriesOver) {
  gpusim::Simulator sim(gpusim::gtx285());
  EvaluationEngine shared(sim);
  tuner::TuneOptions topt;
  topt.target_size = 256;
  topt.verify_size = 48;
  tuner::Tuner first(shared, topt);
  ASSERT_TRUE(
      first.tune(*find_variant("GEMM-NN"), {gemm_candidate()}).is_ok());
  const uint64_t evals_before = shared.stats().evaluations;
  EXPECT_GT(evals_before, 0u);

  // Same variant + candidate again through a *new* tuner: everything
  // hits the shared cache, nothing re-simulates.
  tuner::Tuner second(shared, topt);
  ASSERT_TRUE(
      second.tune(*find_variant("GEMM-NN"), {gemm_candidate()}).is_ok());
  EXPECT_EQ(shared.stats().evaluations, evals_before);
  EXPECT_GT(shared.stats().cache_hits, 0u);
}

TEST(EngineStats, ReportsBreakdown) {
  gpusim::Simulator sim(gpusim::gtx285());
  EvaluationEngine eng(sim);
  ASSERT_TRUE(eng.evaluate(*find_variant("GEMM-NN"), gemm_candidate(),
                           volkov_point(), quick_config())
                  .is_ok());
  EngineStats stats = eng.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_GT(stats.simulate_seconds, 0.0);
  EXPECT_GT(stats.verify_seconds, 0.0);
  const std::string text = stats.to_string();
  EXPECT_NE(text.find("hit rate"), std::string::npos);
  EXPECT_NE(text.find("simulate"), std::string::npos);

  eng.reset_stats();
  EXPECT_EQ(eng.stats().requests, 0u);
  eng.clear_cache();
  EXPECT_EQ(eng.cache_size(), 0u);
}

TEST(EngineStats, FastPathCoverageSplitsByVariant) {
  gpusim::Simulator sim(gpusim::gtx285());
  EvaluationEngine eng(sim);
  for (const char* name : {"GEMM-NN", "DGEMM-NN"}) {
    ASSERT_TRUE(eng.evaluate(*find_variant(name), gemm_candidate(),
                             volkov_point(), quick_config())
                    .is_ok());
  }
  const EngineStats stats = eng.stats();
  ASSERT_EQ(stats.fastpath_by_variant.size(), 2u);
  gpusim::FastPathStats sum;
  for (const auto& [name, fp] : stats.fastpath_by_variant) {
    EXPECT_GT(fp.fast_statements, 0) << name;
    sum += fp;
  }
  EXPECT_EQ(sum.fast_statements, stats.fastpath.fast_statements);
  EXPECT_EQ(sum.interp_statements, stats.fastpath.interp_statements);
  // Printed beside the variant's simulate line.
  const std::string text = stats.to_string();
  const size_t line = text.find("simulate DGEMM-NN");
  ASSERT_NE(line, std::string::npos);
  EXPECT_NE(text.substr(line, text.find('\n', line) - line).find("fastpath"),
            std::string::npos);

  eng.reset_stats();
  EXPECT_TRUE(eng.stats().fastpath_by_variant.empty());
}

}  // namespace
}  // namespace oa::engine
