// The oacheck campaign behind the verify layer's per-layer metrics, run
// by generate's traced runs after the timed phase: one rotation of a
// verify::Harness with default options, seeded by --seed, running
// run_case(fuzzer().make_case(i)) over fuzz indices i that never repeat
// inside the process (checks.cpp keeps a process-wide ExecCache, so a
// repeated case would only measure a cache hit).
//
// The fuzzer draws each case's check kind at random, and the kinds cost
// from microseconds (mutation) to tens of milliseconds (native), so the
// client takes the cases in a fixed (kind, variant) rotation and skips
// the others (CaseStream): every kind and variant is covered equally.
//
// The campaign is not a workload of its own: its timings followed the
// shared host's load far more than serve's or generate's (README.md,
// "Noise lessons").
#include <cstdio>

#include "blas3/routine.hpp"
#include "common.hpp"
#include "support/hash.hpp"
#include "verify/harness.hpp"

namespace oabench {
namespace {

using namespace oa;

constexpr verify::CheckKind kKinds[] = {
    verify::CheckKind::kDifferential, verify::CheckKind::kNative,
    verify::CheckKind::kFastPath, verify::CheckKind::kRoundTrip,
    verify::CheckKind::kMutation};

/// The op sequence: op j checks kind kKinds[j % 5] on catalog slot
/// (j / 5) % 64, so every rotation of 320 ops covers each (kind, variant)
/// pair once. The fuzzer gives index i the variant in slot i % 64, so op
/// j takes the next unused index of its slot whose drawn kind matches.
/// Indices never repeat: each slot's cursor only moves forward.
class CaseStream {
 public:
  explicit CaseStream(const verify::ScriptFuzzer& fuzzer)
      : fuzzer_(fuzzer),
        cursor_(blas3::all_variants().size() +
                blas3::batched_variants().size()) {}

  uint64_t rotation_ops() const { return std::size(kKinds) * cursor_.size(); }

  uint64_t index_for(uint64_t op) {
    const verify::CheckKind kind = kKinds[op % std::size(kKinds)];
    const uint64_t slots = cursor_.size();
    const uint64_t slot = (op / std::size(kKinds)) % slots;
    for (;;) {
      const uint64_t index = slot + slots * cursor_[slot]++;
      if (fuzzer_.make_case(index).kind == kind) return index;
    }
  }

 private:
  const verify::ScriptFuzzer& fuzzer_;
  std::vector<uint64_t> cursor_;
};

}  // namespace

void run_check_campaign(uint64_t seed, Tracer& tracer, Outcome& out) {
  verify::HarnessOptions options;
  options.seed = seed;
  const verify::Harness harness(gpusim::gtx285(), options);
  CaseStream stream(harness.fuzzer());
  Samples layer;
  uint64_t by_verdict[3] = {0, 0, 0};
  Fingerprint seq_fp;
  const uint64_t cases = stream.rotation_ops();
  for (uint64_t i = 0; i < cases; ++i) {
    const int64_t op = static_cast<int64_t>(i);
    const uint64_t index = stream.index_for(i);
    Tracer::Scope case_span(&tracer, "verify.case", op);
    verify::FuzzCase c;
    {
      Tracer::Scope span(&tracer, "verify.make_case", op);
      c = harness.fuzzer().make_case(index);
      layer.add("make_us", span.close() * 1e3);
    }
    Tracer::Scope run_span(
        &tracer,
        std::string("verify.run_case.") + verify::check_kind_name(c.kind), op);
    const verify::CaseResult r = harness.run_case(c);
    layer.add(std::string("case.") + verify::check_kind_name(c.kind),
              run_span.close());
    case_span.close();

    ++by_verdict[static_cast<int>(r.verdict)];
    if (r.verdict == verify::Verdict::kFail) {
      std::fprintf(stderr, "check: FAIL %s | %s\n", c.to_string().c_str(),
                   r.detail.c_str());
    }
    seq_fp.mix(std::string_view(c.to_string()));
    seq_fp.mix(static_cast<int>(r.verdict));
  }

  // Every case is an op of the traced run; a FAIL verdict fails it.
  out.attempted += static_cast<int64_t>(cases);
  out.failed += static_cast<int64_t>(by_verdict[2]);
  out.ok += static_cast<int64_t>(cases - by_verdict[2]);

  const double rejected_share =
      static_cast<double>(by_verdict[1]) / static_cast<double>(cases);
  Metrics& l = out.per_layer;
  set(l, "verify.make_case_us", layer.median_of("make_us"), "us");
  for (verify::CheckKind kind : kKinds) {
    const std::string name = verify::check_kind_name(kind);
    set(l, "verify.case_ms." + name, layer.median_of("case." + name), "ms");
  }
  set(l, "verify.rejected_share", rejected_share, "ratio");

  out.determinism["verify.sequence"] = std::to_string(seq_fp.digest());
  out.determinism["verify.rejected_share"] = exact(rejected_share);
  std::fprintf(stderr, "check: %llu cases: %llu pass, %llu rejected, %llu "
               "FAIL\n",
               static_cast<unsigned long long>(cases),
               static_cast<unsigned long long>(by_verdict[0]),
               static_cast<unsigned long long>(by_verdict[1]),
               static_cast<unsigned long long>(by_verdict[2]));
}

}  // namespace oabench
