// The five cross-checks of the oacheck harness. Each takes one
// ScriptFuzzer case and answers with a three-way verdict:
//
//   kPass     — the property held;
//   kRejected — the case degenerated through an *expected* Status path
//               (a component refused to apply everywhere, the program
//               failed ir::validate, the engine itself would reject the
//               composition at any size) — mirrors the composer's
//               filter semantics, not a bug;
//   kFail     — a real divergence: transformed kernel disagrees with
//               blas3::reference on a shape the engine would accept,
//               serializer round trip is not the identity, a corrupted
//               input crashed instead of Status-ing, or fast-path
//               counters differ from the interpreter's.
//
// Every detail string is deterministic (no pointers, no wall clock) so
// two same-seed harness runs produce byte-identical reports.
#pragma once

#include <string>

#include "gpusim/simulator.hpp"
#include "verify/fuzzer.hpp"

namespace oa::verify {

enum class Verdict { kPass, kRejected, kFail };

const char* verdict_name(Verdict v);

struct CheckResult {
  Verdict verdict = Verdict::kPass;
  std::string detail;  // deterministic, printable one-liner
};

/// Dispatch on c.kind.
CheckResult check_case(const gpusim::Simulator& sim, const FuzzCase& c);

/// (1) Differential numerics: apply the fuzzed script leniently (like
/// the engine), run the kernel functionally at the fuzzed rectangular
/// shape, compare against blas3::run_reference (a loop of per-member
/// references for the batched families). Candidates execute through
/// the native exec backend; the interpreter runs one only when lowering
/// refuses it (the interpreter is the oracle for a raw fuzzed
/// composition; the runtime instead refuses an entry that does not
/// lower when it loads) and arbitrates result divergences. A mismatch
/// only fails the case when the same program *passes* the engine's
/// standard square verification — i.e. when the library would have
/// shipped this kernel and then served a wrong answer at this shape.
CheckResult check_differential(const gpusim::Simulator& sim,
                               const FuzzCase& c);

/// (2) Round trip: epod::parse(to_text(s)) == s (and re-serializes to
/// identical bytes), plus the same property for the one-entry synthetic
/// .oalib artifact wrapping the case.
CheckResult check_roundtrip(const FuzzCase& c);

/// (3) Mutation robustness: the corrupted payload must produce either a
/// clean parse or a Status error — and anything *accepted* must itself
/// be round-trip stable (parsers may normalize, but only once).
CheckResult check_mutation(const FuzzCase& c);

/// (4) Fast path: gpusim performance counters with fastpath on vs off
/// must be bit-identical (per-run and per-kernel) on the fuzzed
/// schedule, extending the tuned/baseline corpus of
/// fastpath_equivalence_test.
CheckResult check_fastpath(const gpusim::Simulator& sim, const FuzzCase& c);

/// (5) Native execution: the exec backend (lowered tapes, JIT where
/// the host supports it) must compute the same result as the lockstep
/// interpreter on the fuzzed schedule and shape — bit-identical for
/// race-free kernels; a divergence is tolerated only when *both*
/// backends stay within the reference tolerance (the lane-order
/// freedom a racy kernel legitimately exposes). A kernel the backend
/// cannot lower (barrier under lane-divergent control flow) rejects,
/// as the runtime refuses such an entry when it loads.
CheckResult check_native(const gpusim::Simulator& sim, const FuzzCase& c);

}  // namespace oa::verify
