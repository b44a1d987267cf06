#include "verify/checks.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "blas3/call_shape.hpp"
#include "blas3/matrix.hpp"
#include "blas3/reference.hpp"
#include "blas3/source_ir.hpp"
#include "engine/evaluation_engine.hpp"
#include "epod/script.hpp"
#include "ir/validate.hpp"
#include "exec/executor.hpp"
#include "libgen/artifact.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace oa::verify {
namespace {

using blas3::Matrix;

/// Detail strings end up in reports and corpus files: keep them one
/// line, printable, and bounded (mutation payload bytes and parser
/// messages quoting them can contain anything).
std::string sanitize(std::string_view text) {
  std::string out;
  const size_t limit = 200;
  for (char ch : text.substr(0, limit)) {
    const auto u = static_cast<unsigned char>(ch);
    out.push_back(u >= 32 && u < 127 ? ch : '.');
  }
  if (text.size() > limit) out += "...";
  return out;
}

/// The engine's apply stage: lenient script application (filter
/// semantics) followed by the composer's final ir::validate gate.
/// A non-OK outcome is an expected degeneration, never a finding.
StatusOr<uint64_t> apply_like_engine(ir::Program& program,
                                     const FuzzCase& c) {
  transforms::TransformContext ctx;
  ctx.params = c.params;
  OA_ASSIGN_OR_RETURN(const uint64_t mask,
                      epod::apply_script_lenient(program, c.script, ctx));
  OA_RETURN_IF_ERROR(ir::validate(program));
  return mask;
}

/// Exact per-field counter diff (Counters::to_string rounds to
/// millions, which can hide a low-digit divergence entirely).
std::string counter_diff(const gpusim::Counters& fast,
                         const gpusim::Counters& interp) {
  struct Field {
    const char* name;
    int64_t gpusim::Counters::* member;
  };
  static const Field kFields[] = {
      {"gld_coherent", &gpusim::Counters::gld_coherent},
      {"gld_incoherent", &gpusim::Counters::gld_incoherent},
      {"gst_coherent", &gpusim::Counters::gst_coherent},
      {"gst_incoherent", &gpusim::Counters::gst_incoherent},
      {"gld_request", &gpusim::Counters::gld_request},
      {"gst_request", &gpusim::Counters::gst_request},
      {"local_read", &gpusim::Counters::local_read},
      {"local_store", &gpusim::Counters::local_store},
      {"instructions", &gpusim::Counters::instructions},
      {"shared_load", &gpusim::Counters::shared_load},
      {"shared_store", &gpusim::Counters::shared_store},
      {"shared_bank_conflict_replays",
       &gpusim::Counters::shared_bank_conflict_replays},
      {"global_bytes", &gpusim::Counters::global_bytes},
      {"flops", &gpusim::Counters::flops},
      {"barriers", &gpusim::Counters::barriers},
  };
  std::string out;
  for (const Field& f : kFields) {
    const int64_t a = fast.*(f.member);
    const int64_t b = interp.*(f.member);
    if (a == b) continue;
    if (!out.empty()) out += ", ";
    out += str_format("%s fast=%lld interp=%lld", f.name,
                      static_cast<long long>(a), static_cast<long long>(b));
  }
  return out;
}

/// The fuzzed problem as a call: M/N from the case, K its reduction
/// length (the side's extent for SYMM/TRMM/TRSM, which drives the
/// precision-scaled accumulation tolerance), one member for every
/// single variant.
blas3::CallShape case_shape(const FuzzCase& c) {
  const int64_t count = c.variant.batch == blas3::Batch::kSingle
                            ? 1
                            : std::max<int64_t>(c.batch, 1);
  return blas3::CallShape(c.variant, c.m, c.n, c.k, count);
}

/// One operand set per batch member, prepared exactly like
/// engine::verify_program (triangular blanking, TRSM conditioning) at
/// the fuzzed rectangular shape. All members draw from one sequential
/// rng stream, so member 0 of a batched case — and the single member of
/// a batch-1 case — reproduces the byte-exact data the pre-batched
/// checks used.
struct CaseInputs {
  std::vector<Matrix> a, b, c;
};

CaseInputs make_inputs(const FuzzCase& c) {
  const bool gemm = c.variant.family == blas3::Family::kGemm;
  const bool trsm = c.variant.family == blas3::Family::kTrsm;
  const blas3::CallShape shape = case_shape(c);
  const int64_t m = shape.m();
  const int64_t n = shape.n();
  const int64_t k = shape.k();
  const Precision p = c.variant.precision;
  Rng rng(Fingerprint()
              .mix(c.seed)
              .mix(c.index)
              .mix(std::string_view("oacheck.data"))
              .digest());
  CaseInputs in;
  for (int64_t i = 0; i < shape.count(); ++i) {
    Matrix a = gemm ? (c.variant.trans_a == blas3::Trans::kN
                           ? Matrix(m, k, p)
                           : Matrix(k, m, p))
                    : Matrix(k, k, p);
    Matrix b = gemm ? (c.variant.trans_b == blas3::Trans::kN
                           ? Matrix(k, n, p)
                           : Matrix(n, k, p))
                    : Matrix(m, n, p);
    Matrix out_c(m, n, p);
    a.fill_random(rng);
    b.fill_random(rng);
    if (c.variant.family == blas3::Family::kTrmm || trsm ||
        c.variant.family == blas3::Family::kSymm) {
      a.make_triangular(c.variant.uplo);
    }
    if (trsm) {
      a.set_unit_diagonal();
      a.scale_off_diagonal(1.0f / 16.0f);
    }
    in.a.push_back(std::move(a));
    in.b.push_back(std::move(b));
    in.c.push_back(std::move(out_c));
  }
  return in;
}

/// Largest per-member divergence between two operand-set results, in
/// the operand the routine writes.
double max_member_diff(const blas3::CallShape& shape,
                       const std::vector<Matrix>& got_b,
                       const std::vector<Matrix>& got_c,
                       const std::vector<Matrix>& want_b,
                       const std::vector<Matrix>& want_c) {
  const std::vector<Matrix>& got = shape.output_of(got_b, &got_c);
  const std::vector<Matrix>& want = shape.output_of(want_b, &want_c);
  double err = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    err = std::max(err, blas3::max_abs_diff(got[i], want[i]));
  }
  return err;
}

/// One process-wide compile cache shared by the native-first
/// differential and native checks: a long campaign then also exercises
/// the hot (cache-hit) path, not just first-compile.
exec::ExecCache& shared_exec_cache() {
  static exec::ExecCache cache;
  return cache;
}

}  // namespace

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kPass: return "pass";
    case Verdict::kRejected: return "rejected";
    case Verdict::kFail: return "FAIL";
  }
  return "?";
}

CheckResult check_case(const gpusim::Simulator& sim, const FuzzCase& c) {
  switch (c.kind) {
    case CheckKind::kDifferential: return check_differential(sim, c);
    case CheckKind::kRoundTrip: return check_roundtrip(c);
    case CheckKind::kMutation: return check_mutation(c);
    case CheckKind::kFastPath: return check_fastpath(sim, c);
    case CheckKind::kNative: return check_native(sim, c);
  }
  return {Verdict::kFail, "unknown check kind"};
}

CheckResult check_differential(const gpusim::Simulator& sim,
                               const FuzzCase& c) {
  ir::Program program = blas3::make_source_program(c.variant);
  auto mask = apply_like_engine(program, c);
  if (!mask.is_ok()) {
    return {Verdict::kRejected,
            "apply/validate: " + sanitize(mask.status().to_string())};
  }

  const blas3::CallShape shape = case_shape(c);
  const int64_t k = shape.k();
  const int64_t count = shape.count();
  const CaseInputs in = make_inputs(c);
  const std::map<std::string, bool> bools = {{"blank_zero", true}};

  // Candidate execution, native-first: the exec backend computes the
  // answer; the interpreter is consulted only when lowering refuses the
  // kernel (the runtime would refuse such an entry at load; here the
  // interpreter is the oracle for the raw composition) or — below — to
  // arbitrate a divergence.
  std::vector<Matrix> got_b = in.b;
  std::vector<Matrix> got_c = in.c;
  const char* backend = "native";
  Status run = exec::execute_batched(sim.device(), program, c.variant, in.a,
                                     got_b, &got_c, bools,
                                     shared_exec_cache());
  if (!run.is_ok()) {
    got_b = in.b;
    got_c = in.c;
    run = engine::execute_batched(sim, program, c.variant, in.a, got_b,
                                  &got_c, bools);
    backend = "interp";
  }
  if (!run.is_ok()) {
    return {Verdict::kRejected, "execute: " + sanitize(run.to_string())};
  }

  // The oracle: a loop of per-member CPU references — for single
  // variants that is plain blas3::run_reference. Computed only after
  // the candidate actually executed; rejections skip it.
  std::vector<Matrix> ref_b = in.b;
  std::vector<Matrix> ref_c = in.c;
  for (int64_t i = 0; i < count; ++i) {
    blas3::run_reference(c.variant, in.a[static_cast<size_t>(i)],
                         ref_b[static_cast<size_t>(i)],
                         &ref_c[static_cast<size_t>(i)]);
  }

  const double tol = blas3::accumulation_tolerance(k, c.variant.precision);
  double err = max_member_diff(shape, got_b, got_c, ref_b, ref_c);
  if (err <= tol) {
    return {Verdict::kPass,
            str_format("mask=%llx err<=tol (%s)",
                       static_cast<unsigned long long>(*mask), backend)};
  }

  // Mismatch. Gate on the engine's cheap square-48 verification first:
  // a composition the engine would have rejected anyway is an expected
  // degeneration, with no need to pay full-shape interpreter
  // arbitration for it. Only divergences on *shippable* compositions
  // are arbitrated through the interpreter.
  Status square = engine::verify_program(sim, c.variant, program,
                                         /*n=*/48, bools);
  if (!square.is_ok()) {
    return {Verdict::kRejected,
            "engine rejects composition: " + sanitize(square.to_string())};
  }
  // The library would have shipped this kernel. When the mismatch came
  // from the native backend, an interpreter result inside tolerance
  // pins the divergence on the backend — the library would have served
  // this wrong native answer.
  if (std::string_view(backend) == "native") {
    std::vector<Matrix> interp_b = in.b;
    std::vector<Matrix> interp_c = in.c;
    Status interp = engine::execute_batched(sim, program, c.variant, in.a,
                                            interp_b, &interp_c, bools);
    if (interp.is_ok()) {
      const double interp_err =
          max_member_diff(shape, interp_b, interp_c, ref_b, ref_c);
      if (interp_err <= tol) {
        return {Verdict::kFail,
                str_format("native backend diverges err=%g tol=%g "
                           "(interpreter err=%g agrees with reference) at "
                           "m=%lld n=%lld k=%lld batch=%lld",
                           err, tol, interp_err,
                           static_cast<long long>(c.m),
                           static_cast<long long>(c.n),
                           static_cast<long long>(k),
                           static_cast<long long>(count))};
      }
      err = std::min(err, interp_err);
    }
  }
  return {Verdict::kFail,
          str_format("numeric mismatch err=%g tol=%g at m=%lld n=%lld "
                     "k=%lld batch=%lld (square-48 verification passes)",
                     err, tol, static_cast<long long>(c.m),
                     static_cast<long long>(c.n),
                     static_cast<long long>(k),
                     static_cast<long long>(count))};
}

CheckResult check_roundtrip(const FuzzCase& c) {
  // Script: parse must accept its own to_text output for every entry
  // the fuzzer emits, reproduce the script exactly (fingerprint
  // included), and re-serialize to identical bytes.
  const std::string text = epod::to_text(c.script);
  auto parsed = epod::parse(text);
  if (!parsed.is_ok()) {
    return {Verdict::kFail, "epod::parse rejects its own to_text: " +
                                sanitize(parsed.status().to_string())};
  }
  if (!(*parsed == c.script)) {
    return {Verdict::kFail, "script round trip is not the identity"};
  }
  if (parsed->fingerprint() != c.script.fingerprint()) {
    return {Verdict::kFail, "script fingerprint changed across round trip"};
  }
  if (epod::to_text(*parsed) != text) {
    return {Verdict::kFail, "epod::to_text is not canonical"};
  }

  // Artifact: the same property for the .oalib wrapping of the case.
  const std::string atext = synthetic_artifact_text(c);
  auto art = libgen::parse(atext);
  if (!art.is_ok()) {
    return {Verdict::kFail, "libgen::parse rejects its own to_text: " +
                                sanitize(art.status().to_string())};
  }
  if (libgen::to_text(*art) != atext) {
    return {Verdict::kFail, "libgen::to_text is not canonical"};
  }
  if (art->entries.size() != 1) {
    return {Verdict::kFail, "artifact entry count changed across round trip"};
  }
  const libgen::ArtifactEntry& e = art->entries[0];
  if (e.script.fingerprint() != c.script.fingerprint() ||
      e.params.fingerprint() != c.params.fingerprint() ||
      e.variant != c.variant.name()) {
    return {Verdict::kFail, "artifact entry fields changed across round trip"};
  }
  return {Verdict::kPass, "script+artifact round trip identical"};
}

CheckResult check_mutation(const FuzzCase& c) {
  // The corrupted payload must never crash a parser; acceptance is fine
  // (many mutations are benign) but anything accepted must itself be
  // round-trip stable — a parser that accepts bytes it cannot re-read
  // would corrupt the library on the next save/load cycle.
  if (c.mutation_target == MutationTarget::kScript) {
    auto parsed = epod::parse(c.payload);
    if (!parsed.is_ok()) {
      return {Verdict::kPass,
              "rejected: " + sanitize(parsed.status().to_string())};
    }
    auto again = epod::parse(epod::to_text(*parsed));
    if (!again.is_ok()) {
      return {Verdict::kFail, "accepted mutation does not re-parse: " +
                                  sanitize(again.status().to_string())};
    }
    if (!(*again == *parsed)) {
      return {Verdict::kFail, "accepted mutation is not round-trip stable"};
    }
    return {Verdict::kPass, "accepted (benign mutation), stable"};
  }
  auto art = libgen::parse(c.payload);
  if (!art.is_ok()) {
    return {Verdict::kPass, "rejected: " + sanitize(art.status().to_string())};
  }
  auto again = libgen::parse(libgen::to_text(*art));
  if (!again.is_ok()) {
    return {Verdict::kFail, "accepted artifact mutation does not re-parse: " +
                                sanitize(again.status().to_string())};
  }
  return {Verdict::kPass, "accepted (benign mutation), stable"};
}

CheckResult check_fastpath(const gpusim::Simulator& sim, const FuzzCase& c) {
  ir::Program program = blas3::make_source_program(c.variant);
  auto mask = apply_like_engine(program, c);
  if (!mask.is_ok()) {
    return {Verdict::kRejected,
            "apply/validate: " + sanitize(mask.status().to_string())};
  }

  gpusim::RunOptions opts;
  // Batched pricing multiplies counters by the batch count (BATCH) on
  // both paths; the bit-identity contract must hold there too.
  opts.int_params = case_shape(c).env();
  opts.fastpath = true;
  auto fast = sim.run_performance(program, opts);
  opts.fastpath = false;
  auto interp = sim.run_performance(program, opts);
  if (fast.is_ok() != interp.is_ok()) {
    return {Verdict::kFail,
            str_format("status divergence: fast=%s interp=%s",
                       sanitize(fast.status().to_string()).c_str(),
                       sanitize(interp.status().to_string()).c_str())};
  }
  if (!fast.is_ok()) {
    return {Verdict::kRejected,
            "both paths reject: " + sanitize(fast.status().to_string())};
  }
  if (!(fast->counters == interp->counters)) {
    return {Verdict::kFail, "aggregate counters diverge: " +
                                counter_diff(fast->counters,
                                             interp->counters)};
  }
  if (fast->kernels.size() != interp->kernels.size()) {
    return {Verdict::kFail, "kernel count diverges between paths"};
  }
  for (size_t i = 0; i < fast->kernels.size(); ++i) {
    if (!(fast->kernels[i].counters == interp->kernels[i].counters)) {
      return {Verdict::kFail,
              "kernel counters diverge: " + fast->kernels[i].name + ": " +
                  counter_diff(fast->kernels[i].counters,
                               interp->kernels[i].counters)};
    }
  }
  if (interp->fastpath.fast_statements != 0) {
    return {Verdict::kFail, "interpreter run touched the fast path"};
  }
  return {Verdict::kPass,
          str_format("counters bit-identical (mask=%llx)",
                     static_cast<unsigned long long>(*mask))};
}

CheckResult check_native(const gpusim::Simulator& sim, const FuzzCase& c) {
  ir::Program program = blas3::make_source_program(c.variant);
  auto mask = apply_like_engine(program, c);
  if (!mask.is_ok()) {
    return {Verdict::kRejected,
            "apply/validate: " + sanitize(mask.status().to_string())};
  }

  // Same rectangular inputs as check_differential so a divergence here
  // is attributable to the backend, never to data preparation. Batched
  // variants run the fused exec::execute_batched path against a loop of
  // interpreter members — the semantic contract docs/BATCHED.md states.
  const blas3::CallShape shape = case_shape(c);
  const int64_t k = shape.k();
  const int64_t count = shape.count();
  const CaseInputs in = make_inputs(c);
  const std::map<std::string, bool> bools = {{"blank_zero", true}};
  const bool batched = c.variant.batch != blas3::Batch::kSingle;

  std::vector<Matrix> interp_b = in.b;
  std::vector<Matrix> interp_c = in.c;
  Status interp =
      batched ? engine::execute_batched(sim, program, c.variant, in.a,
                                        interp_b, &interp_c, bools)
              : engine::execute_program(sim, program, c.variant, in.a[0],
                                        interp_b[0], &interp_c[0], bools);

  std::vector<Matrix> native_b = in.b;
  std::vector<Matrix> native_c = in.c;
  Status native =
      batched ? exec::execute_batched(sim.device(), program, c.variant,
                                      in.a, native_b, &native_c, bools,
                                      shared_exec_cache())
              : exec::execute_program(sim.device(), program, c.variant,
                                      in.a[0], native_b[0], &native_c[0],
                                      bools, shared_exec_cache());

  if (!interp.is_ok() && !native.is_ok()) {
    return {Verdict::kRejected,
            "both backends reject: " + sanitize(interp.to_string())};
  }
  if (!interp.is_ok()) {
    return {Verdict::kFail, "native computed where the interpreter "
                            "rejected: " + sanitize(interp.to_string())};
  }
  if (!native.is_ok()) {
    if (native.code() == ErrorCode::kFailedPrecondition) {
      // Lowering refused the kernel (e.g. barrier under lane-divergent
      // control flow) — the runtime refuses such an entry when it
      // loads, so this is an expected refusal, not a wrong answer.
      return {Verdict::kRejected,
              "native lowering unsupported: " + sanitize(native.to_string())};
    }
    return {Verdict::kFail,
            "native execution failed: " + sanitize(native.to_string())};
  }

  const double diff =
      max_member_diff(shape, native_b, native_c, interp_b, interp_c);
  if (diff == 0.0) {
    return {Verdict::kPass,
            str_format("bit-identical (mask=%llx%s)",
                       static_cast<unsigned long long>(*mask),
                       batched ? str_format(" batch=%lld",
                                            static_cast<long long>(count))
                                     .c_str()
                               : "")};
  }

  // The backends order lane execution differently, so a kernel with a
  // benign race may legitimately diverge bit-wise. Tolerate that only
  // when BOTH backends stay within the reference tolerance.
  std::vector<Matrix> ref_b = in.b;
  std::vector<Matrix> ref_c = in.c;
  for (int64_t i = 0; i < count; ++i) {
    blas3::run_reference(c.variant, in.a[static_cast<size_t>(i)],
                         ref_b[static_cast<size_t>(i)],
                         &ref_c[static_cast<size_t>(i)]);
  }
  const double tol = blas3::accumulation_tolerance(k, c.variant.precision);
  const double err_i = max_member_diff(shape, interp_b, interp_c, ref_b, ref_c);
  const double err_n = max_member_diff(shape, native_b, native_c, ref_b, ref_c);
  if (err_i <= tol && err_n <= tol) {
    return {Verdict::kPass,
            str_format("diverge %g but both within tol=%g (racy kernel)",
                       diff, tol)};
  }

  // Bit divergence AND at least one backend is off-reference. Blame the
  // case only if the engine's standard square verification would have
  // shipped this composition.
  Status square = engine::verify_program(sim, c.variant, program,
                                         /*n=*/48, bools);
  if (!square.is_ok()) {
    return {Verdict::kRejected,
            "engine rejects composition: " + sanitize(square.to_string())};
  }
  return {Verdict::kFail,
          str_format("native diverges diff=%g (interp err=%g native err=%g "
                     "tol=%g) at m=%lld n=%lld k=%lld batch=%lld",
                     diff, err_i, err_n, tol, static_cast<long long>(c.m),
                     static_cast<long long>(c.n), static_cast<long long>(k),
                     static_cast<long long>(count))};
}

}  // namespace oa::verify
