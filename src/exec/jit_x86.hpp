// x86-64 machine-code emission for segment tapes (tape.hpp).
//
// Each segment becomes one SysV function
//     void seg(double* const* arrays, const int64_t* slots)
// with the FP evaluation stack mapped onto xmm0..xmm12 (xmm15 is
// scratch). Tape locals and hot array base pointers live in r10, r11,
// rbx, r12–r15, picked by loop-depth-weighted use (the callee-saved
// ones are pushed in the prologue and restored on every exit); the
// rest live in the stack frame. Affines are emitted as mov/lea/add.
//
// Every access is bounds-checked — row against rows, col against cols —
// or proven in range on loop entry: an innermost straight-line loop
// checks each access's row and col at its first and last trip (affine
// in the loop variable, so monotone) and then runs an unchecked copy
// of its body, each access addressed through a pointer induction
// variable and loop-invariant loads of arrays the loop never stores
// read once into the xmm registers above the stack; when any index is
// out of range it runs the checked copy instead. A failed
// check jumps to a per-access stub that records the faulting access in
// the trailing ErrorCell and returns early, so run_lowered reports the
// interpreter's diagnostic for the first faulting access.
//
// On AVX2 hosts a proven loop whose trips are independent — step 1,
// every access not hoisted moving one element per trip, and one index
// for every access to an array the loop stores — also gets a four-trip
// copy: f64 lanes in ymm registers, f32 lanes in xmm, hoisted values
// broadcast. It runs while four or more trips are left, ends with
// vzeroupper, and leaves the rest to the scalar proven copy. Other
// loops, and hosts without AVX2, get the scalar code alone.
//
// f32 kernels load via cvtsd2ss (vcvtpd2ps), compute in single
// precision (addss/subss/mulss/divss, or the ps forms), and store via
// cvtss2sd (vcvtps2pd) — bit-identical to the interpreter's
// double-op-then-round discipline (innocuous double rounding; see
// support/precision.hpp). f64 kernels use the sd (pd) forms. Each
// element gets the tape's FP operations in the tape's order and
// operand order: no contraction, no reassociation.
#pragma once

#include <memory>
#include <vector>

#include "exec/code_buffer.hpp"
#include "exec/tape.hpp"

namespace oa::exec {

/// True when this build can emit and run native code at all
/// (x86-64 only). Runtime mmap/mprotect failures are reported by
/// jit_compile() instead.
bool jit_supported();

/// True when the host runs AVX2 code: cpuid reports it and XCR0 says
/// the OS saves ymm state. Gates the four-trip loop copies.
bool jit_avx2();

struct JitResult {
  std::unique_ptr<CodeBuffer> buffer;
  /// Entry point per segment, same order as LoweredKernel::segments.
  std::vector<const void*> entries;
  /// Loops emitted with a four-trip copy.
  int vector_loops = 0;
};

/// Emit every segment of `lk` into one executable buffer. Fails
/// cleanly (caller falls back to the portable executor) on unsupported
/// hosts, W^X/mmap refusal, or an FP stack too deep for the xmm file.
StatusOr<JitResult> jit_compile(const LoweredKernel& lk);

}  // namespace oa::exec
