// Native execution backend — the lowered form of a CompiledKernel.
//
// The gpusim interpreter executes the slot-indexed IR lane-lockstep
// with an active mask. For *native* execution we split a kernel at its
// barriers into sync-free *segments* and run each segment to
// completion per lane (lane-major). Between barriers no lane observes
// another lane's effects except through the shared/global arrays it is
// synchronizing about, so per-lane whole-segment execution computes
// exactly what the lockstep interpreter computes for every race-free
// kernel — and the per-lane operation order (the thing FP rounding
// depends on) is identical, statement by statement.
//
// The lowered artifact has two layers:
//   * a host-side *driver tree* (DriverNode): segments, barriers, and
//     the loops/branches that *contain* barriers. Driver control flow
//     must be lane-uniform (bounds/predicates referencing only block
//     indices and enclosing driver loop variables) — the same
//     precondition __syncthreads() imposes on real hardware. Kernels
//     that violate it fail lowering: the serving runtime refuses such
//     an entry when it loads, and verification runs it on the
//     interpreter.
//   * per-segment flat *tapes* (TIns): straight-line instructions with
//     explicit jumps for the sync-free loops and branches inside a
//     segment. A tape runs per lane against the SysV-ABI frame
//     `(double** arrays, const int64_t* slots)` — the same program
//     either interpreted (portable executor) or as JIT-emitted x86-64
//     (jit_x86.hpp).
//
// Integer state lives in tape *locals* (never written back to the slot
// frame, which stays const per the ABI): loop variables, hoisted loop
// limits, and the *slot bases* — the slot-only part of the segment's
// index expressions, computed once at segment entry (the frame is
// constant for the whole call), one local per distinct term set. Every
// index, bound and predicate is an affine (TAffine) over those locals,
// evaluated where it is used; loads and stores carry their row and col
// affines themselves, so an access indexed by a loop variable reads
// the variable directly. Floating-point values live on a bounded
// evaluation stack (gpusim::kMaxTapeDepth), which the JIT maps onto
// xmm registers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/compiled.hpp"
#include "support/status.hpp"

namespace oa::exec {

/// Resolved affine term: coeff * (frame slot | tape local).
struct RTerm {
  int32_t src = 0;
  int32_t is_local = 0;
  int64_t coeff = 0;
};

/// Affine integer expression: imm + sum(terms[first .. first+count)).
/// Only the segment-entry slot bases read frame slots; every other
/// affine reads tape locals alone.
struct TAffine {
  int64_t imm = 0;
  int32_t first = 0, count = 0;
};

/// One tape instruction. `a`/`b`/`c` name tape locals, affines
/// (Segment::affines), arrays or absolute instruction indices, per op.
struct TIns {
  enum class Op : uint8_t {
    kAffine,    // local[a] = aff[b]
    kMin,       // local[a] = min(local[a], aff[b])
    kMax,       // local[a] = max(local[a], aff[b])
    kAddImm,    // local[a] += imm
    kJump,      // ip = a
    kJumpGe,    // if (local[a] >= local[b]) ip = c     (loop exit)
    kPredJump,  // if (!(aff[a] <mode> 0)) ip = c       (failed guard)
    kFConst,    // push fimm
    kFLoad,     // push arrays[a][aff[b] + aff[c]*ld]   (checked)
    kFNeg,      // top = -top
    kFAdd,      // binop: pop rhs, combine into new top
    kFSub,
    kFMul,
    kFDiv,
    kFStore,    // pop value -> arrays[a][aff[b], aff[c]] via <mode>
    kRet,       // end of segment
  };
  Op op = Op::kRet;
  /// kFStore: ir::AssignOp; kPredJump: ir::Pred::Op (both as uint8).
  uint8_t mode = 0;
  int32_t a = 0, b = 0, c = 0;
  int64_t imm = 0;
  double fimm = 0.0;
};

/// One sync-free tape, executed whole per lane. Loops have one shape:
///   [lv = lb; limit = ub]  head: kJumpGe lv, limit -> exit
///   body                   kAddImm lv, step;  kJump head;  exit:
/// with lv and limit written nowhere else.
struct Segment {
  std::vector<TIns> code;
  /// Side tables: the affines ops index into, and their terms.
  std::vector<TAffine> affines;
  std::vector<RTerm> terms;
  int num_locals = 0;
  /// Static maximum FP-stack depth (<= gpusim::kMaxTapeDepth).
  int max_stack = 0;
};

/// Host-side driver tree: what the block driver executes around the
/// per-lane segments. Loop bounds / branch predicates are deep copies
/// of the compiled kernel's (CompiledKernel is move-only; the lowered
/// kernel must outlive it in the exec cache).
struct DriverNode {
  enum class Kind { kSegment, kLoop, kIf, kSync };
  Kind kind = Kind::kSegment;

  int segment = -1;  // kSegment: index into LoweredKernel::segments

  // kLoop — bounds verified lane-uniform at lowering time; the driver
  // evaluates them once per entry on lane 0's frame and writes the
  // loop variable into every lane's frame per iteration.
  int var_slot = -1;
  gpusim::CBound lb, ub;
  int64_t step = 1;
  std::vector<DriverNode> body;

  // kIf — preds empty (compile-time selected) or lane-uniform.
  std::vector<gpusim::CPred> preds;
  std::vector<DriverNode> then_body, else_body;
};

/// A CompiledKernel lowered for native execution. Owns copies of
/// everything the driver needs at run time.
struct LoweredKernel {
  std::string name;
  Precision precision = Precision::kF32;
  ir::LaunchConfig launch;
  std::vector<gpusim::CArray> arrays;
  int num_slots = 0;
  int block_y_slot = -1, block_x_slot = -1;
  int thread_y_slot = -1, thread_x_slot = -1;

  std::vector<Segment> segments;
  std::vector<DriverNode> driver;
  int64_t tape_ops = 0;  // total TIns across segments (artifact record)
};

/// Out-of-line error reporting within the two-pointer ABI: the arrays
/// table carries one extra entry, arrays[num_arrays], pointing at this
/// cell. A failed bounds check records the faulting access and the
/// segment returns immediately; the driver turns it into a Status
/// matching the interpreter's out-of-bounds diagnostic.
struct ErrorCell {
  int64_t failed = 0;
  int64_t array = 0;
  int64_t row = 0;
  int64_t col = 0;
};

/// Lower a compiled kernel. Fails when a barrier sits under
/// lane-divergent control flow or an FP expression exceeds the
/// evaluation-stack bound; the serving runtime then refuses the entry
/// at load, and verification runs the kernel on the interpreter.
StatusOr<LoweredKernel> lower_kernel(const gpusim::CompiledKernel& ck);

/// Content fingerprint of a compiled kernel — the exec-cache key.
/// Seeded with the precision-folded CompiledKernel::signature() of the
/// grid's corner blocks, then mixed over the full structural body walk
/// (two schedules with identical loop extents must not alias).
uint64_t kernel_key(const gpusim::CompiledKernel& ck);

}  // namespace oa::exec
