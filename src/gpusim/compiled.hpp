// Kernel "compilation" for the simulator: the IR is lowered once per
// (kernel, parameter binding) into a slot-indexed form so the hot
// interpreter loop never touches strings or maps. Integer parameters
// and runtime booleans are resolved to constants here; multi-versioned
// branches (padding_triangular's blank_zero) are selected at compile
// time, exactly as a driver would pick the kernel version to launch.
//
// Compilation also performs the *warp-analytic* analysis the ghost-mode
// fast path (block_sim.cpp) builds on: every slot is classified
// lane-affine (value = uniform + c_tx*tx + c_ty*ty), conditionally
// lane-affine (the same form, but with coefficients that depend on
// which lower-bound term of the defining loop binds), or
// lane-irregular; every reference is decomposed into that lane-affine
// form, and loops whose per-trip counter contribution is provably
// regular are marked as collapse candidates. The classification is
// static per (kernel, params); the executor binds a conditionally
// affine variable's coefficients on each execution of its loop, from
// the binding terms it resolves for the block. Nothing depends on
// runtime data.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/kernel.hpp"
#include "support/status.hpp"

namespace oa::gpusim {

/// Compiled affine expression: constant + sum(coeff * slot).
struct CExpr {
  int64_t constant = 0;
  std::vector<std::pair<int, int64_t>> terms;  // (slot, coeff)

  int64_t eval(const int64_t* slots) const {
    int64_t v = constant;
    for (const auto& [slot, c] : terms) v += c * slots[slot];
    return v;
  }
  bool is_constant() const { return terms.empty(); }
  int64_t coeff_of(int slot) const {
    for (const auto& [s, c] : terms) {
      if (s == slot) return c;
    }
    return 0;
  }
  bool references(int slot) const { return coeff_of(slot) != 0; }
};

struct CBound {
  std::vector<CExpr> terms;
  int64_t eval_min(const int64_t* slots) const {
    int64_t v = terms[0].eval(slots);
    for (size_t i = 1; i < terms.size(); ++i) {
      v = std::min(v, terms[i].eval(slots));
    }
    return v;
  }
  int64_t eval_max(const int64_t* slots) const {
    int64_t v = terms[0].eval(slots);
    for (size_t i = 1; i < terms.size(); ++i) {
      v = std::max(v, terms[i].eval(slots));
    }
    return v;
  }
};

struct CArray {
  std::string name;
  ir::MemSpace space = ir::MemSpace::kGlobal;
  int64_t rows = 0, cols = 0, ld = 0;  // resolved with parameters
  int64_t elements = 0;                // ld * cols
  bool spilled = false;  // register array demoted to local memory
};

/// Lane-affine view of a compiled expression:
///   value(lane) = uniform(slots) + tx_coeff*tx(lane) + ty_coeff*ty(lane)
/// where `uniform` carries every non-thread slot evaluated at its
/// lane-invariant component, and tx/ty coefficients aggregate both the
/// direct thread-index terms and the thread components of lane-affine
/// loop variables (slot_tx/slot_ty below). Conditionally lane-affine
/// slots stay in `uniform` and are listed in `cond` with their
/// coefficients: the executor adds coeff * (the slot's coefficients
/// in the current execution of its loop) to tx_coeff/ty_coeff.
/// `uniform_ok` says no slot is lane-irregular, i.e. the whole value
/// is an affine function of the lane's thread coordinates — the
/// precondition for closed-form coalescing analysis.
struct CLin {
  CExpr uniform;
  int64_t tx_coeff = 0, ty_coeff = 0;
  std::vector<std::pair<int, int64_t>> cond;  // (slot, coeff)
  bool uniform_ok = false;
};

struct CRef {
  int array = -1;           // index into CompiledKernel::arrays
  int site = -1;            // static reference site id (load-reuse cache)
  CExpr row, col;
  // Fast-path decomposition (annotate_fastpath): row/col and the flat
  // column-major address row + col*ld as lane-affine forms.
  CLin row_lin, col_lin, addr_lin;
  bool fast = false;  // all three decompositions have uniform residuals
};

/// One postfix op of the flat value tape (functional evaluation). The
/// tape replaces the old pointer-chasing CVal expression tree: rhs
/// evaluation is a linear walk over a small array with an explicit
/// value stack.
struct COp {
  enum class Kind : uint8_t { kConst, kLoad, kNeg, kAdd, kSub, kMul, kDiv };
  Kind kind = Kind::kConst;
  double constant = 0.0;  // pre-rounded to the kernel's precision
  int load = -1;  // kLoad: index into CNode::loads
};

/// Value stack depth cap for tape evaluation (BLAS3 right-hand sides
/// are tiny; compile fails loudly if a source ever exceeds this).
inline constexpr int kMaxTapeDepth = 64;

struct CPred {
  CExpr expr;
  ir::Pred::Op op = ir::Pred::Op::kGe;
  bool eval(const int64_t* slots) const {
    const int64_t v = expr.eval(slots);
    switch (op) {
      case ir::Pred::Op::kEq: return v == 0;
      case ir::Pred::Op::kGe: return v >= 0;
      case ir::Pred::Op::kLt: return v < 0;
    }
    return false;
  }
};

struct CNode {
  enum class Kind { kLoop, kAssign, kSync, kIf };
  Kind kind = Kind::kLoop;

  // kLoop
  int var_slot = -1;
  CBound lb, ub;
  int64_t step = 1;
  int unroll = 1;
  std::vector<CNode> body;
  // Fast-path annotations (kLoop).
  int loop_id = -1;
  /// Every lb/ub term is lane-affine with static coefficients (and
  /// step > 0), so the executor can resolve which term binds for a
  /// whole block at runtime: when ub - lb of the binding terms takes
  /// one value over the simulated lanes, lanes iterate in lockstep and
  /// the loop variable is lane-affine with the binding lb term's
  /// coefficients. Bounds like min(N, affine) resolve to the affine
  /// term on interior blocks and fall back to the interpreter only on
  /// boundary blocks where the terms cross.
  bool bounds_uniform = false;
  /// Aggregated (tx, ty) coefficients of each lb/ub term, in term
  /// order (valid when bounds_uniform).
  std::vector<std::pair<int64_t, int64_t>> lb_tc, ub_tc;
  bool collapse_candidate = false;  // ghost-mode loop collapsing legal
  std::vector<int> body_sites;   // every reference site in the subtree

  // kAssign
  CRef lhs;
  ir::AssignOp op = ir::AssignOp::kAssign;
  std::vector<COp> tape;     // postfix rhs value tape
  int tape_depth = 0;        // max value-stack depth of `tape`
  std::vector<CRef> loads;   // global/shared/register loads in the rhs
  bool rmw_load = false;     // += / -= / /= also reads lhs
  int arith_instructions = 0;  // issue cost of the arithmetic (MAD-fused)
  int flops = 0;             // arithmetic ops per executed lane
  bool fast = false;         // every ref (lhs + loads) is lane-affine

  // kIf
  std::vector<CPred> preds;
  bool preds_uniform = false;  // predicate values are lane-invariant
  std::vector<CNode> then_body;
  std::vector<CNode> else_body;

  CNode() = default;
  CNode(CNode&&) = default;
  CNode& operator=(CNode&&) = default;
};

struct CompiledKernel {
  std::string name;
  /// Scalar precision (from the Program): decides bytes per element in
  /// coalescing/transaction pricing, words per register/shared slot,
  /// and the per-operation rounding of functional evaluation.
  Precision precision = Precision::kF32;
  ir::LaunchConfig launch;
  std::vector<CArray> arrays;
  std::vector<CNode> body;     // the region inside block/thread loops
  int num_slots = 0;
  int num_sites = 0;           // static reference sites
  int num_loops = 0;           // sequential loops (fast-path loop ids)
  /// Per-slot lane decomposition (annotate_fastpath). A kAffine slot's
  /// value in a lane is provably
  ///   uniform_component + slot_tx[s]*tx + slot_ty[s]*ty
  /// with the static coefficients below (thread slots are (1,0)/(0,1);
  /// parameters, block indices and uniform-bound loop variables are
  /// (0,0); tiled loop variables like `i from ty*r` carry their lower
  /// bound's coefficients — the variable is lb + trips*step, so only lb
  /// shapes its lane decomposition). A kConditional slot is a loop
  /// variable whose lb terms are lane-affine but disagree on their
  /// coefficients (TRMM's `k = max(i, kk)`), or whose defining loops
  /// disagree: each execution takes the coefficients of the lb term
  /// that binds for the block. The uniform component is what the fast
  /// path tracks in its uniform slot array.
  enum class SlotLane : uint8_t { kAffine, kConditional, kIrregular };
  std::vector<SlotLane> slot_lane;
  std::vector<int64_t> slot_tx, slot_ty;
  // Slots pre-bound by the launcher / lane setup.
  int block_y_slot = -1, block_x_slot = -1;
  int thread_y_slot = -1, thread_x_slot = -1;
  int64_t shared_bytes = 0;    // per block
  int64_t regs_per_thread = 0; // including register arrays (pre-spill)
  /// Signature loops: sequential loops whose (lb, ub) the launcher
  /// evaluates (threadIdx = 0, enclosing vars at lb) to classify block
  /// workloads.
  int64_t signature(int64_t by, int64_t bx) const;
};

/// Lower `kernel` with all integer/bool parameters resolved.
StatusOr<CompiledKernel> compile_kernel(
    const ir::Program& program, const ir::Kernel& kernel,
    const ir::Env& int_params,
    const std::map<std::string, bool>& bool_params);

}  // namespace oa::gpusim
