#include "gpusim/compiled.hpp"

#include <map>

#include "support/strings.hpp"

namespace oa::gpusim {

namespace {

struct CompileState {
  const ir::Program* program = nullptr;
  const ir::Env* params = nullptr;
  const std::map<std::string, bool>* bools = nullptr;
  std::map<std::string, int, std::less<>> slots;
  std::map<std::string, int, std::less<>> array_ids;
  CompiledKernel* out = nullptr;

  int slot_for(const std::string& name) {
    auto it = slots.find(name);
    if (it != slots.end()) return it->second;
    const int id = out->num_slots++;
    slots.emplace(name, id);
    return id;
  }
};

StatusOr<CExpr> compile_expr(const ir::AffineExpr& e, CompileState& st) {
  CExpr out;
  out.constant = e.constant_term();
  for (const std::string& s : e.symbols()) {
    auto p = st.params->find(s);
    if (p != st.params->end()) {
      out.constant += e.coeff(s) * p->second;
      continue;
    }
    out.terms.emplace_back(st.slot_for(s), e.coeff(s));
  }
  return out;
}

StatusOr<CBound> compile_bound(const ir::Bound& b, CompileState& st) {
  CBound out;
  for (const auto& t : b.terms()) {
    OA_ASSIGN_OR_RETURN(CExpr e, compile_expr(t, st));
    out.terms.push_back(std::move(e));
  }
  if (out.terms.empty()) return internal_error("empty bound");
  return out;
}

StatusOr<CRef> compile_ref(const ir::ArrayRef& r, CompileState& st) {
  CRef out;
  auto it = st.array_ids.find(r.array);
  if (it == st.array_ids.end()) {
    return internal_error("reference to unknown array '" + r.array + "'");
  }
  out.array = it->second;
  out.site = st.out->num_sites++;
  if (r.index.size() != 2) {
    return internal_error("non-2D reference to '" + r.array + "'");
  }
  OA_ASSIGN_OR_RETURN(out.row, compile_expr(r.index[0], st));
  OA_ASSIGN_OR_RETURN(out.col, compile_expr(r.index[1], st));
  return out;
}

/// Emit `e` onto the postfix tape. `depth` tracks the running value
/// stack; `max_depth` records the high-water mark the evaluator must
/// reserve.
Status emit_tape(const ir::Expr& e, CompileState& st, CNode& node,
                 int& depth, int& max_depth) {
  auto push = [&](COp op) {
    node.tape.push_back(op);
    ++depth;
    max_depth = std::max(max_depth, depth);
  };
  switch (e.kind) {
    case ir::Expr::Kind::kConst:
      push(COp{COp::Kind::kConst,
               round_to(st.program->precision, e.value), -1});
      return Status::ok();
    case ir::Expr::Kind::kScalar:
      // Scalars (alpha/beta) are not used by the BLAS3 sources in this
      // reproduction; treat unknown scalars as 1.0.
      push(COp{COp::Kind::kConst, 1.0, -1});
      return Status::ok();
    case ir::Expr::Kind::kRef: {
      OA_ASSIGN_OR_RETURN(CRef ref, compile_ref(e.ref, st));
      const int load = static_cast<int>(node.loads.size());
      node.loads.push_back(std::move(ref));
      push(COp{COp::Kind::kLoad, 0.0f, load});
      return Status::ok();
    }
    case ir::Expr::Kind::kNeg:
      OA_RETURN_IF_ERROR(emit_tape(*e.a, st, node, depth, max_depth));
      node.tape.push_back(COp{COp::Kind::kNeg, 0.0f, -1});
      return Status::ok();
    case ir::Expr::Kind::kAdd:
    case ir::Expr::Kind::kSub:
    case ir::Expr::Kind::kMul:
    case ir::Expr::Kind::kDiv: {
      OA_RETURN_IF_ERROR(emit_tape(*e.a, st, node, depth, max_depth));
      OA_RETURN_IF_ERROR(emit_tape(*e.b, st, node, depth, max_depth));
      COp op;
      switch (e.kind) {
        case ir::Expr::Kind::kAdd: op.kind = COp::Kind::kAdd; break;
        case ir::Expr::Kind::kSub: op.kind = COp::Kind::kSub; break;
        case ir::Expr::Kind::kMul: op.kind = COp::Kind::kMul; break;
        default: op.kind = COp::Kind::kDiv; break;
      }
      node.tape.push_back(op);
      --depth;  // two operands popped, one result pushed
      return Status::ok();
    }
  }
  return internal_error("unhandled expression kind");
}

StatusOr<std::vector<CNode>> compile_body(
    const std::vector<ir::NodePtr>& body, CompileState& st);

StatusOr<CNode> compile_node(const ir::Node& n, CompileState& st) {
  CNode out;
  switch (n.kind) {
    case ir::Node::Kind::kLoop: {
      out.kind = CNode::Kind::kLoop;
      out.var_slot = st.slot_for(n.var);
      OA_ASSIGN_OR_RETURN(out.lb, compile_bound(n.lb, st));
      OA_ASSIGN_OR_RETURN(out.ub, compile_bound(n.ub, st));
      out.step = n.step;
      out.unroll = n.unroll;
      OA_ASSIGN_OR_RETURN(out.body, compile_body(n.body, st));
      return out;
    }
    case ir::Node::Kind::kAssign: {
      out.kind = CNode::Kind::kAssign;
      OA_ASSIGN_OR_RETURN(out.lhs, compile_ref(n.lhs, st));
      out.op = n.op;
      int depth = 0;
      OA_RETURN_IF_ERROR(emit_tape(*n.rhs, st, out, depth, out.tape_depth));
      if (out.tape_depth > kMaxTapeDepth) {
        return internal_error("rhs exceeds the value-stack cap");
      }
      out.rmw_load = n.op != ir::AssignOp::kAssign;
      const int arith = n.rhs->count_arith_ops() +
                        (n.op != ir::AssignOp::kAssign ? 1 : 0);
      // A fused multiply-add issues as one instruction.
      const bool mad = (n.op == ir::AssignOp::kAddAssign ||
                        n.op == ir::AssignOp::kSubAssign) &&
                       n.rhs->kind == ir::Expr::Kind::kMul &&
                       n.rhs->count_arith_ops() == 1;
      out.arith_instructions = mad ? 1 : std::max(1, arith);
      out.flops = arith;
      return out;
    }
    case ir::Node::Kind::kSync:
      out.kind = CNode::Kind::kSync;
      return out;
    case ir::Node::Kind::kIf: {
      // Runtime booleans are resolved now: the launcher effectively
      // picks a kernel version.
      if (!n.bool_param.empty()) {
        auto it = st.bools->find(n.bool_param);
        const bool value = it != st.bools->end() && it->second;
        OA_ASSIGN_OR_RETURN(
            std::vector<CNode> chosen,
            compile_body(value ? n.then_body : n.else_body, st));
        if (!n.conds.empty()) {
          return internal_error(
              "mixed bool-param and affine guard unsupported");
        }
        // Splice: represent the selected branch as an unconditional If.
        out.kind = CNode::Kind::kIf;
        out.then_body = std::move(chosen);
        return out;
      }
      out.kind = CNode::Kind::kIf;
      for (const auto& p : n.conds) {
        OA_ASSIGN_OR_RETURN(CExpr e, compile_expr(p.expr, st));
        out.preds.push_back(CPred{std::move(e), p.op});
      }
      OA_ASSIGN_OR_RETURN(out.then_body, compile_body(n.then_body, st));
      OA_ASSIGN_OR_RETURN(out.else_body, compile_body(n.else_body, st));
      return out;
    }
  }
  return internal_error("unhandled node kind");
}

StatusOr<std::vector<CNode>> compile_body(
    const std::vector<ir::NodePtr>& body, CompileState& st) {
  std::vector<CNode> out;
  out.reserve(body.size());
  for (const auto& n : body) {
    OA_ASSIGN_OR_RETURN(CNode c, compile_node(*n, st));
    out.push_back(std::move(c));
  }
  return out;
}

void signature_walk(const std::vector<CNode>& body, int64_t* slots,
                    uint64_t& hash) {
  for (const CNode& n : body) {
    switch (n.kind) {
      case CNode::Kind::kLoop: {
        const int64_t lo = n.lb.eval_max(slots);
        const int64_t hi = n.ub.eval_min(slots);
        const int64_t extent = hi > lo ? hi - lo : 0;
        // Unsigned: the polynomial mix overflows by design.
        hash = hash * 1000003u + static_cast<uint64_t>(extent);
        slots[n.var_slot] = lo;
        signature_walk(n.body, slots, hash);
        break;
      }
      case CNode::Kind::kAssign:
      case CNode::Kind::kSync:
        break;
      case CNode::Kind::kIf:
        signature_walk(n.then_body, slots, hash);
        signature_walk(n.else_body, slots, hash);
        break;
    }
  }
}

// ---- Fast-path annotation ------------------------------------------
//
// Everything below is static analysis over the compiled kernel; the
// warp-analytic executor in block_sim.cpp consults only the flags set
// here, so whether a statement takes the fast path never depends on
// runtime data.

using SlotLane = CompiledKernel::SlotLane;

/// Per-slot lane classification under construction: kAffine slots hold
/// uniform_component + tx[s]*tx + ty[s]*ty; `defined` marks loop
/// variables whose coefficients a defining loop has fixed (a second
/// defining loop must agree or the slot drops to kConditional).
struct AffineTable {
  std::vector<SlotLane> lane;
  std::vector<int64_t> tx, ty;
  std::vector<uint8_t> defined;

  /// Monotone: a slot's class only ever drops (kAffine -> kConditional
  /// -> kIrregular), which makes the walk below a fixed point.
  void drop(size_t s, SlotLane to, bool& changed) {
    if (lane[s] < to) {
      lane[s] = to;
      changed = true;
    }
  }
};

/// Aggregated thread coefficients of one expression, via the table.
/// Returns false when any referenced slot is not kAffine.
bool expr_coeffs(const CExpr& e, const AffineTable& t, int64_t& ctx,
                 int64_t& cty) {
  ctx = 0;
  cty = 0;
  for (const auto& [slot, c] : e.terms) {
    const size_t s = static_cast<size_t>(slot);
    if (t.lane[s] != SlotLane::kAffine) return false;
    ctx += c * t.tx[s];
    cty += c * t.ty[s];
  }
  return true;
}

/// Fixed point of the slot classification. A loop variable's lane
/// decomposition is shaped by its *lower* bound only (the value is
/// lb + trips*step; the upper bound just stops the iteration, and the
/// executor separately verifies lockstep trip counts at runtime).
/// Lower-bound terms with static coefficients make it lane-affine. When
/// they disagree (`max(i, kk)`), or a second defining loop (slot reuse
/// across loops) disagrees, the coefficients depend on which term binds
/// — a per-execution fact the executor resolves — and the variable is
/// kConditional. Any term over a slot that is not kAffine makes it
/// kIrregular.
void affinity_walk(const std::vector<CNode>& body, AffineTable& t,
                   bool& changed) {
  for (const CNode& n : body) {
    switch (n.kind) {
      case CNode::Kind::kLoop: {
        bool affine = true, agree = true;
        int64_t ctx = 0, cty = 0;
        for (size_t i = 0; i < n.lb.terms.size() && affine; ++i) {
          int64_t x, y;
          affine = expr_coeffs(n.lb.terms[i], t, x, y);
          if (i == 0) {
            ctx = x;
            cty = y;
          } else {
            agree &= x == ctx && y == cty;
          }
        }
        const size_t v = static_cast<size_t>(n.var_slot);
        if (!affine) {
          t.drop(v, SlotLane::kIrregular, changed);
        } else if (!agree) {
          t.drop(v, SlotLane::kConditional, changed);
        } else if (t.lane[v] == SlotLane::kAffine) {
          if (!t.defined[v]) {
            t.defined[v] = 1;
            if (t.tx[v] != ctx || t.ty[v] != cty) {
              t.tx[v] = ctx;
              t.ty[v] = cty;
              changed = true;
            }
          } else if (t.tx[v] != ctx || t.ty[v] != cty) {
            t.drop(v, SlotLane::kConditional, changed);
          }
        }
        affinity_walk(n.body, t, changed);
        break;
      }
      case CNode::Kind::kAssign:
      case CNode::Kind::kSync:
        break;
      case CNode::Kind::kIf:
        affinity_walk(n.then_body, t, changed);
        affinity_walk(n.else_body, t, changed);
        break;
    }
  }
}

struct Annotator {
  CompiledKernel& k;
  const AffineTable& t;

  CLin lin_of(const CExpr& e) const {
    CLin out;
    out.uniform.constant = e.constant;
    out.uniform_ok = true;
    for (const auto& [slot, c] : e.terms) {
      const size_t s = static_cast<size_t>(slot);
      switch (t.lane[s]) {
        case SlotLane::kAffine:
          out.tx_coeff += c * t.tx[s];
          out.ty_coeff += c * t.ty[s];
          break;
        case SlotLane::kConditional:
          out.cond.emplace_back(slot, c);
          break;
        case SlotLane::kIrregular:
          out.uniform_ok = false;
          break;
      }
      // Thread indices live entirely in the coefficients; every other
      // slot keeps its term — the fast path's uniform slot array holds
      // lane-invariant components (0 for the thread slots), so
      // evaluating `uniform` there yields exactly the lane-invariant
      // part of the value.
      if (slot == k.thread_x_slot || slot == k.thread_y_slot) continue;
      out.uniform.terms.emplace_back(slot, c);
    }
    return out;
  }

  /// Lane-invariant predicate: every slot lane-affine and the thread
  /// coefficients cancel, so evaluating on the uniform components gives
  /// the exact per-lane value.
  bool pred_uniform(const CExpr& e) const {
    int64_t ctx, cty;
    return expr_coeffs(e, t, ctx, cty) && ctx == 0 && cty == 0;
  }

  void annotate_ref(CRef& r) const {
    r.row_lin = lin_of(r.row);
    r.col_lin = lin_of(r.col);
    // Flat column-major address row + col*ld, ld folded in now.
    const int64_t ld = k.arrays[static_cast<size_t>(r.array)].ld;
    CExpr addr;
    addr.constant = r.row.constant + r.col.constant * ld;
    addr.terms = r.row.terms;
    for (const auto& [slot, c] : r.col.terms) {
      bool merged = false;
      for (auto& [s2, c2] : addr.terms) {
        if (s2 == slot) {
          c2 += c * ld;
          merged = true;
          break;
        }
      }
      if (!merged) addr.terms.emplace_back(slot, c * ld);
    }
    r.addr_lin = lin_of(addr);
    r.fast = r.row_lin.uniform_ok && r.col_lin.uniform_ok;
  }

  /// True when no predicate or loop bound in `body` references `slot`
  /// (references in array subscripts are fine — they are the affine
  /// shift collapsing exploits).
  bool control_independent(const std::vector<CNode>& body, int slot) const {
    for (const CNode& n : body) {
      switch (n.kind) {
        case CNode::Kind::kLoop:
          for (const CExpr& t : n.lb.terms) {
            if (t.references(slot)) return false;
          }
          for (const CExpr& t : n.ub.terms) {
            if (t.references(slot)) return false;
          }
          if (!control_independent(n.body, slot)) return false;
          break;
        case CNode::Kind::kAssign:
        case CNode::Kind::kSync:
          break;
        case CNode::Kind::kIf:
          for (const CPred& p : n.preds) {
            if (p.expr.references(slot)) return false;
          }
          if (!control_independent(n.then_body, slot)) return false;
          if (!control_independent(n.else_body, slot)) return false;
          break;
      }
    }
    return true;
  }

  void collect_sites(const std::vector<CNode>& body,
                     std::vector<int>& out) const {
    for (const CNode& n : body) {
      switch (n.kind) {
        case CNode::Kind::kLoop:
          collect_sites(n.body, out);
          break;
        case CNode::Kind::kAssign:
          for (const CRef& l : n.loads) out.push_back(l.site);
          out.push_back(n.lhs.site);
          break;
        case CNode::Kind::kSync:
          break;
        case CNode::Kind::kIf:
          collect_sites(n.then_body, out);
          collect_sites(n.else_body, out);
          break;
      }
    }
  }

  /// Per-term thread coefficients of a bound; false when any term
  /// references a slot that is not kAffine.
  bool bound_term_coeffs(const CBound& b,
                         std::vector<std::pair<int64_t, int64_t>>& out)
      const {
    out.clear();
    out.reserve(b.terms.size());
    for (const CExpr& term : b.terms) {
      int64_t ctx, cty;
      if (!expr_coeffs(term, t, ctx, cty)) return false;
      out.emplace_back(ctx, cty);
    }
    return true;
  }

  void annotate_body(std::vector<CNode>& body) const {
    for (CNode& n : body) {
      switch (n.kind) {
        case CNode::Kind::kLoop: {
          n.loop_id = k.num_loops++;
          n.bounds_uniform = n.step > 0 &&
                             bound_term_coeffs(n.lb, n.lb_tc) &&
                             bound_term_coeffs(n.ub, n.ub_tc);
          annotate_body(n.body);
          // Collapsing is decided per execution: the executor attempts
          // it whenever the bounds resolve to lockstep iteration, and
          // commits the analytic multiply only if both representative
          // iterations ran without an interpreter fallback (control
          // independence makes the fallback pattern trip-invariant).
          if (n.bounds_uniform) {
            n.collapse_candidate = control_independent(n.body, n.var_slot);
            if (n.collapse_candidate) collect_sites(n.body, n.body_sites);
          }
          break;
        }
        case CNode::Kind::kAssign: {
          annotate_ref(n.lhs);
          n.fast = n.lhs.fast;
          for (CRef& l : n.loads) {
            annotate_ref(l);
            n.fast &= l.fast;
          }
          break;
        }
        case CNode::Kind::kSync:
          break;  // always fast under a full mask
        case CNode::Kind::kIf: {
          n.preds_uniform = true;
          for (const CPred& p : n.preds) {
            n.preds_uniform &= pred_uniform(p.expr);
          }
          annotate_body(n.then_body);
          annotate_body(n.else_body);
          break;
        }
      }
    }
  }
};

void annotate_fastpath(CompiledKernel& k) {
  // Lane-affinity fixed point over the slots: thread coordinates are
  // affine with unit coefficients, parameters and block indices with
  // zero coefficients, and a loop variable inherits the shared
  // coefficients of its lower bound's terms (see affinity_walk for
  // when it is conditional or irregular instead).
  const size_t ns = static_cast<size_t>(k.num_slots);
  AffineTable t{std::vector<SlotLane>(ns, SlotLane::kAffine),
                std::vector<int64_t>(ns, 0), std::vector<int64_t>(ns, 0),
                std::vector<uint8_t>(ns, 0)};
  if (k.thread_x_slot >= 0) {
    const size_t s = static_cast<size_t>(k.thread_x_slot);
    t.tx[s] = 1;
    t.defined[s] = 1;
  }
  if (k.thread_y_slot >= 0) {
    const size_t s = static_cast<size_t>(k.thread_y_slot);
    t.ty[s] = 1;
    t.defined[s] = 1;
  }

  // A sequential loop reusing a thread/block slot as its variable would
  // invalidate the decomposition below; no front-end produces that, but
  // guard by leaving the kernel entirely on the interpreter.
  bool collision = false;
  std::vector<const std::vector<CNode>*> stack = {&k.body};
  while (!stack.empty()) {
    const std::vector<CNode>* body = stack.back();
    stack.pop_back();
    for (const CNode& n : *body) {
      if (n.kind == CNode::Kind::kLoop) {
        if (n.var_slot == k.thread_x_slot || n.var_slot == k.thread_y_slot ||
            n.var_slot == k.block_x_slot || n.var_slot == k.block_y_slot) {
          collision = true;
        }
        stack.push_back(&n.body);
      } else if (n.kind == CNode::Kind::kIf) {
        stack.push_back(&n.then_body);
        stack.push_back(&n.else_body);
      }
    }
  }
  if (collision) {
    k.slot_lane = std::move(t.lane);
    k.slot_tx = std::move(t.tx);
    k.slot_ty = std::move(t.ty);
    return;  // every node keeps fast=false -> full interpreter fallback
  }

  bool changed = true;
  while (changed) {
    changed = false;
    affinity_walk(k.body, t, changed);
  }

  Annotator a{k, t};
  a.annotate_body(k.body);
  k.slot_lane = std::move(t.lane);
  k.slot_tx = std::move(t.tx);
  k.slot_ty = std::move(t.ty);
}

}  // namespace

int64_t CompiledKernel::signature(int64_t by, int64_t bx) const {
  std::vector<int64_t> slots(static_cast<size_t>(num_slots), 0);
  if (block_y_slot >= 0) slots[static_cast<size_t>(block_y_slot)] = by;
  if (block_x_slot >= 0) slots[static_cast<size_t>(block_x_slot)] = bx;
  // Fold the precision into the seed: an f32 and an f64 kernel with
  // identical loop structure must not alias (they lower to different
  // arithmetic — the exec cache keys off this signature).
  uint64_t hash = 1469598103 ^ (static_cast<uint64_t>(precision) + 1) *
                                   0x9E3779B97F4A7C15ull;
  signature_walk(body, slots.data(), hash);
  return static_cast<int64_t>(hash);
}

StatusOr<CompiledKernel> compile_kernel(
    const ir::Program& program, const ir::Kernel& kernel,
    const ir::Env& int_params,
    const std::map<std::string, bool>& bool_params) {
  CompiledKernel out;
  out.name = kernel.name;
  out.precision = program.precision;
  OA_ASSIGN_OR_RETURN(out.launch, ir::launch_config(kernel, int_params));

  CompileState st;
  st.program = &program;
  st.params = &int_params;
  st.bools = &bool_params;
  st.out = &out;

  // Array table: globals then kernel locals.
  Status array_error = Status::ok();
  auto add_array = [&](const ir::ArrayDecl& d) {
    CArray a;
    a.name = d.name;
    a.space = d.space;
    a.rows = d.num_rows(int_params);
    a.cols = d.num_cols(int_params);
    a.ld = d.leading_dim(int_params);
    a.elements = a.ld * a.cols;
    if (a.rows <= 0 || a.cols <= 0 ||
        a.elements > (int64_t{1} << 34)) {
      if (array_error.is_ok()) {
        array_error = internal_error(
            "array '" + d.name + "' has degenerate shape " +
            std::to_string(a.rows) + "x" + std::to_string(a.cols));
      }
    }
    st.array_ids.emplace(d.name, static_cast<int>(out.arrays.size()));
    out.arrays.push_back(a);
  };
  for (const auto& d : program.globals) add_array(d);
  for (const auto& d : kernel.local_arrays) {
    add_array(d);
    if (d.space == ir::MemSpace::kShared) {
      out.shared_bytes +=
          d.num_elements(int_params) * elem_bytes(program.precision);
    } else if (d.space == ir::MemSpace::kRegister) {
      // One 4-byte register per element word: f64 doubles the register
      // footprint, which halves occupancy / forces earlier spills.
      out.regs_per_thread +=
          d.num_elements(int_params) * elem_words(program.precision);
    }
  }

  OA_RETURN_IF_ERROR(array_error);

  // Descend through the mapped loops to the executed region.
  const std::vector<ir::NodePtr>* region = &kernel.body;
  while (region->size() == 1 && (*region)[0]->is_loop() &&
         (*region)[0]->map != ir::LoopMap::kNone) {
    const ir::Node& loop = *(*region)[0];
    const int slot = st.slot_for(loop.var);
    switch (loop.map) {
      case ir::LoopMap::kBlockY:
      case ir::LoopMap::kBlockYSerial:
        out.block_y_slot = slot;
        break;
      case ir::LoopMap::kBlockX:
        out.block_x_slot = slot;
        break;
      case ir::LoopMap::kThreadY:
        out.thread_y_slot = slot;
        break;
      case ir::LoopMap::kThreadX:
        out.thread_x_slot = slot;
        break;
      case ir::LoopMap::kNone:
        break;
    }
    region = &loop.body;
  }
  // A mapped loop below unmapped structure is unsupported.
  bool bad_nesting = false;
  ir::walk_const(*region, [&](const ir::Node& n) {
    if (n.is_loop() && n.map != ir::LoopMap::kNone) bad_nesting = true;
    return true;
  });
  if (bad_nesting) {
    return internal_error("mapped loop below sequential structure in '" +
                          kernel.name + "'");
  }

  OA_ASSIGN_OR_RETURN(out.body, compile_body(*region, st));
  annotate_fastpath(out);
  return out;
}

}  // namespace oa::gpusim
