// Lowering: gpusim::CompiledKernel -> LoweredKernel (driver tree +
// per-segment tapes). See tape.hpp for the execution model.

#include <algorithm>
#include <bit>
#include <map>
#include <utility>
#include <vector>

#include "exec/tape.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace oa::exec {

using gpusim::CArray;
using gpusim::CBound;
using gpusim::CExpr;
using gpusim::CNode;
using gpusim::COp;
using gpusim::CompiledKernel;
using gpusim::CPred;
using gpusim::CRef;

namespace {

bool body_has_sync(const std::vector<CNode>& body);

bool node_has_sync(const CNode& n) {
  switch (n.kind) {
    case CNode::Kind::kSync: return true;
    case CNode::Kind::kAssign: return false;
    case CNode::Kind::kLoop: return body_has_sync(n.body);
    case CNode::Kind::kIf:
      return body_has_sync(n.then_body) || body_has_sync(n.else_body);
  }
  return false;
}

bool body_has_sync(const std::vector<CNode>& body) {
  for (const CNode& n : body) {
    if (node_has_sync(n)) return true;
  }
  return false;
}

/// Builds one segment tape from a run of sync-free nodes. Loop
/// variables and hoisted upper bounds get dedicated locals (live across
/// iterations); each distinct slot-term set of the segment's affines
/// gets one slot-base local, computed once in the segment's prologue.
class SegmentBuilder {
 public:
  explicit SegmentBuilder(const CompiledKernel& k) : k_(k) {}

  Status add(const CNode& n) { return node(n); }

  /// The tape: slot-base prologue (known only once every affine has
  /// been seen), then the body with its jump targets shifted past it.
  Segment finish() {
    Segment seg;
    for (const auto& [slot_terms, local] : bases_) {
      TAffine aff;
      aff.first = static_cast<int32_t>(terms_.size());
      aff.count = static_cast<int32_t>(slot_terms.size());
      for (const auto& [slot, coeff] : slot_terms) {
        terms_.push_back(RTerm{slot, 0, coeff});
      }
      TIns t;
      t.op = TIns::Op::kAffine;
      t.a = local;
      t.b = static_cast<int32_t>(affines_.size());
      affines_.push_back(aff);
      seg.code.push_back(t);
    }
    const auto shift = static_cast<int32_t>(seg.code.size());
    for (TIns t : code_) {
      if (t.op == TIns::Op::kJump) t.a += shift;
      if (t.op == TIns::Op::kJumpGe || t.op == TIns::Op::kPredJump) {
        t.c += shift;
      }
      seg.code.push_back(t);
    }
    TIns ret;
    ret.op = TIns::Op::kRet;
    seg.code.push_back(ret);
    seg.affines = std::move(affines_);
    seg.terms = std::move(terms_);
    seg.num_locals = num_locals_;
    seg.max_stack = max_stack_;
    return seg;
  }

 private:
  size_t emit(const TIns& t) {
    code_.push_back(t);
    return code_.size() - 1;
  }

  int alloc_local() { return num_locals_++; }

  /// The affine of `e`, resolving each slot against the in-scope
  /// segment-local loop variables (read directly) or the lane frame
  /// (folded into the slot base of its term set; a set and its
  /// negation share one base).
  int32_t affine(const CExpr& e) {
    TAffine aff;
    aff.imm = e.constant;
    aff.first = static_cast<int32_t>(terms_.size());
    std::vector<std::pair<int, int64_t>> slot_terms;
    for (const auto& [slot, coeff] : e.terms) {
      auto it = var_local_.find(slot);
      if (it != var_local_.end()) {
        terms_.push_back(RTerm{it->second, 1, coeff});
      } else {
        slot_terms.emplace_back(slot, coeff);
      }
    }
    if (!slot_terms.empty()) {
      std::sort(slot_terms.begin(), slot_terms.end());
      const int64_t sign = slot_terms.front().second < 0 ? -1 : 1;
      for (auto& term : slot_terms) term.second *= sign;
      auto [it, fresh] = bases_.try_emplace(std::move(slot_terms), 0);
      if (fresh) it->second = alloc_local();
      terms_.push_back(RTerm{it->second, 1, sign});
    }
    aff.count = static_cast<int32_t>(terms_.size()) - aff.first;
    affines_.push_back(aff);
    return static_cast<int32_t>(affines_.size() - 1);
  }

  /// local[dst] = bound.eval_max / eval_min (lb takes the max of its
  /// terms, ub the min — the interpreter's iteration contract).
  void bound(const CBound& b, int dst, bool take_max) {
    TIns t;
    t.op = TIns::Op::kAffine;
    t.a = dst;
    t.b = affine(b.terms[0]);
    emit(t);
    for (size_t i = 1; i < b.terms.size(); ++i) {
      t.op = take_max ? TIns::Op::kMax : TIns::Op::kMin;
      t.b = affine(b.terms[i]);
      emit(t);
    }
  }

  Status push(int& depth) {
    ++depth;
    if (depth > gpusim::kMaxTapeDepth) {
      return failed_precondition("FP expression exceeds tape depth");
    }
    max_stack_ = std::max(max_stack_, depth);
    return Status::ok();
  }

  /// A load or store of `r`: the access carries its own index affines.
  TIns access(TIns::Op op, const CRef& r) {
    TIns t;
    t.op = op;
    t.a = r.array;
    t.b = affine(r.row);
    t.c = affine(r.col);
    return t;
  }

  Status assign(const CNode& n) {
    int depth = 0;
    for (const COp& op : n.tape) {
      TIns t;
      switch (op.kind) {
        case COp::Kind::kConst:
          t.op = TIns::Op::kFConst;
          t.fimm = op.constant;
          OA_RETURN_IF_ERROR(push(depth));
          break;
        case COp::Kind::kLoad:
          t = access(TIns::Op::kFLoad,
                     n.loads[static_cast<size_t>(op.load)]);
          OA_RETURN_IF_ERROR(push(depth));
          break;
        case COp::Kind::kNeg: t.op = TIns::Op::kFNeg; break;
        case COp::Kind::kAdd: t.op = TIns::Op::kFAdd; --depth; break;
        case COp::Kind::kSub: t.op = TIns::Op::kFSub; --depth; break;
        case COp::Kind::kMul: t.op = TIns::Op::kFMul; --depth; break;
        case COp::Kind::kDiv: t.op = TIns::Op::kFDiv; --depth; break;
      }
      if (depth < 1) return internal_error("malformed rhs value tape");
      emit(t);
    }
    if (depth == 0) {
      // Empty tape evaluates to 0.0 in the interpreter.
      TIns zero;
      zero.op = TIns::Op::kFConst;
      zero.fimm = 0.0;
      OA_RETURN_IF_ERROR(push(depth));
      emit(zero);
    }
    if (depth != 1) return internal_error("unbalanced rhs value tape");
    TIns st = access(TIns::Op::kFStore, n.lhs);
    st.mode = static_cast<uint8_t>(n.op);
    emit(st);
    return Status::ok();
  }

  Status loop(const CNode& n) {
    if (n.step <= 0) {
      return failed_precondition("non-positive loop step");
    }
    const int lv = alloc_local();
    const int lub = alloc_local();
    bound(n.lb, lv, /*take_max=*/true);
    bound(n.ub, lub, /*take_max=*/false);
    const size_t head = code_.size();
    TIns exit_t;
    exit_t.op = TIns::Op::kJumpGe;
    exit_t.a = lv;
    exit_t.b = lub;
    const size_t exit_ip = emit(exit_t);

    auto prev = var_local_.find(n.var_slot);
    const bool had = prev != var_local_.end();
    const int old = had ? prev->second : -1;
    var_local_[n.var_slot] = lv;
    for (const CNode& c : n.body) OA_RETURN_IF_ERROR(node(c));
    if (had) {
      var_local_[n.var_slot] = old;
    } else {
      var_local_.erase(n.var_slot);
    }

    TIns inc;
    inc.op = TIns::Op::kAddImm;
    inc.a = lv;
    inc.imm = n.step;
    emit(inc);
    TIns back;
    back.op = TIns::Op::kJump;
    back.a = static_cast<int32_t>(head);
    emit(back);
    code_[exit_ip].c = static_cast<int32_t>(code_.size());
    return Status::ok();
  }

  Status branch(const CNode& n) {
    if (n.preds.empty()) {
      // Compile-time selected version: only the then branch exists.
      for (const CNode& c : n.then_body) OA_RETURN_IF_ERROR(node(c));
      return Status::ok();
    }
    std::vector<size_t> fails;
    for (const CPred& p : n.preds) {
      TIns t;
      t.op = TIns::Op::kPredJump;
      t.mode = static_cast<uint8_t>(p.op);
      t.a = affine(p.expr);
      fails.push_back(emit(t));
    }
    for (const CNode& c : n.then_body) OA_RETURN_IF_ERROR(node(c));
    size_t else_start = code_.size();
    if (!n.else_body.empty()) {
      TIns skip;
      skip.op = TIns::Op::kJump;
      const size_t skip_ip = emit(skip);
      else_start = code_.size();
      for (const CNode& c : n.else_body) OA_RETURN_IF_ERROR(node(c));
      code_[skip_ip].a = static_cast<int32_t>(code_.size());
    }
    for (size_t ip : fails) {
      code_[ip].c = static_cast<int32_t>(else_start);
    }
    return Status::ok();
  }

  Status node(const CNode& n) {
    switch (n.kind) {
      case CNode::Kind::kAssign: return assign(n);
      case CNode::Kind::kLoop: return loop(n);
      case CNode::Kind::kIf: return branch(n);
      case CNode::Kind::kSync:
        return internal_error("barrier inside a segment");
    }
    return internal_error("unknown node kind");
  }

  const CompiledKernel& k_;
  std::vector<TIns> code_;        // body, before the slot-base prologue
  std::vector<TAffine> affines_;
  std::vector<RTerm> terms_;
  std::map<int, int> var_local_;  // slot -> segment-local loop var
  /// Sign-normalised slot-term set -> its slot-base local.
  std::map<std::vector<std::pair<int, int64_t>>, int> bases_;
  int num_locals_ = 0;
  int max_stack_ = 0;
};

class Lowerer {
 public:
  explicit Lowerer(const CompiledKernel& ck) : k_(ck) {
    uniform_.assign(static_cast<size_t>(ck.num_slots), 0);
    if (ck.block_y_slot >= 0) uniform_[ck.block_y_slot] = 1;
    if (ck.block_x_slot >= 0) uniform_[ck.block_x_slot] = 1;
  }

  StatusOr<LoweredKernel> run() {
    out_.name = k_.name;
    out_.precision = k_.precision;
    out_.launch = k_.launch;
    out_.arrays = k_.arrays;
    out_.num_slots = k_.num_slots;
    out_.block_y_slot = k_.block_y_slot;
    out_.block_x_slot = k_.block_x_slot;
    out_.thread_y_slot = k_.thread_y_slot;
    out_.thread_x_slot = k_.thread_x_slot;
    OA_RETURN_IF_ERROR(region(k_.body, out_.driver));
    for (const Segment& s : out_.segments) {
      out_.tape_ops += static_cast<int64_t>(s.code.size());
    }
    return std::move(out_);
  }

 private:
  bool expr_uniform(const CExpr& e) const {
    for (const auto& [slot, coeff] : e.terms) {
      (void)coeff;
      if (!uniform_[static_cast<size_t>(slot)]) return false;
    }
    return true;
  }
  bool bound_uniform(const CBound& b) const {
    for (const CExpr& e : b.terms) {
      if (!expr_uniform(e)) return false;
    }
    return true;
  }

  Status region(const std::vector<CNode>& body,
                std::vector<DriverNode>& dst) {
    std::vector<const CNode*> pending;
    auto flush = [&]() -> Status {
      if (pending.empty()) return Status::ok();
      SegmentBuilder sb(k_);
      for (const CNode* n : pending) OA_RETURN_IF_ERROR(sb.add(*n));
      pending.clear();
      DriverNode d;
      d.kind = DriverNode::Kind::kSegment;
      d.segment = static_cast<int>(out_.segments.size());
      out_.segments.push_back(sb.finish());
      dst.push_back(std::move(d));
      return Status::ok();
    };

    for (const CNode& n : body) {
      if (!node_has_sync(n)) {
        pending.push_back(&n);
        continue;
      }
      OA_RETURN_IF_ERROR(flush());
      switch (n.kind) {
        case CNode::Kind::kSync: {
          DriverNode d;
          d.kind = DriverNode::Kind::kSync;
          dst.push_back(std::move(d));
          break;
        }
        case CNode::Kind::kLoop: {
          // A barrier inside the loop: every lane must agree on the
          // trip sequence, exactly the hardware's convergence rule.
          if (!bound_uniform(n.lb) || !bound_uniform(n.ub)) {
            return failed_precondition(
                "barrier under a lane-divergent loop");
          }
          if (n.step <= 0) {
            return failed_precondition("non-positive loop step");
          }
          DriverNode d;
          d.kind = DriverNode::Kind::kLoop;
          d.var_slot = n.var_slot;
          d.lb = n.lb;
          d.ub = n.ub;
          d.step = n.step;
          uniform_[static_cast<size_t>(n.var_slot)] = 1;
          Status s = region(n.body, d.body);
          uniform_[static_cast<size_t>(n.var_slot)] = 0;
          OA_RETURN_IF_ERROR(s);
          dst.push_back(std::move(d));
          break;
        }
        case CNode::Kind::kIf: {
          bool uniform = true;
          for (const CPred& p : n.preds) uniform &= expr_uniform(p.expr);
          if (!uniform) {
            return failed_precondition(
                "barrier under a lane-divergent branch");
          }
          DriverNode d;
          d.kind = DriverNode::Kind::kIf;
          d.preds = n.preds;
          OA_RETURN_IF_ERROR(region(n.then_body, d.then_body));
          OA_RETURN_IF_ERROR(region(n.else_body, d.else_body));
          dst.push_back(std::move(d));
          break;
        }
        case CNode::Kind::kAssign:
          return internal_error("assign reported a barrier");
      }
    }
    return flush();
  }

  const CompiledKernel& k_;
  LoweredKernel out_;
  std::vector<uint8_t> uniform_;
};

void mix_expr(Fingerprint& fp, const CExpr& e) {
  fp.mix(e.constant).mix(static_cast<int64_t>(e.terms.size()));
  for (const auto& [slot, coeff] : e.terms) fp.mix(slot).mix(coeff);
}

void mix_bound(Fingerprint& fp, const CBound& b) {
  fp.mix(static_cast<int64_t>(b.terms.size()));
  for (const CExpr& e : b.terms) mix_expr(fp, e);
}

void mix_ref(Fingerprint& fp, const CRef& r) {
  fp.mix(r.array);
  mix_expr(fp, r.row);
  mix_expr(fp, r.col);
}

void mix_body(Fingerprint& fp, const std::vector<CNode>& body) {
  fp.mix(static_cast<int64_t>(body.size()));
  for (const CNode& n : body) {
    fp.mix(static_cast<int>(n.kind));
    switch (n.kind) {
      case CNode::Kind::kLoop:
        fp.mix(n.var_slot).mix(n.step);
        mix_bound(fp, n.lb);
        mix_bound(fp, n.ub);
        mix_body(fp, n.body);
        break;
      case CNode::Kind::kAssign:
        mix_ref(fp, n.lhs);
        fp.mix(static_cast<int>(n.op)).mix(n.rmw_load);
        fp.mix(static_cast<int64_t>(n.tape.size()));
        for (const COp& op : n.tape) {
          fp.mix(static_cast<int>(op.kind))
              .mix(std::bit_cast<int64_t>(op.constant))
              .mix(op.load);
        }
        fp.mix(static_cast<int64_t>(n.loads.size()));
        for (const CRef& r : n.loads) mix_ref(fp, r);
        break;
      case CNode::Kind::kSync:
        break;
      case CNode::Kind::kIf:
        fp.mix(static_cast<int64_t>(n.preds.size()));
        for (const CPred& p : n.preds) {
          mix_expr(fp, p.expr);
          fp.mix(static_cast<int>(p.op));
        }
        mix_body(fp, n.then_body);
        mix_body(fp, n.else_body);
        break;
    }
  }
}

}  // namespace

StatusOr<LoweredKernel> lower_kernel(const CompiledKernel& ck) {
  return Lowerer(ck).run();
}

uint64_t kernel_key(const CompiledKernel& ck) {
  Fingerprint fp;
  // Seed: the precision-folded block signatures of the grid corners
  // (ROADMAP's "keyed by CompiledKernel::signature"), then the full
  // structural walk — signatures alone collide across schedules whose
  // loop extents happen to agree.
  const int64_t gy = std::max<int64_t>(1, ck.launch.grid_y);
  const int64_t gx = std::max<int64_t>(1, ck.launch.grid_x);
  fp.mix(ck.signature(0, 0))
      .mix(ck.signature(gy - 1, 0))
      .mix(ck.signature(0, gx - 1))
      .mix(ck.signature(gy - 1, gx - 1));
  fp.mix(static_cast<int>(ck.precision)).mix(ck.name);
  fp.mix(ck.launch.grid_x)
      .mix(ck.launch.grid_y)
      .mix(ck.launch.block_x)
      .mix(ck.launch.block_y)
      .mix(ck.launch.serial_grid_y);
  fp.mix(ck.num_slots)
      .mix(ck.block_y_slot)
      .mix(ck.block_x_slot)
      .mix(ck.thread_y_slot)
      .mix(ck.thread_x_slot);
  fp.mix(static_cast<int64_t>(ck.arrays.size()));
  for (const CArray& a : ck.arrays) {
    fp.mix(a.name)
        .mix(static_cast<int>(a.space))
        .mix(a.rows)
        .mix(a.cols)
        .mix(a.ld)
        .mix(a.spilled);
  }
  mix_body(fp, ck.body);
  return fp.digest();
}

}  // namespace oa::exec
