#include "exec/jit_x86.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <optional>
#include <utility>

#include "support/strings.hpp"

namespace oa::exec {

bool jit_supported() {
#if defined(__x86_64__) || defined(_M_X64)
  return true;
#else
  return false;
#endif
}

bool jit_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  // cpuid's AVX2 bit, honoured only when XCR0 says the OS saves ymm
  // state across context switches.
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

namespace {

// General-purpose register numbers (SysV). rdi/rsi hold the two
// arguments for the whole function (no calls, never clobbered); rax,
// rcx, rdx, r8, r9 are scratch in checked code; rbp is the frame
// pointer.
constexpr int kRax = 0, kRcx = 1, kRdx = 2, kRbx = 3, kRsp = 4, kRbp = 5,
              kRsi = 6, kRdi = 7;
constexpr int kR8 = 8, kR9 = 9, kR10 = 10, kR11 = 11, kR12 = 12, kR13 = 13,
              kR14 = 14, kR15 = 15;

/// Tape locals and array base pointers live in these, hottest first.
/// The caller-saved pair comes first, so a segment with at most two hot
/// values pushes nothing; the rest are pushed in the prologue and
/// restored on every exit.
constexpr std::array<int, 7> kAllocRegs = {kR10, kR11, kRbx, kR12,
                                           kR13, kR14, kR15};
/// Scratch in checked code, free inside a proven loop: its pointer
/// induction variables take these first, then any kAllocRegs left over.
constexpr std::array<int, 4> kIvRegs = {kRcx, kRdx, kR8, kR9};

bool callee_saved(int r) { return r == kRbx || r >= kR12; }

// FP evaluation stack lives in xmm0..xmm12; loads a proven loop hoists
// take the registers above the segment's stack up to xmm14; xmm15 is
// scratch.
constexpr int kMaxXmmStack = 13;
constexpr int kXmmScratch = 15;

// Condition codes (Jcc = 0F 80+cc, CMOVcc = 0F 40+cc).
constexpr uint8_t kCcAe = 0x3;   // unsigned >=
constexpr uint8_t kCcNe = 0x5;
constexpr uint8_t kCcS = 0x8;    // sign (v < 0)
constexpr uint8_t kCcNs = 0x9;   // no sign (v >= 0)
constexpr uint8_t kCcL = 0xC;    // signed <
constexpr uint8_t kCcGe = 0xD;   // signed >=
constexpr uint8_t kCcG = 0xF;    // signed >

// Group-1 ALU opcode extensions (83 /ext ib, 81 /ext id).
constexpr int kAluAdd = 0, kAluAnd = 4, kAluSub = 5, kAluCmp = 7;

bool fits_i32(int64_t v) { return v >= INT32_MIN && v <= INT32_MAX; }
bool fits_i8(int64_t v) { return v >= -128 && v <= 127; }

/// Memory operand [base + index*scale + disp] (index < 0: none).
struct Mem {
  int base = kRsp;
  int index = -1;
  int scale = 1;
  int32_t disp = 0;
};

class Asm {
 public:
  std::vector<uint8_t> b;

  size_t size() const { return b.size(); }
  void u8(uint8_t x) { b.push_back(x); }
  void u32(uint32_t x) {
    for (int i = 0; i < 4; ++i) u8(static_cast<uint8_t>(x >> (8 * i)));
  }
  void u64(uint64_t x) {
    for (int i = 0; i < 8; ++i) u8(static_cast<uint8_t>(x >> (8 * i)));
  }
  void patch32(size_t at, uint32_t x) {
    for (int i = 0; i < 4; ++i) {
      b[at + static_cast<size_t>(i)] = static_cast<uint8_t>(x >> (8 * i));
    }
  }

  // --- encoding core -------------------------------------------------
  void rex_rr(bool w, int reg, int rm) {
    if (w || reg >= 8 || rm >= 8) {
      u8(static_cast<uint8_t>(0x40 | (w ? 8 : 0) | (reg >= 8 ? 4 : 0) |
                              (rm >= 8 ? 1 : 0)));
    }
  }
  void rex_m(bool w, int reg, const Mem& m) {
    const bool x = m.index >= 8, base = m.base >= 8;
    if (w || reg >= 8 || x || base) {
      u8(static_cast<uint8_t>(0x40 | (w ? 8 : 0) | (reg >= 8 ? 4 : 0) |
                              (x ? 2 : 0) | (base ? 1 : 0)));
    }
  }
  void modrm_rr(int reg, int rm) {
    u8(static_cast<uint8_t>(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }
  /// ModRM (+ SIB, + disp8/disp32) for `m`. rsp/r12 bases need a SIB
  /// byte; rbp/r13 bases need a displacement even when it is zero.
  void modrm_m(int reg, const Mem& m) {
    const int base = m.base & 7;
    const bool sib = m.index >= 0 || base == 4;
    const int mod = (m.disp == 0 && base != 5) ? 0 : fits_i8(m.disp) ? 1 : 2;
    u8(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) |
                            (sib ? 4 : base)));
    if (sib) {
      const int ss = m.scale == 8 ? 3 : m.scale == 4 ? 2 : m.scale == 2 ? 1 : 0;
      const int index = m.index >= 0 ? (m.index & 7) : 4;  // 4: none
      u8(static_cast<uint8_t>((ss << 6) | (index << 3) | base));
    }
    if (mod == 1) u8(static_cast<uint8_t>(m.disp));
    if (mod == 2) u32(static_cast<uint32_t>(m.disp));
  }
  /// 64-bit `opc r, r/m` with a register rm.
  void op_rr(uint8_t opc, int reg, int rm) {
    rex_rr(true, reg, rm);
    u8(opc);
    modrm_rr(reg, rm);
  }
  /// 64-bit `opc r, r/m` with a memory rm.
  void op_rm(uint8_t opc, int reg, const Mem& m) {
    rex_m(true, reg, m);
    u8(opc);
    modrm_m(reg, m);
  }

  // --- integer forms ------------------------------------------------
  void mov_rr(int dst, int src) {
    if (dst != src) op_rr(0x89, src, dst);
  }
  void mov_rm(int dst, const Mem& m) { op_rm(0x8B, dst, m); }
  void mov_mr(const Mem& m, int src) { op_rm(0x89, src, m); }
  void lea(int dst, const Mem& m) { op_rm(0x8D, dst, m); }
  void add_rr(int dst, int src) { op_rr(0x01, src, dst); }
  void sub_rr(int dst, int src) { op_rr(0x29, src, dst); }
  void add_rm(int dst, const Mem& m) { op_rm(0x03, dst, m); }
  void sub_rm(int dst, const Mem& m) { op_rm(0x2B, dst, m); }
  void cmp_rr(int a, int b) { op_rr(0x39, b, a); }          // flags a - b
  void cmp_rm(int a, const Mem& m) { op_rm(0x3B, a, m); }   // flags a - [m]
  void cmp_mr(const Mem& m, int b) { op_rm(0x39, b, m); }   // flags [m] - b
  void test_rr(int a, int b) { op_rr(0x85, b, a); }
  void neg(int r) { op_rr(0xF7, 3, r); }
  void div(int r) { op_rr(0xF7, 6, r); }  // unsigned rdx:rax / r
  void xor32(int dst, int src) {
    rex_rr(false, src, dst);
    u8(0x31);
    modrm_rr(src, dst);
  }
  void imul_rr(int dst, int src) {
    rex_rr(true, dst, src);
    u8(0x0F);
    u8(0xAF);
    modrm_rr(dst, src);
  }
  void imul_rm(int dst, const Mem& m) {
    rex_m(true, dst, m);
    u8(0x0F);
    u8(0xAF);
    modrm_m(dst, m);
  }
  /// imul dst, src, imm — the short form when imm fits in a byte.
  void imul_rri(int dst, int src, int32_t imm) {
    rex_rr(true, dst, src);
    u8(fits_i8(imm) ? 0x6B : 0x69);
    modrm_rr(dst, src);
    imm_tail(imm);
  }
  void imul_rmi(int dst, const Mem& m, int32_t imm) {
    rex_m(true, dst, m);
    u8(fits_i8(imm) ? 0x6B : 0x69);
    modrm_m(dst, m);
    imm_tail(imm);
  }
  /// Group-1 ALU op (kAlu*) of a register with an immediate.
  void alu_ri(int ext, int r, int32_t imm) {
    rex_rr(true, 0, r);
    u8(fits_i8(imm) ? 0x83 : 0x81);
    modrm_rr(ext, r);
    imm_tail(imm);
  }
  void alu_mi(int ext, const Mem& m, int32_t imm) {
    rex_m(true, 0, m);
    u8(fits_i8(imm) ? 0x83 : 0x81);
    modrm_m(ext, m);
    imm_tail(imm);
  }
  /// mov reg64, imm — the shortest encoding.
  void mov_ri(int r, int64_t imm) {
    if (fits_i32(imm)) {
      rex_rr(true, 0, r);
      u8(0xC7);
      modrm_rr(0, r);
      u32(static_cast<uint32_t>(imm));
    } else {
      rex_rr(true, 0, r);
      u8(static_cast<uint8_t>(0xB8 + (r & 7)));
      u64(static_cast<uint64_t>(imm));
    }
  }
  void mov_mi(const Mem& m, int32_t imm) {
    rex_m(true, 0, m);
    u8(0xC7);
    modrm_m(0, m);
    u32(static_cast<uint32_t>(imm));
  }
  void cmov(uint8_t cc, int dst, int src) {
    rex_rr(true, dst, src);
    u8(0x0F);
    u8(static_cast<uint8_t>(0x40 + cc));
    modrm_rr(dst, src);
  }
  void push(int r) {
    if (r >= 8) u8(0x41);
    u8(static_cast<uint8_t>(0x50 + (r & 7)));
  }
  void pop(int r) {
    if (r >= 8) u8(0x41);
    u8(static_cast<uint8_t>(0x58 + (r & 7)));
  }

  // --- jumps (rel32, patched later) ---------------------------------
  size_t jmp() {
    u8(0xE9);
    const size_t at = size();
    u32(0);
    return at;
  }
  size_t jcc(uint8_t cc) {
    u8(0x0F);
    u8(static_cast<uint8_t>(0x80 + cc));
    const size_t at = size();
    u32(0);
    return at;
  }

  // --- SSE ----------------------------------------------------------
  void sse_rr(uint8_t prefix, uint8_t opc, int xreg, int xrm) {
    if (prefix != 0) u8(prefix);
    rex_rr(false, xreg, xrm);
    u8(0x0F);
    u8(opc);
    modrm_rr(xreg, xrm);
  }
  void sse_rm(uint8_t prefix, uint8_t opc, int xreg, const Mem& m) {
    if (prefix != 0) u8(prefix);
    rex_m(false, xreg, m);
    u8(0x0F);
    u8(opc);
    modrm_m(xreg, m);
  }
  /// movq xmm, r64
  void movq_x_r(int xreg, int reg) {
    u8(0x66);
    rex_rr(true, xreg, reg);
    u8(0x0F);
    u8(0x6E);
    modrm_rr(xreg, reg);
  }

  // --- AVX (VEX prefix; pp 0/1/2/3 = none/66/F3/F2, map 1/2 =
  // 0F/0F38, l selects ymm, vvvv is the extra source or 0) ------------
  void vex(int pp, int map, bool w, bool l, int reg, int vvvv, bool x,
           bool base) {
    const int tail = ((~vvvv & 15) << 3) | (l ? 4 : 0) | pp;
    if (map == 1 && !w && !x && !base) {
      u8(0xC5);
      u8(static_cast<uint8_t>((reg >= 8 ? 0 : 0x80) | tail));
    } else {
      u8(0xC4);
      u8(static_cast<uint8_t>((reg >= 8 ? 0 : 0x80) | (x ? 0 : 0x40) |
                              (base ? 0 : 0x20) | map));
      u8(static_cast<uint8_t>((w ? 0x80 : 0) | tail));
    }
  }
  void vex_rr(int pp, int map, bool w, bool l, uint8_t opc, int reg,
              int vvvv, int rm) {
    vex(pp, map, w, l, reg, vvvv, false, rm >= 8);
    u8(opc);
    modrm_rr(reg, rm);
  }
  void vex_rm(int pp, int map, bool l, uint8_t opc, int reg,
              const Mem& m) {
    vex(pp, map, false, l, reg, 0, m.index >= 8, m.base >= 8);
    u8(opc);
    modrm_m(reg, m);
  }
  void vzeroupper() {
    u8(0xC5);
    u8(0xF8);
    u8(0x77);
  }

 private:
  void imm_tail(int32_t imm) {
    if (fits_i8(imm)) {
      u8(static_cast<uint8_t>(imm));
    } else {
      u32(static_cast<uint32_t>(imm));
    }
  }
};

/// Where a tape local lives: a register, or the stack slot [rsp + disp].
struct Loc {
  int reg = -1;
  int32_t disp = 0;
  bool in_reg() const { return reg >= 0; }
  Mem mem() const { return Mem{kRsp, -1, 1, disp}; }
};

/// An operand read by an affine term: a register or a memory cell.
struct Src {
  int reg = -1;
  Mem mem;
};

bool straight_line(TIns::Op op) {
  switch (op) {
    case TIns::Op::kFConst:
    case TIns::Op::kFLoad:
    case TIns::Op::kFNeg:
    case TIns::Op::kFAdd:
    case TIns::Op::kFSub:
    case TIns::Op::kFMul:
    case TIns::Op::kFDiv:
    case TIns::Op::kFStore:
      return true;
    default:
      return false;
  }
}

/// An affine split around one loop variable: imm + lv_coeff*lv +
/// sum(coeff * term), terms keyed (is_local, src) and free of lv.
struct Lin {
  int64_t imm = 0;
  int64_t lv_coeff = 0;
  std::map<std::pair<int, int>, int64_t> terms;
};

/// An innermost straight-line loop, versioned on entry: when every
/// access's row and col are in range at the first and the last trip
/// (affine in the loop variable, so in range on every trip), an
/// unchecked copy runs, addressing each access through a pointer
/// induction variable and reading loop-invariant loads of arrays the
/// loop never stores from xmm registers filled once; otherwise the
/// checked copy runs. On AVX2 hosts an unchecked loop whose trips are
/// independent (the test at the end of plan()) first runs four trips at
/// a time in vector registers, then hands the rest to the scalar
/// unchecked copy.
struct LoopPlan {
  size_t head = 0, end = 0;  // the kJumpGe; the exit (past the back jump)
  int lv = 0, limit = 0;
  int64_t step = 1;
  bool vector = false;  // emit the four-trip copy
  /// Accesses to one array whose flat offsets differ by a constant
  /// share one pointer: `flat` is the first member's flat index.
  struct Group {
    int array = 0;
    Lin flat;
    bool streamed = false;  // read or written through its pointer
    Loc ptr;
  };
  struct Access {
    int group = 0;
    int32_t disp = 0;  // bytes from the group's pointer
    int xmm = -1;      // hoisted load: the register holding its value
  };
  /// One index to prove: affine id, extent, loop-variable coefficient.
  struct Check {
    int32_t affine = 0;
    int64_t extent = 0;
    int64_t lv_coeff = 0;
  };
  std::vector<Group> groups;
  std::map<size_t, Access> access;           // by body ip
  std::vector<std::pair<size_t, int>> hoists;  // (body ip, xmm) to fill
  std::vector<Check> checks;
};

/// Per-segment emitter.
class SegmentEmitter {
 public:
  SegmentEmitter(const LoweredKernel& lk, const Segment& seg, Asm& a)
      : lk_(lk), seg_(seg), a_(a), f64_(lk.precision == Precision::kF64) {}

  /// Loops emitted with a four-trip copy (valid after emit()).
  int vector_loops() const {
    return static_cast<int>(
        std::count_if(plans_.begin(), plans_.end(),
                      [](const auto& kv) { return kv.second.vector; }));
  }

  Status emit() {
    if (seg_.max_stack > kMaxXmmStack) {
      return failed_precondition(
          "FP stack exceeds the JIT xmm register file");
    }
    const size_t n = seg_.code.size();
    label_off_.assign(n + 1, kUnbound);
    allocate();
    plan_loops();

    // Prologue. rdi/rsi stay live as the argument registers.
    a_.push(kRbp);
    a_.mov_rr(kRbp, kRsp);
    for (int r : saved_) a_.push(r);
    if (frame_ > 0) a_.alu_ri(kAluSub, kRsp, frame_);
    for (size_t i = 0; i < base_reg_.size(); ++i) {
      if (base_reg_[i] >= 0) a_.mov_rm(base_reg_[i], array_mem(i));
    }

    epilogue_ = new_label();
    for (size_t ip = 0; ip < n;) {
      bind(static_cast<int>(ip));
      if (const auto it = plans_.find(ip); it != plans_.end()) {
        emit_loop(it->second);
        ip = it->second.end;
        continue;
      }
      ins(seg_.code[ip]);
      ++ip;
    }
    bind(static_cast<int>(n));
    if (label_off_[static_cast<size_t>(epilogue_)] == kUnbound) {
      bind(epilogue_);
      epilogue();
    }

    // Per-access failure stubs, off the hot path: recompute the
    // faulting access's row (rax) and col (rcx), record it in the
    // trailing ErrorCell, and leave through the epilogue.
    if (!stubs_.empty()) {
      const int fail = new_label();
      for (const auto& [label, t] : stubs_) {
        bind(label);
        affine_into(kRax, t->b, kRdx);
        affine_into(kRcx, t->c, kRdx);
        a_.mov_ri(kR8, t->a);
        jmp_to(fail);
      }
      bind(fail);
      a_.mov_rm(kR9, array_mem(lk_.arrays.size()));
      a_.mov_mi(Mem{kR9, -1, 1, 0}, 1);   // err.failed = 1
      a_.mov_mr(Mem{kR9, -1, 1, 8}, kR8);   // err.array
      a_.mov_mr(Mem{kR9, -1, 1, 16}, kRax);  // err.row
      a_.mov_mr(Mem{kR9, -1, 1, 24}, kRcx);  // err.col
      jmp_to(epilogue_);
    }

    for (const auto& [at, label] : fixups_) {
      const size_t target = label_off_[static_cast<size_t>(label)];
      if (target == kUnbound) return internal_error("unbound JIT label");
      a_.patch32(at, static_cast<uint32_t>(target - (at + 4)));
    }
    return Status::ok();
  }

 private:
  static constexpr size_t kUnbound = SIZE_MAX;

  // --- labels: ids 0..n are tape ips, the rest internal -------------
  int new_label() {
    label_off_.push_back(kUnbound);
    return static_cast<int>(label_off_.size() - 1);
  }
  void bind(int label) { label_off_[static_cast<size_t>(label)] = a_.size(); }
  void jmp_to(int label) { fixups_.emplace_back(a_.jmp(), label); }
  void jcc_to(uint8_t cc, int label) {
    fixups_.emplace_back(a_.jcc(cc), label);
  }
  /// Jumps back to an already emitted offset.
  void jmp_back(size_t target) {
    const size_t at = a_.jmp();
    a_.patch32(at, static_cast<uint32_t>(target - (at + 4)));
  }
  void jcc_back(uint8_t cc, size_t target) {
    const size_t at = a_.jcc(cc);
    a_.patch32(at, static_cast<uint32_t>(target - (at + 4)));
  }

  static Mem array_mem(size_t array) {
    return Mem{kRdi, -1, 1, static_cast<int32_t>(8 * array)};
  }

  /// Loop-depth-weighted register allocation of tape locals and array
  /// base pointers: every use at loop depth d weighs 16^d; the seven
  /// heaviest get kAllocRegs, the other locals stack slots.
  void allocate() {
    const std::vector<TIns>& code = seg_.code;
    std::vector<int> depth(code.size(), 0);
    for (size_t j = 0; j < code.size(); ++j) {
      if (code[j].op == TIns::Op::kJump &&
          static_cast<size_t>(code[j].a) <= j) {
        for (size_t ip = static_cast<size_t>(code[j].a); ip <= j; ++ip) {
          ++depth[ip];
        }
      }
    }
    const size_t nl = static_cast<size_t>(seg_.num_locals);
    const size_t na = lk_.arrays.size();
    std::vector<uint64_t> weight(nl + na, 0);
    auto use_affine = [&](int32_t id, uint64_t w) {
      const TAffine& aff = seg_.affines[static_cast<size_t>(id)];
      for (int32_t i = 0; i < aff.count; ++i) {
        const RTerm& rt = seg_.terms[static_cast<size_t>(aff.first + i)];
        if (rt.is_local != 0) weight[static_cast<size_t>(rt.src)] += w;
      }
    };
    for (size_t ip = 0; ip < code.size(); ++ip) {
      const TIns& t = code[ip];
      const uint64_t w = uint64_t{1} << (4 * std::min(depth[ip], 12));
      switch (t.op) {
        case TIns::Op::kAffine:
        case TIns::Op::kMin:
        case TIns::Op::kMax:
          weight[static_cast<size_t>(t.a)] += w;
          use_affine(t.b, w);
          break;
        case TIns::Op::kAddImm:
          weight[static_cast<size_t>(t.a)] += w;
          break;
        case TIns::Op::kJumpGe:
          weight[static_cast<size_t>(t.a)] += w;
          weight[static_cast<size_t>(t.b)] += w;
          break;
        case TIns::Op::kPredJump:
          use_affine(t.a, w);
          break;
        case TIns::Op::kFLoad:
        case TIns::Op::kFStore:
          use_affine(t.b, w);
          use_affine(t.c, w);
          weight[nl + static_cast<size_t>(t.a)] += w;
          break;
        default:
          break;
      }
    }
    std::vector<size_t> order(weight.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      return weight[x] > weight[y];
    });
    loc_.assign(nl, Loc{});
    base_reg_.assign(na, -1);
    for (size_t c : order) {
      if (weight[c] == 0 || next_reg_ == kAllocRegs.size()) break;
      const int reg = kAllocRegs[next_reg_++];
      use_reg(reg);
      if (c < nl) {
        loc_[c].reg = reg;
      } else {
        base_reg_[c - nl] = reg;
      }
    }
    for (Loc& l : loc_) {
      if (!l.in_reg()) l.disp = 8 * num_slots_++;
    }
  }

  void use_reg(int reg) {
    if (callee_saved(reg) &&
        std::find(saved_.begin(), saved_.end(), reg) == saved_.end()) {
      saved_.push_back(reg);
    }
  }

  Lin lin(int32_t id, int lv) const {
    const TAffine& aff = seg_.affines[static_cast<size_t>(id)];
    Lin l;
    l.imm = aff.imm;
    for (int32_t i = 0; i < aff.count; ++i) {
      const RTerm& rt = seg_.terms[static_cast<size_t>(aff.first + i)];
      if (rt.is_local != 0 && rt.src == lv) {
        l.lv_coeff += rt.coeff;
      } else {
        l.terms[{rt.is_local, rt.src}] += rt.coeff;
      }
    }
    std::erase_if(l.terms, [](const auto& kv) { return kv.second == 0; });
    return l;
  }

  /// row + col*ld, or nothing when a coefficient would overflow.
  static std::optional<Lin> flat_index(const Lin& row, const Lin& col,
                                       int64_t ld) {
    Lin f = row;
    int64_t v = 0;
    if (__builtin_mul_overflow(col.imm, ld, &v) ||
        __builtin_add_overflow(f.imm, v, &f.imm) ||
        __builtin_mul_overflow(col.lv_coeff, ld, &v) ||
        __builtin_add_overflow(f.lv_coeff, v, &f.lv_coeff)) {
      return std::nullopt;
    }
    for (const auto& [key, coeff] : col.terms) {
      if (__builtin_mul_overflow(coeff, ld, &v) ||
          __builtin_add_overflow(f.terms[key], v, &f.terms[key])) {
        return std::nullopt;
      }
    }
    std::erase_if(f.terms, [](const auto& kv) { return kv.second == 0; });
    return f;
  }

  static bool byte_scaled_fits(int64_t v) {
    int64_t bytes = 0;
    return !__builtin_mul_overflow(v, int64_t{8}, &bytes) && fits_i32(bytes);
  }

  /// The versioning plan of the loop headed at `head`, or nothing when
  /// it is not an innermost straight-line loop of the lowering's shape
  /// (or its strides do not fit the encodings).
  std::optional<LoopPlan> plan(size_t head,
                               const std::vector<bool>& targeted) const {
    const std::vector<TIns>& code = seg_.code;
    const TIns& h = code[head];
    const size_t end = static_cast<size_t>(h.c);
    if (h.a == h.b || end < head + 3 || end > code.size()) {
      return std::nullopt;
    }
    const TIns& latch = code[end - 2];
    const TIns& back = code[end - 1];
    if (back.op != TIns::Op::kJump || static_cast<size_t>(back.a) != head ||
        latch.op != TIns::Op::kAddImm || latch.a != h.a || latch.imm <= 0 ||
        !fits_i32(latch.imm)) {
      return std::nullopt;
    }
    for (size_t ip = head + 1; ip < end; ++ip) {
      if (targeted[ip]) return std::nullopt;
      if (ip < end - 2 && !straight_line(code[ip].op)) return std::nullopt;
    }

    LoopPlan p;
    p.head = head;
    p.end = end;
    p.lv = h.a;
    p.limit = h.b;
    p.step = latch.imm;
    std::vector<bool> stored(lk_.arrays.size(), false);
    for (size_t ip = head + 1; ip < end - 2; ++ip) {
      if (code[ip].op == TIns::Op::kFStore) {
        stored[static_cast<size_t>(code[ip].a)] = true;
      }
    }
    int next_xmm = seg_.max_stack;
    for (size_t ip = head + 1; ip < end - 2; ++ip) {
      const TIns& t = code[ip];
      if (t.op != TIns::Op::kFLoad && t.op != TIns::Op::kFStore) continue;
      const gpusim::CArray& arr = lk_.arrays[static_cast<size_t>(t.a)];
      const Lin row = lin(t.b, p.lv), col = lin(t.c, p.lv);
      if (!fits_i32(row.lv_coeff) || !fits_i32(col.lv_coeff)) {
        return std::nullopt;
      }
      p.checks.push_back({t.b, arr.rows, row.lv_coeff});
      p.checks.push_back({t.c, arr.cols, col.lv_coeff});
      const std::optional<Lin> flat = flat_index(row, col, arr.ld);
      int64_t stride = 0;
      if (!flat || !byte_scaled_fits(flat->imm) ||
          __builtin_mul_overflow(flat->lv_coeff, p.step, &stride) ||
          !byte_scaled_fits(stride)) {
        return std::nullopt;
      }
      for (const auto& [key, coeff] : flat->terms) {
        if (!byte_scaled_fits(coeff)) return std::nullopt;
      }
      LoopPlan::Access acc;
      acc.group = -1;
      for (size_t g = 0; g < p.groups.size(); ++g) {
        const LoopPlan::Group& grp = p.groups[g];
        if (grp.array == t.a && grp.flat.lv_coeff == flat->lv_coeff &&
            grp.flat.terms == flat->terms &&
            byte_scaled_fits(flat->imm - grp.flat.imm)) {
          acc.group = static_cast<int>(g);
          acc.disp = static_cast<int32_t>(8 * (flat->imm - grp.flat.imm));
          break;
        }
      }
      if (acc.group < 0) {
        acc.group = static_cast<int>(p.groups.size());
        p.groups.push_back(LoopPlan::Group{t.a, *flat, false, Loc{}});
      }
      if (t.op == TIns::Op::kFLoad && flat->lv_coeff == 0 &&
          !stored[static_cast<size_t>(t.a)]) {
        for (const auto& [hip, xmm] : p.hoists) {
          const LoopPlan::Access& other = p.access.at(hip);
          if (other.group == acc.group && other.disp == acc.disp) {
            acc.xmm = xmm;
            break;
          }
        }
        if (acc.xmm < 0 && next_xmm < kXmmScratch) {
          acc.xmm = next_xmm++;
          p.hoists.emplace_back(ip, acc.xmm);
        }
      }
      if (acc.xmm < 0) p.groups[static_cast<size_t>(acc.group)].streamed = true;
      p.access.emplace(ip, acc);
    }

    // Independence test for the four-trip copy, which runs the memory
    // operations of four trips per op instead of per trip. That is
    // unobservable when no trip touches an element another trip
    // writes: every access not hoisted moves one element per trip, so
    // four trips touch four distinct elements, and every access to an
    // array the loop stores has one flat index (group and
    // displacement), so an element written by a trip is touched by
    // that trip alone. Distinct arrays never share storage: run_block
    // binds each to its own allocation (a global to the call's buffer
    // of its name, which compile_kernel maps to one array id).
    p.vector = jit_avx2() && p.step == 1;
    std::map<int, std::pair<int, int32_t>> stored_index;
    for (const auto& [ip, acc] : p.access) {
      if (acc.xmm < 0 &&
          p.groups[static_cast<size_t>(acc.group)].flat.lv_coeff != 1) {
        p.vector = false;
      }
      const int array = code[ip].a;
      if (!stored[static_cast<size_t>(array)]) continue;
      const auto [it, fresh] =
          stored_index.try_emplace(array, acc.group, acc.disp);
      if (!fresh && it->second != std::pair{acc.group, acc.disp}) {
        p.vector = false;
      }
    }
    return p;
  }

  /// Plans every versionable loop and places its pointer induction
  /// variables: kIvRegs, then registers allocate() left over, then
  /// stack slots past the locals (shared by all loops).
  void plan_loops() {
    const std::vector<TIns>& code = seg_.code;
    std::vector<bool> targeted(code.size() + 1, false);
    for (const TIns& t : code) {
      if (t.op == TIns::Op::kJump) targeted[static_cast<size_t>(t.a)] = true;
      if (t.op == TIns::Op::kJumpGe || t.op == TIns::Op::kPredJump) {
        targeted[static_cast<size_t>(t.c)] = true;
      }
    }
    int iv_slots = 0;
    for (size_t ip = 0; ip < code.size(); ++ip) {
      if (code[ip].op != TIns::Op::kJumpGe) continue;
      std::optional<LoopPlan> p = plan(ip, targeted);
      if (!p) continue;
      std::vector<int> pool(kIvRegs.begin(), kIvRegs.end());
      pool.insert(pool.end(), kAllocRegs.begin() + next_reg_,
                  kAllocRegs.end());
      size_t next = 0;
      int slots = 0;
      for (LoopPlan::Group& g : p->groups) {
        if (!g.streamed) continue;
        if (next < pool.size()) {
          g.ptr.reg = pool[next++];
          use_reg(g.ptr.reg);
        } else {
          g.ptr.disp = 8 * (num_slots_ + slots++);
        }
      }
      iv_slots = std::max(iv_slots, slots);
      plans_.emplace(ip, std::move(*p));
    }
    frame_ = 8 * (num_slots_ + iv_slots);
    std::sort(saved_.begin(), saved_.end());
  }

  void epilogue() {
    if (frame_ > 0) a_.alu_ri(kAluAdd, kRsp, frame_);
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) a_.pop(*it);
    a_.pop(kRbp);
    a_.u8(0xC3);  // ret
  }

  // --- integer values -----------------------------------------------
  Src src_of(int is_local, int src) const {
    if (is_local != 0) {
      const Loc& l = loc_[static_cast<size_t>(src)];
      if (l.in_reg()) return Src{l.reg, {}};
      return Src{-1, l.mem()};
    }
    return Src{-1, Mem{kRsi, -1, 1, 8 * src}};
  }

  void load(int dst, const Src& s) {
    if (s.reg >= 0) {
      a_.mov_rr(dst, s.reg);
    } else {
      a_.mov_rm(dst, s.mem);
    }
  }

  /// dst = s * coeff (dst not read by s).
  void scaled(int dst, const Src& s, int64_t coeff) {
    if (coeff == 1 || coeff == -1) {
      load(dst, s);
      if (coeff == -1) a_.neg(dst);
    } else if (fits_i32(coeff)) {
      if (s.reg >= 0) {
        a_.imul_rri(dst, s.reg, static_cast<int32_t>(coeff));
      } else {
        a_.imul_rmi(dst, s.mem, static_cast<int32_t>(coeff));
      }
    } else {
      a_.mov_ri(dst, coeff);
      if (s.reg >= 0) {
        a_.imul_rr(dst, s.reg);
      } else {
        a_.imul_rm(dst, s.mem);
      }
    }
  }

  /// dst = affines[id] as mov/lea/add (imul only for coefficients
  /// other than ±1, 2, 4, 8). `tmp` is clobbered; neither register may
  /// be read by the affine.
  void affine_into(int dst, int32_t id, int tmp) {
    const TAffine& aff = seg_.affines[static_cast<size_t>(id)];
    int64_t imm = aff.imm;
    bool init = false;
    for (int32_t i = 0; i < aff.count; ++i) {
      const RTerm& rt = seg_.terms[static_cast<size_t>(aff.first + i)];
      if (rt.coeff == 0) continue;
      const Src s = src_of(rt.is_local, rt.src);
      if (!init) {
        if (rt.coeff == 1 && s.reg >= 0 && imm != 0 && fits_i32(imm)) {
          a_.lea(dst, Mem{s.reg, -1, 1, static_cast<int32_t>(imm)});
          imm = 0;
        } else {
          scaled(dst, s, rt.coeff);
        }
        init = true;
      } else if (rt.coeff == 1) {
        if (s.reg >= 0) {
          a_.add_rr(dst, s.reg);
        } else {
          a_.add_rm(dst, s.mem);
        }
      } else if (rt.coeff == -1) {
        if (s.reg >= 0) {
          a_.sub_rr(dst, s.reg);
        } else {
          a_.sub_rm(dst, s.mem);
        }
      } else if (s.reg >= 0 &&
                 (rt.coeff == 2 || rt.coeff == 4 || rt.coeff == 8)) {
        a_.lea(dst, Mem{dst, s.reg, static_cast<int>(rt.coeff), 0});
      } else {
        scaled(tmp, s, rt.coeff);
        a_.add_rr(dst, tmp);
      }
    }
    if (!init) {
      a_.mov_ri(dst, imm);
    } else if (imm != 0) {
      if (fits_i32(imm)) {
        a_.alu_ri(kAluAdd, dst, static_cast<int32_t>(imm));
      } else {
        a_.mov_ri(tmp, imm);
        a_.add_rr(dst, tmp);
      }
    }
  }

  bool reads_local(int32_t id, int local) const {
    const TAffine& aff = seg_.affines[static_cast<size_t>(id)];
    for (int32_t i = 0; i < aff.count; ++i) {
      const RTerm& rt = seg_.terms[static_cast<size_t>(aff.first + i)];
      if (rt.is_local != 0 && rt.src == local) return true;
    }
    return false;
  }

  /// The register already holding affines[id] (a lone register local),
  /// or -1.
  int plain_reg(int32_t id) const {
    const TAffine& aff = seg_.affines[static_cast<size_t>(id)];
    if (aff.imm != 0 || aff.count != 1) return -1;
    const RTerm& rt = seg_.terms[static_cast<size_t>(aff.first)];
    if (rt.is_local == 0 || rt.coeff != 1) return -1;
    return loc_[static_cast<size_t>(rt.src)].reg;
  }

  void cmp_locals(int x, int y) {
    const Loc& lx = loc_[static_cast<size_t>(x)];
    const Loc& ly = loc_[static_cast<size_t>(y)];
    if (lx.in_reg() && ly.in_reg()) {
      a_.cmp_rr(lx.reg, ly.reg);
    } else if (lx.in_reg()) {
      a_.cmp_rm(lx.reg, ly.mem());
    } else if (ly.in_reg()) {
      a_.cmp_mr(lx.mem(), ly.reg);
    } else {
      a_.mov_rm(kRax, lx.mem());
      a_.cmp_rm(kRax, ly.mem());
    }
  }

  void add_imm(int local, int64_t imm) {
    const Loc& l = loc_[static_cast<size_t>(local)];
    if (fits_i32(imm)) {
      if (l.in_reg()) {
        a_.alu_ri(kAluAdd, l.reg, static_cast<int32_t>(imm));
      } else {
        a_.alu_mi(kAluAdd, l.mem(), static_cast<int32_t>(imm));
      }
      return;
    }
    a_.mov_ri(kRax, imm);
    if (l.in_reg()) {
      a_.add_rr(l.reg, kRax);
    } else {
      a_.add_rm(kRax, l.mem());
      a_.mov_mr(l.mem(), kRax);
    }
  }

  /// cmp r, extent (rdx holds an extent beyond imm32).
  void cmp_extent(int r, int64_t extent) {
    if (fits_i32(extent)) {
      a_.alu_ri(kAluCmp, r, static_cast<int32_t>(extent));
    } else {
      a_.mov_ri(kRdx, extent);
      a_.cmp_rr(r, kRdx);
    }
  }

  // --- memory accesses ----------------------------------------------
  /// Bounds-checked element of t's access: row and col (a register
  /// local read in place, else computed into rax/rcx) are compared
  /// against rows and cols, a miss jumps to the access's failure stub,
  /// and the element is [base + rdx*8].
  Mem checked_address(const TIns& t) {
    const gpusim::CArray& arr = lk_.arrays[static_cast<size_t>(t.a)];
    int row = plain_reg(t.b);
    if (row < 0) {
      affine_into(kRax, t.b, kRdx);
      row = kRax;
    }
    int col = plain_reg(t.c);
    if (col < 0) {
      affine_into(kRcx, t.c, kRdx);
      col = kRcx;
    }
    const int stub = new_label();
    stubs_.emplace_back(stub, &t);
    cmp_extent(row, arr.rows);
    jcc_to(kCcAe, stub);  // (unsigned)row >= rows
    cmp_extent(col, arr.cols);
    jcc_to(kCcAe, stub);
    if (arr.ld == 1) {
      a_.lea(kRdx, Mem{row, col, 1, 0});
    } else {
      if (fits_i32(arr.ld)) {
        a_.imul_rri(kRdx, col, static_cast<int32_t>(arr.ld));
      } else {
        a_.mov_ri(kRdx, arr.ld);
        a_.imul_rr(kRdx, col);
      }
      a_.add_rr(kRdx, row);
    }
    int base = base_reg_[static_cast<size_t>(t.a)];
    if (base < 0) {
      a_.mov_rm(kR9, array_mem(static_cast<size_t>(t.a)));
      base = kR9;
    }
    return Mem{base, kRdx, 8, 0};
  }

  /// SSE/AVX arithmetic opcode (0F map) of a binary op or compound
  /// assignment.
  static uint8_t arith_opc(TIns::Op op) {
    switch (op) {
      case TIns::Op::kFSub: return 0x5C;
      case TIns::Op::kFMul: return 0x59;
      case TIns::Op::kFDiv: return 0x5E;
      default: return 0x58;  // kFAdd
    }
  }
  static uint8_t assign_opc(ir::AssignOp mode) {
    switch (mode) {
      case ir::AssignOp::kSubAssign: return 0x5C;
      case ir::AssignOp::kDivAssign: return 0x5E;
      default: return 0x58;  // kAddAssign
    }
  }

  /// x = the element at m. The f32 conversions below write only the
  /// low lane, so each first zeroes its target (xorps): otherwise every
  /// trip would wait on the register's previous value.
  void sload(int x, const Mem& m) {
    if (f64_) {
      a_.sse_rm(0xF2, 0x10, x, m);  // movsd x, [m]
    } else {
      a_.sse_rr(0, 0x57, x, x);     // xorps
      a_.sse_rm(0xF2, 0x5A, x, m);  // cvtsd2ss x, m64
    }
  }

  void fload(const Mem& m) { sload(stack_++, m); }

  void fstore(uint8_t mode_byte, const Mem& m) {
    --stack_;  // pop the value
    const auto mode = static_cast<ir::AssignOp>(mode_byte);
    if (mode == ir::AssignOp::kAssign) {
      if (f64_) {
        a_.sse_rm(0xF2, 0x11, stack_, m);  // movsd [m], x
      } else {
        a_.sse_rr(0, 0x57, kXmmScratch, kXmmScratch);  // xorps
        a_.sse_rr(0xF3, 0x5A, kXmmScratch, stack_);    // cvtss2sd
        a_.sse_rm(0xF2, 0x11, kXmmScratch, m);
      }
      return;
    }
    // x15 = cell; x15 op= value; widen (f32); store.
    sload(kXmmScratch, m);
    a_.sse_rr(f64_ ? 0xF2 : 0xF3, assign_opc(mode), kXmmScratch, stack_);
    if (!f64_) a_.sse_rr(0xF3, 0x5A, kXmmScratch, kXmmScratch);  // cvtss2sd
    a_.sse_rm(0xF2, 0x11, kXmmScratch, m);
  }

  /// The FP ops that touch no memory.
  void fop(const TIns& t) {
    switch (t.op) {
      case TIns::Op::kFConst:
        a_.mov_ri(kRax, static_cast<int64_t>(std::bit_cast<uint64_t>(t.fimm)));
        a_.movq_x_r(stack_, kRax);
        if (!f64_) {
          // Pre-rounded constant: the narrowing conversion is exact.
          a_.sse_rr(0xF2, 0x5A, stack_, stack_);  // cvtsd2ss
        }
        ++stack_;
        break;
      case TIns::Op::kFNeg:
        // Flip the sign bit of the top of stack via xmm15.
        if (f64_) {
          a_.mov_ri(kRax, INT64_MIN);
          a_.movq_x_r(kXmmScratch, kRax);
          a_.sse_rr(0x66, 0x57, stack_ - 1, kXmmScratch);  // xorpd
        } else {
          a_.mov_ri(kRax, 0x80000000ll);
          a_.movq_x_r(kXmmScratch, kRax);
          a_.sse_rr(0, 0x57, stack_ - 1, kXmmScratch);     // xorps
        }
        break;
      default:
        a_.sse_rr(f64_ ? 0xF2 : 0xF3, arith_opc(t.op), stack_ - 2,
                  stack_ - 1);
        --stack_;
        break;
    }
  }

  // --- the four-trip copy: f64 lanes in ymm, f32 lanes in xmm -------
  // Every instruction is VEX-encoded (no legacy SSE while the upper
  // halves are live), and each lane gets the scalar copy's operations
  // in its operand order.

  /// Packed `opc` (0F map): the pd form on ymm for f64, ps on xmm for
  /// f32. vvvv = src1 (0 for the two-operand moves).
  void vop(uint8_t opc, int dst, int src1, int src2) {
    a_.vex_rr(f64_ ? 1 : 0, 1, false, f64_, opc, dst, src1, src2);
  }
  /// Every lane of dst = the low lane of src.
  void vbroadcast(int dst, int src) {
    if (f64_) {
      a_.vex_rr(1, 2, false, true, 0x19, dst, 0, src);   // vbroadcastsd
    } else {
      a_.vex_rr(1, 2, false, false, 0x18, dst, 0, src);  // vbroadcastss
    }
  }
  /// Every lane of dst = the element encoded by `bits` (via rax).
  void vsplat(int dst, uint64_t bits) {
    a_.mov_ri(kRax, static_cast<int64_t>(bits));
    a_.vex_rr(1, 1, f64_, false, 0x6E, dst, 0, kRax);  // vmovq / vmovd
    vbroadcast(dst, dst);
  }
  /// dst = the four elements at m (f32: narrowed, as cvtsd2ss does).
  void vload(int dst, const Mem& m) {
    a_.vex_rm(1, 1, true, f64_ ? 0x10 : 0x5A, dst, m);  // vmovupd/vcvtpd2ps
  }
  /// The four elements at m = src (f32: widened in ymm15 first).
  void vput(const Mem& m, int src) {
    if (!f64_) {
      a_.vex_rr(0, 1, false, true, 0x5A, kXmmScratch, 0, src);  // vcvtps2pd
      src = kXmmScratch;
    }
    a_.vex_rm(1, 1, true, 0x11, src, m);  // vmovupd
  }

  void vstore(uint8_t mode_byte, const Mem& m) {
    --stack_;
    const auto mode = static_cast<ir::AssignOp>(mode_byte);
    if (mode == ir::AssignOp::kAssign) {
      vput(m, stack_);
      return;
    }
    vload(kXmmScratch, m);  // cell op value, as the scalar copy
    vop(assign_opc(mode), kXmmScratch, kXmmScratch, stack_);
    vput(m, kXmmScratch);
  }

  void vfop(const TIns& t) {
    switch (t.op) {
      case TIns::Op::kFConst:
        vsplat(stack_++,
               f64_ ? std::bit_cast<uint64_t>(t.fimm)
                    : std::bit_cast<uint32_t>(static_cast<float>(t.fimm)));
        break;
      case TIns::Op::kFNeg:
        vsplat(kXmmScratch, f64_ ? uint64_t{1} << 63 : uint64_t{1} << 31);
        vop(0x57, stack_ - 1, stack_ - 1, kXmmScratch);  // vxorpd / vxorps
        break;
      default:
        vop(arith_opc(t.op), stack_ - 2, stack_ - 2, stack_ - 1);
        --stack_;
        break;
    }
  }

  /// One instruction, every access checked.
  void ins(const TIns& t) {
    switch (t.op) {
      case TIns::Op::kAffine: {
        const Loc& l = loc_[static_cast<size_t>(t.a)];
        if (l.in_reg() && !reads_local(t.b, t.a)) {
          affine_into(l.reg, t.b, kRax);
        } else {
          affine_into(kRax, t.b, kRdx);
          if (l.in_reg()) {
            a_.mov_rr(l.reg, kRax);
          } else {
            a_.mov_mr(l.mem(), kRax);
          }
        }
        break;
      }
      case TIns::Op::kMin:
      case TIns::Op::kMax: {
        affine_into(kRax, t.b, kRdx);
        const Loc& l = loc_[static_cast<size_t>(t.a)];
        const int r = l.in_reg() ? l.reg : kRcx;
        if (!l.in_reg()) a_.mov_rm(kRcx, l.mem());
        a_.cmp_rr(r, kRax);
        a_.cmov(t.op == TIns::Op::kMin ? kCcG : kCcL, r, kRax);
        if (!l.in_reg()) a_.mov_mr(l.mem(), kRcx);
        break;
      }
      case TIns::Op::kAddImm:
        add_imm(t.a, t.imm);
        break;
      case TIns::Op::kJump:
        jmp_to(t.a);
        break;
      case TIns::Op::kJumpGe:
        cmp_locals(t.a, t.b);
        jcc_to(kCcGe, t.c);
        break;
      case TIns::Op::kPredJump: {
        affine_into(kRax, t.a, kRdx);
        a_.test_rr(kRax, kRax);
        uint8_t cc = kCcNe;  // kEq false
        switch (static_cast<ir::Pred::Op>(t.mode)) {
          case ir::Pred::Op::kEq: cc = kCcNe; break;
          case ir::Pred::Op::kGe: cc = kCcS; break;   // false: v < 0
          case ir::Pred::Op::kLt: cc = kCcNs; break;  // false: v >= 0
        }
        jcc_to(cc, t.c);
        break;
      }
      case TIns::Op::kFLoad:
        fload(checked_address(t));
        break;
      case TIns::Op::kFStore:
        fstore(t.mode, checked_address(t));
        break;
      case TIns::Op::kRet:
        if (label_off_[static_cast<size_t>(epilogue_)] == kUnbound) {
          bind(epilogue_);
          epilogue();
        } else {
          jmp_to(epilogue_);
        }
        break;
      default:
        fop(t);
        break;
    }
  }

  // --- versioned loops ----------------------------------------------
  /// dst = address of `g`'s first member at the current loop variable
  /// (rax is clobbered; dst is neither rax nor read by the index).
  void pointer_into(int dst, const LoopPlan& p, const LoopPlan::Group& g) {
    const int base = base_reg_[static_cast<size_t>(g.array)];
    if (base >= 0) {
      a_.mov_rr(dst, base);
    } else {
      a_.mov_rm(dst, array_mem(static_cast<size_t>(g.array)));
    }
    auto add_term = [&](const Src& s, int64_t coeff) {
      if (coeff == 0) return;
      if (coeff == 1 && s.reg >= 0) {
        a_.lea(dst, Mem{dst, s.reg, 8, 0});
        return;
      }
      if (s.reg >= 0) {
        a_.imul_rri(kRax, s.reg, static_cast<int32_t>(8 * coeff));
      } else {
        a_.imul_rmi(kRax, s.mem, static_cast<int32_t>(8 * coeff));
      }
      a_.add_rr(dst, kRax);
    };
    for (const auto& [key, coeff] : g.flat.terms) {
      add_term(src_of(key.first, key.second), coeff);
    }
    add_term(src_of(1, p.lv), g.flat.lv_coeff);
    if (g.flat.imm != 0) {
      a_.alu_ri(kAluAdd, dst, static_cast<int32_t>(8 * g.flat.imm));
    }
  }

  /// The memory operand of a proven access (rax carries a pointer that
  /// lives in a stack slot).
  Mem proven_mem(const LoopPlan& p, const LoopPlan::Access& acc) {
    const Loc& ptr = p.groups[static_cast<size_t>(acc.group)].ptr;
    if (ptr.in_reg()) return Mem{ptr.reg, -1, 1, acc.disp};
    a_.mov_rm(kRax, ptr.mem());
    return Mem{kRax, -1, 1, acc.disp};
  }

  /// dst = limit - lv.
  void distance_into(int dst, const LoopPlan& p) {
    load(dst, src_of(1, p.limit));
    const Loc& lv = loc_[static_cast<size_t>(p.lv)];
    if (lv.in_reg()) {
      a_.sub_rr(dst, lv.reg);
    } else {
      a_.sub_rm(dst, lv.mem());
    }
  }

  /// Steps every streamed pointer by `delta` loop-variable units.
  void advance_pointers(const LoopPlan& p, int64_t delta) {
    for (const LoopPlan::Group& g : p.groups) {
      const int64_t stride = 8 * g.flat.lv_coeff * delta;
      if (!g.streamed || stride == 0) continue;
      if (g.ptr.in_reg()) {
        a_.alu_ri(kAluAdd, g.ptr.reg, static_cast<int32_t>(stride));
      } else {
        a_.alu_mi(kAluAdd, g.ptr.mem(), static_cast<int32_t>(stride));
      }
    }
  }

  /// The four-trip copy, entered from the preheader with lv < limit:
  /// while four or more trips are left, runs trips lv..lv+3 as one,
  /// hoisted values broadcast to every lane; then clears the upper
  /// halves (vzeroupper) and leaves any remaining trips to the scalar
  /// proven copy at `scalar`.
  void emit_vector(const LoopPlan& p, int scalar, int exit) {
    distance_into(kRax, p);
    a_.alu_ri(kAluCmp, kRax, 4);
    jcc_to(kCcL, scalar);
    for (const auto& [ip, xmm] : p.hoists) vbroadcast(xmm, xmm);
    const size_t top = a_.size();
    for (size_t ip = p.head + 1; ip < p.end - 2; ++ip) {
      const TIns& t = seg_.code[ip];
      const auto it = p.access.find(ip);
      if (it == p.access.end()) {
        vfop(t);
      } else if (it->second.xmm >= 0) {
        vop(0x28, stack_++, 0, it->second.xmm);  // vmovapd / vmovaps
      } else if (t.op == TIns::Op::kFLoad) {
        vload(stack_++, proven_mem(p, it->second));
      } else {
        vstore(t.mode, proven_mem(p, it->second));
      }
    }
    advance_pointers(p, 4);
    add_imm(p.lv, 4);
    distance_into(kRax, p);
    a_.alu_ri(kAluCmp, kRax, 4);
    jcc_back(kCcGe, top);
    a_.vzeroupper();
    cmp_locals(p.lv, p.limit);
    jcc_to(kCcGe, exit);
  }

  /// Emits the loop at p.head as a proven copy (behind its four-trip
  /// copy when p.vector) and a checked copy, behind an entry test that
  /// proves every access in range or picks the checked copy (see
  /// LoopPlan).
  void emit_loop(const LoopPlan& p) {
    const std::vector<TIns>& code = seg_.code;
    const int exit = static_cast<int>(p.end);
    const int checked = new_label();
    const int depth = stack_;

    // Zero-trip test, then r9 = (last - first) trip distance:
    // ((limit - 1 - lv) / step) * step.
    cmp_locals(p.lv, p.limit);
    jcc_to(kCcGe, exit);
    const bool need_span =
        std::any_of(p.checks.begin(), p.checks.end(),
                    [](const LoopPlan::Check& c) { return c.lv_coeff != 0; });
    if (need_span) {
      distance_into(kR9, p);
      a_.alu_ri(kAluSub, kR9, 1);
      if (p.step > 1 && std::has_single_bit(static_cast<uint64_t>(p.step))) {
        a_.alu_ri(kAluAnd, kR9, static_cast<int32_t>(~(p.step - 1)));
      } else if (p.step > 1) {
        a_.mov_rr(kRax, kR9);
        a_.xor32(kRdx, kRdx);
        a_.mov_ri(kRcx, p.step);
        a_.div(kRcx);
        a_.imul_rri(kR9, kRax, static_cast<int32_t>(p.step));
      }
    }
    // Row against rows and col against cols — never the flat offset
    // against the allocation: padded tiles (ld > rows) would let an
    // out-of-range row pass.
    for (const LoopPlan::Check& c : p.checks) {
      affine_into(kRax, c.affine, kRdx);
      cmp_extent(kRax, c.extent);
      jcc_to(kCcAe, checked);
      if (c.lv_coeff == 0) continue;
      if (c.lv_coeff == 1) {
        a_.add_rr(kRax, kR9);
      } else {
        a_.imul_rri(kRdx, kR9, static_cast<int32_t>(c.lv_coeff));
        a_.add_rr(kRax, kRdx);
      }
      cmp_extent(kRax, c.extent);
      jcc_to(kCcAe, checked);
    }

    // Preheader: hoisted loads (pointer in rcx), then the pointers
    // kept in stack slots (built in rcx), then those in registers.
    for (const auto& [ip, xmm] : p.hoists) {
      const LoopPlan::Access& acc = p.access.at(ip);
      pointer_into(kRcx, p, p.groups[static_cast<size_t>(acc.group)]);
      sload(xmm, Mem{kRcx, -1, 1, acc.disp});
    }
    for (const LoopPlan::Group& g : p.groups) {
      if (g.streamed && !g.ptr.in_reg()) {
        pointer_into(kRcx, p, g);
        a_.mov_mr(g.ptr.mem(), kRcx);
      }
    }
    for (const LoopPlan::Group& g : p.groups) {
      if (g.streamed && g.ptr.in_reg()) pointer_into(g.ptr.reg, p, g);
    }

    const int scalar = new_label();
    if (p.vector) emit_vector(p, scalar, exit);

    // Proven copy: no checks, pointers step by their strides.
    bind(scalar);
    const size_t top = a_.size();
    for (size_t ip = p.head + 1; ip < p.end - 2; ++ip) {
      const TIns& t = code[ip];
      const auto it = p.access.find(ip);
      if (it == p.access.end()) {
        fop(t);
      } else if (it->second.xmm >= 0) {
        a_.sse_rr(0, 0x28, stack_, it->second.xmm);  // movaps
        ++stack_;
      } else if (t.op == TIns::Op::kFLoad) {
        fload(proven_mem(p, it->second));
      } else {
        fstore(t.mode, proven_mem(p, it->second));
      }
    }
    advance_pointers(p, p.step);
    add_imm(p.lv, p.step);
    cmp_locals(p.lv, p.limit);
    jcc_back(kCcL, top);
    jmp_to(exit);

    // Checked copy: today's loop, every access checked.
    stack_ = depth;
    bind(checked);
    const size_t head = a_.size();
    cmp_locals(p.lv, p.limit);
    jcc_to(kCcGe, exit);
    for (size_t ip = p.head + 1; ip < p.end - 2; ++ip) {
      bind(static_cast<int>(ip));
      ins(code[ip]);
    }
    add_imm(p.lv, p.step);
    jmp_back(head);
  }

  const LoweredKernel& lk_;
  const Segment& seg_;
  Asm& a_;
  const bool f64_;
  int stack_ = 0;  // static FP-stack depth == xmm index of next push
  std::vector<Loc> loc_;        // per tape local
  std::vector<int> base_reg_;   // per array: register holding its base
  size_t next_reg_ = 0;         // kAllocRegs handed out by allocate()
  int num_slots_ = 0;           // stack-resident locals
  int32_t frame_ = 0;
  std::vector<int> saved_;      // callee-saved registers in use
  std::map<size_t, LoopPlan> plans_;  // by head ip
  std::vector<size_t> label_off_;
  std::vector<std::pair<size_t, int>> fixups_;  // (rel32 at, label)
  std::vector<std::pair<int, const TIns*>> stubs_;  // (label, access)
  int epilogue_ = -1;
};

}  // namespace

StatusOr<JitResult> jit_compile(const LoweredKernel& lk) {
  if (!jit_supported()) {
    return failed_precondition("JIT backend requires x86-64");
  }
  Asm a;
  std::vector<size_t> entries;
  entries.reserve(lk.segments.size());
  JitResult r;
  for (const Segment& seg : lk.segments) {
    entries.push_back(a.size());
    SegmentEmitter em(lk, seg, a);
    OA_RETURN_IF_ERROR(em.emit());
    r.vector_loops += em.vector_loops();
  }
  if (a.b.empty()) {
    // A kernel of pure barriers: nothing to run natively, but nothing
    // to fail either — map a single ret so entries stay callable.
    a.u8(0xC3);
  }
  OA_ASSIGN_OR_RETURN(std::unique_ptr<CodeBuffer> buf,
                      CodeBuffer::make(a.b));
  r.entries.reserve(entries.size());
  for (size_t off : entries) r.entries.push_back(buf->entry(off));
  r.buffer = std::move(buf);
  return r;
}

}  // namespace oa::exec
