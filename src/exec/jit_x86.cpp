#include "exec/jit_x86.hpp"

#include <bit>
#include <cstring>
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

namespace {

// General-purpose register numbers (SysV). rdi/rsi hold the two
// arguments for the whole function (no calls, never clobbered); rax,
// rcx, rdx, r9 are scratch; r8 carries the array id for the shared
// bounds-failure stub.
constexpr int kRax = 0, kRcx = 1, kRdx = 2, kRsp = 4, kRsi = 6, kRdi = 7;
constexpr int kR8 = 8, kR9 = 9;

// FP evaluation stack lives in xmm0..xmm12; xmm15 is scratch.
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

bool fits_i32(int64_t v) {
  return v >= INT32_MIN && v <= INT32_MAX;
}

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

  void rex(bool w, bool r, bool x, bool base) {
    u8(static_cast<uint8_t>(0x40 | (w ? 8 : 0) | (r ? 4 : 0) |
                            (x ? 2 : 0) | (base ? 1 : 0)));
  }
  void modrm_rr(int reg, int rm) {
    u8(static_cast<uint8_t>(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }
  /// modrm for [base + disp], disp8 when it fits (local-slot offsets
  /// nearly always do — this is most of the code-size win over a naive
  /// encoder); rsp-based addressing takes the SIB detour. Bases used:
  /// rsp, rsi, rdi, rdx, r9 — none alias the rbp/r13 no-base encodings
  /// under mod=01/10.
  void modrm_mem_disp32(int reg, int base, int32_t disp) {
    const bool small = disp >= -128 && disp <= 127;
    u8(static_cast<uint8_t>((small ? 0x40 : 0x80) | ((reg & 7) << 3) |
                            ((base & 7) == 4 ? 4 : (base & 7))));
    if ((base & 7) == 4) u8(0x24);
    if (small) {
      u8(static_cast<uint8_t>(disp));
    } else {
      u32(static_cast<uint32_t>(disp));
    }
  }

  // --- integer forms ------------------------------------------------
  void mov_r_imm64(int reg, uint64_t imm) {
    rex(true, false, false, reg >= 8);
    u8(static_cast<uint8_t>(0xB8 + (reg & 7)));
    u64(imm);
  }
  void mov_r32_imm32(int reg, uint32_t imm) {
    if (reg >= 8) u8(0x41);
    u8(static_cast<uint8_t>(0xB8 + (reg & 7)));
    u32(imm);
  }
  /// mov reg64, sign-extended imm32 — 7 bytes vs movabs's 10; use for
  /// any value that fits.
  void mov_r_simm32(int reg, int32_t imm) {
    rex(true, false, false, reg >= 8);
    u8(0xC7);
    u8(static_cast<uint8_t>(0xC0 | (reg & 7)));
    u32(static_cast<uint32_t>(imm));
  }
  /// mov reg64, imm — picks the shortest encoding.
  void mov_r_imm(int reg, int64_t imm) {
    if (fits_i32(imm)) {
      mov_r_simm32(reg, static_cast<int32_t>(imm));
    } else {
      mov_r_imm64(reg, static_cast<uint64_t>(imm));
    }
  }
  void mov_r_m(int reg, int base, int32_t disp) {
    rex(true, reg >= 8, false, base >= 8);
    u8(0x8B);
    modrm_mem_disp32(reg, base, disp);
  }
  void mov_m_r(int base, int32_t disp, int reg) {
    rex(true, reg >= 8, false, base >= 8);
    u8(0x89);
    modrm_mem_disp32(reg, base, disp);
  }
  void mov_m_imm32(int base, int32_t disp, int32_t imm) {
    rex(true, false, false, base >= 8);
    u8(0xC7);
    modrm_mem_disp32(0, base, disp);
    u32(static_cast<uint32_t>(imm));
  }
  void add_rr(int dst, int src) {
    rex(true, src >= 8, false, dst >= 8);
    u8(0x01);
    modrm_rr(src, dst);
  }
  void imul_rr(int dst, int src) {
    rex(true, dst >= 8, false, src >= 8);
    u8(0x0F);
    u8(0xAF);
    modrm_rr(dst, src);
  }
  /// imul dst64, src64, imm32 — one instruction where movabs+imul took
  /// two (coefficients and leading dimensions fit in 32 bits).
  void imul_rr_imm32(int dst, int src, int32_t imm) {
    rex(true, dst >= 8, false, src >= 8);
    u8(0x69);
    modrm_rr(dst, src);
    u32(static_cast<uint32_t>(imm));
  }
  void add_m_imm32(int base, int32_t disp, int32_t imm) {
    rex(true, false, false, base >= 8);
    u8(0x81);
    modrm_mem_disp32(0, base, disp);
    u32(static_cast<uint32_t>(imm));
  }
  /// cmp rm64, reg64  (flags of rm - reg)
  void cmp_rm_r(int rm, int reg) {
    rex(true, reg >= 8, false, rm >= 8);
    u8(0x39);
    modrm_rr(reg, rm);
  }
  /// cmp reg64, [base + disp32]
  void cmp_r_m(int reg, int base, int32_t disp) {
    rex(true, reg >= 8, false, base >= 8);
    u8(0x3B);
    modrm_mem_disp32(reg, base, disp);
  }
  void cmp_r_imm32(int reg, int32_t imm) {
    rex(true, false, false, reg >= 8);
    u8(0x81);
    u8(static_cast<uint8_t>(0xF8 | (reg & 7)));
    u32(static_cast<uint32_t>(imm));
  }
  void cmp_r_imm8(int reg, int8_t imm) {
    rex(true, false, false, reg >= 8);
    u8(0x83);
    u8(static_cast<uint8_t>(0xF8 | (reg & 7)));
    u8(static_cast<uint8_t>(imm));
  }
  void cmov(uint8_t cc, int dst, int src) {
    rex(true, dst >= 8, false, src >= 8);
    u8(0x0F);
    u8(static_cast<uint8_t>(0x40 + cc));
    modrm_rr(dst, src);
  }
  /// lea dst, [base + index*8]
  void lea_scaled8(int dst, int base, int index) {
    rex(true, dst >= 8, index >= 8, base >= 8);
    u8(0x8D);
    u8(static_cast<uint8_t>(0x04 | ((dst & 7) << 3)));
    u8(static_cast<uint8_t>(0xC0 | ((index & 7) << 3) | (base & 7)));
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
    if (xreg >= 8 || xrm >= 8) {
      rex(false, xreg >= 8, false, xrm >= 8);
    }
    u8(0x0F);
    u8(opc);
    modrm_rr(xreg, xrm);
  }
  /// SSE op with a [base] memory operand (no displacement; bases used
  /// are rdx/r9, never rsp/rbp-encoded).
  void sse_rm(uint8_t prefix, uint8_t opc, int xreg, int base) {
    if (prefix != 0) u8(prefix);
    if (xreg >= 8 || base >= 8) {
      rex(false, xreg >= 8, false, base >= 8);
    }
    u8(0x0F);
    u8(opc);
    u8(static_cast<uint8_t>(((xreg & 7) << 3) | (base & 7)));
  }
  /// movq xmm, r64
  void movq_x_r(int xreg, int reg) {
    u8(0x66);
    rex(true, xreg >= 8, false, reg >= 8);
    u8(0x0F);
    u8(0x6E);
    modrm_rr(xreg, reg);
  }
};

/// Per-segment emitter.
class SegmentEmitter {
 public:
  SegmentEmitter(const LoweredKernel& lk, const Segment& seg, Asm& a)
      : lk_(lk), seg_(seg), a_(a), f64_(lk.precision == Precision::kF64) {}

  Status emit() {
    if (seg_.max_stack > kMaxXmmStack) {
      return failed_precondition(
          "FP stack exceeds the JIT xmm register file");
    }
    frame_ = (seg_.num_locals * 8 + 15) & ~15;
    // Prologue. rdi/rsi stay live as the argument registers.
    a_.u8(0x55);                       // push rbp
    a_.u8(0x48); a_.u8(0x89); a_.u8(0xE5);  // mov rbp, rsp
    a_.u8(0x48); a_.u8(0x81); a_.u8(0xEC);  // sub rsp, imm32
    a_.u32(static_cast<uint32_t>(frame_));

    ins_off_.resize(seg_.code.size() + 1);
    for (size_t ip = 0; ip < seg_.code.size(); ++ip) {
      ins_off_[ip] = a_.size();
      OA_RETURN_IF_ERROR(ins(seg_.code[ip]));
    }
    ins_off_[seg_.code.size()] = a_.size();

    // Shared bounds-failure stub: r8 = array id, rax = row, rcx = col.
    fail_off_ = a_.size();
    a_.mov_r_m(kR9, kRdi,
               static_cast<int32_t>(8 * lk_.arrays.size()));
    a_.mov_m_imm32(kR9, 0, 1);        // err.failed = 1
    a_.mov_m_r(kR9, 8, kR8);          // err.array
    a_.mov_m_r(kR9, 16, kRax);        // err.row
    a_.mov_m_r(kR9, 24, kRcx);        // err.col
    epilogue();

    // Patch tape-index jumps and fail-stub jumps.
    for (const auto& [at, target_ip] : fixups_) {
      const size_t target = ins_off_[target_ip];
      a_.patch32(at, static_cast<uint32_t>(target - (at + 4)));
    }
    for (size_t at : fail_fixups_) {
      a_.patch32(at, static_cast<uint32_t>(fail_off_ - (at + 4)));
    }
    return Status::ok();
  }

 private:
  int32_t local_disp(int32_t local) const { return 8 * local; }

  void epilogue() {
    a_.u8(0xC9);  // leave
    a_.u8(0xC3);  // ret
  }

  /// rax = imm + sum(terms): the kAffine core.
  void affine(const TIns& t) {
    a_.mov_r_imm(kRax, t.imm);
    for (int32_t i = 0; i < t.c; ++i) {
      const RTerm& rt = seg_.terms[static_cast<size_t>(t.b + i)];
      if (rt.is_local != 0) {
        a_.mov_r_m(kRcx, kRsp, local_disp(rt.src));
      } else {
        a_.mov_r_m(kRcx, kRsi, 8 * rt.src);
      }
      if (rt.coeff != 1) {
        if (fits_i32(rt.coeff)) {
          a_.imul_rr_imm32(kRcx, kRcx, static_cast<int32_t>(rt.coeff));
        } else {
          a_.mov_r_imm64(kRdx, static_cast<uint64_t>(rt.coeff));
          a_.imul_rr(kRcx, kRdx);
        }
      }
      a_.add_rr(kRax, kRcx);
    }
    a_.mov_m_r(kRsp, local_disp(t.a), kRax);
  }

  /// Bounds-checked element address of arrays[t.a][local[b], local[c]]
  /// into rdx (byte address). Leaves row in rax, col in rcx for the
  /// failure stub.
  void address(const TIns& t) {
    const gpusim::CArray& arr = lk_.arrays[static_cast<size_t>(t.a)];
    a_.mov_r32_imm32(kR8, static_cast<uint32_t>(t.a));
    a_.mov_r_m(kRax, kRsp, local_disp(t.b));  // row
    a_.mov_r_m(kRcx, kRsp, local_disp(t.c));  // col
    if (fits_i32(arr.rows)) {
      a_.cmp_r_imm32(kRax, static_cast<int32_t>(arr.rows));
    } else {
      a_.mov_r_imm64(kRdx, static_cast<uint64_t>(arr.rows));
      a_.cmp_rm_r(kRax, kRdx);
    }
    fail_fixups_.push_back(a_.jcc(kCcAe));    // (unsigned)row >= rows
    if (fits_i32(arr.cols)) {
      a_.cmp_r_imm32(kRcx, static_cast<int32_t>(arr.cols));
    } else {
      a_.mov_r_imm64(kRdx, static_cast<uint64_t>(arr.cols));
      a_.cmp_rm_r(kRcx, kRdx);
    }
    fail_fixups_.push_back(a_.jcc(kCcAe));
    if (fits_i32(arr.ld)) {
      a_.imul_rr_imm32(kRdx, kRcx, static_cast<int32_t>(arr.ld));
    } else {
      a_.mov_r_imm64(kRdx, static_cast<uint64_t>(arr.ld));
      a_.imul_rr(kRdx, kRcx);
    }
    a_.add_rr(kRdx, kRax);                    // element index
    a_.mov_r_m(kR9, kRdi, 8 * t.a);           // base pointer
    a_.lea_scaled8(kRdx, kR9, kRdx);          // byte address
  }

  Status ins(const TIns& t) {
    switch (t.op) {
      case TIns::Op::kAffine:
        affine(t);
        break;
      case TIns::Op::kMin:
      case TIns::Op::kMax:
        a_.mov_r_m(kRax, kRsp, local_disp(t.a));
        a_.mov_r_m(kRcx, kRsp, local_disp(t.b));
        a_.cmp_rm_r(kRcx, kRax);
        a_.cmov(t.op == TIns::Op::kMin ? kCcL : kCcG, kRax, kRcx);
        a_.mov_m_r(kRsp, local_disp(t.a), kRax);
        break;
      case TIns::Op::kAddImm:
        if (fits_i32(t.imm)) {
          a_.add_m_imm32(kRsp, local_disp(t.a),
                         static_cast<int32_t>(t.imm));
        } else {
          a_.mov_r_m(kRax, kRsp, local_disp(t.a));
          a_.mov_r_imm64(kRcx, static_cast<uint64_t>(t.imm));
          a_.add_rr(kRax, kRcx);
          a_.mov_m_r(kRsp, local_disp(t.a), kRax);
        }
        break;
      case TIns::Op::kJump:
        fixups_.emplace_back(a_.jmp(), static_cast<size_t>(t.a));
        break;
      case TIns::Op::kJumpGe:
        a_.mov_r_m(kRax, kRsp, local_disp(t.a));
        a_.cmp_r_m(kRax, kRsp, local_disp(t.b));
        fixups_.emplace_back(a_.jcc(kCcGe), static_cast<size_t>(t.c));
        break;
      case TIns::Op::kPredJump: {
        a_.mov_r_m(kRax, kRsp, local_disp(t.a));
        a_.cmp_r_imm8(kRax, 0);
        uint8_t cc = kCcNe;  // kEq false
        switch (static_cast<ir::Pred::Op>(t.mode)) {
          case ir::Pred::Op::kEq: cc = kCcNe; break;
          case ir::Pred::Op::kGe: cc = kCcS; break;   // false: v < 0
          case ir::Pred::Op::kLt: cc = kCcNs; break;  // false: v >= 0
        }
        fixups_.emplace_back(a_.jcc(cc), static_cast<size_t>(t.c));
        break;
      }
      case TIns::Op::kFConst:
        a_.mov_r_imm64(kRax, std::bit_cast<uint64_t>(t.fimm));
        a_.movq_x_r(stack_, kRax);
        if (!f64_) {
          // Pre-rounded constant: the narrowing conversion is exact.
          a_.sse_rr(0xF2, 0x5A, stack_, stack_);  // cvtsd2ss
        }
        ++stack_;
        break;
      case TIns::Op::kFLoad:
        address(t);
        if (f64_) {
          a_.sse_rm(0xF2, 0x10, stack_, kRdx);  // movsd x, [rdx]
        } else {
          a_.sse_rm(0xF2, 0x5A, stack_, kRdx);  // cvtsd2ss x, m64
        }
        ++stack_;
        break;
      case TIns::Op::kFNeg:
        // Flip the sign bit of the top of stack via xmm15.
        if (f64_) {
          a_.mov_r_imm64(kRax, 0x8000000000000000ull);
          a_.movq_x_r(kXmmScratch, kRax);
          a_.sse_rr(0x66, 0x57, stack_ - 1, kXmmScratch);  // xorpd
        } else {
          a_.mov_r_imm64(kRax, 0x80000000ull);
          a_.movq_x_r(kXmmScratch, kRax);
          a_.sse_rr(0, 0x57, stack_ - 1, kXmmScratch);     // xorps
        }
        break;
      case TIns::Op::kFAdd:
      case TIns::Op::kFSub:
      case TIns::Op::kFMul:
      case TIns::Op::kFDiv: {
        uint8_t opc = 0x58;
        if (t.op == TIns::Op::kFSub) opc = 0x5C;
        if (t.op == TIns::Op::kFMul) opc = 0x59;
        if (t.op == TIns::Op::kFDiv) opc = 0x5E;
        a_.sse_rr(f64_ ? 0xF2 : 0xF3, opc, stack_ - 2, stack_ - 1);
        --stack_;
        break;
      }
      case TIns::Op::kFStore: {
        address(t);
        --stack_;  // pop the value
        const auto mode = static_cast<ir::AssignOp>(t.mode);
        if (mode == ir::AssignOp::kAssign) {
          if (f64_) {
            a_.sse_rm(0xF2, 0x11, stack_, kRdx);  // movsd [rdx], x
          } else {
            a_.sse_rr(0xF3, 0x5A, kXmmScratch, stack_);  // cvtss2sd
            a_.sse_rm(0xF2, 0x11, kXmmScratch, kRdx);
          }
          break;
        }
        uint8_t opc = 0x58;  // kAddAssign
        if (mode == ir::AssignOp::kSubAssign) opc = 0x5C;
        if (mode == ir::AssignOp::kDivAssign) opc = 0x5E;
        if (f64_) {
          a_.sse_rm(0xF2, 0x10, kXmmScratch, kRdx);   // movsd x15, [cell]
          a_.sse_rr(0xF2, opc, kXmmScratch, stack_);  // x15 op= value
          a_.sse_rm(0xF2, 0x11, kXmmScratch, kRdx);
        } else {
          a_.sse_rm(0xF2, 0x5A, kXmmScratch, kRdx);   // cvtsd2ss
          a_.sse_rr(0xF3, opc, kXmmScratch, stack_);
          a_.sse_rr(0xF3, 0x5A, kXmmScratch, kXmmScratch);  // cvtss2sd
          a_.sse_rm(0xF2, 0x11, kXmmScratch, kRdx);
        }
        break;
      }
      case TIns::Op::kRet:
        epilogue();
        break;
    }
    return Status::ok();
  }

  const LoweredKernel& lk_;
  const Segment& seg_;
  Asm& a_;
  const bool f64_;
  int32_t frame_ = 0;
  int stack_ = 0;  // static FP-stack depth == xmm index of next push
  std::vector<size_t> ins_off_;
  std::vector<std::pair<size_t, size_t>> fixups_;  // (rel32 at, tape ip)
  std::vector<size_t> fail_fixups_;
  size_t fail_off_ = 0;
};

}  // namespace

StatusOr<JitResult> jit_compile(const LoweredKernel& lk) {
  if (!jit_supported()) {
    return failed_precondition("JIT backend requires x86-64");
  }
  Asm a;
  std::vector<size_t> entries;
  entries.reserve(lk.segments.size());
  for (const Segment& seg : lk.segments) {
    entries.push_back(a.size());
    SegmentEmitter em(lk, seg, a);
    OA_RETURN_IF_ERROR(em.emit());
  }
  if (a.b.empty()) {
    // A kernel of pure barriers: nothing to run natively, but nothing
    // to fail either — map a single ret so entries stay callable.
    a.u8(0xC3);
  }
  OA_ASSIGN_OR_RETURN(std::unique_ptr<CodeBuffer> buf,
                      CodeBuffer::make(a.b));
  JitResult r;
  r.entries.reserve(entries.size());
  for (size_t off : entries) r.entries.push_back(buf->entry(off));
  r.buffer = std::move(buf);
  return r;
}

}  // namespace oa::exec
