#include "gpusim/block_sim.hpp"

#include <algorithm>
#include <numeric>

#include "support/strings.hpp"

namespace oa::gpusim {

namespace {

// Site id -> reference table (sites are assigned densely at compile
// time; every site belongs to exactly one CRef in the tree).
void build_site_table(const std::vector<CNode>& body,
                      std::vector<const CRef*>& site_ref) {
  for (const CNode& n : body) {
    switch (n.kind) {
      case CNode::Kind::kLoop:
        build_site_table(n.body, site_ref);
        break;
      case CNode::Kind::kAssign:
        for (const CRef& r : n.loads) {
          site_ref[static_cast<size_t>(r.site)] = &r;
        }
        site_ref[static_cast<size_t>(n.lhs.site)] = &n.lhs;
        break;
      case CNode::Kind::kSync:
        break;
      case CNode::Kind::kIf:
        build_site_table(n.then_body, site_ref);
        build_site_table(n.else_body, site_ref);
        break;
    }
  }
}

// Device-dependent leg of the collapse precondition: advancing every
// site in the loop body by its per-trip address delta must preserve the
// counter delta. That holds when the delta is a multiple of the
// "alignment quantum" of the memory space — transaction words for
// global (segment/line population is then translation-invariant), and
// anything for shared and registers: a uniform additive shift permutes
// the per-warp bank histogram without changing any conflict degree
// (lane address *differences* are what banking prices), and register
// reuse compares exact addresses, which shift in lockstep.
void compute_collapse_ok(const std::vector<CNode>& body,
                         const CompiledKernel& k, const DeviceModel& dev,
                         const std::vector<const CRef*>& site_ref,
                         std::vector<uint8_t>& out) {
  for (const CNode& n : body) {
    switch (n.kind) {
      case CNode::Kind::kLoop: {
        if (n.collapse_candidate) {
          bool ok = true;
          for (int site : n.body_sites) {
            const CRef* r = site_ref[static_cast<size_t>(site)];
            if (r == nullptr) {
              ok = false;
              break;
            }
            const CArray& arr = k.arrays[static_cast<size_t>(r->array)];
            const int64_t delta =
                r->addr_lin.uniform.coeff_of(n.var_slot) * n.step;
            if (delta == 0) continue;
            int64_t m = 1;
            switch (arr.space) {
              case ir::MemSpace::kGlobal:
                m = dev.transaction_bytes / elem_bytes(k.precision);
                break;
              case ir::MemSpace::kShared:
                m = 1;
                break;
              case ir::MemSpace::kRegister:
                m = 1;
                break;
            }
            if (delta % m != 0) {
              ok = false;
              break;
            }
          }
          if (ok) out[static_cast<size_t>(n.loop_id)] = 1;
        }
        compute_collapse_ok(n.body, k, dev, site_ref, out);
        break;
      }
      case CNode::Kind::kIf:
        compute_collapse_ok(n.then_body, k, dev, site_ref, out);
        compute_collapse_ok(n.else_body, k, dev, site_ref, out);
        break;
      default:
        break;
    }
  }
}

}  // namespace

BlockSim::BlockSim(const CompiledKernel& kernel, const DeviceModel& device,
                   bool functional, GlobalBuffers* buffers, bool fastpath)
    : k_(kernel),
      dev_(device),
      functional_(functional),
      buffers_(buffers),
      fastpath_(fastpath && !functional) {
  global_ptr_.resize(k_.arrays.size(), nullptr);
  shared_.resize(k_.arrays.size());
  registers_.resize(k_.arrays.size());
  if (fastpath_) {
    site_ref_.assign(static_cast<size_t>(k_.num_sites), nullptr);
    build_site_table(k_.body, site_ref_);
    collapse_ok_.assign(static_cast<size_t>(k_.num_loops), 0);
    compute_collapse_ok(k_.body, k_, dev_, site_ref_, collapse_ok_);
  }
}

Status BlockSim::run(int64_t by, int64_t bx, int lane_begin, int lane_end,
                     Counters& out) {
  nlanes_ = lane_end - lane_begin;
  lane_begin_ = lane_begin;
  const int64_t threads = k_.launch.threads_per_block();
  if (functional_ && (lane_begin != 0 || lane_end != threads)) {
    return internal_error("functional runs must simulate the whole block");
  }

  slots_.assign(static_cast<size_t>(nlanes_) * k_.num_slots, 0);
  reuse_addr_.assign(
      static_cast<size_t>(k_.num_sites) * static_cast<size_t>(nlanes_), -1);
  if (dev_.coalescing == CoalescingModel::kFermi) {
    line_addr_.assign(
        static_cast<size_t>(k_.num_sites) * static_cast<size_t>(nlanes_),
        -1);
  }
  scratch_addr_.assign(static_cast<size_t>(nlanes_), 0);
  counters_ = Counters{};

  // Bind array storage.
  for (size_t a = 0; a < k_.arrays.size(); ++a) {
    const CArray& arr = k_.arrays[a];
    switch (arr.space) {
      case ir::MemSpace::kGlobal:
        if (functional_) {
          std::vector<double>* buf =
              buffers_ != nullptr ? buffers_->find(arr.name) : nullptr;
          if (buf == nullptr ||
              buf->size() < static_cast<size_t>(arr.elements)) {
            return internal_error("global buffer '" + arr.name +
                                  "' missing or undersized");
          }
          global_ptr_[a] = buf->data();
        }
        break;
      case ir::MemSpace::kShared:
        if (functional_) {
          shared_[a].assign(static_cast<size_t>(arr.elements), 0.0);
        }
        break;
      case ir::MemSpace::kRegister:
        if (functional_) {
          registers_[a].assign(
              static_cast<size_t>(arr.elements) * nlanes_, 0.0);
        }
        break;
    }
  }

  // Bind block / thread index slots per lane.
  for (int lane = 0; lane < nlanes_; ++lane) {
    int64_t* s = lane_slots(lane);
    const int64_t abs_lane = lane_begin_ + lane;
    const int64_t tx = abs_lane % k_.launch.block_x;
    const int64_t ty = abs_lane / k_.launch.block_x;
    if (k_.block_y_slot >= 0) s[k_.block_y_slot] = by;
    if (k_.block_x_slot >= 0) s[k_.block_x_slot] = bx;
    if (k_.thread_y_slot >= 0) s[k_.thread_y_slot] = ty;
    if (k_.thread_x_slot >= 0) s[k_.thread_x_slot] = tx;
  }

  if (fastpath_) {
    // Lane-range geometry: the simulated lanes are a contiguous
    // absolute-lane interval, which makes min/max of any lane-affine
    // value attained at a handful of corner (tx, ty) points and makes
    // the (base, row step, wrap step) triple characterize per-lane
    // address vectors exactly.
    bx_ = k_.launch.block_x;
    const int64_t a0 = lane_begin_;
    const int64_t al = a0 + nlanes_ - 1;
    tx0_ = a0 % bx_;
    ty0_ = a0 / bx_;
    tx_last_ = al % bx_;
    ty_last_ = al / bx_;
    has_wrap_ = ty_last_ > ty0_;
    has_row_step_ = (nlanes_ - 1) > (ty_last_ - ty0_);
    warps_ = (nlanes_ + dev_.warp_size - 1) / dev_.warp_size;

    uslots_.assign(static_cast<size_t>(k_.num_slots), 0);
    if (k_.block_y_slot >= 0) uslots_[k_.block_y_slot] = by;
    if (k_.block_x_slot >= 0) uslots_[k_.block_x_slot] = bx;
    full_mask_.assign(static_cast<size_t>(nlanes_), 1);
    site_base_.assign(static_cast<size_t>(k_.num_sites), 0);
    site_rowc_.assign(static_cast<size_t>(k_.num_sites), 0);
    site_wrapc_.assign(static_cast<size_t>(k_.num_sites), 0);
    site_valid_.assign(static_cast<size_t>(k_.num_sites), 0);
    site_interp_.assign(static_cast<size_t>(k_.num_sites), 0);
    site_gen_.assign(static_cast<size_t>(k_.num_sites), 0);
    exec_gen_ = 1;
    fast_var_stack_.clear();
    cond_tx_.assign(static_cast<size_t>(k_.num_slots), 0);
    cond_ty_.assign(static_cast<size_t>(k_.num_slots), 0);
    fallback_count_ = 0;
    masked_count_ = 0;
    lanes_synced_ = true;
    OA_RETURN_IF_ERROR(exec_fast(k_.body));
  } else {
    std::vector<uint8_t> mask(static_cast<size_t>(nlanes_), 1);
    OA_RETURN_IF_ERROR(exec(k_.body, mask));
  }
  out += counters_;
  return Status::ok();
}

int64_t BlockSim::addr_of(const CRef& ref, int lane, Status& status) const {
  const int64_t* s = lane_slots(lane);
  const int64_t r = ref.row.eval(s);
  const int64_t c = ref.col.eval(s);
  const CArray& arr = k_.arrays[static_cast<size_t>(ref.array)];
  if (r < 0 || r >= arr.rows || c < 0 || c >= arr.cols) {
    if (status.is_ok()) {
      status = internal_error(str_format(
          "out-of-bounds access to %s: (%lld, %lld) not in %lldx%lld",
          arr.name.c_str(), static_cast<long long>(r),
          static_cast<long long>(c), static_cast<long long>(arr.rows),
          static_cast<long long>(arr.cols)));
    }
    return 0;
  }
  return r + c * arr.ld;
}

double BlockSim::load_value(const CRef& ref, int lane, int64_t addr) const {
  const CArray& arr = k_.arrays[static_cast<size_t>(ref.array)];
  switch (arr.space) {
    case ir::MemSpace::kGlobal:
      return global_ptr_[static_cast<size_t>(ref.array)][addr];
    case ir::MemSpace::kShared:
      return shared_[static_cast<size_t>(ref.array)]
                    [static_cast<size_t>(addr)];
    case ir::MemSpace::kRegister:
      return registers_[static_cast<size_t>(ref.array)]
                       [static_cast<size_t>(addr) * nlanes_ + lane];
  }
  return 0.0;
}

double BlockSim::eval_tape(const CNode& n, int lane, Status& status) {
  // Postfix walk with an explicit value stack; the tape preserves the
  // source operation order exactly. Every arithmetic op rounds to the
  // kernel's precision: for f32 that reproduces native float arithmetic
  // bit-for-bit (innocuous double rounding — see support/precision.hpp),
  // since loads and constants are themselves float-valued.
  const Precision p = k_.precision;
  double stack[kMaxTapeDepth];
  int sp = 0;
  for (const COp& op : n.tape) {
    switch (op.kind) {
      case COp::Kind::kConst:
        stack[sp++] = op.constant;
        break;
      case COp::Kind::kLoad: {
        const CRef& ref = n.loads[static_cast<size_t>(op.load)];
        const int64_t addr = addr_of(ref, lane, status);
        stack[sp++] = status.is_ok() ? load_value(ref, lane, addr) : 0.0;
        break;
      }
      case COp::Kind::kNeg:
        stack[sp - 1] = -stack[sp - 1];
        break;
      case COp::Kind::kAdd:
        stack[sp - 2] = round_to(p, stack[sp - 2] + stack[sp - 1]);
        --sp;
        break;
      case COp::Kind::kSub:
        stack[sp - 2] = round_to(p, stack[sp - 2] - stack[sp - 1]);
        --sp;
        break;
      case COp::Kind::kMul:
        stack[sp - 2] = round_to(p, stack[sp - 2] * stack[sp - 1]);
        --sp;
        break;
      case COp::Kind::kDiv:
        stack[sp - 2] = round_to(p, stack[sp - 2] / stack[sp - 1]);
        --sp;
        break;
    }
  }
  return sp > 0 ? stack[0] : 0.0;
}

int64_t BlockSim::distinct_chunks(const std::vector<uint8_t>& mask, int g0,
                                  int g1, int chunk_bytes, int site) const {
  // Distinct chunk_bytes-sized chunks touched by the active lanes of one
  // group (group size <= 32: linear scan over a stack array). When
  // `site` >= 0, a lane whose chunk equals its previous chunk at this
  // reference site is served by the cache (Fermi L1 line reuse) and
  // contributes nothing.
  int64_t chunks[32];
  int n = 0;
  const int64_t eb = elem_bytes(k_.precision);
  for (int l = g0; l < g1; ++l) {
    if (!mask[static_cast<size_t>(l)]) continue;
    const int64_t chunk =
        scratch_addr_[static_cast<size_t>(l)] * eb / chunk_bytes;
    if (site >= 0) {
      int64_t& last =
          line_addr_[static_cast<size_t>(site) * nlanes_ + l];
      if (last == chunk) continue;  // line still cached for this lane
      last = chunk;
    }
    bool seen = false;
    for (int i = 0; i < n; ++i) {
      if (chunks[i] == chunk) {
        seen = true;
        break;
      }
    }
    if (!seen) chunks[n++] = chunk;
  }
  return n;
}

void BlockSim::count_group(const CArray& arr, const CRef& ref, bool is_store,
                           const std::vector<uint8_t>& mask, int g0, int g1,
                           int active, bool count_inst) {
  switch (arr.space) {
    case ir::MemSpace::kRegister: {
      if (arr.spilled) {
        // Spilled register block: local-memory traffic.
        (is_store ? counters_.local_store : counters_.local_read) += 1;
        counters_.global_bytes += dev_.transaction_bytes;
      }
      break;
    }
    case ir::MemSpace::kShared: {
      // Bank-conflict analysis over the group; identical addresses
      // broadcast.
      (is_store ? counters_.shared_store : counters_.shared_load) += 1;
      int64_t bank_addr[32];
      int bank_count[32];
      for (int i = 0; i < dev_.shared_banks; ++i) {
        bank_addr[i] = -1;
        bank_count[i] = 0;
      }
      int degree = 1;
      // Banks are 4-byte wide: an element address maps to bank
      // (addr * words) % banks, so f64 (2 words) occupies every other
      // bank and stride-1 access pays a 2-way replay — the classic
      // double-precision shared-memory penalty.
      const int64_t ew = elem_words(k_.precision);
      for (int l = g0; l < g1; ++l) {
        if (!mask[static_cast<size_t>(l)]) continue;
        const int64_t addr = scratch_addr_[static_cast<size_t>(l)];
        const int b = static_cast<int>((addr * ew) % dev_.shared_banks);
        if (bank_count[b] == 0 || bank_addr[b] != addr) {
          // Distinct address on the same bank: serialized replay.
          bank_count[b] += 1;
          bank_addr[b] = addr;
        }
        degree = std::max(degree, bank_count[b]);
      }
      counters_.shared_bank_conflict_replays += degree - 1;
      break;
    }
    case ir::MemSpace::kGlobal: {
      switch (dev_.coalescing) {
        case CoalescingModel::kStrict: {
          // CC 1.0: lanes must access base + lane_offset in order,
          // transaction-aligned, all lanes of the half-warp
          // participating. A perfect pattern still needs
          // ceil(group_bytes / transaction_bytes) transactions — 1 for
          // a 16-lane f32 half-warp, 2 for f64.
          const int64_t eb = elem_bytes(k_.precision);
          bool perfect = active == g1 - g0;
          int64_t base = scratch_addr_[static_cast<size_t>(g0)];
          if (perfect && base % (dev_.transaction_bytes / eb) != 0) {
            perfect = false;
          }
          for (int l = g0; perfect && l < g1; ++l) {
            if (scratch_addr_[static_cast<size_t>(l)] != base + (l - g0)) {
              perfect = false;
            }
          }
          if (perfect) {
            const int64_t txns =
                ((g1 - g0) * eb + dev_.transaction_bytes - 1) /
                dev_.transaction_bytes;
            (is_store ? counters_.gst_coherent : counters_.gld_coherent) +=
                txns;
            counters_.global_bytes += txns * dev_.transaction_bytes;
          } else {
            // Serialized: one transaction per participating thread.
            (is_store ? counters_.gst_incoherent
                      : counters_.gld_incoherent) += active;
            counters_.global_bytes += active * dev_.transaction_bytes;
          }
          break;
        }
        case CoalescingModel::kSegmented: {
          // CC 1.2/1.3: minimal set of 64B segments, but the hardware
          // shrinks half-used segments to 32B transfers — traffic is
          // counted at 32B granularity.
          const int64_t segs =
              distinct_chunks(mask, g0, g1, dev_.transaction_bytes, -1);
          (is_store ? counters_.gst_coherent : counters_.gld_coherent) +=
              segs;
          counters_.global_bytes +=
              32 * distinct_chunks(mask, g0, g1, 32, -1);
          break;
        }
        case CoalescingModel::kFermi: {
          (is_store ? counters_.gst_request : counters_.gld_request) += 1;
          // L1-cached 128B lines: a lane re-touching its previous line
          // (streaming along a column) hits in cache.
          const int64_t lines = distinct_chunks(
              mask, g0, g1, dev_.transaction_bytes,
              is_store ? -1 : ref.site);
          counters_.global_bytes += lines * dev_.transaction_bytes;
          break;
        }
      }
      // Memory instruction issue cost: one per warp per access.
      if (count_inst && (g0 % dev_.warp_size) == 0) {
        counters_.instructions += 1;
      }
      break;
    }
  }
}

Status BlockSim::process_ref(const CRef& ref, bool is_store,
                             const std::vector<uint8_t>& mask,
                             bool count_inst) {
  const CArray& arr = k_.arrays[static_cast<size_t>(ref.array)];
  Status status = Status::ok();

  if (fastpath_ && !is_store) adopt_site_interp(ref);

  // Collect addresses; apply the register-caching model for loads
  // (a lane whose address at this site is unchanged since the previous
  // execution costs nothing, like a value kept in a register by the
  // backend compiler).
  bool all_reused = !is_store;
  for (int lane = 0; lane < nlanes_; ++lane) {
    if (!mask[static_cast<size_t>(lane)]) continue;
    const int64_t addr = addr_of(ref, lane, status);
    scratch_addr_[static_cast<size_t>(lane)] = addr;
    if (!is_store) {
      int64_t& last =
          reuse_addr_[static_cast<size_t>(ref.site) * nlanes_ + lane];
      if (last != addr) {
        all_reused = false;
        last = addr;
      }
    }
  }
  OA_RETURN_IF_ERROR(status);
  if (all_reused) return Status::ok();  // register-cached

  const int group = arr.space == ir::MemSpace::kShared
                        ? dev_.shared_banks
                        : (dev_.coalescing == CoalescingModel::kFermi
                               ? dev_.warp_size
                               : dev_.warp_size / 2);

  for (int g0 = 0; g0 < nlanes_; g0 += group) {
    const int g1 = std::min(g0 + group, nlanes_);
    int active = 0;
    for (int l = g0; l < g1; ++l) active += mask[static_cast<size_t>(l)];
    if (active == 0) continue;
    count_group(arr, ref, is_store, mask, g0, g1, active, count_inst);
  }
  // For sub-warp groups (half-warps) the instruction was counted on the
  // first group only; shared/register accesses fold into the arithmetic
  // instruction (no separate issue cost).
  return Status::ok();
}

Status BlockSim::exec_assign(const CNode& n,
                             const std::vector<uint8_t>& mask) {
  // Arithmetic issue cost + flop accounting per warp.
  int active_total = 0;
  for (int w = 0; w < nlanes_; w += dev_.warp_size) {
    int active = 0;
    const int we = std::min(w + dev_.warp_size, nlanes_);
    for (int l = w; l < we; ++l) active += mask[static_cast<size_t>(l)];
    if (active > 0) {
      counters_.instructions += n.arith_instructions;
      // Stores to shared/global cost an instruction; register stores
      // fold into the arithmetic.
      const CArray& lhs_arr = k_.arrays[static_cast<size_t>(n.lhs.array)];
      if (lhs_arr.space != ir::MemSpace::kRegister) {
        counters_.instructions += 1;
      }
    }
    active_total += active;
  }
  counters_.flops += static_cast<int64_t>(n.flops) * active_total;

  // Loads (rhs + read-modify-write of the lhs), then the store.
  for (const CRef& ref : n.loads) {
    OA_RETURN_IF_ERROR(process_ref(ref, /*is_store=*/false, mask,
                                   /*count_inst=*/true));
  }
  if (n.rmw_load) {
    OA_RETURN_IF_ERROR(process_ref(n.lhs, /*is_store=*/false, mask,
                                   /*count_inst=*/true));
  }
  OA_RETURN_IF_ERROR(process_ref(n.lhs, /*is_store=*/true, mask,
                                 /*count_inst=*/false));

  if (!functional_) return Status::ok();

  // Functional update. The read-modify-write rounds to the kernel's
  // precision like every other arithmetic op.
  Status status = Status::ok();
  const CArray& arr = k_.arrays[static_cast<size_t>(n.lhs.array)];
  const Precision p = k_.precision;
  for (int lane = 0; lane < nlanes_; ++lane) {
    if (!mask[static_cast<size_t>(lane)]) continue;
    const double value = eval_tape(n, lane, status);
    const int64_t addr = addr_of(n.lhs, lane, status);
    OA_RETURN_IF_ERROR(status);
    double* cell = nullptr;
    switch (arr.space) {
      case ir::MemSpace::kGlobal:
        cell = &global_ptr_[static_cast<size_t>(n.lhs.array)][addr];
        break;
      case ir::MemSpace::kShared:
        cell = &shared_[static_cast<size_t>(n.lhs.array)]
                       [static_cast<size_t>(addr)];
        break;
      case ir::MemSpace::kRegister:
        cell = &registers_[static_cast<size_t>(n.lhs.array)]
                          [static_cast<size_t>(addr) * nlanes_ + lane];
        break;
    }
    switch (n.op) {
      case ir::AssignOp::kAssign: *cell = value; break;
      case ir::AssignOp::kAddAssign:
        *cell = round_to(p, *cell + value);
        break;
      case ir::AssignOp::kSubAssign:
        *cell = round_to(p, *cell - value);
        break;
      case ir::AssignOp::kDivAssign:
        *cell = round_to(p, *cell / value);
        break;
    }
  }
  return Status::ok();
}

Status BlockSim::exec(const std::vector<CNode>& body,
                      std::vector<uint8_t>& mask) {
  for (const CNode& n : body) {
    OA_RETURN_IF_ERROR(exec_node(n, mask));
  }
  return Status::ok();
}

Status BlockSim::exec_node(const CNode& n, std::vector<uint8_t>& mask) {
  switch (n.kind) {
    case CNode::Kind::kLoop: {
      // Per-lane bounds; lockstep iteration with divergence masking.
      std::vector<int64_t> v(static_cast<size_t>(nlanes_), 0);
      std::vector<int64_t> hi(static_cast<size_t>(nlanes_), 0);
      bool any = false;
      for (int lane = 0; lane < nlanes_; ++lane) {
        if (!mask[static_cast<size_t>(lane)]) continue;
        const int64_t* s = lane_slots(lane);
        v[static_cast<size_t>(lane)] = n.lb.eval_max(s);
        hi[static_cast<size_t>(lane)] = n.ub.eval_min(s);
        any = true;
      }
      if (!any) break;
      std::vector<uint8_t> sub(static_cast<size_t>(nlanes_), 0);
      int64_t warp_iterations = 0;
      for (;;) {
        bool alive = false;
        for (int lane = 0; lane < nlanes_; ++lane) {
          const size_t l = static_cast<size_t>(lane);
          sub[l] = mask[l] && v[l] < hi[l];
          alive |= sub[l] != 0;
        }
        if (!alive) break;
        for (int w = 0; w < nlanes_; w += dev_.warp_size) {
          const int we = std::min(w + dev_.warp_size, nlanes_);
          for (int l = w; l < we; ++l) {
            if (sub[static_cast<size_t>(l)]) {
              ++warp_iterations;
              break;
            }
          }
        }
        for (int lane = 0; lane < nlanes_; ++lane) {
          if (sub[static_cast<size_t>(lane)]) {
            lane_slots(lane)[n.var_slot] = v[static_cast<size_t>(lane)];
          }
        }
        OA_RETURN_IF_ERROR(exec(n.body, sub));
        for (int lane = 0; lane < nlanes_; ++lane) {
          v[static_cast<size_t>(lane)] += n.step;
        }
      }
      // Loop maintenance (increment + branch), amortized by unroll.
      counters_.instructions +=
          (2 * warp_iterations + n.unroll - 1) / n.unroll;
      break;
    }
    case CNode::Kind::kAssign:
      ++fstats_.interp_statements;
      OA_RETURN_IF_ERROR(exec_assign(n, mask));
      break;
    case CNode::Kind::kSync: {
      ++fstats_.interp_statements;
      for (int lane = 0; lane < nlanes_; ++lane) {
        if (!mask[static_cast<size_t>(lane)]) {
          return internal_error(
              "__syncthreads() under divergent control flow");
        }
      }
      counters_.barriers += 1;
      counters_.instructions += (nlanes_ + dev_.warp_size - 1) /
                                dev_.warp_size;
      break;
    }
    case CNode::Kind::kIf: {
      if (n.preds.empty()) {
        // Compile-time selected branch.
        OA_RETURN_IF_ERROR(exec(n.then_body, mask));
        break;
      }
      ++fstats_.interp_statements;
      std::vector<uint8_t> t(static_cast<size_t>(nlanes_), 0);
      std::vector<uint8_t> e(static_cast<size_t>(nlanes_), 0);
      bool any_t = false, any_e = false;
      for (int lane = 0; lane < nlanes_; ++lane) {
        const size_t l = static_cast<size_t>(lane);
        if (!mask[l]) continue;
        bool pass = true;
        for (const CPred& p : n.preds) {
          if (!p.eval(lane_slots(lane))) {
            pass = false;
            break;
          }
        }
        t[l] = pass;
        e[l] = !pass;
        any_t |= pass;
        any_e |= !pass;
      }
      for (int w = 0; w < nlanes_; w += dev_.warp_size) {
        const int we = std::min(w + dev_.warp_size, nlanes_);
        for (int l = w; l < we; ++l) {
          if (mask[static_cast<size_t>(l)]) {
            counters_.instructions += 1;  // predicate evaluation
            break;
          }
        }
        (void)we;
      }
      if (any_t) OA_RETURN_IF_ERROR(exec(n.then_body, t));
      if (any_e) OA_RETURN_IF_ERROR(exec(n.else_body, e));
      break;
    }
  }
  return Status::ok();
}

// ---- warp-analytic fast path --------------------------------------

namespace {

/// Distinct w-sized chunks touched by the affine address sequence
/// base + stride*i, i in [0, n). Addresses are in-bounds (>= 0) here,
/// so integer division is floor.
int64_t distinct_affine(int64_t base, int64_t stride, int64_t n,
                        int64_t w) {
  if (n <= 1 || stride == 0) return 1;
  const int64_t s = stride < 0 ? -stride : stride;
  if (s >= w) return n;  // every step lands in a new chunk
  const int64_t last = base + stride * (n - 1);
  const int64_t lo = std::min(base, last);
  const int64_t hi = std::max(base, last);
  // |stride| < w: consecutive floors differ by 0 or 1, so every chunk
  // between the extremes is touched.
  return hi / w - lo / w + 1;
}

}  // namespace

Status BlockSim::exec_fast(const std::vector<CNode>& body) {
  for (const CNode& n : body) {
    switch (n.kind) {
      case CNode::Kind::kLoop:
        if (n.bounds_uniform) {
          OA_RETURN_IF_ERROR(exec_fast_loop(n));
        } else {
          OA_RETURN_IF_ERROR(fallback_node(n));
        }
        break;
      case CNode::Kind::kAssign:
        if (n.fast) {
          OA_RETURN_IF_ERROR(exec_fast_assign(n));
        } else {
          OA_RETURN_IF_ERROR(fallback_node(n));
        }
        break;
      case CNode::Kind::kSync:
        // Full mask by construction: divergence never reaches here.
        ++fstats_.fast_statements;
        counters_.barriers += 1;
        counters_.instructions += warps_;
        break;
      case CNode::Kind::kIf:
        if (n.preds.empty()) {
          // Compile-time selected branch: free, like the interpreter.
          OA_RETURN_IF_ERROR(exec_fast(n.then_body));
        } else if (n.preds_uniform) {
          ++fstats_.fast_statements;
          counters_.instructions += warps_;  // predicate evaluation
          bool pass = true;
          for (const CPred& p : n.preds) {
            if (!p.eval(uslots_.data())) {
              pass = false;
              break;
            }
          }
          OA_RETURN_IF_ERROR(exec_fast(pass ? n.then_body : n.else_body));
        } else {
          OA_RETURN_IF_ERROR(fallback_node(n));
        }
        break;
    }
  }
  return Status::ok();
}

Status BlockSim::fallback_node(const CNode& n) {
  ++fallback_count_;
  sync_fast_vars();
  return exec_node(n, full_mask_);
}

void BlockSim::sync_fast_vars() {
  if (lanes_synced_) return;
  for (const FastVar& fv : fast_var_stack_) {
    const int64_t u = uslots_[static_cast<size_t>(fv.slot)];
    if (fv.tx == 0 && fv.ty == 0) {
      for (int lane = 0; lane < nlanes_; ++lane) {
        lane_slots(lane)[fv.slot] = u;
      }
    } else {
      // Lane-affine loop variable: reconstruct the per-lane value from
      // the uniform component and the bound's thread coefficients.
      int64_t tx = lane_begin_ % bx_;
      int64_t ty = lane_begin_ / bx_;
      for (int lane = 0; lane < nlanes_; ++lane) {
        lane_slots(lane)[fv.slot] = u + fv.tx * tx + fv.ty * ty;
        if (++tx == bx_) {
          tx = 0;
          ++ty;
        }
      }
    }
  }
  lanes_synced_ = true;
}

void BlockSim::affine_range(int64_t uniform, int64_t c_tx, int64_t c_ty,
                            int64_t& mn, int64_t& mx) const {
  affine_range_lanes(uniform, c_tx, c_ty, 0, nlanes_ - 1, mn, mx);
}

void BlockSim::affine_range_lanes(int64_t uniform, int64_t c_tx,
                                  int64_t c_ty, int l0, int l1,
                                  int64_t& mn, int64_t& mx) const {
  // The lane set is a contiguous absolute-lane interval: full interior
  // rows plus partial first/last rows. An affine function's extremes
  // over that set are attained at row endpoints, and the row-endpoint
  // values are affine in ty, so a handful of corners suffices.
  const int64_t a0 = lane_begin_ + l0;
  const int64_t al = lane_begin_ + l1;
  const int64_t tx0 = a0 % bx_, ty0 = a0 / bx_;
  const int64_t txl = al % bx_, tyl = al / bx_;
  mn = INT64_MAX;
  mx = INT64_MIN;
  const auto add = [&](int64_t tx, int64_t ty) {
    const int64_t v = uniform + c_tx * tx + c_ty * ty;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  };
  if (tyl == ty0) {
    add(tx0, ty0);
    add(txl, ty0);
  } else {
    add(tx0, ty0);
    add(bx_ - 1, ty0);
    add(0, tyl);
    add(txl, tyl);
    if (tyl - ty0 >= 2) {
      add(0, ty0 + 1);
      add(bx_ - 1, ty0 + 1);
      add(0, tyl - 1);
      add(bx_ - 1, tyl - 1);
    }
  }
}

bool BlockSim::group_stride(int g0, int n, int64_t uniform, int64_t c_tx,
                            int64_t c_ty, int64_t& base,
                            int64_t& stride) const {
  const int64_t a0 = lane_begin_ + g0;
  const int64_t tx = a0 % bx_;
  const int64_t ty = a0 / bx_;
  base = uniform + c_tx * tx + c_ty * ty;
  if (n == 1) {
    stride = 0;
    return true;
  }
  if ((a0 + n - 1) / bx_ == ty) {  // group within one row
    stride = c_tx;
    return true;
  }
  if (bx_ == 1) {  // every step is a row wrap
    stride = c_ty;
    return true;
  }
  if (c_ty == c_tx * bx_) {  // wrap step equals row step
    stride = c_tx;
    return true;
  }
  return false;
}

std::pair<int64_t, int64_t> BlockSim::coeffs(const CLin& l) const {
  int64_t tx = l.tx_coeff, ty = l.ty_coeff;
  for (const auto& [slot, c] : l.cond) {
    tx += c * cond_tx_[static_cast<size_t>(slot)];
    ty += c * cond_ty_[static_cast<size_t>(slot)];
  }
  return {tx, ty};
}

void BlockSim::materialize_group(int64_t uniform, int64_t c_tx,
                                 int64_t c_ty, int g0, int g1) {
  int64_t tx = (lane_begin_ + g0) % bx_;
  int64_t ty = (lane_begin_ + g0) / bx_;
  for (int l = g0; l < g1; ++l) {
    scratch_addr_[static_cast<size_t>(l)] = uniform + c_tx * tx + c_ty * ty;
    if (++tx == bx_) {
      tx = 0;
      ++ty;
    }
  }
}

Status BlockSim::exec_fast_assign(const CNode& n) {
  ++fstats_.fast_statements;
  const CArray& lhs_arr = k_.arrays[static_cast<size_t>(n.lhs.array)];
  counters_.instructions +=
      static_cast<int64_t>(warps_) *
      (n.arith_instructions +
       (lhs_arr.space != ir::MemSpace::kRegister ? 1 : 0));
  counters_.flops += static_cast<int64_t>(n.flops) * nlanes_;

  for (const CRef& ref : n.loads) {
    OA_RETURN_IF_ERROR(process_ref_fast(ref, /*is_store=*/false,
                                        /*count_inst=*/true));
  }
  if (n.rmw_load) {
    OA_RETURN_IF_ERROR(process_ref_fast(n.lhs, /*is_store=*/false,
                                        /*count_inst=*/true));
  }
  return process_ref_fast(n.lhs, /*is_store=*/true, /*count_inst=*/false);
}

Status BlockSim::process_ref_fast(const CRef& ref, bool is_store,
                                  bool count_inst) {
  const CArray& arr = k_.arrays[static_cast<size_t>(ref.array)];

  // Exact per-lane bounds check via the affine extremes. On violation,
  // delegate the whole reference to the interpreter so the error text
  // and partial side effects match it bit for bit.
  {
    int64_t mn, mx;
    const int64_t ur = ref.row_lin.uniform.eval(uslots_.data());
    const auto [rtx, rty] = coeffs(ref.row_lin);
    affine_range(ur, rtx, rty, mn, mx);
    bool oob = mn < 0 || mx >= arr.rows;
    if (!oob) {
      const int64_t uc = ref.col_lin.uniform.eval(uslots_.data());
      const auto [ctx, cty] = coeffs(ref.col_lin);
      affine_range(uc, ctx, cty, mn, mx);
      oob = mn < 0 || mx >= arr.cols;
    }
    if (oob) {
      ++fallback_count_;
      sync_fast_vars();
      return process_ref(ref, is_store, full_mask_, count_inst);
    }
  }

  const int64_t ua = ref.addr_lin.uniform.eval(uslots_.data());
  const auto [atx, aty] = coeffs(ref.addr_lin);

  if (!is_store) {
    // Register-caching gate on the canonical triple (base, row step,
    // wrap step), which characterizes the per-lane address vector
    // exactly for this lane range — O(1) stand-in for comparing all
    // lanes against reuse_addr_.
    const int64_t base0 = ua + atx * tx0_ + aty * ty0_;
    const int64_t rowc = has_row_step_ ? atx : 0;
    const int64_t wrapc = has_wrap_ ? aty - atx * (bx_ - 1) : 0;
    const size_t s = static_cast<size_t>(ref.site);
    site_gen_[s] = exec_gen_;
    bool reused;
    if (site_interp_[s]) {
      // An interpreter or masked round priced this site last, so the
      // per-lane reuse row holds the live state: run the interpreter's
      // own compare over the materialized affine addresses once, then
      // hand the site back to the triple summary.
      materialize_group(ua, atx, aty, 0, nlanes_);
      int64_t* row =
          reuse_addr_.data() + s * static_cast<size_t>(nlanes_);
      reused = true;
      for (int l = 0; l < nlanes_; ++l) {
        const int64_t addr = scratch_addr_[static_cast<size_t>(l)];
        if (row[l] != addr) {
          reused = false;
          row[l] = addr;
        }
      }
      site_interp_[s] = 0;
    } else {
      reused = site_valid_[s] && site_base_[s] == base0 &&
               site_rowc_[s] == rowc && site_wrapc_[s] == wrapc;
    }
    site_base_[s] = base0;
    site_rowc_[s] = rowc;
    site_wrapc_[s] = wrapc;
    site_valid_[s] = 1;
    if (reused) return Status::ok();  // register-cached
  }

  switch (arr.space) {
    case ir::MemSpace::kRegister: {
      if (arr.spilled) {
        const int group = dev_.coalescing == CoalescingModel::kFermi
                              ? dev_.warp_size
                              : dev_.warp_size / 2;
        const int64_t groups = (nlanes_ + group - 1) / group;
        (is_store ? counters_.local_store : counters_.local_read) +=
            groups;
        counters_.global_bytes += groups * dev_.transaction_bytes;
      }
      break;
    }
    case ir::MemSpace::kShared: {
      const int group = dev_.shared_banks;
      for (int g0 = 0; g0 < nlanes_; g0 += group) {
        const int g1 = std::min(g0 + group, nlanes_);
        int64_t base, s;
        if (group_stride(g0, g1 - g0, ua, atx, aty, base, s)) {
          (is_store ? counters_.shared_store : counters_.shared_load) += 1;
          if (s != 0) {
            // All addresses distinct; in bank (= 4-byte word) units the
            // stride is s * elem_words, and lanes i, j collide iff
            // i ≡ j (mod banks / gcd(|s*words|, banks)).
            const int64_t banks = dev_.shared_banks;
            const int64_t sw = (s < 0 ? -s : s) * elem_words(k_.precision);
            const int64_t period = banks / std::gcd(sw, banks);
            const int64_t degree = ((g1 - g0) + period - 1) / period;
            counters_.shared_bank_conflict_replays += degree - 1;
          }
        } else {
          materialize_group(ua, atx, aty, g0, g1);
          count_group(arr, ref, is_store, full_mask_, g0, g1, g1 - g0,
                      count_inst);
        }
      }
      break;
    }
    case ir::MemSpace::kGlobal: {
      if (dev_.coalescing == CoalescingModel::kFermi && !is_store) {
        // Fermi loads keep per-(site, lane) L1 line state: materialize
        // the affine addresses (a cheap incremental walk) and run the
        // exact per-group scan so the line cache stays bit-identical.
        materialize_group(ua, atx, aty, 0, nlanes_);
        for (int g0 = 0; g0 < nlanes_; g0 += dev_.warp_size) {
          const int g1 = std::min(g0 + dev_.warp_size, nlanes_);
          count_group(arr, ref, is_store, full_mask_, g0, g1, g1 - g0,
                      count_inst);
        }
        break;
      }
      const int group = dev_.coalescing == CoalescingModel::kFermi
                            ? dev_.warp_size
                            : dev_.warp_size / 2;
      for (int g0 = 0; g0 < nlanes_; g0 += group) {
        const int g1 = std::min(g0 + group, nlanes_);
        const int ng = g1 - g0;
        int64_t base, s;
        if (!group_stride(g0, ng, ua, atx, aty, base, s)) {
          materialize_group(ua, atx, aty, g0, g1);
          count_group(arr, ref, is_store, full_mask_, g0, g1, ng,
                      count_inst);
          continue;
        }
        const int64_t eb = elem_bytes(k_.precision);
        switch (dev_.coalescing) {
          case CoalescingModel::kStrict: {
            // addr(l) = base + (l - g0) for all lanes ⟺ stride == 1
            // (or a single lane); all lanes are active here. Perfect
            // patterns pay ceil(group_bytes / transaction_bytes)
            // transactions, exactly like the interpreter.
            const bool perfect =
                base % (dev_.transaction_bytes / eb) == 0 &&
                (ng == 1 || s == 1);
            if (perfect) {
              const int64_t txns =
                  (ng * eb + dev_.transaction_bytes - 1) /
                  dev_.transaction_bytes;
              (is_store ? counters_.gst_coherent
                        : counters_.gld_coherent) += txns;
              counters_.global_bytes += txns * dev_.transaction_bytes;
            } else {
              (is_store ? counters_.gst_incoherent
                        : counters_.gld_incoherent) += ng;
              counters_.global_bytes += ng * dev_.transaction_bytes;
            }
            break;
          }
          case CoalescingModel::kSegmented: {
            const int64_t segs = distinct_affine(
                base, s, ng, dev_.transaction_bytes / eb);
            (is_store ? counters_.gst_coherent
                      : counters_.gld_coherent) += segs;
            counters_.global_bytes +=
                32 * distinct_affine(base, s, ng, 32 / eb);
            break;
          }
          case CoalescingModel::kFermi: {  // stores only (no line cache)
            (is_store ? counters_.gst_request : counters_.gld_request) +=
                1;
            counters_.global_bytes +=
                dev_.transaction_bytes *
                distinct_affine(base, s, ng, dev_.transaction_bytes / eb);
            break;
          }
        }
        if (count_inst && (g0 % dev_.warp_size) == 0) {
          counters_.instructions += 1;
        }
      }
      break;
    }
  }
  return Status::ok();
}

bool BlockSim::binding_terms(const CNode& n, size_t& bi, size_t& bj) const {
  // Uniform components of every bound term; per-lane term value is
  // u + tc.first*tx + tc.second*ty (bounds_uniform guarantees every
  // slot in every term is lane-affine). A term "binds" when it attains
  // the max (lb) / min (ub) for every lane; interval-test the pairwise
  // differences over the lane range.
  int64_t u_lb[8], u_ub[8];
  const size_t nl = n.lb.terms.size(), nu = n.ub.terms.size();
  if (nl > 8 || nu > 8) return false;
  for (size_t i = 0; i < nl; ++i) {
    u_lb[i] = n.lb.terms[i].eval(uslots_.data());
  }
  for (size_t j = 0; j < nu; ++j) {
    u_ub[j] = n.ub.terms[j].eval(uslots_.data());
  }
  const auto dominates = [&](size_t i, size_t m, const int64_t* u,
                             const auto& tc, bool want_max) {
    int64_t mn, mx;
    affine_range(u[i] - u[m], tc[i].first - tc[m].first,
                 tc[i].second - tc[m].second, mn, mx);
    return want_max ? mn >= 0 : mx <= 0;
  };
  bi = nl;
  bj = nu;
  for (size_t i = 0; i < nl && bi == nl; ++i) {
    bool all = true;
    for (size_t m = 0; m < nl && all; ++m) {
      all = m == i || dominates(i, m, u_lb, n.lb_tc, /*want_max=*/true);
    }
    if (all) bi = i;
  }
  for (size_t j = 0; j < nu && bj == nu; ++j) {
    bool all = true;
    for (size_t m = 0; m < nu && all; ++m) {
      all = m == j || dominates(j, m, u_ub, n.ub_tc, /*want_max=*/false);
    }
    if (all) bj = j;
  }
  return bi != nl && bj != nu;
}

bool BlockSim::bind_loop_var(const CNode& n, int64_t ctx, int64_t cty) {
  const size_t vs = static_cast<size_t>(n.var_slot);
  switch (k_.slot_lane[vs]) {
    case CompiledKernel::SlotLane::kConditional:
      cond_tx_[vs] = ctx;
      cond_ty_[vs] = cty;
      return true;
    case CompiledKernel::SlotLane::kAffine:
      // References were annotated with the static coefficients, which
      // every lb term shares — a cheap invariant check.
      return ctx == k_.slot_tx[vs] && cty == k_.slot_ty[vs];
    case CompiledKernel::SlotLane::kIrregular:
      break;  // no reference over it prices analytically
  }
  return true;
}

Status BlockSim::exec_fast_loop(const CNode& n) {
  size_t bi, bj;
  if (!binding_terms(n, bi, bj)) return fallback_node(n);
  const int64_t lo = n.lb.terms[bi].eval(uslots_.data());
  const int64_t hi = n.ub.terms[bj].eval(uslots_.data());
  const auto [ctx, cty] = n.lb_tc[bi];
  const auto [utx, uty] = n.ub_tc[bj];
  // Lockstep iteration needs one trip count for every lane: ub - lb of
  // the binding terms must take a single value over the simulated
  // lanes. Equal thread coefficients guarantee it, and so does a
  // mismatch only on an axis the lane range holds fixed (a block one
  // thread wide, or a warp slice within one row) — the trip count then
  // includes that constant lane offset. The loop variable is
  // lane-affine with the binding lb term's coefficients either way.
  // Anything else is genuine divergence — handled analytically too
  // when no lane runs more than one trip (tile-load loops striding by
  // the thread count).
  int64_t span, span_max;
  affine_range(hi - lo, utx - ctx, uty - cty, span, span_max);
  if (span != span_max) {
    return exec_masked_loop(n, lo, hi, ctx, cty, utx, uty);
  }
  if (!bind_loop_var(n, ctx, cty)) return fallback_node(n);
  const int64_t trips = span > 0 ? (span + n.step - 1) / n.step : 0;
  // Loop maintenance: lockstep bounds mean every warp runs every trip,
  // so warp_iterations = warps * trips.
  counters_.instructions +=
      (2 * static_cast<int64_t>(warps_) * trips + n.unroll - 1) / n.unroll;
  if (trips == 0) return Status::ok();

  fast_var_stack_.push_back({n.var_slot, ctx, cty});
  bool collapsed = false;
  int64_t next = lo;  // first not-yet-executed trip value
  if (trips >= 3 && n.collapse_candidate &&
      collapse_ok_[static_cast<size_t>(n.loop_id)] &&
      collapse_bounds_ok(n, lo, lo + (trips - 1) * n.step)) {
    // Iteration 1 reaches steady state (branch pattern and reuse
    // relations are trip-invariant for collapse candidates); iteration
    // 2's counter delta then equals every later iteration's — provided
    // both iterations priced analytically throughout. Any interpreter
    // delegation (checked below via fallback_count_) voids the multiply
    // and the loop simply continues iterating; so does any masked round
    // (masked_count_), whose per-lane reuse state the analytic skip
    // cannot replay.
    const int64_t fb0 = fallback_count_;
    const int64_t mc0 = masked_count_;
    uslots_[static_cast<size_t>(n.var_slot)] = lo;
    lanes_synced_ = false;
    OA_RETURN_IF_ERROR(exec_fast(n.body));
    const int64_t mark = ++exec_gen_;
    uslots_[static_cast<size_t>(n.var_slot)] = lo + n.step;
    lanes_synced_ = false;
    const Counters before = counters_;
    const int64_t fast_before = fstats_.fast_statements;
    OA_RETURN_IF_ERROR(exec_fast(n.body));
    if (fallback_count_ == fb0 && masked_count_ == mc0) {
      const int64_t skipped = trips - 2;
      counters_ += (counters_ - before).scaled(skipped);
      fstats_.fast_statements +=
          (fstats_.fast_statements - fast_before) * skipped;
      fstats_.collapsed_loops += 1;
      fstats_.collapsed_iterations += skipped;
      // Advance the address state of every site the representative
      // iteration touched, as if the skipped iterations had run. Sites
      // behind untaken uniform branches keep their generation below
      // `mark` and stay untouched.
      for (int site : n.body_sites) {
        const size_t s = static_cast<size_t>(site);
        if (site_gen_[s] < mark) continue;
        const CRef* r = site_ref_[s];
        const int64_t delta =
            r->addr_lin.uniform.coeff_of(n.var_slot) * n.step;
        if (delta == 0) continue;
        site_base_[s] += delta * skipped;
        if (!line_addr_.empty() &&
            k_.arrays[static_cast<size_t>(r->array)].space ==
                ir::MemSpace::kGlobal) {
          // Fermi line cache: the per-lane lines shift by a whole
          // number of lines per trip (collapse_ok guarantees
          // alignment).
          const int64_t shift =
              delta / (dev_.transaction_bytes / elem_bytes(k_.precision)) *
              skipped;
          int64_t* row = line_addr_.data() + s * nlanes_;
          for (int l = 0; l < nlanes_; ++l) {
            if (row[l] >= 0) row[l] += shift;
          }
        }
      }
      uslots_[static_cast<size_t>(n.var_slot)] =
          lo + (trips - 1) * n.step;
      lanes_synced_ = false;
      collapsed = true;
    } else {
      next = lo + 2 * n.step;  // both representatives ran exactly
    }
  }
  if (!collapsed) {
    for (int64_t v = next; v < lo + span; v += n.step) {
      uslots_[static_cast<size_t>(n.var_slot)] = v;
      lanes_synced_ = false;
      OA_RETURN_IF_ERROR(exec_fast(n.body));
    }
  }
  fast_var_stack_.pop_back();
  return Status::ok();
}

Status BlockSim::exec_masked_loop(const CNode& n, int64_t ulb, int64_t uub,
                                  int64_t ltx, int64_t lty, int64_t utx,
                                  int64_t uty) {
  // Divergent loop, but analytically so: each lane's trip count is
  // ceil(delta(lane) / step) with delta = (uub - ulb) + (utx - ltx)*tx +
  // (uty - lty)*ty. When no lane runs more than one trip — the shape of
  // every tile-load loop `for (i = tid; i < T; i += nthreads)` — the
  // whole loop is one masked round over a statically known lane set.
  //
  // The loop variable's per-lane value on the single trip is the lb, so
  // the references inside price it with the lb coefficients.
  if (!bind_loop_var(n, ltx, lty)) return fallback_node(n);
  int64_t dmn, dmx;
  affine_range(uub - ulb, utx - ltx, uty - lty, dmn, dmx);
  if (dmx > n.step) return fallback_node(n);  // some lane iterates twice
  if (dmx <= 0) return Status::ok();  // zero trips: interpreter charges 0

  // Active lanes (delta > 0), tracked with the covering range [l0, l1].
  std::vector<uint8_t> mask(static_cast<size_t>(nlanes_), 0);
  int l0 = -1, l1 = -1;
  {
    int64_t tx = tx0_, ty = ty0_;
    for (int l = 0; l < nlanes_; ++l) {
      const int64_t d = (uub - ulb) + (utx - ltx) * tx + (uty - lty) * ty;
      if (d > 0) {
        mask[static_cast<size_t>(l)] = 1;
        if (l0 < 0) l0 = l;
        l1 = l;
      }
      if (++tx == bx_) {
        tx = 0;
        ++ty;
      }
    }
  }
  // Loop maintenance mirrors the interpreter's single round: one
  // warp-iteration per warp with at least one live lane.
  int64_t warp_iterations = 0;
  for (int w = 0; w < nlanes_; w += dev_.warp_size) {
    const int we = std::min(w + dev_.warp_size, nlanes_);
    for (int l = w; l < we; ++l) {
      if (mask[static_cast<size_t>(l)]) {
        ++warp_iterations;
        break;
      }
    }
  }
  counters_.instructions +=
      (2 * warp_iterations + n.unroll - 1) / n.unroll;

  // Masked rounds advance per-lane reuse state, which an enclosing
  // collapse's analytic skip cannot replay — void any attempt.
  ++masked_count_;
  fast_var_stack_.push_back({n.var_slot, ltx, lty});
  uslots_[static_cast<size_t>(n.var_slot)] = ulb;
  lanes_synced_ = false;
  const Status st = exec_masked(n.body, mask, l0, l1);
  fast_var_stack_.pop_back();
  return st;
}

Status BlockSim::exec_masked(const std::vector<CNode>& body,
                             const std::vector<uint8_t>& mask, int l0,
                             int l1) {
  const auto delegate = [&](const CNode& n) {
    ++fallback_count_;
    sync_fast_vars();
    std::vector<uint8_t> m(mask);  // exec_node wants a mutable mask
    return exec_node(n, m);
  };
  for (const CNode& n : body) {
    switch (n.kind) {
      case CNode::Kind::kLoop:
        OA_RETURN_IF_ERROR(delegate(n));
        break;
      case CNode::Kind::kAssign:
        if (n.fast) {
          OA_RETURN_IF_ERROR(exec_masked_assign(n, mask, l0, l1));
        } else {
          OA_RETURN_IF_ERROR(delegate(n));
        }
        break;
      case CNode::Kind::kSync: {
        // Mirrors the interpreter: a barrier under a partial mask is a
        // divergence error.
        for (int l = 0; l < nlanes_; ++l) {
          if (!mask[static_cast<size_t>(l)]) {
            return internal_error(
                "__syncthreads() under divergent control flow");
          }
        }
        ++fstats_.fast_statements;
        counters_.barriers += 1;
        counters_.instructions += warps_;
        break;
      }
      case CNode::Kind::kIf:
        if (n.preds.empty()) {
          OA_RETURN_IF_ERROR(exec_masked(n.then_body, mask, l0, l1));
        } else if (n.preds_uniform) {
          ++fstats_.fast_statements;
          // Predicate evaluation: per warp with >= 1 live lane.
          for (int w = 0; w < nlanes_; w += dev_.warp_size) {
            const int we = std::min(w + dev_.warp_size, nlanes_);
            for (int l = w; l < we; ++l) {
              if (mask[static_cast<size_t>(l)]) {
                counters_.instructions += 1;
                break;
              }
            }
          }
          bool pass = true;
          for (const CPred& p : n.preds) {
            if (!p.eval(uslots_.data())) {
              pass = false;
              break;
            }
          }
          OA_RETURN_IF_ERROR(
              exec_masked(pass ? n.then_body : n.else_body, mask, l0, l1));
        } else {
          OA_RETURN_IF_ERROR(delegate(n));
        }
        break;
    }
  }
  return Status::ok();
}

Status BlockSim::exec_masked_assign(const CNode& n,
                                    const std::vector<uint8_t>& mask,
                                    int l0, int l1) {
  ++fstats_.fast_statements;
  const CArray& lhs_arr = k_.arrays[static_cast<size_t>(n.lhs.array)];
  int active_total = 0;
  for (int w = 0; w < nlanes_; w += dev_.warp_size) {
    const int we = std::min(w + dev_.warp_size, nlanes_);
    int active = 0;
    for (int l = w; l < we; ++l) active += mask[static_cast<size_t>(l)];
    if (active > 0) {
      counters_.instructions +=
          n.arith_instructions +
          (lhs_arr.space != ir::MemSpace::kRegister ? 1 : 0);
    }
    active_total += active;
  }
  counters_.flops += static_cast<int64_t>(n.flops) * active_total;

  for (const CRef& ref : n.loads) {
    OA_RETURN_IF_ERROR(process_ref_masked(ref, /*is_store=*/false,
                                          /*count_inst=*/true, mask, l0,
                                          l1));
  }
  if (n.rmw_load) {
    OA_RETURN_IF_ERROR(process_ref_masked(n.lhs, /*is_store=*/false,
                                          /*count_inst=*/true, mask, l0,
                                          l1));
  }
  return process_ref_masked(n.lhs, /*is_store=*/true,
                            /*count_inst=*/false, mask, l0, l1);
}

Status BlockSim::process_ref_masked(const CRef& ref, bool is_store,
                                    bool count_inst,
                                    const std::vector<uint8_t>& mask,
                                    int l0, int l1) {
  const CArray& arr = k_.arrays[static_cast<size_t>(ref.array)];

  // Bounds check over the covering lane range (a superset of the active
  // set — conservative: a spurious hit just delegates to the exact
  // interpreter path, which only evaluates active lanes).
  {
    int64_t mn, mx;
    const int64_t ur = ref.row_lin.uniform.eval(uslots_.data());
    const auto [rtx, rty] = coeffs(ref.row_lin);
    affine_range_lanes(ur, rtx, rty, l0, l1, mn, mx);
    bool oob = mn < 0 || mx >= arr.rows;
    if (!oob) {
      const int64_t uc = ref.col_lin.uniform.eval(uslots_.data());
      const auto [ctx, cty] = coeffs(ref.col_lin);
      affine_range_lanes(uc, ctx, cty, l0, l1, mn, mx);
      oob = mn < 0 || mx >= arr.cols;
    }
    if (oob) {
      ++fallback_count_;
      sync_fast_vars();
      return process_ref(ref, is_store, mask, count_inst);
    }
  }

  // Materialize the affine addresses of the covering range once, then
  // run the interpreter's own per-lane reuse bookkeeping and per-group
  // counting over them — identical pricing, minus the per-lane
  // subscript evaluation.
  const int64_t ua = ref.addr_lin.uniform.eval(uslots_.data());
  const auto [atx, aty] = coeffs(ref.addr_lin);
  if (!is_store) adopt_site_interp(ref);
  materialize_group(ua, atx, aty, l0, l1 + 1);
  if (!is_store) {
    bool all_reused = true;
    for (int l = l0; l <= l1; ++l) {
      if (!mask[static_cast<size_t>(l)]) continue;
      const int64_t addr = scratch_addr_[static_cast<size_t>(l)];
      int64_t& last =
          reuse_addr_[static_cast<size_t>(ref.site) * nlanes_ + l];
      if (last != addr) {
        all_reused = false;
        last = addr;
      }
    }
    if (all_reused) return Status::ok();  // register-cached
  }

  const int group = arr.space == ir::MemSpace::kShared
                        ? dev_.shared_banks
                        : (dev_.coalescing == CoalescingModel::kFermi
                               ? dev_.warp_size
                               : dev_.warp_size / 2);
  for (int g0 = 0; g0 < nlanes_; g0 += group) {
    const int g1 = std::min(g0 + group, nlanes_);
    if (g1 <= l0 || g0 > l1) continue;
    int active = 0;
    for (int l = g0; l < g1; ++l) active += mask[static_cast<size_t>(l)];
    if (active == 0) continue;
    count_group(arr, ref, is_store, mask, g0, g1, active, count_inst);
  }
  return Status::ok();
}

void BlockSim::adopt_site_interp(const CRef& ref) {
  const size_t s = static_cast<size_t>(ref.site);
  if (site_valid_[s]) {
    // The last visit was analytic: walk the triple's address vector
    // into the reuse row, reproducing exactly the per-lane state that
    // visit would have written. Lane order follows the contiguous
    // absolute-lane interval (tx advances, wrapping into the next row),
    // so the row step applies within a row and the wrap step across
    // rows; whichever of the two a geometry never takes was stored as
    // zero and is never read.
    int64_t* row = reuse_addr_.data() + s * static_cast<size_t>(nlanes_);
    int64_t addr = site_base_[s];
    int64_t tx = tx0_;
    for (int l = 0; l < nlanes_; ++l) {
      row[l] = addr;
      if (tx + 1 < bx_) {
        ++tx;
        addr += site_rowc_[s];
      } else {
        tx = 0;
        addr += site_wrapc_[s];
      }
    }
    site_valid_[s] = 0;
  }
  site_interp_[s] = 1;
}

bool BlockSim::collapse_bounds_ok(const CNode& n, int64_t lo,
                                  int64_t last) {
  // The proof runs in the lane-affine frame: `iv` holds intervals of
  // *uniform components* (points from the live uniform slot array;
  // [lo, last] for the collapsed variable; bound-derived supersets for
  // nested loop variables), and each reference adds the spread of its
  // own aggregated thread coefficients. Keeping the thread terms
  // aggregated preserves cancellation in subscripts like i - 4*ty,
  // which slot-wise interval arithmetic would tear apart.
  std::vector<std::pair<int64_t, int64_t>> iv(
      static_cast<size_t>(k_.num_slots));
  for (int s = 0; s < k_.num_slots; ++s) {
    const int64_t v = uslots_[static_cast<size_t>(s)];
    iv[static_cast<size_t>(s)] = {v, v};
  }
  iv[static_cast<size_t>(n.var_slot)] = {lo, last};  // step > 0
  return sites_in_bounds(n.body, iv);
}

bool BlockSim::sites_in_bounds(
    const std::vector<CNode>& body,
    std::vector<std::pair<int64_t, int64_t>>& iv) {
  // `iv` holds uniform-component intervals. Thread slots sit at their
  // uniform component 0 — their contribution enters through the
  // aggregated lane-affine coefficients below, never slot-wise.
  const auto expr_range = [&iv](const CExpr& e) {
    int64_t lo = e.constant, hi = e.constant;
    for (const auto& [slot, c] : e.terms) {
      const auto& [slo, shi] = iv[static_cast<size_t>(slot)];
      if (c >= 0) {
        lo += c * slo;
        hi += c * shi;
      } else {
        lo += c * shi;
        hi += c * slo;
      }
    }
    return std::pair<int64_t, int64_t>{lo, hi};
  };
  // Per-lane range of a lane-affine subscript: uniform-component
  // interval plus the exact spread of the aggregated thread
  // coefficients over the lane range.
  const auto lin_range = [&](const CLin& l) {
    auto [lo, hi] = expr_range(l.uniform);
    const auto [ctx, cty] = coeffs(l);
    int64_t mn, mx;
    affine_range(0, ctx, cty, mn, mx);
    return std::pair<int64_t, int64_t>{lo + mn, hi + mx};
  };
  const auto ref_ok = [&](const CRef& r) {
    // Non-affine references execute through the interpreter, which
    // voids any collapse attempt before the multiply; nothing to prove.
    if (!r.fast) return false;
    const CArray& arr = k_.arrays[static_cast<size_t>(r.array)];
    const auto [rlo, rhi] = lin_range(r.row_lin);
    const auto [clo, chi] = lin_range(r.col_lin);
    return rlo >= 0 && rhi < arr.rows && clo >= 0 && chi < arr.cols;
  };
  for (const CNode& n : body) {
    switch (n.kind) {
      case CNode::Kind::kAssign: {
        for (const CRef& r : n.loads) {
          if (!ref_ok(r)) return false;
        }
        if (!ref_ok(n.lhs)) return false;
        break;
      }
      case CNode::Kind::kLoop: {
        // A nested loop with irregular bounds falls back wholesale and
        // the attempt is voided; only lockstep loops need the proof.
        if (!n.bounds_uniform) return false;
        // Nested bounds never reference the collapsed variable (control
        // independence), so their binding terms are the same in every
        // trip. When every term's uniform component is a point, resolve
        // the binding terms exactly — the same lane-domination test the
        // executor runs — instead of unioning over all terms, which
        // would drag boundary-guard terms like min(N, affine) into the
        // interval.
        const size_t nl = n.lb.terms.size(), nu = n.ub.terms.size();
        std::vector<std::pair<int64_t, int64_t>> lbr(nl), ubr(nu);
        bool points = true;
        for (size_t i = 0; i < nl; ++i) {
          lbr[i] = expr_range(n.lb.terms[i]);
          points &= lbr[i].first == lbr[i].second;
        }
        for (size_t j = 0; j < nu; ++j) {
          ubr[j] = expr_range(n.ub.terms[j]);
          points &= ubr[j].first == ubr[j].second;
        }
        const size_t vs = static_cast<size_t>(n.var_slot);
        const bool cond =
            k_.slot_lane[vs] == CompiledKernel::SlotLane::kConditional;
        // Spread over the lanes of lb term i's offset from ub term j:
        // the loop runs in lockstep only where it is a single value.
        const auto offset = [&](size_t i, size_t j, int64_t& mn,
                                int64_t& mx) {
          affine_range(0, n.ub_tc[j].first - n.lb_tc[i].first,
                       n.ub_tc[j].second - n.lb_tc[i].second, mn, mx);
        };
        size_t bi = nl, bj = nu;
        int64_t vlo, vhi;
        if (points) {
          const auto binds = [&](size_t i, size_t m, const auto& r,
                                 const auto& tc, bool want_max) {
            int64_t mn, mx;
            affine_range(r[i].first - r[m].first,
                         tc[i].first - tc[m].first,
                         tc[i].second - tc[m].second, mn, mx);
            return want_max ? mn >= 0 : mx <= 0;
          };
          for (size_t i = 0; i < nl && bi == nl; ++i) {
            bool all = true;
            for (size_t m = 0; m < nl && all; ++m) {
              all = m == i || binds(i, m, lbr, n.lb_tc, true);
            }
            if (all) bi = i;
          }
          for (size_t j = 0; j < nu && bj == nu; ++j) {
            bool all = true;
            for (size_t m = 0; m < nu && all; ++m) {
              all = m == j || binds(j, m, ubr, n.ub_tc, false);
            }
            if (all) bj = j;
          }
          // No block-wide binding term means the nested loop diverges
          // and falls back, voiding the attempt.
          if (bi == nl || bj == nu) return false;
          int64_t mn, mx;
          offset(bi, bj, mn, mx);
          const int64_t span = ubr[bj].first - lbr[bi].first;
          if (span + mx <= 0) break;  // no lane runs a trip
          // A trip count that differs across lanes runs masked or falls
          // back, voiding the attempt.
          if (mn != mx) return false;
          vlo = lbr[bi].first;
          vhi = vlo + span + mn - 1;  // the executor's lockstep trips
        } else {
          // Interval-valued terms (e.g. triangular nests over the
          // collapsed variable's subscripts): a union over every term
          // pair that can iterate in lockstep is a sound superset
          // whichever terms bind. A conditionally affine variable's
          // coefficients would depend on the binding term: refuse.
          if (cond) return false;
          vlo = INT64_MAX;
          vhi = INT64_MIN;
          for (size_t i = 0; i < nl; ++i) {
            vlo = std::min(vlo, lbr[i].first);
            for (size_t j = 0; j < nu; ++j) {
              int64_t mn, mx;
              offset(i, j, mn, mx);
              if (mn == mx) vhi = std::max(vhi, ubr[j].second + mn - 1);
            }
          }
        }
        // Bind a conditionally affine variable to its binding term for
        // the nested references, as the executor will.
        const auto saved = iv[vs];
        const int64_t saved_tx = cond_tx_[vs], saved_ty = cond_ty_[vs];
        if (cond) {
          cond_tx_[vs] = n.lb_tc[bi].first;
          cond_ty_[vs] = n.lb_tc[bi].second;
        }
        iv[vs] = {vlo, std::max(vlo, vhi)};
        const bool ok = sites_in_bounds(n.body, iv);
        iv[vs] = saved;
        cond_tx_[vs] = saved_tx;
        cond_ty_[vs] = saved_ty;
        if (!ok) return false;
        break;
      }
      case CNode::Kind::kSync:
        break;
      case CNode::Kind::kIf: {
        if (!sites_in_bounds(n.then_body, iv)) return false;
        if (!sites_in_bounds(n.else_body, iv)) return false;
        break;
      }
    }
  }
  return true;
}

}  // namespace oa::gpusim
