#include "exec/executor.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <span>

#include "blas3/call_shape.hpp"
#include "exec/jit_x86.hpp"
#include "gpusim/simulator.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

namespace oa::exec {
namespace {

bool jit_disabled_by_env() {
  static const bool disabled = std::getenv("OABLAS_NO_JIT") != nullptr;
  return disabled;
}

// ---- Portable tape executor ---------------------------------------
//
// Reference implementation of the segment ABI; the JIT emits exactly
// this computation. f32 kernels evaluate with T = float (load narrows,
// store widens), which is bit-identical to the interpreter's
// double-op-then-round_to discipline (innocuous double rounding; see
// support/precision.hpp).

int64_t eval_affine(const Segment& seg, int32_t id, const int64_t* slots,
                    const int64_t* locals) {
  const TAffine& aff = seg.affines[static_cast<size_t>(id)];
  int64_t v = aff.imm;
  for (int32_t i = 0; i < aff.count; ++i) {
    const RTerm& rt = seg.terms[static_cast<size_t>(aff.first + i)];
    v += rt.coeff * (rt.is_local ? locals[rt.src] : slots[rt.src]);
  }
  return v;
}

template <typename T>
void run_segment_portable(const Segment& seg, const LoweredKernel& lk,
                          double* const* arrays, const int64_t* slots,
                          int64_t* locals) {
  auto* err = reinterpret_cast<ErrorCell*>(
      const_cast<double*>(arrays[lk.arrays.size()]));
  // Bounds-checked element of arrays[t.a] at (aff[t.b], aff[t.c]), or
  // null after recording the fault.
  auto cell = [&](const TIns& t) -> double* {
    const gpusim::CArray& arr = lk.arrays[static_cast<size_t>(t.a)];
    const int64_t r = eval_affine(seg, t.b, slots, locals);
    const int64_t c = eval_affine(seg, t.c, slots, locals);
    if (static_cast<uint64_t>(r) >= static_cast<uint64_t>(arr.rows) ||
        static_cast<uint64_t>(c) >= static_cast<uint64_t>(arr.cols)) {
      err->failed = 1;
      err->array = t.a;
      err->row = r;
      err->col = c;
      return nullptr;
    }
    return &arrays[t.a][r + c * arr.ld];
  };
  T stack[gpusim::kMaxTapeDepth];
  int sp = 0;
  size_t ip = 0;
  const size_t n = seg.code.size();
  while (ip < n) {
    const TIns& t = seg.code[ip];
    switch (t.op) {
      case TIns::Op::kAffine:
        locals[t.a] = eval_affine(seg, t.b, slots, locals);
        break;
      case TIns::Op::kMin:
        locals[t.a] =
            std::min(locals[t.a], eval_affine(seg, t.b, slots, locals));
        break;
      case TIns::Op::kMax:
        locals[t.a] =
            std::max(locals[t.a], eval_affine(seg, t.b, slots, locals));
        break;
      case TIns::Op::kAddImm:
        locals[t.a] += t.imm;
        break;
      case TIns::Op::kJump:
        ip = static_cast<size_t>(t.a);
        continue;
      case TIns::Op::kJumpGe:
        if (locals[t.a] >= locals[t.b]) {
          ip = static_cast<size_t>(t.c);
          continue;
        }
        break;
      case TIns::Op::kPredJump: {
        const int64_t v = eval_affine(seg, t.a, slots, locals);
        bool hold = false;
        switch (static_cast<ir::Pred::Op>(t.mode)) {
          case ir::Pred::Op::kEq: hold = v == 0; break;
          case ir::Pred::Op::kGe: hold = v >= 0; break;
          case ir::Pred::Op::kLt: hold = v < 0; break;
        }
        if (!hold) {
          ip = static_cast<size_t>(t.c);
          continue;
        }
        break;
      }
      case TIns::Op::kFConst:
        stack[sp++] = static_cast<T>(t.fimm);
        break;
      case TIns::Op::kFLoad: {
        const double* src = cell(t);
        if (src == nullptr) return;
        stack[sp++] = static_cast<T>(*src);
        break;
      }
      case TIns::Op::kFNeg:
        stack[sp - 1] = -stack[sp - 1];
        break;
      case TIns::Op::kFAdd:
        stack[sp - 2] = stack[sp - 2] + stack[sp - 1];
        --sp;
        break;
      case TIns::Op::kFSub:
        stack[sp - 2] = stack[sp - 2] - stack[sp - 1];
        --sp;
        break;
      case TIns::Op::kFMul:
        stack[sp - 2] = stack[sp - 2] * stack[sp - 1];
        --sp;
        break;
      case TIns::Op::kFDiv:
        stack[sp - 2] = stack[sp - 2] / stack[sp - 1];
        --sp;
        break;
      case TIns::Op::kFStore: {
        double* dst = cell(t);
        if (dst == nullptr) return;
        const T value = stack[--sp];
        switch (static_cast<ir::AssignOp>(t.mode)) {
          case ir::AssignOp::kAssign:
            *dst = static_cast<double>(value);
            break;
          case ir::AssignOp::kAddAssign:
            *dst = static_cast<double>(static_cast<T>(*dst) + value);
            break;
          case ir::AssignOp::kSubAssign:
            *dst = static_cast<double>(static_cast<T>(*dst) - value);
            break;
          case ir::AssignOp::kDivAssign:
            *dst = static_cast<double>(static_cast<T>(*dst) / value);
            break;
        }
        break;
      }
      case TIns::Op::kRet:
        return;
    }
    ++ip;
  }
}

// ---- Block driver -------------------------------------------------

struct BlockCtx {
  const ExecutedKernel* ek = nullptr;
  int nlanes = 0;
  int num_slots = 0;
  std::vector<int64_t> frames;       // nlanes * num_slots, lane-major
  std::vector<double*> tab;          // arrays table + ErrorCell slot
  std::vector<std::vector<double>> local_store;  // shared + register
  std::vector<int> reg_arrays;       // indices with per-lane storage
  std::vector<double*> reg_base;     // per reg array: block-wide base
  std::vector<int64_t> locals;       // portable-executor scratch
  ErrorCell err;

  int64_t* frame(int lane) {
    return frames.data() + static_cast<size_t>(lane) * num_slots;
  }
};

Status oob_status(const LoweredKernel& lk, const ErrorCell& err) {
  const gpusim::CArray& arr = lk.arrays[static_cast<size_t>(err.array)];
  return internal_error(
      str_format("out-of-bounds access to %s: (%lld, %lld) not in %lldx%lld",
                 arr.name.c_str(), static_cast<long long>(err.row),
                 static_cast<long long>(err.col),
                 static_cast<long long>(arr.rows),
                 static_cast<long long>(arr.cols)));
}

Status run_segment_all_lanes(BlockCtx& ctx, int seg_idx) {
  const ExecutedKernel& ek = *ctx.ek;
  const LoweredKernel& lk = ek.lowered;
  const Segment& seg = lk.segments[static_cast<size_t>(seg_idx)];
  for (int lane = 0; lane < ctx.nlanes; ++lane) {
    for (size_t i = 0; i < ctx.reg_arrays.size(); ++i) {
      const int a = ctx.reg_arrays[i];
      ctx.tab[static_cast<size_t>(a)] =
          ctx.reg_base[i] +
          static_cast<size_t>(lane) *
              lk.arrays[static_cast<size_t>(a)].elements;
    }
    const int64_t* slots = ctx.frame(lane);
    if (ek.jit) {
      auto fn = reinterpret_cast<SegmentFn>(
          const_cast<void*>(ek.entries[static_cast<size_t>(seg_idx)]));
      fn(ctx.tab.data(), slots);
    } else if (lk.precision == Precision::kF64) {
      run_segment_portable<double>(seg, lk, ctx.tab.data(), slots,
                                   ctx.locals.data());
    } else {
      run_segment_portable<float>(seg, lk, ctx.tab.data(), slots,
                                  ctx.locals.data());
    }
    if (ctx.err.failed) return oob_status(lk, ctx.err);
  }
  return Status::ok();
}

Status exec_driver(BlockCtx& ctx, const std::vector<DriverNode>& nodes) {
  for (const DriverNode& n : nodes) {
    switch (n.kind) {
      case DriverNode::Kind::kSegment:
        OA_RETURN_IF_ERROR(run_segment_all_lanes(ctx, n.segment));
        break;
      case DriverNode::Kind::kSync:
        // Lane-major execution already ran every lane to this point.
        break;
      case DriverNode::Kind::kLoop: {
        // Bounds are lane-uniform (verified at lowering): evaluate on
        // lane 0's frame, broadcast the variable to every lane.
        int64_t v = n.lb.eval_max(ctx.frame(0));
        const int64_t hi = n.ub.eval_min(ctx.frame(0));
        for (; v < hi; v += n.step) {
          for (int lane = 0; lane < ctx.nlanes; ++lane) {
            ctx.frame(lane)[n.var_slot] = v;
          }
          OA_RETURN_IF_ERROR(exec_driver(ctx, n.body));
        }
        break;
      }
      case DriverNode::Kind::kIf: {
        bool hold = true;
        for (const gpusim::CPred& p : n.preds) {
          if (!p.eval(ctx.frame(0))) {
            hold = false;
            break;
          }
        }
        OA_RETURN_IF_ERROR(
            exec_driver(ctx, hold ? n.then_body : n.else_body));
        break;
      }
    }
  }
  return Status::ok();
}

Status run_block(const ExecutedKernel& ek, double* const* globals,
                 int64_t by, int64_t bx) {
  const LoweredKernel& lk = ek.lowered;
  BlockCtx ctx;
  ctx.ek = &ek;
  ctx.nlanes = static_cast<int>(lk.launch.threads_per_block());
  ctx.num_slots = lk.num_slots;
  ctx.frames.assign(
      static_cast<size_t>(ctx.nlanes) * ctx.num_slots, 0);
  for (int lane = 0; lane < ctx.nlanes; ++lane) {
    int64_t* f = ctx.frame(lane);
    if (lk.block_y_slot >= 0) f[lk.block_y_slot] = by;
    if (lk.block_x_slot >= 0) f[lk.block_x_slot] = bx;
    if (lk.thread_x_slot >= 0) f[lk.thread_x_slot] = lane % lk.launch.block_x;
    if (lk.thread_y_slot >= 0) f[lk.thread_y_slot] = lane / lk.launch.block_x;
  }

  ctx.tab.assign(lk.arrays.size() + 1, nullptr);
  for (size_t i = 0; i < lk.arrays.size(); ++i) {
    const gpusim::CArray& a = lk.arrays[i];
    switch (a.space) {
      case ir::MemSpace::kGlobal:
        ctx.tab[i] = globals[i];
        break;
      case ir::MemSpace::kShared: {
        ctx.local_store.emplace_back(static_cast<size_t>(a.elements), 0.0);
        ctx.tab[i] = ctx.local_store.back().data();
        break;
      }
      case ir::MemSpace::kRegister: {
        // Private per-lane storage, one block-wide slab (spilled or
        // not — spilling only changes the simulator's pricing).
        ctx.local_store.emplace_back(
            static_cast<size_t>(a.elements) * ctx.nlanes, 0.0);
        ctx.reg_arrays.push_back(static_cast<int>(i));
        ctx.reg_base.push_back(ctx.local_store.back().data());
        break;
      }
    }
  }
  ctx.tab[lk.arrays.size()] = reinterpret_cast<double*>(&ctx.err);

  int max_locals = 1;
  for (const Segment& s : lk.segments) {
    max_locals = std::max(max_locals, s.num_locals);
  }
  ctx.locals.assign(static_cast<size_t>(max_locals), 0);

  return exec_driver(ctx, lk.driver);
}

}  // namespace

// ---- ExecCache ----------------------------------------------------

const ExecCache::Result* ExecCache::find_locked(uint64_t key) {
  auto it = slots_.find(key);
  if (it == slots_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.recency);
  return &it->second.result;
}

namespace {

/// Adds (sign 1) or removes (sign -1) a cached result's machine code
/// from the code_bytes and vector_loops gauges.
void count_code(ExecStats& stats,
                const StatusOr<std::shared_ptr<const ExecutedKernel>>& r,
                int64_t sign) {
  if (!r.is_ok() || (*r)->code == nullptr) return;
  stats.code_bytes += sign * static_cast<int64_t>((*r)->code->size());
  stats.vector_loops += sign * (*r)->vector_loops;
}

}  // namespace

const ExecCache::Result& ExecCache::insert_locked(uint64_t key,
                                                  Result result) {
  if (const Result* raced = find_locked(key)) return *raced;
  lru_.push_front(key);
  count_code(stats_, result, 1);
  const Result& stored =
      slots_.emplace(key, Slot{std::move(result), lru_.begin()})
          .first->second.result;
  while (slots_.size() > kCapacity) {
    auto victim = slots_.find(lru_.back());
    count_code(stats_, victim->second.result, -1);
    slots_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return stored;
}

StatusOr<std::shared_ptr<const ExecutedKernel>> ExecCache::get_or_compile(
    const gpusim::CompiledKernel& ck, const ExecOptions& options) {
  const bool use_jit = jit_supported() && !options.force_portable &&
                       !jit_disabled_by_env();
  // force_portable results must not alias JIT'd ones for the same
  // kernel (the fallback test depends on actually getting the tape).
  Fingerprint fp;
  fp.mix(kernel_key(ck)).mix(use_jit);
  const uint64_t key = fp.digest();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const Result* hit = find_locked(key)) {
      ++stats_.cache_hits;
      return *hit;
    }
  }

  auto lowered = lower_kernel(ck);
  if (!lowered.is_ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.compiles;
    ++stats_.failed_lowerings;
    return insert_locked(key, lowered.status());
  }

  auto ek = std::make_shared<ExecutedKernel>();
  ek->lowered = std::move(*lowered);
  ek->key = key;
  if (use_jit) {
    auto jr = jit_compile(ek->lowered);
    if (jr.is_ok()) {
      ek->jit = true;
      ek->code = std::move(jr->buffer);
      ek->entries = std::move(jr->entries);
      ek->vector_loops = jr->vector_loops;
    }
    // Emission failure (W^X refusal, xmm pressure) is not an error:
    // the portable executor runs the same tape.
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.compiles;
  if (ek->jit) {
    ++stats_.jit_kernels;
  } else {
    ++stats_.portable_kernels;
  }
  return insert_locked(key,
                       std::shared_ptr<const ExecutedKernel>(std::move(ek)));
}

ExecStats ExecCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ExecStats out = stats_;
  out.entries = static_cast<int64_t>(slots_.size());
  out.native_blocks = native_blocks_.load(std::memory_order_relaxed);
  return out;
}

// ---- Program-level execution --------------------------------------

Status run_lowered(const ExecutedKernel& ek, gpusim::GlobalBuffers& buffers,
                   int64_t count, ExecCache* stats) {
  const LoweredKernel& lk = ek.lowered;
  const size_t narrays = lk.arrays.size();
  // Member pointer tables, built once per launch: member m's copy of a
  // global is the m-th of `count` equal slices of its buffer.
  std::vector<double*> tables(narrays * static_cast<size_t>(count), nullptr);
  for (size_t i = 0; i < narrays; ++i) {
    const gpusim::CArray& a = lk.arrays[i];
    if (a.space != ir::MemSpace::kGlobal) continue;
    std::vector<double>* buf = buffers.find(a.name);
    const size_t slice =
        buf == nullptr ? 0 : buf->size() / static_cast<size_t>(count);
    if (buf == nullptr || slice < static_cast<size_t>(a.elements)) {
      return internal_error("global buffer '" + a.name +
                            "' missing or undersized");
    }
    for (size_t m = 0; m < static_cast<size_t>(count); ++m) {
      tables[m * narrays + i] = buf->data() + m * slice;
    }
  }

  // Waves of independent blocks (serialized grid-Y runs one block row
  // per wave); every member's blocks share each wave.
  const bool serial = lk.launch.serial_grid_y;
  const int64_t num_waves = serial ? lk.launch.grid_y : 1;
  const int64_t blocks_per_wave =
      serial ? lk.launch.grid_x : lk.launch.num_blocks();
  for (int64_t wave = 0; wave < num_waves; ++wave) {
    std::mutex mu;
    Status first_error = Status::ok();
    ThreadPool::shared().parallel_for(
        static_cast<size_t>(count * blocks_per_wave), [&](size_t idx) {
          const size_t member = idx / static_cast<size_t>(blocks_per_wave);
          const int64_t bidx =
              static_cast<int64_t>(idx) % blocks_per_wave;
          const int64_t by = serial ? wave : bidx / lk.launch.grid_x;
          const int64_t bx = serial ? bidx : bidx % lk.launch.grid_x;
          Status s = run_block(ek, &tables[member * narrays], by, bx);
          if (!s.is_ok()) {
            std::lock_guard<std::mutex> lock(mu);
            if (first_error.is_ok()) first_error = s;
          }
        });
    OA_RETURN_IF_ERROR(first_error);
  }
  if (stats != nullptr) {
    stats->count_native_blocks(count * num_waves * blocks_per_wave);
  }
  return Status::ok();
}

Status execute_call(const gpusim::DeviceModel& device,
                    const ir::Program& program, const blas3::CallShape& shape,
                    std::span<blas3::Matrix> out,
                    const std::map<std::string, bool>& bool_params,
                    ExecCache& cache, const ExecOptions& options) {
  const ir::Env int_params = shape.env();
  const size_t count = static_cast<size_t>(shape.count());
  // Reject a retargeted output shape before compiling or running
  // anything — read-back would refuse the result anyway.
  OA_RETURN_IF_ERROR(gpusim::check_read_back_shape(
      program, int_params, shape.output(), out.front()));
  gpusim::GlobalBuffers buffers;
  for (const ir::ArrayDecl& d : program.globals) {
    const size_t elems = static_cast<size_t>(d.num_elements(int_params));
    std::vector<double>& buf =
        buffers.data.emplace(d.name, std::vector<double>(elems * count, 0.0))
            .first->second;
    const std::span<const blas3::Matrix> members = shape.operand(d.name);
    for (size_t m = 0; m < members.size(); ++m) {
      gpusim::stage_global(d, int_params, members[m],
                           buf.data() + m * elems);
    }
  }

  for (const ir::Kernel& kernel : program.kernels) {
    OA_ASSIGN_OR_RETURN(
        gpusim::CompiledKernel ck,
        gpusim::compile_kernel(program, kernel, int_params, bool_params));
    OA_RETURN_IF_ERROR(gpusim::gate_launch(device, ck).status());
    OA_ASSIGN_OR_RETURN(std::shared_ptr<const ExecutedKernel> ek,
                        cache.get_or_compile(ck, options));
    OA_RETURN_IF_ERROR(run_lowered(*ek, buffers, shape.count(), &cache));
  }

  const ir::ArrayDecl& d = *program.find_global(shape.output());
  const size_t elems = static_cast<size_t>(d.num_elements(int_params));
  const double* src = buffers.find(shape.output())->data();
  for (size_t m = 0; m < count; ++m) {
    gpusim::unstage_global(d, int_params, src + m * elems, out[m]);
  }
  return Status::ok();
}

Status execute_program(const gpusim::DeviceModel& device,
                       const ir::Program& program,
                       const blas3::Variant& variant,
                       const blas3::Matrix& a, blas3::Matrix& b,
                       blas3::Matrix* c,
                       const std::map<std::string, bool>& bool_params,
                       ExecCache& cache, const ExecOptions& options) {
  const blas3::CallShape shape(variant, a, b, c);
  OA_RETURN_IF_ERROR(shape.validate());
  return execute_call(device, program, shape, {&shape.output_of(b, c), 1},
                      bool_params, cache, options);
}

Status execute_batched(const gpusim::DeviceModel& device,
                       const ir::Program& program,
                       const blas3::Variant& variant,
                       const std::vector<blas3::Matrix>& a,
                       std::vector<blas3::Matrix>& b,
                       std::vector<blas3::Matrix>* c,
                       const std::map<std::string, bool>& bool_params,
                       ExecCache& cache, const ExecOptions& options) {
  const blas3::CallShape shape(variant, a, b, c);
  OA_RETURN_IF_ERROR(shape.validate());
  return execute_call(device, program, shape, shape.output_of(b, c),
                      bool_params, cache, options);
}

}  // namespace oa::exec
