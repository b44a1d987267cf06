// Native execution of compiled kernels: lowering (tape.hpp) plus a
// process-wide cache of executable kernels, each backed either by
// JIT-emitted x86-64 (jit_x86.hpp) or by the portable tape executor —
// two implementations of the same segment ABI
//     void seg(double* const* arrays, const int64_t* slots)
// selected at runtime. execute_program() mirrors
// engine::execute_program but computes results natively instead of
// through the lockstep interpreter; both it and execute_batched() wrap
// execute_call(), which runs one already-validated call.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "blas3/call_shape.hpp"
#include "blas3/matrix.hpp"
#include "blas3/routine.hpp"
#include "exec/code_buffer.hpp"
#include "exec/tape.hpp"
#include "gpusim/block_sim.hpp"
#include "gpusim/device.hpp"
#include "ir/kernel.hpp"

namespace oa::exec {

struct ExecOptions {
  /// Skip the JIT even when the host supports it; run every segment
  /// through the portable tape executor. Also forced by the
  /// OABLAS_NO_JIT environment variable (checked once per process).
  bool force_portable = false;
};

struct ExecStats {
  int64_t compiles = 0;          // lowerings performed (cache misses)
  int64_t cache_hits = 0;
  int64_t jit_kernels = 0;       // compiles that produced machine code
  int64_t portable_kernels = 0;  // compiles that fell back to the tape
  int64_t failed_lowerings = 0;  // kernels the backend cannot lower
  int64_t native_blocks = 0;     // thread blocks executed natively
  int64_t entries = 0;           // cached kernels + cached refusals now
  int64_t evictions = 0;         // least-recently-used entries dropped
  int64_t code_bytes = 0;        // mapped JIT code the entries hold now
  int64_t vector_loops = 0;      // loops with a four-trip copy in them
};

/// Per-segment entry point (SysV; the portable executor matches the
/// calling convention at the C++ level).
using SegmentFn = void (*)(double* const* arrays, const int64_t* slots);

/// A lowered kernel ready to run: the driver tree plus, when the JIT
/// succeeded, one native entry point per segment.
struct ExecutedKernel {
  LoweredKernel lowered;
  uint64_t key = 0;
  bool jit = false;
  std::unique_ptr<CodeBuffer> code;   // owns the machine code (jit only)
  std::vector<const void*> entries;   // per-segment, jit only
  int vector_loops = 0;               // loops with a four-trip copy
};

/// Keyed, thread-safe cache of executable kernels. Lowering failures
/// are negatively cached (a kernel that cannot be lowered today cannot
/// be lowered on retry either — the input is content-addressed).
/// Kernels are specialised to their problem sizes, so a long-running
/// server would otherwise keep one entry per call shape it ever saw:
/// the cache holds at most kCapacity entries and evicts the least
/// recently used one beyond that (an evicted kernel is simply
/// recompiled on its next use; callers holding it keep it alive).
class ExecCache {
 public:
  /// Entry bound, well above the distinct kernels one library serves
  /// (a 10-entry benchmark library compiles ~250 across its call
  /// shapes), so steady workloads never evict.
  static constexpr size_t kCapacity = 1024;

  /// Lower + (maybe) JIT `ck`, or return the cached result. A JIT
  /// emission failure (W^X refusal, unsupported host) degrades to the
  /// portable executor and is cached as such.
  StatusOr<std::shared_ptr<const ExecutedKernel>> get_or_compile(
      const gpusim::CompiledKernel& ck, const ExecOptions& options = {});

  ExecStats stats() const;
  /// Lock-free: run_lowered counts every launch here.
  void count_native_blocks(int64_t n) {
    native_blocks_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  using Result = StatusOr<std::shared_ptr<const ExecutedKernel>>;
  struct Slot {
    Result result;
    std::list<uint64_t>::iterator recency;  // position in lru_
  };

  /// Looks `key` up and marks it most recently used. Caller holds mu_.
  const Result* find_locked(uint64_t key);
  /// Caches `result` under `key` (keeping an entry a racing compile
  /// already stored) and evicts down to kCapacity. Caller holds mu_.
  const Result& insert_locked(uint64_t key, Result result);

  mutable std::mutex mu_;
  std::map<uint64_t, Slot> slots_;
  std::list<uint64_t> lru_;  // most recently used first
  ExecStats stats_;          // all but native_blocks, guarded by mu_
  std::atomic<int64_t> native_blocks_{0};
};

/// The native block loop: execute every block of `ek` for each of
/// `count` (>= 1) batch members — the native analogue of
/// Simulator::run_functional for one kernel. Each global buffer holds
/// the members back to back in equal slices; one wave of blocks
/// covers every member (serialized grid-Y respected). Reports
/// out-of-bounds accesses with the interpreter's diagnostic format.
Status run_lowered(const ExecutedKernel& ek, gpusim::GlobalBuffers& buffers,
                   int64_t count, ExecCache* stats);

/// Native execution of one call that already passed
/// blas3::CallShape::validate, single or batched: every global gets one
/// allocation holding the members back to back, each member's operands
/// (read through `shape`) are staged straight into their slice, every
/// kernel of `program` is compiled, gated, lowered and launched once
/// over all members, and each member's output is read straight back
/// from its slice into `out` (the members of shape.output()). Nothing
/// is written to `out` unless every kernel succeeded.
Status execute_call(const gpusim::DeviceModel& device,
                    const ir::Program& program, const blas3::CallShape& shape,
                    std::span<blas3::Matrix> out,
                    const std::map<std::string, bool>& bool_params,
                    ExecCache& cache, const ExecOptions& options = {});

/// Native counterpart of engine::execute_program: validate the call
/// (blas3::CallShape), compile, gate and lower every kernel of
/// `program`, run all blocks natively, and read the routine's output
/// back into `b` (TRSM) or `*c`. Sizes and buffer binding match the
/// engine exactly, so results are comparable bit-for-bit. A batch of
/// one through the same code as execute_batched.
Status execute_program(const gpusim::DeviceModel& device,
                       const ir::Program& program,
                       const blas3::Variant& variant,
                       const blas3::Matrix& a, blas3::Matrix& b,
                       blas3::Matrix* c,
                       const std::map<std::string, bool>& bool_params,
                       ExecCache& cache, const ExecOptions& options = {});

/// Fused native batched execution: each kernel is compiled and gated
/// once, every global gets one strided allocation (member m at offset
/// m * member_elems) that each member is staged into and read back from
/// directly, and the whole batch's blocks run through a single parallel
/// wave — the launch layout the batch_tiled grouping prices.
/// Semantically equivalent to calling execute_program per member
/// (engine::execute_batched is the arbitration oracle); operand vectors
/// carry one matrix per member and must share one member shape.
Status execute_batched(const gpusim::DeviceModel& device,
                       const ir::Program& program,
                       const blas3::Variant& variant,
                       const std::vector<blas3::Matrix>& a,
                       std::vector<blas3::Matrix>& b,
                       std::vector<blas3::Matrix>* c,
                       const std::map<std::string, bool>& bool_params,
                       ExecCache& cache, const ExecOptions& options = {});

}  // namespace oa::exec
