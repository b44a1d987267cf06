// Program-level simulation: launches every kernel of a Program in
// order, models occupancy and timing, and aggregates profiler counters.
//
// Performance runs use *sampled* simulation: thread blocks are
// classified by their workload signature (triangular routines have one
// class per block row); representative blocks are interpreted in detail
// and the rest interpolated — exact for the affine kernels here, and
// validated against full functional simulation in the test suite
// (see bench/ablation_sampling for the accuracy/ speed trade-off).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "blas3/matrix.hpp"
#include "gpusim/block_sim.hpp"
#include "gpusim/compiled.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"

namespace oa::gpusim {

struct RunOptions {
  ir::Env int_params;                       // M, N, K bindings
  std::map<std::string, bool> bool_params;  // blank_zero etc.
  /// Detailed-simulate at most this many block classes per kernel;
  /// beyond it, classes are interpolated along the sorted class axis.
  int max_sampled_classes = 16;
  /// Warps sampled per representative block in performance mode
  /// (first/last); 0 = all warps.
  int warps_per_block_sample = 2;
  /// Warp-analytic ghost-mode fast path (closed-form coalescing + loop
  /// collapsing). Counters are bit-identical either way (the
  /// equivalence gate test enforces it); off = pure interpreter, the
  /// `--no-fastpath` escape hatch.
  bool fastpath = true;
};

struct KernelStats {
  std::string name;
  ir::LaunchConfig launch;
  int64_t blocks_per_sm = 0;  // occupancy
  Counters counters;
  double seconds = 0.0;
  /// Where the simulated blocks' statements were priced (raw counts
  /// over the blocks actually interpreted, not scaled by class sizes).
  FastPathStats fastpath;
};

struct RunResult {
  Counters counters;        // device-wide totals
  double seconds = 0.0;     // all kernels + launch overheads
  std::vector<KernelStats> kernels;
  FastPathStats fastpath;   // summed over kernels

  double gflops(double useful_flops) const {
    return seconds > 0 ? useful_flops / seconds / 1e9 : 0.0;
  }
};

/// Per-thread register ceiling, however few threads share the SM's
/// register file. Not a DeviceModel field: a new field would change
/// libgen::device_fingerprint and invalidate every generated artifact.
inline constexpr int64_t kMaxRegistersPerThread = 124;

/// The launch gate the simulator, native execution, the runtime's
/// admission and the artifact's exec sidecar all pass, so they all see
/// one kernel: rejects a block over the thread limit, spills register
/// arrays over the per-thread register budget (the spill is part of the
/// exec-cache key), and returns the occupancy in blocks per SM, failing
/// when not even one block fits.
StatusOr<int64_t> gate_launch(const DeviceModel& device, CompiledKernel& ck);

class Simulator {
 public:
  explicit Simulator(const DeviceModel& device) : dev_(device) {}

  const DeviceModel& device() const { return dev_; }

  /// Functional execution: every block of every kernel runs with data;
  /// `buffers` holds the global arrays (inputs and outputs). Counters
  /// and timing are also produced (exact).
  StatusOr<RunResult> run_functional(const ir::Program& program,
                                     const RunOptions& options,
                                     GlobalBuffers& buffers) const;

  /// Data-free performance estimation via block sampling.
  StatusOr<RunResult> run_performance(const ir::Program& program,
                                      const RunOptions& options) const;

 private:
  StatusOr<KernelStats> run_kernel(const ir::Program& program,
                                   const ir::Kernel& kernel,
                                   const RunOptions& options,
                                   bool functional,
                                   GlobalBuffers* buffers) const;

  /// Convert wave counters to seconds.
  double wave_time(const Counters& c, int64_t blocks,
                   int64_t warps_per_block, int64_t occupancy) const;

  const DeviceModel& dev_;
};

/// Copy `m` into one member's storage of global `d` at `dst`: the
/// overlap of `m` with the declared extent, at the declared leading
/// dimension. make_buffers and native member slices share this rule.
void stage_global(const ir::ArrayDecl& d, const ir::Env& int_params,
                  const blas3::Matrix& m, double* dst);

/// The reverse copy into `out`, which must already have the declared
/// extent (check_read_back_shape).
void unstage_global(const ir::ArrayDecl& d, const ir::Env& int_params,
                    const double* src, blas3::Matrix& out);

/// Allocate the global buffers a program needs: named inputs copied from
/// matrices, every other global (GM_map outputs) zero-initialized.
GlobalBuffers make_buffers(
    const ir::Program& program, const ir::Env& int_params,
    const std::map<std::string, const blas3::Matrix*>& inputs);

/// The shape agreement read_back will require, checkable *before*
/// execution: the named global exists and its declared extent matches
/// the destination matrix. Callers that would otherwise pay a full
/// functional run only to fail read_back (a transform retargeted the
/// output array's shape) reject up front with this instead.
Status check_read_back_shape(const ir::Program& program,
                             const ir::Env& int_params,
                             const std::string& name,
                             const blas3::Matrix& out);

/// Copy a named buffer back into a Matrix (shape from the program's
/// array declaration; must match the matrix).
Status read_back(const GlobalBuffers& buffers, const ir::Program& program,
                 const ir::Env& int_params, const std::string& name,
                 blas3::Matrix& out);

}  // namespace oa::gpusim
