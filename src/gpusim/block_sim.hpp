// Lockstep SIMT interpretation of one thread block (or a warp slice of
// it). All simulated lanes advance statement-by-statement with an
// active mask, which is exactly the execution model of the hardware the
// paper targets: divergent loop bounds mask lanes off, barriers require
// full convergence, and per-access coalescing / bank-conflict analysis
// happens on the lanes of a (half-)warp.
//
// Two modes:
//  * functional: lane values are computed and written to the bound
//    global buffers (used to verify every generated kernel against the
//    CPU reference);
//  * ghost: subscripts only — loop bounds in the affine IR never depend
//    on data, so performance counters are exact without touching data.
//
// Ghost mode additionally carries a *warp-analytic fast path* layered
// under the interpreter. Statements whose references are lane-affine
// (compiled.hpp annotations) are charged by closed-form transaction
// formulas over (base, stride, group) instead of materializing per-lane
// addresses; loops whose per-iteration counter delta is provably
// iteration-invariant are collapsed to two representative iterations
// plus an analytic multiply. Any statement missing a precondition falls
// back to the interpreter — per statement, with the lane state synced —
// so the counters are bit-identical either way (enforced by
// tests/fastpath_equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/compiled.hpp"
#include "gpusim/counters.hpp"

namespace oa::gpusim {

/// Named global-memory buffers (column-major). Values are doubles with
/// the precision discipline of blas3::Matrix: an f32 kernel's buffers
/// only ever hold exactly-representable floats.
struct GlobalBuffers {
  std::map<std::string, std::vector<double>, std::less<>> data;

  std::vector<double>* find(std::string_view name) {
    auto it = data.find(name);
    return it == data.end() ? nullptr : &it->second;
  }
};

/// Where ghost-mode statement executions were priced. `fast` counts
/// analytic executions (collapsed iterations included), `interp` counts
/// interpreter executions — fallbacks and fastpath-off runs alike.
struct FastPathStats {
  int64_t fast_statements = 0;
  int64_t interp_statements = 0;
  int64_t collapsed_loops = 0;       // dynamic loop executions collapsed
  int64_t collapsed_iterations = 0;  // iterations skipped by collapsing

  FastPathStats& operator+=(const FastPathStats& o) {
    fast_statements += o.fast_statements;
    interp_statements += o.interp_statements;
    collapsed_loops += o.collapsed_loops;
    collapsed_iterations += o.collapsed_iterations;
    return *this;
  }
  /// Fraction of statement executions priced analytically.
  double coverage() const {
    const int64_t total = fast_statements + interp_statements;
    return total > 0 ? static_cast<double>(fast_statements) / total : 0.0;
  }
};

class BlockSim {
 public:
  /// `buffers` may be null in ghost mode. The buffers must outlive the
  /// simulator and match the compiled array shapes. `fastpath` enables
  /// the warp-analytic ghost executor; it is ignored (off) in
  /// functional mode, whose semantics never change.
  BlockSim(const CompiledKernel& kernel, const DeviceModel& device,
           bool functional, GlobalBuffers* buffers, bool fastpath = true);

  /// Execute lanes [lane_begin, lane_end) of block (by, bx) in
  /// lockstep; accumulate counters into `out`. Functional runs must
  /// cover the whole block (barrier + shared-memory semantics).
  Status run(int64_t by, int64_t bx, int lane_begin, int lane_end,
             Counters& out);

  const FastPathStats& fastpath_stats() const { return fstats_; }

 private:
  // ---- interpreter ------------------------------------------------
  Status exec(const std::vector<CNode>& body, std::vector<uint8_t>& mask);
  Status exec_node(const CNode& n, std::vector<uint8_t>& mask);
  Status exec_assign(const CNode& n, const std::vector<uint8_t>& mask);
  /// Transaction analysis + optional functional load of one reference.
  Status process_ref(const CRef& ref, bool is_store,
                     const std::vector<uint8_t>& mask, bool count_inst);
  /// Per-group transaction counting over scratch_addr_ (shared between
  /// the interpreter and the fast path's materialized groups).
  void count_group(const CArray& arr, const CRef& ref, bool is_store,
                   const std::vector<uint8_t>& mask, int g0, int g1,
                   int active, bool count_inst);
  double load_value(const CRef& ref, int lane, int64_t addr) const;
  double eval_tape(const CNode& n, int lane, Status& status);

  int64_t addr_of(const CRef& ref, int lane, Status& status) const;
  int64_t distinct_chunks(const std::vector<uint8_t>& mask, int g0, int g1,
                          int chunk_bytes, int site) const;

  // ---- warp-analytic fast path (ghost mode, full mask) ------------
  Status exec_fast(const std::vector<CNode>& body);
  Status exec_fast_loop(const CNode& n);
  Status exec_fast_assign(const CNode& n);
  Status process_ref_fast(const CRef& ref, bool is_store, bool count_inst);
  /// Run one statement through the interpreter with the uniform loop
  /// variables synced into the per-lane slots.
  Status fallback_node(const CNode& n);
  /// Runtime bound resolution: find the lb term that is the maximum and
  /// the ub term that is the minimum for *every* simulated lane (via
  /// interval tests on the pairwise term differences).
  bool binding_terms(const CNode& n, size_t& bi, size_t& bj) const;
  /// Bind a loop variable's lane decomposition for one execution of
  /// its loop: a kConditional variable takes the binding lb term's
  /// coefficients; a kAffine one must already have them. False when
  /// the references inside cannot price the variable analytically.
  bool bind_loop_var(const CNode& n, int64_t ctx, int64_t cty);
  /// Thread coefficients of a lane-affine form, with its conditionally
  /// affine slots at their current executions' coefficients.
  std::pair<int64_t, int64_t> coeffs(const CLin& l) const;
  /// Divergent loops where no lane iterates more than once (tile-load
  /// loops striding by the thread count): one analytically-masked round.
  Status exec_masked_loop(const CNode& n, int64_t ulb, int64_t uub,
                          int64_t ltx, int64_t lty, int64_t utx,
                          int64_t uty);
  Status exec_masked(const std::vector<CNode>& body,
                     const std::vector<uint8_t>& mask, int l0, int l1);
  Status exec_masked_assign(const CNode& n,
                            const std::vector<uint8_t>& mask, int l0,
                            int l1);
  /// process_ref with affine-materialized addresses: identical pricing
  /// and per-lane reuse state, minus the per-lane subscript evaluation.
  Status process_ref_masked(const CRef& ref, bool is_store,
                            bool count_inst,
                            const std::vector<uint8_t>& mask, int l0,
                            int l1);
  /// Hand a load site over to the per-lane reuse mechanism: if the last
  /// visit was analytic, reconstruct the triple's address vector into
  /// the reuse row — exactly the state a per-lane run would have left.
  void adopt_site_interp(const CRef& ref);
  void sync_fast_vars();
  /// Exact min/max of uniform + c_tx*tx + c_ty*ty over the simulated
  /// lane range (contiguous absolute lanes), or over the sub-range of
  /// local lanes [l0, l1] for the masked executor.
  void affine_range(int64_t uniform, int64_t c_tx, int64_t c_ty,
                    int64_t& mn, int64_t& mx) const;
  void affine_range_lanes(int64_t uniform, int64_t c_tx, int64_t c_ty,
                          int l0, int l1, int64_t& mn, int64_t& mx) const;
  /// Affine stride of a lane group: true when addresses of lanes
  /// [g0, g0+n) form base + s*i.
  bool group_stride(int g0, int n, int64_t uniform, int64_t c_tx,
                    int64_t c_ty, int64_t& base, int64_t& stride) const;
  void materialize_group(int64_t uniform, int64_t c_tx, int64_t c_ty,
                         int g0, int g1);
  /// Interval-arithmetic proof that every reference in `body` stays in
  /// bounds for all trip values in [lo, last] (the collapse skip-check).
  bool collapse_bounds_ok(const CNode& n, int64_t lo, int64_t last);
  bool sites_in_bounds(const std::vector<CNode>& body,
                       std::vector<std::pair<int64_t, int64_t>>& iv);

  const CompiledKernel& k_;
  const DeviceModel& dev_;
  bool functional_;
  GlobalBuffers* buffers_;
  bool fastpath_ = false;

  int nlanes_ = 0;
  int lane_begin_ = 0;
  std::vector<int64_t> slots_;          // nlanes x num_slots
  std::vector<double*> global_ptr_;     // per array (globals only)
  std::vector<std::vector<double>> shared_;    // per shared array
  std::vector<std::vector<double>> registers_; // per register array
                                               // (elements x nlanes)
  std::vector<int64_t> reuse_addr_;     // num_sites x nlanes
  mutable std::vector<int64_t> line_addr_;  // Fermi L1 line cache
  std::vector<int64_t> scratch_addr_;   // per lane
  Counters counters_;

  // Fast-path state. Site summaries are the O(1) counterpart of
  // reuse_addr_: the canonical triple (base, row step, wrap step)
  // characterizes a lane-affine address vector exactly, so comparing
  // triples decides register reuse without touching per-lane arrays.
  // A site's pricing can alternate between the two mechanisms mid-run
  // (boundary tiles of a peeled loop fall back while interior tiles
  // stay analytic), so ownership is handed off explicitly: crossing to
  // the interpreter materializes the triple into the reuse row
  // (adopt_site_interp), crossing back runs one per-lane compare before
  // triple summaries resume (process_ref_fast).
  std::vector<int64_t> uslots_;         // uniform slot values
  std::vector<uint8_t> full_mask_;
  std::vector<int64_t> site_base_, site_rowc_, site_wrapc_;
  std::vector<uint8_t> site_valid_;
  std::vector<uint8_t> site_interp_;    // reuse row owns this site
  std::vector<int64_t> site_gen_;       // last load generation per site
  int64_t exec_gen_ = 1;
  std::vector<const CRef*> site_ref_;   // site id -> its reference
  std::vector<uint8_t> collapse_ok_;    // per loop_id: alignment holds
  /// Lockstep loop variables in scope: the uniform slot array holds
  /// their lane-invariant component; syncing a lane adds tx*lane_tx +
  /// ty*lane_ty (zero for uniform-bound loops).
  struct FastVar {
    int slot;
    int64_t tx, ty;
  };
  std::vector<FastVar> fast_var_stack_;
  /// Per slot: thread coefficients of a kConditional loop variable in
  /// the current execution of its loop (read through coeffs()).
  std::vector<int64_t> cond_tx_, cond_ty_;
  bool lanes_synced_ = true;
  /// Monotone count of interpreter delegations (statement fallbacks and
  /// out-of-bounds reference handoffs). A collapse attempt commits its
  /// analytic multiply only if the two representative iterations ran
  /// without bumping it: control independence then makes the fallback
  /// pattern — and hence the counter delta — trip-invariant.
  int64_t fallback_count_ = 0;
  /// Same role for masked rounds: they advance per-lane reuse state,
  /// which the analytic skip cannot replay, so they also void commits.
  int64_t masked_count_ = 0;
  // Lane-range geometry of the current run.
  int64_t bx_ = 1, tx0_ = 0, ty0_ = 0, tx_last_ = 0, ty_last_ = 0;
  bool has_row_step_ = false, has_wrap_ = false;
  int warps_ = 0;
  FastPathStats fstats_;

  int64_t* lane_slots(int lane) {
    return slots_.data() + static_cast<size_t>(lane) * k_.num_slots;
  }
  const int64_t* lane_slots(int lane) const {
    return slots_.data() + static_cast<size_t>(lane) * k_.num_slots;
  }
};

}  // namespace oa::gpusim
