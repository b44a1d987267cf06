// LibraryRuntime: serve BLAS3 calls from a generated library artifact.
//
// This is the deployment half of the paper's pipeline: `oagen
// --emit-lib` persists the tuning trajectory (libgen/), and this
// runtime loads that artifact once, rebuilds every tuned kernel, and
// answers a stream of BLAS3 requests — no composing, no searching, no
// re-tuning on the serving path.
//
// Serving architecture (docs/SERVING.md):
//   * snapshot dispatch — every request takes one copy of the
//     shared_ptr to the immutable DispatchSnapshot (published under a
//     mutex) and resolves its (variant code, size bucket) cell with two
//     array loads; no maps, no string keys;
//   * hot reload — swap_artifact() builds a fresh snapshot from a new
//     artifact off the lock and publishes it under it; in-flight
//     requests finish on the snapshot they hold, so a reload never
//     drops a request;
//   * native execution — dispatched kernels run as JIT-lowered native
//     code (src/exec). A snapshot admits an artifact entry only if its
//     kernels lower, and leaves them in the exec cache, so every tuned
//     and baseline answer is native; the gpusim interpreter is only
//     the verification oracle, never a serving path;
//   * admission control — serve() is run() behind an
//     AdmissionController that sheds load (DispatchOutcome::kShed)
//     when the p99 latency SLO is unattainable.
//
// Dispatch policy:
//   * exact hit    — the artifact holds an entry for the variant whose
//                    tuning size falls in the request's power-of-two
//                    size bucket;
//   * near hit     — an entry for the variant exists in another bucket
//                    (the tuned schedule is size-agnostic for these
//                    affine kernels; the bucket records how far from
//                    its tuning regime the request landed);
//   * miss         — no entry (unknown variant, mismatched device, an
//                    artifact entry that no longer re-applies, or one
//                    whose kernels do not compile, gate or lower at its
//                    tuned size): gracefully fall back to the CUBLAS-like
//                    baseline schedule, and to the CPU reference if
//                    even the baseline is unavailable.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "blas3/call_shape.hpp"
#include "blas3/matrix.hpp"
#include "blas3/routine.hpp"
#include "exec/executor.hpp"
#include "gpusim/device.hpp"
#include "libgen/artifact.hpp"
#include "obs/metrics.hpp"
#include "runtime/admission.hpp"
#include "runtime/dispatch_snapshot.hpp"

namespace oa::runtime {

struct RuntimeOptions {
  /// Registry the serving counters and per-outcome dispatch-latency
  /// histograms live in (instrument names prefixed "runtime."). Null
  /// gives the runtime a private registry; `oagen` and the serving
  /// example inject a shared one for a single export file.
  obs::MetricsRegistry* metrics = nullptr;

  // --- serve() path (admission control) -------------------------------
  /// p99 latency SLO in microseconds; above-target recent traffic
  /// sheds new requests while others are in flight. 0 = off.
  double slo_p99_us = 0.0;
  /// Hard in-flight request bound for serve(); 0 = unbounded.
  size_t max_queue_depth = 0;
};

enum class DispatchOutcome {
  kHit,                // tuned kernel, matching size bucket
  kNearHit,            // tuned kernel from another size bucket
  kFallbackBaseline,   // CUBLAS-like baseline schedule
  kFallbackReference,  // CPU reference implementation
  kShed,               // admission control refused the request
};

const char* outcome_name(DispatchOutcome outcome);

/// Monotonic serving counters — a snapshot *view* over the runtime's
/// MetricsRegistry (one source of truth, also exported by
/// `--metrics-out`).
///
/// Consistency contract: every component counter is an independent
/// relaxed atomic, so a snapshot taken while requests are in flight
/// can see a request whose outcome counter is already bumped next to
/// one that is not yet counted. `requests` is therefore *derived* as
/// the sum of the component counters (hits + near_hits + fallbacks +
/// failed + shed): the invariant `requests == sum(components)` holds
/// by construction in every snapshot, and a concurrent snapshot only
/// ever under-reports completed requests, never tears one across
/// components. The raw "runtime.requests" counter (bumped at request
/// entry) still exists in the registry for in-flight visibility:
/// `runtime.requests - stats().requests` is the number of requests
/// currently being served.
///
/// Kernel failures are split by what happened next: a tuned/baseline
/// kernel that failed but whose request a later fallback stage
/// answered is *recovered*; a request that failed on every path, or
/// that was rejected up front (element type, missing output, operand
/// extents that disagree), is *failed* (and never reported as
/// recovered).
struct DispatchStats {
  uint64_t requests = 0;  // derived: sum of the component counters
  uint64_t hits = 0;
  uint64_t near_hits = 0;
  uint64_t baseline_fallbacks = 0;
  uint64_t reference_fallbacks = 0;
  uint64_t shed = 0;              // refused by admission control
  uint64_t recovered_errors = 0;  // kernel failures a fallback absorbed
  uint64_t failed_requests = 0;   // requests that failed on every path
  /// Per-precision split of the same stream (the f64 half of the
  /// library serves independently of the f32 half): requests and tuned
  /// serves (exact + near hits), indexed by precision. Raw counters
  /// (bumped at request entry), not derived.
  uint64_t requests_f32 = 0;
  uint64_t requests_f64 = 0;
  uint64_t tuned_served_f32 = 0;
  uint64_t tuned_served_f64 = 0;
  /// Requests answered by a native kernel — derived, like `requests`:
  /// hits + near_hits + baseline_fallbacks (only the reference runs
  /// off the native backend).
  uint64_t native_serves = 0;
  /// Hot-reload trajectory: snapshots published after the first.
  uint64_t reloads = 0;
  /// Batched-family trajectory (run_batched/serve_batched): batched
  /// calls served and the total member count across them.
  uint64_t batched_requests = 0;
  uint64_t batched_members = 0;
  /// Requests split by routine family key ("GEMM", "GEMM_BATCHED",
  /// "DGEMM" shares "GEMM", ...); only keys with traffic appear.
  std::map<std::string, uint64_t> requests_by_family;

  std::string to_string() const;
};

class LibraryRuntime {
 public:
  /// Takes ownership of the artifact. Construction never fails: an
  /// artifact for the wrong device, with stale entries or with entries
  /// whose kernels do not lower simply yields a smaller (possibly
  /// empty) dispatch table (those calls fall back), with the reason
  /// reported by load_status().
  LibraryRuntime(const gpusim::DeviceModel& device,
                 libgen::Artifact artifact, RuntimeOptions options = {});

  const gpusim::DeviceModel& device() const { return device_; }

  /// The current snapshot (artifact, load status, entries). It stays
  /// valid as long as the returned pointer lives, across any number of
  /// concurrent swap_artifact()s.
  std::shared_ptr<const DispatchSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }

  /// OK when every entry of the *current* snapshot's artifact was
  /// admitted; otherwise the (non-fatal) reason serving is degraded.
  Status load_status() const { return snapshot()->load_status(); }

  /// Number of servable tuned kernels in the current snapshot.
  size_t table_size() const { return snapshot()->table_size(); }

  /// Hot reload: build a snapshot for `artifact` and publish it.
  /// In-flight requests finish on the snapshot they hold; new requests
  /// dispatch against the new one — zero dropped requests by
  /// construction. Returns the new snapshot's load status (a degraded
  /// artifact still publishes, mirroring the constructor). Thread-safe
  /// against serving and against concurrent swaps (the last to publish
  /// wins); the build runs on the calling thread, outside the
  /// publication lock.
  Status swap_artifact(libgen::Artifact artifact);

  /// The power-of-two problem-size bucket of n (floor(log2(n))).
  static int size_bucket(int64_t n) {
    return DispatchSnapshot::size_bucket(n);
  }

  /// Representative problem size for dispatch: the largest of the
  /// call's true dims (blas3::CallShape::dispatch_size), so rectangular
  /// requests land in the bucket of their dominant extent instead of
  /// whatever `b`'s shape happens to be.
  static int64_t dispatch_size(const blas3::Variant& v,
                               const blas3::Matrix& a,
                               const blas3::Matrix& b,
                               const blas3::Matrix* c);

  /// Result of a dispatch lookup (no execution, no counter updates).
  /// `program` and `bool_params` point into `snapshot`, which the
  /// Dispatch holds: they stay valid until the Dispatch is destroyed,
  /// hot reloads notwithstanding.
  struct Dispatch {
    DispatchOutcome outcome = DispatchOutcome::kFallbackReference;
    /// Tuned program for hits, nullptr for fallbacks.
    const ir::Program* program = nullptr;
    /// Runtime bool parameters implied by the entry's rule conditions
    /// (never null on hits; stable — no per-dispatch copy).
    const std::map<std::string, bool>* bool_params = nullptr;
    /// GFLOPS the tuner measured for the served entry (0 on fallback).
    double tuned_gflops = 0.0;
    /// Keeps the pointers above alive.
    std::shared_ptr<const DispatchSnapshot> snapshot;
  };

  /// Pure thread-safe lookup for (variant, problem size n).
  Dispatch dispatch(const blas3::Variant& v, int64_t n) const;

  /// Serve one BLAS3 call directly: run the dispatched kernel natively
  /// (matrix conventions as OaFramework::run), falling back to the
  /// baseline kernel (also native) and then the CPU reference on a
  /// miss or execution failure. Operands that fail
  /// blas3::CallShape::validate (element type, missing output, A/B/C
  /// extents that disagree) are rejected with invalid_argument.
  /// Thread-safe; returns how the request was ultimately served. Never
  /// sheds.
  StatusOr<DispatchOutcome> run(const blas3::Variant& v,
                                const blas3::Matrix& a, blas3::Matrix& b,
                                blas3::Matrix* c) const;

  /// Serve one BLAS3 call through the production path: admission
  /// control first (DispatchOutcome::kShed when the SLO is
  /// unattainable — an OK StatusOr whose outcome the caller must
  /// check), then run(). Blocks until served or shed.
  StatusOr<DispatchOutcome> serve(const blas3::Variant& v,
                                  const blas3::Matrix& a, blas3::Matrix& b,
                                  blas3::Matrix* c) const;

  /// Serve one *batched* BLAS3 call directly (v.batch != kSingle):
  /// operand vectors carry one matrix per batch member, all of one
  /// shape; a call that fails blas3::CallShape::validate (a ragged
  /// batch included) is rejected with invalid_argument.
  /// Dispatch resolves on the member size under the batched variant's
  /// own code; execution is native (one fused exec::execute_call over
  /// every member), falling back to the baseline, then to the CPU
  /// reference loop.
  /// Thread-safe; never sheds.
  StatusOr<DispatchOutcome> run_batched(const blas3::Variant& v,
                                        const std::vector<blas3::Matrix>& a,
                                        std::vector<blas3::Matrix>& b,
                                        std::vector<blas3::Matrix>* c) const;

  /// run_batched behind admission control (DispatchOutcome::kShed when
  /// the SLO is unattainable); admission sees one request per batched
  /// call.
  StatusOr<DispatchOutcome> serve_batched(
      const blas3::Variant& v, const std::vector<blas3::Matrix>& a,
      std::vector<blas3::Matrix>& b, std::vector<blas3::Matrix>* c) const;

  DispatchStats stats() const;
  void reset_stats();

  /// Native-backend compile/cache counters. A warm re-serve of the
  /// same library shows cache_hits growing while compiles stays put.
  exec::ExecStats exec_stats() const { return exec_cache_.stats(); }

  /// The registry the serving counters and the per-outcome dispatch
  /// latency histograms ("runtime.dispatch_us.<outcome>") live in.
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  /// Lookup against a snapshot the caller holds.
  Dispatch dispatch_on(const DispatchSnapshot& snap,
                       const blas3::Variant& v, int64_t n) const;

  /// The serving tail shared by run() and run_batched() for a
  /// validated call: dispatch on one snapshot, run the dispatched
  /// program natively, walk the fallback chain (baseline program, then
  /// CPU reference), settle counters and the latency histogram of the
  /// final outcome. An empty call (CallShape::empty) goes straight to
  /// the reference. `b` and `c` are the call's members (`c` empty when
  /// the call passed none); `start_us` is when the request entered the
  /// runtime.
  StatusOr<DispatchOutcome> serve_call(const blas3::CallShape& shape,
                                       const blas3::Variant& v,
                                       double start_us,
                                       std::span<blas3::Matrix> b,
                                       std::span<blas3::Matrix> c) const;

  /// Publishes `snap` and its table-size gauge under the lock.
  void publish(std::shared_ptr<const DispatchSnapshot> snap);

  /// Counter/histogram bookkeeping shared by every entry point.
  void count_request(const blas3::Variant& v) const;

  /// serve()/serve_batched(): admission control around `run_one()`
  /// (run() or run_batched()). A refused request counts as shed and
  /// returns kShed; an admitted one counts toward the in-flight depth
  /// while it is served.
  template <typename RunOne>
  StatusOr<DispatchOutcome> admitted(const blas3::Variant& v,
                                     const RunOne& run_one) const;

  /// Counts a request rejected before dispatch as failed.
  Status reject(const Status& status, double start_us) const;

  const gpusim::DeviceModel& device_;

  /// Bounded (LRU) cache of lowered/JIT'd kernels, filled by snapshot
  /// admission and by requests. Shared across snapshots: hot reloads of
  /// an unchanged entry hit the cache because keys are
  /// content-addressed.
  mutable exec::ExecCache exec_cache_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Cached instrument handles (stable for the registry's lifetime).
  struct Instruments {
    obs::Counter* requests;
    /// Per-precision request / tuned-serve counters, indexed by
    /// Precision ("runtime.requests.f32" etc.).
    obs::Counter* requests_by_prec[2];
    obs::Counter* tuned_served_by_prec[2];
    obs::Counter* hits;
    obs::Counter* near_hits;
    obs::Counter* baseline_fallbacks;
    obs::Counter* reference_fallbacks;
    obs::Counter* shed;
    obs::Counter* recovered_errors;
    obs::Counter* failed_requests;
    obs::Counter* reloads;
    obs::Counter* batched_requests;
    obs::Counter* batched_members;
    /// Per-family request counters ("runtime.requests.family.<KEY>"),
    /// indexed by [family][batch mode]; non-GEMM rows alias their
    /// batch-0 counter (no batched families outside GEMM).
    obs::Counter* family_requests[5][3];
    obs::Histogram* hit_us;
    obs::Histogram* near_hit_us;
    obs::Histogram* baseline_us;
    obs::Histogram* reference_us;
    obs::Histogram* shed_us;
    obs::Histogram* failed_us;
    obs::Histogram* serve_us;       // all outcomes; admission reads it
    obs::Histogram* reload_us;      // snapshot build + publish time
    obs::Gauge* table_size;         // of the published snapshot
  };
  Instruments ins_;

  /// Baselines depend only on (variant, device): built once here,
  /// shared by every snapshot this runtime publishes.
  std::shared_ptr<const BaselineTable> baselines_;

  /// The published serving table. Each request copies the pointer
  /// once under the mutex and serves on that copy; publish() replaces
  /// it.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const DispatchSnapshot> snapshot_;

  /// serve() machinery; mutable because serving is logically const.
  mutable std::unique_ptr<AdmissionController> admission_;
  mutable std::atomic<size_t> in_flight_{0};
};

}  // namespace oa::runtime
