// DispatchSnapshot: one immutable, fully-precomputed serving table.
//
// The serving hot path must cost a couple of array loads, not a
// string-keyed map walk: a snapshot interns every routine variant into
// a dense integer code (a perfect encoding of the Variant fields that
// name() is derived from, canonicalized per family so fields a family
// ignores cannot split the code space) and precomputes, for every
// (variant code, size bucket) cell, which table entry serves it and
// whether that is an exact hit or a near hit. Nearest-bucket
// resolution — the policy LibraryRuntime::dispatch() used to run per
// request — happens once at snapshot build time.
//
// Snapshots are immutable after build() and published by the runtime
// as a shared_ptr under a mutex: each request copies the pointer once
// and holds it for its whole life, hot reloads build a fresh snapshot
// and publish it without touching the one in-flight requests still
// hold.
// Baseline fallback programs are part of the same picture: they are
// built once per device into a BaselineTable (they depend only on
// (variant, device), never on the artifact) and shared by every
// snapshot the runtime ever publishes, replacing the old lazily-built,
// mutex-guarded baseline cache.
//
// Admission happens here too: an entry joins the table only if each of
// its kernels compiles, passes the launch gate and lowers to native
// code at the entry's tuned size, so serving has a single execution
// path and the exec cache is warm before the snapshot is published.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "blas3/routine.hpp"
#include "exec/executor.hpp"
#include "gpusim/simulator.hpp"
#include "ir/kernel.hpp"
#include "libgen/artifact.hpp"
#include "support/status.hpp"

namespace oa::runtime {

/// Dense, canonical integer code for a routine variant. Two Variant
/// values with the same name() always map to the same code (fields a
/// family ignores are zeroed before encoding); distinct names map to
/// distinct codes. Always in [0, kVariantCodes).
int variant_code(const blas3::Variant& v);

/// 5 families x 5 canonicalized flag bits x 2 precisions x 3 batch
/// modes (single / batched / strided-batched).
inline constexpr int kVariantCodes = 5 * 32 * 2 * 3;

/// Baseline (CUBLAS-like) programs for every catalog variant on one
/// device, indexed by variant code. Immutable after build; shared by
/// every DispatchSnapshot of a runtime (the schedule depends only on
/// the device model, not on the artifact being served).
class BaselineTable {
 public:
  /// Builds the baseline program for every variant in the catalog
  /// (both precisions, extensions included). Variants whose baseline
  /// cannot be built simply stay null and serve from the CPU
  /// reference.
  static std::shared_ptr<const BaselineTable> build(
      const gpusim::DeviceModel& device);

  /// Baseline program for a variant code, or nullptr.
  const ir::Program* find(int code) const {
    return programs_[static_cast<size_t>(code)].get();
  }

 private:
  std::array<std::unique_ptr<const ir::Program>, kVariantCodes> programs_;
};

class DispatchSnapshot {
 public:
  /// Power-of-two size buckets (floor(log2(n)) for int64 sizes).
  static constexpr int kBuckets = 63;

  /// The power-of-two problem-size bucket of n (floor(log2(n))).
  static int size_bucket(int64_t n);

  /// One servable tuned kernel, reconstructed from an artifact entry.
  struct Entry {
    const blas3::Variant* variant = nullptr;
    ir::Program program;
    /// Runtime bool parameters implied by the entry's rule conditions.
    /// Stable for the snapshot's lifetime — Dispatch hands out a
    /// pointer to this map instead of copying it per request.
    std::map<std::string, bool> bool_params;
    double gflops = 0.0;
    int64_t tuned_size = 0;
  };

  /// Build a snapshot from an artifact: reconstruct every entry, admit
  /// the ones whose kernels compile, gate and lower into `cache` at
  /// their tuned size, then resolve the full (variant code x bucket)
  /// plan table. Never fails — a mismatched, partially-stale or
  /// unlowerable artifact yields a smaller (possibly empty) table with
  /// the reason in load_status(), and the refused variants' calls take
  /// the baseline, then the reference.
  static std::shared_ptr<const DispatchSnapshot> build(
      const gpusim::DeviceModel& device, libgen::Artifact artifact,
      std::shared_ptr<const BaselineTable> baselines, exec::ExecCache& cache);

  /// The artifact this snapshot serves (kept for introspection; hold
  /// the snapshot while reading it).
  const libgen::Artifact& artifact() const { return artifact_; }

  /// OK when every artifact entry was admitted; otherwise the
  /// (non-fatal) reason serving is degraded.
  const Status& load_status() const { return load_status_; }

  /// Number of servable tuned kernels.
  size_t table_size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// The entry serving (code, bucket), or nullptr when the variant has
  /// no tuned kernel at all. `*exact` reports whether the request
  /// bucket is the entry's own tuning bucket (hit) or the nearest
  /// registered one (near hit).
  const Entry* lookup(int code, int bucket, bool* exact) const {
    const Plan& plan = plans_[static_cast<size_t>(code)];
    const int16_t idx = plan.entry[static_cast<size_t>(bucket)];
    if (idx < 0) return nullptr;
    *exact = plan.exact[static_cast<size_t>(bucket)] != 0;
    return &entries_[static_cast<size_t>(idx)];
  }

  /// Baseline program for a variant code, or nullptr (the baseline
  /// could not be built for this variant).
  const ir::Program* baseline(int code) const {
    return baselines_->find(code);
  }

 private:
  /// Per-variant-code serving plan: for every size bucket, the entry
  /// index that serves it (-1 = no tuned kernel) and whether that is
  /// an exact bucket match. int16 keeps the 960-plan table compact; a
  /// library has at most a few hundred entries.
  struct Plan {
    std::array<int16_t, kBuckets> entry;
    std::array<uint8_t, kBuckets> exact;
  };

  libgen::Artifact artifact_;
  Status load_status_;
  std::vector<Entry> entries_;
  std::vector<Plan> plans_;
  std::shared_ptr<const BaselineTable> baselines_;
};

}  // namespace oa::runtime
