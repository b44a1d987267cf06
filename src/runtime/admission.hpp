// Admission control for the serving path.
//
// AdmissionController is the load-shedding half of
// LibraryRuntime::serve(): it turns the serving latency the obs log2
// histograms already record into an admit/shed decision against a p99
// SLO target. It sheds when the in-flight depth is already at the
// configured bound, or when the *windowed* p99 (recent traffic, not
// process lifetime) is above target and other requests are in flight —
// an idle server always admits, so a bad spell can drain instead of
// wedging the controller open.
//
// The controller is self-contained and runtime-agnostic: it reads any
// Histogram.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"

namespace oa::runtime {

class AdmissionController {
 public:
  struct Options {
    /// Target p99 serving latency in microseconds; 0 disables the
    /// latency-based check.
    double slo_p99_us = 0.0;
    /// Hard in-flight bound (counting the candidate); 0 = unbounded.
    size_t max_queue_depth = 0;
    /// Completions between p99 window rotations.
    uint64_t window_every = 1024;
  };

  /// `serve_us` is the histogram serving latency is recorded into
  /// (e.g. the runtime's "runtime.serve_us"); the controller reads
  /// its recent window, it never writes.
  AdmissionController(Options options, const obs::Histogram* serve_us);

  /// Admit a request when `depth` others are in flight (excluding the
  /// candidate). Thread-safe.
  bool admit(size_t depth) const;

  /// Completion hook: rotates the latency window every
  /// `window_every` completions so admit() tracks recent traffic.
  void on_complete();

 private:
  Options options_;
  obs::HistogramWindow window_;
  std::atomic<uint64_t> completions_{0};
};

}  // namespace oa::runtime
