#include "runtime/admission.hpp"

namespace oa::runtime {

AdmissionController::AdmissionController(Options options,
                                         const obs::Histogram* serve_us)
    : options_(options), window_(serve_us) {}

bool AdmissionController::admit(size_t depth) const {
  if (options_.max_queue_depth > 0 &&
      depth + 1 > options_.max_queue_depth) {
    return false;
  }
  if (options_.slo_p99_us > 0.0 && depth > 0) {
    // Recent traffic already misses the SLO: adding to the queue can
    // only push p99 further out, so shed while others are in flight.
    if (window_.percentile(99) > options_.slo_p99_us) return false;
    // Expected queueing delay alone blows the budget: `depth` requests
    // ahead of us at the recent median each.
    if (static_cast<double>(depth) * window_.percentile(50) >
        options_.slo_p99_us) {
      return false;
    }
  }
  return true;
}

void AdmissionController::on_complete() {
  const uint64_t done =
      completions_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.window_every > 0 && done % options_.window_every == 0) {
    window_.rotate();
  }
}

}  // namespace oa::runtime
