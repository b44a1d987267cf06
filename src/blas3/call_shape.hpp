// The shape of one BLAS3 call — its M/N/K, member count and output
// operand — derived once from the variant and its operands, or from a
// square size. The paper states each routine once, as its difference
// from GEMM-NN; likewise this is the one place a call's sizes are read
// off its operands. Engine, exec, runtime, verify and oa all bind
// sizes, bucket dispatch and reject bad calls through it.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "blas3/matrix.hpp"
#include "blas3/routine.hpp"
#include "ir/affine.hpp"
#include "support/status.hpp"

namespace oa::blas3 {

class CallShape {
 public:
  /// A call given by its sizes alone (no operands). SYMM/TRMM/TRSM
  /// ignore `k` and reduce over their side's extent.
  CallShape(const Variant& v, int64_t m, int64_t n, int64_t k,
            int64_t count = 1);
  /// The n x n problem at the variant's nominal batch: what tuning,
  /// verification and the runtime's admission compile.
  static CallShape square(const Variant& v, int64_t n);

  /// A call on borrowed operands, one matrix per batch member (`c`
  /// empty or null for TRSM). Member 0's extents give M/N/K.
  CallShape(const Variant& v, std::span<const Matrix> a,
            std::span<const Matrix> b, std::span<const Matrix> c);
  CallShape(const Variant& v, const std::vector<Matrix>& a,
            const std::vector<Matrix>& b, const std::vector<Matrix>* c)
      : CallShape(v, std::span<const Matrix>(a), std::span<const Matrix>(b),
                  c != nullptr ? std::span<const Matrix>(*c)
                               : std::span<const Matrix>()) {}
  CallShape(const Variant& v, const Matrix& a, const Matrix& b,
            const Matrix* c)
      : CallShape(v, std::span<const Matrix>(&a, 1),
                  std::span<const Matrix>(&b, 1),
                  c != nullptr ? std::span<const Matrix>(c, 1)
                               : std::span<const Matrix>()) {}

  int64_t m() const { return m_; }
  int64_t n() const { return n_; }
  int64_t k() const { return k_; }
  int64_t count() const { return count_; }

  /// True when M, N or K is 0: the call holds no work for a kernel.
  bool empty() const { return m_ == 0 || n_ == 0 || k_ == 0; }

  /// The largest true dim: rectangular calls dispatch by their
  /// dominant extent.
  int64_t dispatch_size() const;

  /// The operand the routine writes: "B" for TRSM (in place), else "C".
  const char* output() const;
  /// That operand among a call's (b, c), matrices or member vectors.
  template <typename T>
  T& output_of(T& b, T* c) const {
    return std::string_view(output()) == "B" ? b : *c;
  }

  /// The members of operand "A", "B" or "C" (empty otherwise).
  std::span<const Matrix> operand(std::string_view name) const;

  /// Size bindings: M, N, K for GEMM and SYRK, and BATCH (the member
  /// count the simulator's batched pricing reads) for batched variants.
  ir::Env env() const;

  /// Rejects operands that cannot be one call of this shape: no
  /// members, member counts that disagree, a missing output, a wrong
  /// element type, or a member whose extents disagree with M/N/K (a
  /// ragged batch included). Kernels and the CPU reference trust those
  /// extents, so such a call would be answered from zero padding or
  /// out-of-bounds reads.
  Status validate() const;

 private:
  Variant variant_;
  int64_t m_ = 0, n_ = 0, k_ = 0, count_ = 1;
  std::span<const Matrix> a_, b_, c_;
};

}  // namespace oa::blas3
