#include "blas3/call_shape.hpp"

#include <algorithm>
#include <string>

#include "blas3/source_ir.hpp"
#include "support/strings.hpp"

namespace oa::blas3 {
namespace {

bool structured(const Variant& v) {
  return v.family != Family::kGemm && v.family != Family::kSyrk;
}

bool has_extent(const Matrix& x, int64_t rows, int64_t cols) {
  return x.rows() == rows && x.cols() == cols;
}

std::string extent(const Matrix* x) {
  return x == nullptr ? std::string("-")
                      : str_format("%lldx%lld",
                                   static_cast<long long>(x->rows()),
                                   static_cast<long long>(x->cols()));
}

}  // namespace

CallShape::CallShape(const Variant& v, int64_t m, int64_t n, int64_t k,
                     int64_t count)
    : variant_(v), m_(m), n_(n), k_(k), count_(count) {
  if (structured(v)) k_ = v.side == Side::kLeft ? m : n;
}

CallShape CallShape::square(const Variant& v, int64_t n) {
  return CallShape(v, n, n, n, tuning_batch(v));
}

CallShape::CallShape(const Variant& v, std::span<const Matrix> a,
                     std::span<const Matrix> b, std::span<const Matrix> c)
    : variant_(v),
      count_(static_cast<int64_t>(a.size())),
      a_(a),
      b_(b),
      c_(c) {
  if (a.empty() || b.empty()) return;  // validate() reports it
  const Matrix& a0 = a.front();
  const Matrix& b0 = b.front();
  if (v.family == Family::kGemm) {
    // C(m x n) += op(A)(m x k) * op(B)(k x n).
    const bool ta = v.trans_a == Trans::kT;
    m_ = ta ? a0.cols() : a0.rows();
    k_ = ta ? a0.rows() : a0.cols();
    n_ = v.trans_b == Trans::kT ? b0.rows() : b0.cols();
  } else if (v.family == Family::kSyrk) {
    // C(n x n) += op(A)(n x k) * op(A)^T; b is never read.
    const bool ta = v.trans == Trans::kT;
    m_ = n_ = ta ? a0.cols() : a0.rows();
    k_ = ta ? a0.rows() : a0.cols();
  } else {
    // SYMM / TRMM / TRSM: B is M x N; A is square over the side.
    m_ = b0.rows();
    n_ = b0.cols();
    k_ = v.side == Side::kLeft ? m_ : n_;
  }
}

int64_t CallShape::dispatch_size() const {
  return std::max({m_, n_, k_, int64_t{1}});
}

const char* CallShape::output() const { return output_array(variant_); }

std::span<const Matrix> CallShape::operand(std::string_view name) const {
  if (name == "A") return a_;
  if (name == "B") return b_;
  if (name == "C") return c_;
  return {};
}

ir::Env CallShape::env() const {
  ir::Env env{{"M", m_}, {"N", n_}};
  if (!structured(variant_)) env["K"] = k_;
  // Pricing only: BATCH is not a program int param and never reaches
  // kernel bounds.
  if (variant_.batch != Batch::kSingle) env["BATCH"] = count_;
  return env;
}

Status CallShape::validate() const {
  auto reject = [&](const std::string& why) {
    return invalid_argument(variant_.name() + " " + why);
  };
  if (a_.empty()) return reject("needs at least one member");
  const bool needs_c = std::string_view(output()) == "C";
  if (needs_c && c_.empty()) return reject("needs an output matrix c");
  if (b_.size() != a_.size() || (needs_c && c_.size() != a_.size())) {
    return reject("operands disagree on the member count");
  }
  const bool ta = (variant_.family == Family::kGemm ? variant_.trans_a
                                                     : variant_.trans) ==
                  Trans::kT;
  const bool tb = variant_.trans_b == Trans::kT;
  for (size_t i = 0; i < a_.size(); ++i) {
    const Matrix& a = a_[i];
    const Matrix& b = b_[i];
    const Matrix* c = needs_c ? &c_[i] : nullptr;
    if (a.precision() != variant_.precision ||
        b.precision() != variant_.precision ||
        (c != nullptr && c->precision() != variant_.precision)) {
      return reject(str_format("expects %s matrices",
                               precision_name(variant_.precision)));
    }
    bool agree = c == nullptr || has_extent(*c, m_, n_);
    if (variant_.family == Family::kGemm) {
      agree = agree && has_extent(a, ta ? k_ : m_, ta ? m_ : k_) &&
              has_extent(b, tb ? n_ : k_, tb ? k_ : n_);
    } else if (variant_.family == Family::kSyrk) {
      agree = agree && has_extent(a, ta ? k_ : n_, ta ? n_ : k_);
    } else {
      agree = agree && has_extent(a, k_, k_) && has_extent(b, m_, n_);
    }
    if (agree) continue;
    return reject(str_format(
        "%soperand extents disagree with M=%lld N=%lld K=%lld: A %s, B %s, "
        "C %s",
        a_.size() > 1 ? str_format("member %zu ", i).c_str() : "",
        static_cast<long long>(m_), static_cast<long long>(n_),
        static_cast<long long>(k_), extent(&a).c_str(), extent(&b).c_str(),
        extent(c).c_str()));
  }
  return Status::ok();
}

}  // namespace oa::blas3
