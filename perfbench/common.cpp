#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace oabench {

double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, int64_t op)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.op = op;
  s.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  id_ = static_cast<int>(tracer_->spans_.size());
  tracer_->open_.push_back(id_);
  s.start_ms = now_ms();
  tracer_->spans_.push_back(std::move(s));
}

double Tracer::Scope::close() {
  if (tracer_ == nullptr || id_ < 0) return ms_;
  Span& s = tracer_->spans_[static_cast<size_t>(id_)];
  s.end_ms = now_ms();
  ms_ = s.end_ms - s.start_ms;
  // Scopes close innermost-first; anything still above this one on the
  // stack was leaked by an early return and is closed with it.
  while (!tracer_->open_.empty()) {
    const int top = tracer_->open_.back();
    tracer_->open_.pop_back();
    if (top == id_) break;
    tracer_->spans_[static_cast<size_t>(top)].end_ms = s.end_ms;
  }
  id_ = -1;
  return ms_;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

std::vector<double> Tracer::self_ms() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] += s.end_ms - s.start_ms;
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ms - s.start_ms;
    }
  }
  return self;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double epoch = spans_.empty() ? 0.0 : spans_.front().start_ms;
  const std::vector<double> self = self_ms();
  out << "{\"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"op\": %lld, \"parent\": %d, \"self_us\": %.3f}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  (s.start_ms - epoch) * 1e3, (s.end_ms - s.start_ms) * 1e3,
                  static_cast<long long>(s.op), s.parent, self[i] * 1e3);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string Tracer::self_time_table() const {
  std::map<std::string, std::pair<double, double>> by_name;  // total, self
  const std::vector<double> self = self_ms();
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& [total, self_total] = by_name[spans_[i].name];
    total += spans_[i].end_ms - spans_[i].start_ms;
    self_total += self[i];
  }
  std::ostringstream out;
  out << "span                               total_ms      self_ms\n";
  for (const auto& [name, ts] : by_name) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-32s %11.2f %12.2f\n", name.c_str(),
                  ts.first, ts.second);
    out << buf;
  }
  return out.str();
}

double Samples::median_of(const std::string& name) const {
  auto it = s_.find(name);
  return it == s_.end() ? 0.0 : median(it->second);
}

}  // namespace oabench
