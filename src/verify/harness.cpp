#include "verify/harness.hpp"

#include <filesystem>
#include <map>
#include <set>
#include <utility>

#include "gpusim/device.hpp"
#include "support/strings.hpp"
#include "verify/corpus.hpp"

namespace oa::verify {

size_t Report::count(Verdict v) const {
  size_t n = 0;
  for (const CaseResult& r : results) {
    if (r.verdict == v) ++n;
  }
  return n;
}

size_t Report::variants_covered() const {
  std::set<std::string> names;
  for (const CaseResult& r : results) names.insert(r.fuzz.variant.name());
  return names.size();
}

std::string Report::case_list() const {
  std::string out;
  for (const CaseResult& r : results) {
    out += r.source == "fuzz" ? r.fuzz.to_string()
                              : "corpus:" + r.source + " " +
                                    r.fuzz.to_string();
    out += " -> ";
    out += verdict_name(r.verdict);
    out += " | ";
    out += r.detail;
    out += "\n";
  }
  return out;
}

std::string Report::summary() const {
  std::map<std::string, std::pair<size_t, size_t>> by_kind;  // ran, failed
  for (const CaseResult& r : results) {
    auto& [ran, failed] = by_kind[check_kind_name(r.fuzz.kind)];
    ++ran;
    if (r.verdict == Verdict::kFail) ++failed;
  }
  std::string out = str_format(
      "oacheck seed=%llu: %zu cases — %zu pass, %zu rejected "
      "(expected degenerations), %zu FAIL; %zu/%zu variants covered",
      static_cast<unsigned long long>(seed), results.size(),
      count(Verdict::kPass), count(Verdict::kRejected), failed(),
      variants_covered(),
      blas3::all_variants().size() + blas3::batched_variants().size());
  for (const auto& [kind, counts] : by_kind) {
    out += str_format("\n  %-12s %zu cases, %zu FAIL", kind.c_str(),
                      counts.first, counts.second);
  }
  if (!written_reproducers.empty()) {
    out += str_format("\n  %zu reproducer(s) written:",
                      written_reproducers.size());
    for (const std::string& path : written_reproducers) {
      out += "\n    " + path;
    }
  }
  return out;
}

Harness::Harness(const gpusim::DeviceModel& device, HarnessOptions options)
    : sim_(device),
      options_(std::move(options)),
      fuzzer_(options_.seed, options_.fuzzer) {}

CaseResult Harness::run_case(const FuzzCase& c) const {
  CaseResult r;
  r.fuzz = c;
  CheckResult check = check_case(sim_, c);
  r.verdict = check.verdict;
  r.detail = std::move(check.detail);
  return r;
}

Report Harness::run() {
  Report rep;
  rep.seed = options_.seed;
  if (!options_.corpus_dir.empty()) {
    for (const std::string& path : list_corpus(options_.corpus_dir)) {
      const std::string name =
          std::filesystem::path(path).filename().string();
      auto loaded = load_case(path);
      if (!loaded.is_ok()) {
        CaseResult r;
        r.source = name;
        r.verdict = Verdict::kFail;
        r.detail = "corpus load: " + loaded.status().to_string();
        rep.results.push_back(std::move(r));
        continue;
      }
      CaseResult r = run_case(*loaded);
      r.source = name;
      rep.results.push_back(std::move(r));
    }
  }
  for (uint64_t i = 0; i < options_.cases; ++i) {
    const FuzzCase c = fuzzer_.make_case(i);
    CaseResult r = run_case(c);
    if (r.verdict == Verdict::kFail && !options_.write_corpus_dir.empty()) {
      const std::string path =
          options_.write_corpus_dir + "/" + case_filename(c);
      if (save_case(c, path).is_ok()) {
        rep.written_reproducers.push_back(path);
      }
    }
    rep.results.push_back(std::move(r));
  }
  return rep;
}

const gpusim::DeviceModel* device_by_name(const std::string& name) {
  if (name == "geforce9800") return &gpusim::geforce_9800();
  if (name == "gtx285") return &gpusim::gtx285();
  if (name == "fermi") return &gpusim::fermi_c2050();
  return nullptr;
}

}  // namespace oa::verify
