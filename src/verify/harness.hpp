// The oacheck harness: runs checked-in corpus reproducers plus a
// seeded stream of ScriptFuzzer cases through the five checks and
// renders a deterministic report. Two runs with the same options
// produce byte-identical case lists and summaries — the property the
// seed-determinism test (tests/verify_test.cpp) locks in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/simulator.hpp"
#include "verify/checks.hpp"
#include "verify/fuzzer.hpp"

namespace oa::verify {

struct HarnessOptions {
  uint64_t seed = 1;
  uint64_t cases = 500;
  FuzzerOptions fuzzer;
  /// Directory of checked-in *.case reproducers to run before the
  /// fuzzed stream (empty: skip).
  std::string corpus_dir;
  /// Directory failing *fuzzed* cases are persisted to as reproducer
  /// files (empty: don't persist).
  std::string write_corpus_dir;
};

struct CaseResult {
  FuzzCase fuzz;
  Verdict verdict = Verdict::kPass;
  std::string detail;
  /// "fuzz" for generated cases, the file path for corpus cases.
  std::string source = "fuzz";
};

struct Report {
  uint64_t seed = 0;
  std::vector<CaseResult> results;
  /// Reproducer files written for failing cases this run.
  std::vector<std::string> written_reproducers;

  size_t count(Verdict v) const;
  size_t failed() const { return count(Verdict::kFail); }
  bool ok() const { return failed() == 0; }
  /// Distinct variants exercised (acceptance: all 64 — both
  /// precisions, the batched families included).
  size_t variants_covered() const;

  /// One deterministic line per case: id, kind, variant, sizes, verdict
  /// and detail. Byte-identical across same-seed runs.
  std::string case_list() const;
  /// Aggregate one-paragraph summary (counts per verdict and per check
  /// kind, variant coverage).
  std::string summary() const;
};

class Harness {
 public:
  Harness(const gpusim::DeviceModel& device, HarnessOptions options);

  /// Corpus cases (sorted) first, then fuzz cases 0..cases-1.
  Report run();

  /// Run one case through its check.
  CaseResult run_case(const FuzzCase& c) const;

  const ScriptFuzzer& fuzzer() const { return fuzzer_; }
  const HarnessOptions& options() const { return options_; }

 private:
  gpusim::Simulator sim_;
  HarnessOptions options_;
  ScriptFuzzer fuzzer_;
};

/// Device preset lookup by CLI name (geforce9800 / gtx285 / fermi);
/// nullptr for unknown names.
const gpusim::DeviceModel* device_by_name(const std::string& name);

}  // namespace oa::verify
