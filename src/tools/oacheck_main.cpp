// oacheck — deterministic fuzzing & differential-verification driver
// for the generate -> serialize -> serve pipeline (src/verify).
//
//   oacheck --seed 42 --cases 500            seeded fuzz campaign
//   oacheck --seed 42 --check mutation       one check kind only
//   oacheck --repro 42:137                   re-run one case, verbose
//   oacheck --corpus tests/corpus            run checked-in reproducers
//   oacheck --seed 1 --self-check            run twice, compare reports
//
// Exit status: 0 all cases pass/reject cleanly, 1 at least one FAIL,
// 2 usage error. Everything is a pure function of the flags — no wall
// clock, no environment — so two identical invocations print identical
// bytes (docs/VERIFICATION.md).
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "epod/script.hpp"
#include "support/strings.hpp"
#include "verify/corpus.hpp"
#include "verify/harness.hpp"

namespace {

using namespace oa;

bool parse_int64(const char* s, int64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_uint64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

int usage() {
  std::printf(
      "usage: oacheck [options]\n\n"
      "options:\n"
      "  --seed N              fuzz seed (default 1)\n"
      "  --cases N             fuzzed case count (default 500)\n"
      "  --device geforce9800|gtx285|fermi\n"
      "                        simulated device (default gtx285)\n"
      "  --check LIST          comma list of checks to run:\n"
      "                        differential,roundtrip,mutation,fastpath,"
      "native\n"
      "                        (default: all five)\n"
      "  --max-size N          cap fuzzed problem extents (default 96)\n"
      "  --corpus DIR          also run every *.case reproducer in DIR\n"
      "  --write-corpus DIR    persist failing fuzzed cases to DIR as\n"
      "                        *.case reproducer files\n"
      "  --repro SEED:INDEX    regenerate exactly one fuzzed case and\n"
      "                        run it verbosely\n"
      "  --print-cases         print the full deterministic case list\n"
      "                        (default prints failures only)\n"
      "  --self-check          run the campaign twice and verify the\n"
      "                        reports are byte-identical\n");
  return 2;
}

int run_repro(const verify::HarnessOptions& options,
              const gpusim::DeviceModel& device, const std::string& spec) {
  const size_t colon = spec.find(':');
  uint64_t seed = 0;
  uint64_t index = 0;
  if (colon == std::string::npos ||
      !parse_uint64(spec.substr(0, colon).c_str(), &seed) ||
      !parse_uint64(spec.substr(colon + 1).c_str(), &index)) {
    std::fprintf(stderr, "oacheck: --repro wants SEED:INDEX, got '%s'\n",
                 spec.c_str());
    return 2;
  }
  verify::HarnessOptions repro = options;
  repro.seed = seed;
  verify::Harness harness(device, repro);
  const verify::FuzzCase c = harness.fuzzer().make_case(index);
  std::printf("case %s\n", c.to_string().c_str());
  std::printf("--- script ---\n%s", epod::to_text(c.script).c_str());
  std::printf("--- reproducer file ---\n%s",
              verify::case_to_text(c).c_str());
  const verify::CaseResult r = harness.run_case(c);
  std::printf("--- verdict ---\n%s | %s\n", verify::verdict_name(r.verdict),
              r.detail.c_str());
  return r.verdict == verify::Verdict::kFail ? 1 : 0;
}

int run_campaign(const verify::HarnessOptions& options,
                 const gpusim::DeviceModel& device, bool print_cases,
                 bool self_check) {
  verify::Harness harness(device, options);
  verify::Report report = harness.run();
  if (self_check) {
    verify::Harness second(device, options);
    const verify::Report again = second.run();
    if (report.case_list() != again.case_list() ||
        report.summary() != again.summary()) {
      std::fprintf(stderr,
                   "oacheck: SELF-CHECK FAILED — two same-seed runs "
                   "produced different reports\n");
      return 1;
    }
    std::printf("self-check: two seed=%llu runs byte-identical\n",
                static_cast<unsigned long long>(options.seed));
  }
  if (print_cases) {
    std::fputs(report.case_list().c_str(), stdout);
  } else {
    for (const verify::CaseResult& r : report.results) {
      if (r.verdict != verify::Verdict::kFail) continue;
      std::printf("%s %s -> FAIL | %s\n", r.source.c_str(),
                  r.fuzz.to_string().c_str(), r.detail.c_str());
      if (r.source == "fuzz") {
        std::printf("  repro: oacheck --repro %s\n", r.fuzz.id().c_str());
      }
    }
  }
  std::printf("%s\n", report.summary().c_str());
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  verify::HarnessOptions options;
  std::string device_name = "gtx285";
  std::string repro_spec;
  bool print_cases = false;
  bool self_check = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      if (!parse_uint64(next(), &options.seed)) return usage();
    } else if (arg == "--cases") {
      if (!parse_uint64(next(), &options.cases)) return usage();
    } else if (arg == "--device") {
      const char* v = next();
      if (v == nullptr) return usage();
      device_name = v;
    } else if (arg == "--check") {
      const char* v = next();
      if (v == nullptr) return usage();
      options.fuzzer.differential = false;
      options.fuzzer.roundtrip = false;
      options.fuzzer.mutation = false;
      options.fuzzer.fastpath = false;
      options.fuzzer.native = false;
      for (const std::string& piece : split(v, ',', /*skip_empty=*/true)) {
        verify::CheckKind kind;
        if (!verify::parse_check_kind(piece, &kind)) {
          std::fprintf(stderr, "oacheck: unknown check '%s'\n",
                       piece.c_str());
          return usage();
        }
        switch (kind) {
          case verify::CheckKind::kDifferential:
            options.fuzzer.differential = true;
            break;
          case verify::CheckKind::kRoundTrip:
            options.fuzzer.roundtrip = true;
            break;
          case verify::CheckKind::kMutation:
            options.fuzzer.mutation = true;
            break;
          case verify::CheckKind::kFastPath:
            options.fuzzer.fastpath = true;
            break;
          case verify::CheckKind::kNative:
            options.fuzzer.native = true;
            break;
        }
      }
    } else if (arg == "--max-size") {
      int64_t v = 0;
      if (!parse_int64(next(), &v) || v < 1) return usage();
      options.fuzzer.max_size = v;
    } else if (arg == "--corpus") {
      const char* v = next();
      if (v == nullptr) return usage();
      options.corpus_dir = v;
    } else if (arg == "--write-corpus") {
      const char* v = next();
      if (v == nullptr) return usage();
      options.write_corpus_dir = v;
    } else if (arg == "--repro") {
      const char* v = next();
      if (v == nullptr) return usage();
      repro_spec = v;
    } else if (arg == "--print-cases") {
      print_cases = true;
    } else if (arg == "--self-check") {
      self_check = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "oacheck: unknown flag '%s'\n", arg.c_str());
      return usage();
    }
  }

  const gpusim::DeviceModel* device = verify::device_by_name(device_name);
  if (device == nullptr) {
    std::fprintf(stderr, "oacheck: unknown device '%s'\n",
                 device_name.c_str());
    return usage();
  }
  if (!repro_spec.empty()) {
    return run_repro(options, *device, repro_spec);
  }
  return run_campaign(options, *device, print_cases, self_check);
}
