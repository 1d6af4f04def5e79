/**
 * @file
 * Differential trace-program fuzzer driver (TESTING.md).
 *
 * Each seed is one fully deterministic case: random trace programs run
 * under the AccelFlow engine, the CPU-Centric baseline and the Non-acc
 * baseline with the runtime invariant checker attached to each, and the
 * logical outcomes are compared (see src/check/differential.h). Any failure is
 * reproducible with `fuzz_traces --seed <n>`.
 *
 * Usage:
 *   fuzz_traces [--seeds N] [--start S] [--seed X] [--quiet]
 *
 *   --seeds N   run seeds S .. S+N-1 (default 50)
 *   --start S   first seed (default 1)
 *   --seed X    run exactly one seed, verbosely
 *   --quiet     only print failures and the final summary
 *
 * Exit status: 0 when every case passed, 1 otherwise.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/differential.h"

namespace {

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "fuzz_traces: bad value for %s: '%s'\n", flag, s);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 50;
  std::uint64_t start = 1;
  bool single = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fuzz_traces: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      seeds = parse_u64(value("--seeds"), "--seeds");
    } else if (arg == "--start") {
      start = parse_u64(value("--start"), "--start");
    } else if (arg == "--seed") {
      start = parse_u64(value("--seed"), "--seed");
      seeds = 1;
      single = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: fuzz_traces [--seeds N] [--start S] [--seed X] "
          "[--quiet]\n");
      return 0;
    } else {
      std::fprintf(stderr, "fuzz_traces: unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  std::uint64_t failed = 0;
  std::uint64_t total_chains = 0;
  std::uint64_t total_stages = 0;
  std::uint64_t tiny = 0;
  std::uint64_t timeouts = 0;
  for (std::uint64_t s = start; s < start + seeds; ++s) {
    const accelflow::check::DiffCaseResult r =
        accelflow::check::run_differential_case(s);
    total_chains += static_cast<std::uint64_t>(r.chains);
    total_stages += r.stages_checked;
    tiny += r.tiny_queues ? 1 : 0;
    timeouts += r.had_timeout ? 1 : 0;
    if (!r.passed) {
      ++failed;
      std::fprintf(stderr, "FAIL seed %llu:\n%s\n",
                   static_cast<unsigned long long>(s), r.detail.c_str());
    } else if (single || (!quiet && s % 50 == 0)) {
      std::printf("seed %llu ok: %d programs, %d chains, %llu stages%s%s\n",
                  static_cast<unsigned long long>(s), r.programs, r.chains,
                  static_cast<unsigned long long>(r.stages_checked),
                  r.tiny_queues ? ", tiny queues" : "",
                  r.had_timeout ? ", timeout path" : "");
    }
  }

  std::printf(
      "fuzz_traces: %llu/%llu cases passed (%llu chains, %llu stages "
      "checked, %llu tiny-queue cases, %llu timeout cases)\n",
      static_cast<unsigned long long>(seeds - failed),
      static_cast<unsigned long long>(seeds),
      static_cast<unsigned long long>(total_chains),
      static_cast<unsigned long long>(total_stages),
      static_cast<unsigned long long>(tiny),
      static_cast<unsigned long long>(timeouts));
  return failed == 0 ? 0 : 1;
}
