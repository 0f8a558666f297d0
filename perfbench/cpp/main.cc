// perfbench: runs one workload of the repository benchmark.
//
//   perfbench --workload search|traffic|execute --seed N --seconds S
//             --trace 0|1
//
// Standard output carries exactly one line, the result record (see
// report.h); everything else goes to standard error. The exit code is 0
// when every check passed, 1 when a check failed (the result line is
// still printed, last) and 2 for a usage error (no result line).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cpp/report.h"
#include "cpp/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload search|traffic|execute "
               "--seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    long long v = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, 1LL << 62, &v)) return Usage("bad --seed");
      config.seed = static_cast<uint64_t>(v);
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 120, &v)) return Usage("bad --seconds");
      config.seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &v)) return Usage("bad --trace");
      config.trace = v == 1;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  perfbench::Outcome outcome;
  if (config.workload == "search") {
    outcome = perfbench::RunSearch(config);
  } else if (config.workload == "traffic") {
    outcome = perfbench::RunTraffic(config);
  } else if (config.workload == "execute") {
    outcome = perfbench::RunExecute(config);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  constexpr size_t kShown = 20;
  for (size_t i = 0; i < outcome.errors.size() && i < kShown; ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", outcome.errors[i].c_str());
  }
  if (outcome.errors.size() > kShown) {
    std::fprintf(stderr, "... and %zu more failed checks\n",
                 outcome.errors.size() - kShown);
  }
  std::fflush(stderr);
  std::printf("%s\n", perfbench::ResultLine(outcome).c_str());
  std::fflush(stdout);
  return perfbench::Passed(outcome) ? 0 : 1;
}
