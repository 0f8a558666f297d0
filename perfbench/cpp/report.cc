#include "cpp/report.h"

#include <cmath>
#include <cstdio>

#include "common/strings.h"

namespace perfbench {

bool Passed(const Outcome& outcome) {
  if (!outcome.correct) return false;
  for (const Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) return false;
  }
  return true;
}

std::string ResultLine(const Outcome& outcome) {
  std::string metrics;
  for (const Metric& m : outcome.metrics) {
    const double value = std::isfinite(m.value) ? m.value : 0;
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + prairie::common::JsonEscape(m.name) + "\": {\"value\": " +
               num + ", \"unit\": \"" + prairie::common::JsonEscape(m.unit) +
               "\"}";
  }
  return std::string("{\"correct\": ") + (Passed(outcome) ? "true" : "false") +
         ", \"attempted\": " + std::to_string(outcome.attempted) +
         ", \"failed\": " + std::to_string(outcome.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

}  // namespace perfbench
