// The benchmark's result record and its one-line JSON rendering.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief What one run of one workload reports.
struct Outcome {
  /// False when any correctness check failed (see `errors`).
  bool correct = true;
  uint64_t attempted = 0;  ///< Operations attempted in the timed window.
  uint64_t failed = 0;     ///< Of those, operations that returned an error.
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< Check failures, one line each.

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a check result: an empty message passes.
  void Check(const std::string& message) {
    if (message.empty()) return;
    correct = false;
    errors.push_back(message);
  }
};

/// True when every check passed and every metric value is finite.
bool Passed(const Outcome& outcome);

/// Renders the result line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics, no newline. Values keep all
/// their digits (%.17g). A value that is not finite cannot be written as
/// JSON: it is written as 0, and `correct` is Passed(outcome).
std::string ResultLine(const Outcome& outcome);

}  // namespace perfbench
