// The benchmark's workloads. Each builds its inputs from the run's seed,
// warms up, times whole rounds of its operations for the configured
// window, checks the program's outputs, and returns what it measured:
// the end-to-end metrics in an untraced run, the per-layer metrics in a
// traced one. Progress notes go to stderr.

#pragma once

#include "cpp/harness.h"

namespace perfbench {

/// Cold serial optimization of the paper's Q1-Q8 mix in three deployments.
Outcome RunSearch(const RunConfig& config);

/// Closed-loop Zipf traffic through the parameterized plan cache, with
/// catalog statistics updates beside the reads.
Outcome RunTraffic(const RunConfig& config);

/// Optimize-then-execute of a small-N mix over an in-memory database.
Outcome RunExecute(const RunConfig& config);

}  // namespace perfbench
