// Exact-sample order statistics for the benchmark's latency metrics.
//
// Every latency the benchmark reports comes from its own clock around each
// call, kept as one sample per call; these helpers compute order
// statistics over the full sample set (no bucketing).

#pragma once

#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `samples` by linear interpolation
/// between the two nearest order statistics (the "type 7" rule of R and
/// NumPy's default): with n sorted values x[0..n-1], h = (n-1)q and the
/// result is x[floor h] + (h - floor h)(x[floor h + 1] - x[floor h]).
/// Returns 0 for an empty sample. `samples` is reordered.
double Percentile(std::vector<double>* samples, double q);

/// Geometric mean of positive values; 0 when empty or any value <= 0.
double GeoMean(const std::vector<double>& values);

}  // namespace perfbench
