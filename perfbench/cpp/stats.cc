#include "cpp/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double>* samples, double q) {
  std::vector<double>& x = *samples;
  if (x.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double h = static_cast<double>(x.size() - 1) * q;
  const size_t lo = static_cast<size_t>(std::floor(h));
  std::nth_element(x.begin(), x.begin() + static_cast<long>(lo), x.end());
  const double below = x[lo];
  if (lo + 1 >= x.size()) return below;
  // The next order statistic is the minimum of the upper partition.
  const double above =
      *std::min_element(x.begin() + static_cast<long>(lo) + 1, x.end());
  return below + (h - static_cast<double>(lo)) * (above - below);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
