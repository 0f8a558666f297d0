#include "cpp/hostspeed.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>

#include "cpp/stats.h"

namespace perfbench {

namespace {

/// Keeps the probe kernel's result alive.
std::atomic<uint64_t> g_probe_sink{0};

/// The probe kernel: the same work on every call, no Prairie code.
double ProbeKernelMs() {
  const Clock::time_point t0 = Clock::now();
  std::map<uint64_t, uint64_t> m;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < kProbeKeys; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    m[x >> 40] += static_cast<uint64_t>(i);
  }
  uint64_t sum = 0;
  for (const auto& [key, value] : m) sum += key ^ value;
  g_probe_sink.fetch_add(sum, std::memory_order_relaxed);
  return Ms(Clock::now() - t0);
}

double MedianOf(std::vector<double> v) { return Percentile(&v, 0.50); }

}  // namespace

void HostSpeed::Tick() {
  const Clock::time_point now = Clock::now();
  if (now - last_ < kProbeEvery) return;
  const double ms = ProbeKernelMs();
  last_ = Clock::now();
  Record(last_, ms);
}

void HostSpeed::Record(Clock::time_point at, double ms) {
  probes_.emplace_back(at, ms);
}

double HostSpeed::ProbeSeconds(Clock::time_point from,
                               Clock::time_point to) const {
  double ms = 0;
  for (const auto& [at, t] : probes_) {
    if (at >= from && at < to) ms += t;
  }
  return ms / 1e3;
}

void HostSpeed::Merge(const HostSpeed& other) {
  probes_.insert(probes_.end(), other.probes_.begin(), other.probes_.end());
}

double HostSpeed::Factor(Clock::time_point from, Clock::time_point to) const {
  std::vector<double> ms;
  for (const auto& [at, t] : probes_) {
    if (at >= from && at < to) ms.push_back(t);
  }
  return ms.empty() ? 1.0 : kProbeRefMs / MedianOf(std::move(ms));
}

std::vector<double> HostSpeed::PerSecond(Clock::time_point start,
                                         int seconds) const {
  const double whole =
      Factor(start, start + std::chrono::seconds(seconds));
  std::vector<std::vector<double>> per(static_cast<size_t>(seconds));
  for (const auto& [at, t] : probes_) {
    if (at < start) continue;
    const int64_t sec = (at - start) / std::chrono::seconds(1);
    if (sec < seconds) per[static_cast<size_t>(sec)].push_back(t);
  }
  std::vector<double> factors;
  factors.reserve(per.size());
  for (std::vector<double>& ms : per) {
    factors.push_back(ms.empty() ? whole
                                 : kProbeRefMs / MedianOf(std::move(ms)));
  }
  return factors;
}

double CorrectedSeconds(const HostSpeed& speed, Clock::time_point from,
                        Clock::time_point to) {
  return (Seconds(to - from) - speed.ProbeSeconds(from, to)) *
         speed.Factor(from, to);
}

void SerialWindow::Add(Clock::time_point op_start, double ms) {
  ms_.push_back(ms);
  second_.push_back(
      static_cast<int>((op_start - start_) / std::chrono::seconds(1)));
}

void SerialWindow::Finish(const HostSpeed& speed,
                          std::vector<double>* latencies_ms,
                          std::vector<double>* round_qps) const {
  const int seconds =
      second_.empty() ? 1 : *std::max_element(second_.begin(), second_.end()) + 1;
  const std::vector<double> factor = speed.PerSecond(start_, seconds);
  latencies_ms->clear();
  latencies_ms->reserve(ms_.size());
  for (size_t i = 0; i < ms_.size(); ++i) {
    latencies_ms->push_back(ms_[i] * factor[static_cast<size_t>(second_[i])]);
  }
  round_qps->clear();
  size_t begin = 0;
  for (const size_t end : round_ends_) {
    double sum_ms = 0;
    for (size_t i = begin; i < end; ++i) sum_ms += (*latencies_ms)[i];
    if (sum_ms > 0) {
      round_qps->push_back(static_cast<double>(end - begin) * 1e3 / sum_ms);
    }
    begin = end;
  }
}

}  // namespace perfbench
