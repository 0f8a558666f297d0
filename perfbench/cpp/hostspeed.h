// The benchmark's clock and its correction for the shared host's speed.

#pragma once

#include <chrono>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// \brief Host-speed correction of the end-to-end times.
///
/// The benchmark runs on a share of a host whose other tenants slow it
/// down by up to a third for stretches of 5 to 60 s, and no statistic
/// taken inside a 30-s run removes that (README, "Host-speed
/// correction"). So the process measures the host's speed beside the
/// program: between operations, at most every kProbeEvery, it times a
/// fixed probe kernel (building and walking a std::map of kProbeKeys
/// pseudo-random keys, the same keys on every call) that uses no Prairie
/// code. Each second of a run gets the factor kProbeRefMs / (median probe
/// time in that second), and every end-to-end time measured in that
/// second is multiplied by it: it reads as the time on a host where the
/// probe takes kProbeRefMs. A change to the program moves the corrected
/// figures as it moves the raw ones, since the probe runs no program code.
class HostSpeed {
 public:
  /// Between two operations: runs the probe kernel when kProbeEvery has
  /// passed since this recorder's last probe.
  void Tick();
  /// Adds another recorder's probes (one recorder per thread).
  void Merge(const HostSpeed& other);
  /// Records one probe that ended at `at` and took `ms`.
  void Record(Clock::time_point at, double ms);
  /// Time spent in the probe kernel in [from, to), in seconds.
  double ProbeSeconds(Clock::time_point from, Clock::time_point to) const;
  /// kProbeRefMs over the median time of the probes taken in [from, to);
  /// 1 when there are none.
  double Factor(Clock::time_point from, Clock::time_point to) const;
  /// The factor of each of the `seconds` seconds from `start`; a second
  /// without probes takes the factor of the whole span.
  std::vector<double> PerSecond(Clock::time_point start, int seconds) const;

 private:
  Clock::time_point last_ = Clock::now();
  std::vector<std::pair<Clock::time_point, double>> probes_;  ///< (end, ms)
};

constexpr std::chrono::milliseconds kProbeEvery{100};
constexpr int kProbeKeys = 4000;
/// The probe kernel's time at the reference speed: about its median on
/// the 4-vCPU VM the reference figures (README) come from.
constexpr double kProbeRefMs = 0.70;

/// The time from `from` to `to`, without the probes' own time in it,
/// corrected by the factor of the probes taken in it: set-up time.
double CorrectedSeconds(const HostSpeed& speed, Clock::time_point from,
                        Clock::time_point to);

/// \brief The timed window of a serial workload (`search`, `execute`):
/// collects each operation's latency with the second of the window it
/// started in, and which operations make up each round.
class SerialWindow {
 public:
  explicit SerialWindow(Clock::time_point start) : start_(start) {}
  void Add(Clock::time_point op_start, double ms);
  void EndRound() { round_ends_.push_back(ms_.size()); }
  /// Host-speed-corrected latencies, one per operation, and one throughput
  /// sample per round: its operations over the sum of their corrected
  /// latencies.
  void Finish(const HostSpeed& speed, std::vector<double>* latencies_ms,
              std::vector<double>* round_qps) const;

 private:
  Clock::time_point start_;
  std::vector<double> ms_;
  std::vector<int> second_;
  std::vector<size_t> round_ends_;
};

}  // namespace perfbench
