// Pieces every workload shares: the run configuration, the clock, loading
// the OODB rule set in its three deployments, and the accumulators behind
// the end-to-end and per-layer metrics.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "cpp/hostspeed.h"
#include "cpp/report.h"
#include "volcano/engine.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;  ///< Length of the timed window.
  bool trace = false;  ///< Traced run: report per-layer metrics.
};

/// When this process started (taken during static initialization, before
/// main() runs): set-up time is measured from here.
Clock::time_point ProcessStart();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// \brief The OODB optimizer in the paper's three deployments, loaded the
/// way a user loads it: the Prairie specification parsed by the DSL front
/// end and translated by P2V (interpreted rule actions), the same
/// specification as C++ emitted by p2v_emit at build time, and the
/// hand-coded Volcano rule set.
struct Deployments {
  std::shared_ptr<prairie::volcano::RuleSet> interp;
  std::shared_ptr<prairie::volcano::RuleSet> emitted;  ///< Null unless asked.
  std::shared_ptr<prairie::volcano::RuleSet> hand;     ///< Null unless asked.
  double parse_ms = 0;      ///< dsl::ParseRuleSet.
  double translate_ms = 0;  ///< p2v::Translate.
};
prairie::common::Result<Deployments> LoadOodb(bool all_three);

/// Running sum and count of one timed quantity.
struct Acc {
  double sum = 0;
  uint64_t n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  void Merge(const Acc& o) {
    sum += o.sum;
    n += o.n;
  }
  double mean() const { return n == 0 ? 0 : sum / static_cast<double>(n); }
};

/// Search work of a set of Optimize() calls that searched, from
/// OptimizerStats (deterministic for a given query and rule set).
struct WorkCounts {
  uint64_t searches = 0;
  uint64_t trans_attempts = 0;
  uint64_t trans_fired = 0;
  uint64_t impl_attempts = 0;
  uint64_t plans_costed = 0;
  uint64_t prunes = 0;
  uint64_t groups = 0;
  uint64_t mexprs = 0;
  uint64_t desc_interned = 0;
  uint64_t desc_lookups = 0;
  uint64_t desc_hits = 0;
  void Add(const prairie::volcano::OptimizerStats& s);
  void Merge(const WorkCounts& o);
  bool operator==(const WorkCounts& o) const = default;
};

/// The plan with every operator's descriptor (constants included), so two
/// renderings are equal only for the same plan of the same query.
std::string PlanText(const prairie::volcano::Plan& plan,
                     const prairie::algebra::Algebra& algebra);

/// \brief Every per-layer metric; a workload fills in the layers it runs
/// and the rest report 0 (that layer does no work on that workload).
struct LayerReport {
  double dsl_parse_ms = 0;
  double p2v_translate_ms = 0;
  double workload_generate_ms = 0;
  Acc expand_ms;          ///< ExpandOnly on a fresh optimizer.
  Acc implement_cost_ms;  ///< Optimize minus ExpandOnly, per query.
  WorkCounts work;
  Acc optimize_ms_interp;
  Acc optimize_ms_emitted;
  Acc optimize_ms_hand;
  std::vector<double> plan_costs;  ///< One per distinct query searched.
  Acc hit_us;           ///< Optimize() calls served by the plan cache.
  Acc parameterize_us;  ///< algebra::ParameterizeQuery on the request.
  Acc miss_ms;          ///< Optimize() calls that searched.
  uint64_t requests = 0;
  uint64_t rebinds = 0;
  uint64_t cache_hits = 0;
  uint64_t searches = 0;
  uint64_t duplicate_searches = 0;
  uint64_t stale_drops = 0;
  double cache_bytes = 0;
  Acc build_us;  ///< ExecutorRegistry::Build.
  Acc run_ms;    ///< Draining the iterator tree.
  uint64_t rows = 0;
  Acc remainder_ms;  ///< Per-query time outside every timed layer call.

  void AddTo(Outcome* out) const;
};

/// The end-to-end metrics of a timed window, all of them host-speed
/// corrected but `peak_rss_mb`. `qps` holds the window's throughput
/// samples, queries per second of each round or one-second slice, and
/// `latencies_ms` one exact sample per completed query; both are
/// reordered. The reported `qps` is their median: the shared host at
/// times stalls the process for seconds, which moves a whole-window mean
/// but not a median.
void AddEndToEnd(Outcome* out, double setup_s, std::vector<double>* qps,
                 std::vector<double>* latencies_ms, double peak_rss_mb);

}  // namespace perfbench
