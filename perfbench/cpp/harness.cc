#include "cpp/harness.h"

#include <sys/resource.h>

#include "cpp/stats.h"
#include "dsl/parser.h"
#include "optimizers/oodb.h"
#include "optimizers/props.h"
#include "optimizers/volcano_hand.h"
#include "p2v/translator.h"

// Factory from the translation unit p2v_emit generates at build time.
namespace prairie_generated {
prairie::common::Result<std::shared_ptr<prairie::volcano::RuleSet>>
BuildOodbEmitted(std::shared_ptr<prairie::core::HelperRegistry>);
}  // namespace prairie_generated

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point ProcessStart() { return g_process_start; }

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

prairie::common::Result<Deployments> LoadOodb(bool all_three) {
  Deployments d;
  const Clock::time_point t0 = Clock::now();
  PRAIRIE_ASSIGN_OR_RETURN(
      prairie::core::RuleSet spec,
      prairie::dsl::ParseRuleSet(prairie::opt::OodbSpecText(),
                                 prairie::opt::StandardHelpers()));
  const Clock::time_point t1 = Clock::now();
  PRAIRIE_ASSIGN_OR_RETURN(d.interp, prairie::p2v::Translate(spec));
  const Clock::time_point t2 = Clock::now();
  d.parse_ms = Ms(t1 - t0);
  d.translate_ms = Ms(t2 - t1);
  if (all_three) {
    PRAIRIE_ASSIGN_OR_RETURN(d.emitted,
                             prairie_generated::BuildOodbEmitted(
                                 prairie::opt::StandardHelpers()));
    PRAIRIE_ASSIGN_OR_RETURN(d.hand, prairie::opt::BuildOodbVolcano());
  }
  return d;
}

void WorkCounts::Add(const prairie::volcano::OptimizerStats& s) {
  ++searches;
  trans_attempts += s.trans_attempts;
  trans_fired += s.trans_fired;
  impl_attempts += s.impl_attempts;
  plans_costed += s.plans_costed;
  prunes += s.prunes;
  groups += s.groups;
  mexprs += s.mexprs;
  desc_interned += s.desc_interned;
  desc_lookups += s.desc_lookups;
  desc_hits += s.desc_hits;
}

void WorkCounts::Merge(const WorkCounts& o) {
  searches += o.searches;
  trans_attempts += o.trans_attempts;
  trans_fired += o.trans_fired;
  impl_attempts += o.impl_attempts;
  plans_costed += o.plans_costed;
  prunes += o.prunes;
  groups += o.groups;
  mexprs += o.mexprs;
  desc_interned += o.desc_interned;
  desc_lookups += o.desc_lookups;
  desc_hits += o.desc_hits;
}

std::string PlanText(const prairie::volcano::Plan& plan,
                     const prairie::algebra::Algebra& algebra) {
  if (plan.root == nullptr) return "";
  return plan.root->ToExpr(algebra)->TreeString(algebra);
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PerSearch(uint64_t total, const WorkCounts& w) {
  return Ratio(static_cast<double>(total), static_cast<double>(w.searches));
}

}  // namespace

void LayerReport::AddTo(Outcome* out) const {
  const double per_1k = Ratio(1000.0, static_cast<double>(requests));
  out->Add("dsl.parse_ms", dsl_parse_ms, "ms");
  out->Add("p2v.translate_ms", p2v_translate_ms, "ms");
  out->Add("workload.generate_ms", workload_generate_ms, "ms");
  out->Add("volcano.expand_ms", expand_ms.mean(), "ms");
  out->Add("volcano.implement_cost_ms", implement_cost_ms.mean(), "ms");
  out->Add("volcano.trans_attempts", PerSearch(work.trans_attempts, work),
           "count");
  out->Add("volcano.trans_fired", PerSearch(work.trans_fired, work), "count");
  out->Add("volcano.trans_yield",
           Ratio(static_cast<double>(work.trans_fired),
                 static_cast<double>(work.trans_attempts)),
           "ratio");
  out->Add("volcano.impl_attempts", PerSearch(work.impl_attempts, work),
           "count");
  out->Add("volcano.plans_costed", PerSearch(work.plans_costed, work),
           "count");
  out->Add("volcano.prunes", PerSearch(work.prunes, work), "count");
  out->Add("volcano.optimize_ms.interp", optimize_ms_interp.mean(), "ms");
  out->Add("volcano.optimize_ms.emitted", optimize_ms_emitted.mean(), "ms");
  out->Add("volcano.optimize_ms.hand", optimize_ms_hand.mean(), "ms");
  out->Add("volcano.memo_groups", PerSearch(work.groups, work), "count");
  out->Add("volcano.memo_mexprs", PerSearch(work.mexprs, work), "count");
  out->Add("algebra.desc_interned", PerSearch(work.desc_interned, work),
           "count");
  out->Add("algebra.intern_hit_ratio",
           Ratio(static_cast<double>(work.desc_hits),
                 static_cast<double>(work.desc_lookups)),
           "ratio");
  out->Add("volcano.plan_cost_geomean", GeoMean(plan_costs), "cost");
  out->Add("plancache.hit_us", hit_us.mean(), "us");
  out->Add("algebra.parameterize_us", parameterize_us.mean(), "us");
  out->Add("plancache.rebinds", static_cast<double>(rebinds) * per_1k,
           "count/1k");
  out->Add("plancache.hit_ratio",
           Ratio(static_cast<double>(cache_hits),
                 static_cast<double>(requests)),
           "ratio");
  out->Add("plancache.miss_ms", miss_ms.mean(), "ms");
  out->Add("plancache.searches", static_cast<double>(searches) * per_1k,
           "count/1k");
  out->Add("plancache.duplicate_searches",
           static_cast<double>(duplicate_searches) * per_1k, "count/1k");
  out->Add("plancache.stale_drops", static_cast<double>(stale_drops) * per_1k,
           "count/1k");
  out->Add("plancache.bytes", cache_bytes, "B");
  out->Add("exec.build_us", build_us.mean(), "us");
  out->Add("exec.run_ms", run_ms.mean(), "ms");
  out->Add("exec.rows",
           Ratio(static_cast<double>(rows), static_cast<double>(run_ms.n)),
           "count");
  out->Add("exec.rows_per_s",
           Ratio(static_cast<double>(rows), run_ms.sum / 1e3), "1/s");
  out->Add("remainder_ms", remainder_ms.mean(), "ms");
}

void AddEndToEnd(Outcome* out, double setup_s, std::vector<double>* qps,
                 std::vector<double>* latencies_ms, double peak_rss_mb) {
  out->Add("setup_s", setup_s, "s");
  out->Add("qps", Percentile(qps, 0.50), "queries/s");
  out->Add("latency_p50_ms", Percentile(latencies_ms, 0.50), "ms");
  out->Add("latency_p99_ms", Percentile(latencies_ms, 0.99), "ms");
  out->Add("peak_rss_mb", peak_rss_mb, "MiB");
}

}  // namespace perfbench
