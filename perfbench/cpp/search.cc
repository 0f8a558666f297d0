// Workload `search`: cold, serial optimization with no plan cache.
//
// The mix is the paper's Q1-Q8 on chain join graphs at N = 1..3 over
// several cardinality seeds, plus star and clique graphs at N = 2 and 3.
// Q7 and Q8 (selections over materializing joins) stop at N = 2: at N = 3
// one of them takes 0.4-0.8 s to optimize (5,942 logical expressions),
// more than half of a round on its own, and its time moves by +-15%
// between two runs of the same instance. Every
// instance is optimized by all three deployments back to back (interpreted
// P2V, emitted C++, hand-coded), each by a fresh Optimizer — the paper's
// generated-versus-hand comparison. One operation is one Optimize() on a
// fresh optimizer, including its construction and teardown.

#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.h"
#include "cpp/checks.h"
#include "cpp/workloads.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using prairie::volcano::Optimizer;
using prairie::volcano::OptimizerOptions;
using prairie::volcano::Plan;
using prairie::volcano::RuleSet;
using prairie::workload::JoinShape;

constexpr int kDeployments = 3;
const char* const kDeploymentName[kDeployments] = {"interp", "emitted",
                                                   "hand"};
constexpr int kHand = 2;
/// Cardinality seeds per (query, N) on chain graphs.
constexpr int kChainSeeds = 3;
constexpr int kMaxJoins = 3;
/// Largest N for Q7 and Q8.
constexpr int kMaxJoinsQ7Q8 = 2;

struct Instance {
  std::string label;
  int num_joins = 0;
  /// The same query generated against each deployment's algebra.
  prairie::workload::Workload load[kDeployments];
};

struct OpResult {
  bool ok = false;
  double cost = 0;
  Plan plan;
  WorkCounts work;
};

const char* ShapeName(JoinShape shape) {
  switch (shape) {
    case JoinShape::kChain:
      return "chain";
    case JoinShape::kStar:
      return "star";
    case JoinShape::kClique:
      return "clique";
  }
  return "?";
}

prairie::common::Status MakeMix(const RuleSet* const rules[kDeployments],
                                uint64_t seed, std::vector<Instance>* mix) {
  struct Point {
    int query;
    int joins;
    JoinShape shape;
  };
  std::vector<Point> points;
  for (int q = 1; q <= 8; ++q) {
    const int max_joins = q >= 7 ? kMaxJoinsQ7Q8 : kMaxJoins;
    for (int n = 1; n <= max_joins; ++n) {
      for (int k = 0; k < kChainSeeds; ++k) {
        points.push_back({q, n, JoinShape::kChain});
      }
    }
    for (int n = 2; n <= max_joins; ++n) {
      points.push_back({q, n, JoinShape::kStar});
      points.push_back({q, n, JoinShape::kClique});
    }
  }
  mix->resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    prairie::workload::QuerySpec spec = prairie::workload::PaperQuery(
        p.query, p.joins, prairie::common::HashCombine(seed, i));
    spec.shape = p.shape;
    Instance& inst = (*mix)[i];
    inst.label = "Q" + std::to_string(p.query) + "/" + ShapeName(p.shape) +
                 "/n" + std::to_string(p.joins) + "/#" + std::to_string(i);
    inst.num_joins = p.joins;
    for (int d = 0; d < kDeployments; ++d) {
      PRAIRIE_ASSIGN_OR_RETURN(
          inst.load[d],
          prairie::workload::MakeWorkload(*rules[d]->algebra, spec));
    }
  }
  return prairie::common::Status::OK();
}

/// Per-deployment optimize time by join count (traced run), for the
/// generated-versus-hand ratios.
struct RatioTable {
  Acc ms[kDeployments][kMaxJoins + 1];
};

/// One operation. Returns its latency in ms.
double RunOp(const RuleSet& rules, const Instance& inst, int d, OpResult* r,
             std::string* error, bool trace, LayerReport* layers,
             RatioTable* ratios) {
  const prairie::workload::Workload& w = inst.load[d];
  const Clock::time_point t0 = Clock::now();
  Clock::time_point o0, o1;
  {
    Optimizer optimizer(&rules, &w.catalog);
    o0 = Clock::now();
    prairie::common::Result<Plan> plan = optimizer.Optimize(*w.query);
    o1 = Clock::now();
    r->ok = plan.ok();
    if (plan.ok()) {
      r->cost = plan->cost;
      r->plan = std::move(plan).ValueUnsafe();
      r->work = WorkCounts();
      r->work.Add(optimizer.stats());
    } else if (error->empty()) {
      *error = inst.label + "/" + kDeploymentName[d] + ": " +
               plan.status().ToString();
    }
  }
  const Clock::time_point t1 = Clock::now();
  const double op_ms = Ms(t1 - t0);
  if (trace) {
    const double optimize_ms = Ms(o1 - o0);
    Optimizer expander(&rules, &w.catalog);
    const Clock::time_point e0 = Clock::now();
    const bool expanded = expander.ExpandOnly(*w.query).ok();
    const double expand_ms = Ms(Clock::now() - e0);
    if (expanded && r->ok) {
      layers->expand_ms.Add(expand_ms);
      layers->implement_cost_ms.Add(optimize_ms - expand_ms);
    }
    Acc* per_deployment[kDeployments] = {&layers->optimize_ms_interp,
                                         &layers->optimize_ms_emitted,
                                         &layers->optimize_ms_hand};
    per_deployment[d]->Add(optimize_ms);
    ratios->ms[d][inst.num_joins].Add(optimize_ms);
    layers->remainder_ms.Add(op_ms - optimize_ms);
    if (r->ok) layers->work.Merge(r->work);
  }
  return op_ms;
}

void ReportRatios(const RatioTable& t) {
  std::fprintf(stderr,
               "search: mean optimize ms by N (interp / emitted / hand; "
               "emitted/hand, interp/hand)\n");
  for (int n = 1; n <= kMaxJoins; ++n) {
    const double i = t.ms[0][n].mean();
    const double e = t.ms[1][n].mean();
    const double h = t.ms[kHand][n].mean();
    if (h <= 0) continue;
    std::fprintf(stderr, "  N=%d  %.4f / %.4f / %.4f   %.3f  %.3f\n", n, i, e,
                 h, e / h, i / h);
  }
}

}  // namespace

Outcome RunSearch(const RunConfig& config) {
  Outcome out;
  LayerReport layers;
  HostSpeed speed;
  prairie::common::Result<Deployments> loaded = LoadOodb(/*all_three=*/true);
  if (!loaded.ok()) {
    out.Check("loading the rule sets: " + loaded.status().ToString());
    return out;
  }
  const Deployments& dep = *loaded;
  layers.dsl_parse_ms = dep.parse_ms;
  layers.p2v_translate_ms = dep.translate_ms;
  const RuleSet* rules[kDeployments] = {dep.interp.get(), dep.emitted.get(),
                                        dep.hand.get()};

  std::vector<Instance> mix;
  const Clock::time_point g0 = Clock::now();
  if (prairie::common::Status st = MakeMix(rules, config.seed, &mix);
      !st.ok()) {
    out.Check("generating the query mix: " + st.ToString());
    return out;
  }
  layers.workload_generate_ms = Ms(Clock::now() - g0);
  const size_t ops = mix.size() * kDeployments;

  // Warm-up: one untimed round; its results are the reference the timed
  // rounds must reproduce.
  std::vector<OpResult> warm(ops);
  std::string error;
  RatioTable ratios;
  const Clock::time_point w0 = Clock::now();
  for (size_t i = 0; i < mix.size(); ++i) {
    for (int d = 0; d < kDeployments; ++d) {
      RunOp(*rules[d], mix[i], d, &warm[i * kDeployments + d], &error, false,
            &layers, &ratios);
      speed.Tick();
    }
  }
  const double warm_s = Seconds(Clock::now() - w0);
  uint64_t failed = 0;  // warm-up operations that returned an error
  for (const OpResult& r : warm) {
    if (r.ok) {
      layers.plan_costs.push_back(r.cost);
    } else {
      ++failed;
    }
  }

  std::vector<OpResult> last(ops);
  uint64_t rounds = 0;
  uint64_t timed_failed = 0;
  uint64_t unstable = 0;  // timed results whose cost differs from warm-up
  const Clock::time_point start = Clock::now();
  const double setup_s = CorrectedSeconds(speed, ProcessStart(), start);
  std::fprintf(stderr,
               "search: set-up %.3f s (corrected %.3f s), of which "
               "generation %.1f ms and warm-up %.3f s\n",
               Seconds(start - ProcessStart()), setup_s,
               layers.workload_generate_ms, warm_s);
  const Clock::time_point deadline = start + std::chrono::seconds(config.seconds);
  SerialWindow window(start);
  do {
    for (size_t i = 0; i < mix.size(); ++i) {
      for (int d = 0; d < kDeployments; ++d) {
        const size_t k = i * kDeployments + d;
        const Clock::time_point t0 = Clock::now();
        window.Add(t0, RunOp(*rules[d], mix[i], d, &last[k], &error,
                             config.trace, &layers, &ratios));
        speed.Tick();
        if (!last[k].ok) ++timed_failed;
        else if (last[k].cost != warm[k].cost) ++unstable;
      }
    }
    window.EndRound();
    ++rounds;
  } while (Clock::now() < deadline);
  const double peak_rss = PeakRssMb();
  out.attempted = rounds * ops;
  out.failed = timed_failed;
  std::fprintf(stderr, "search: %zu instances x %d deployments, %llu rounds\n",
               mix.size(), kDeployments,
               static_cast<unsigned long long>(rounds));

  // Checks, outside the timed window.
  out.Check(CheckNoFailures(failed + timed_failed, error));
  if (unstable > 0) {
    out.Check(std::to_string(unstable) +
              " timed optimizations returned a cost other than warm-up's");
  }
  for (size_t i = 0; i < mix.size(); ++i) {
    const Instance& inst = mix[i];
    for (int d = 0; d < kDeployments; ++d) {
      const size_t k = i * kDeployments + d;
      const OpResult& a = warm[k];
      const OpResult& b = last[k];
      if (!a.ok || !b.ok) continue;
      const std::string where = inst.label + "/" + kDeploymentName[d] + ": ";
      // The same query optimized twice: identical plan and work.
      const prairie::algebra::Algebra& algebra = *rules[d]->algebra;
      std::string msg = CheckSamePlan(PlanText(b.plan, algebra),
                                      PlanText(a.plan, algebra));
      if (!msg.empty()) out.Check(where + "re-optimization: " + msg);
      if (!(a.work == b.work)) {
        out.Check(where + "re-optimization did different search work");
      }
      // The three deployments agree on the winning cost.
      const OpResult& hand = warm[i * kDeployments + kHand];
      if (d != kHand && hand.ok) {
        msg = CheckSameCost(a.cost, hand.cost, 1e-9);
        if (!msg.empty()) out.Check(where + "vs hand-coded: " + msg);
      }
    }
    // Branch-and-bound is exact: pruning does not change the cost.
    const OpResult& interp = warm[i * kDeployments];
    if (inst.num_joins <= 2 && interp.ok) {
      OptimizerOptions exhaustive;
      exhaustive.prune = false;
      const prairie::workload::Workload& w = inst.load[kHand];
      Optimizer full(rules[kHand], &w.catalog, exhaustive);
      prairie::common::Result<Plan> plan = full.Optimize(*w.query);
      if (!plan.ok()) {
        out.Check(inst.label + ": exhaustive search failed: " +
                  plan.status().ToString());
      } else {
        const std::string msg = CheckSameCost(interp.cost, plan->cost, 1e-9);
        if (!msg.empty()) out.Check(inst.label + ": vs exhaustive: " + msg);
      }
    }
  }

  if (config.trace) {
    ReportRatios(ratios);
    layers.AddTo(&out);
  } else {
    std::vector<double> latencies;
    std::vector<double> round_qps;  // one sample per round
    window.Finish(speed, &latencies, &round_qps);
    AddEndToEnd(&out, setup_s, &round_qps, &latencies, peak_rss);
  }
  return out;
}

}  // namespace perfbench
