// Workload `execute`: optimize, then run the winning plan.
//
// The mix is the paper's Q1-Q8 on chain graphs at N = 1 and Q1-Q6 on chain
// and star graphs at N = 2, each over its own in-memory database. The
// catalogs are fixed; --seed draws the rows, so the amount of work hardly
// moves between seeds (drawing the catalogs too moved the mix's execution
// time by +-15% from seed to seed). Class sizes are chosen so that execution carries most of the
// time while the naive reference evaluator, whose joins are nested loops,
// still checks every result within a few seconds: 500-2,000 rows per class
// at N = 1, 100-400 at N = 2. Q7 and Q8 are left out at N = 2: each takes
// 35-55 ms to optimize, more than the whole mix takes to execute, and
// databases large enough to outweigh that would take the reference
// evaluator minutes. One operation optimizes the
// query cold with the interpreted P2V deployment, builds the winning plan
// with the standard executors and drains it to the end. The drained rows
// are fingerprinted as a multiset; the warm-up round's plans are checked
// against the naive reference evaluator after the timed window, and every
// timed result must carry the warm-up result's fingerprint.

#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.h"
#include "cpp/checks.h"
#include "cpp/workloads.h"
#include "exec/builder.h"
#include "exec/iterator.h"
#include "optimizers/executors.h"
#include "optimizers/reference.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using prairie::exec::ExecutorRegistry;
using prairie::exec::IterPtr;
using prairie::volcano::Optimizer;
using prairie::volcano::Plan;
using prairie::volcano::RuleSet;
using prairie::workload::JoinShape;

/// Seeds the catalogs (class sizes, attribute domains, join attributes).
constexpr uint64_t kCatalogSeed = 1995;
/// Untimed rounds before the window: about 2 s of work. Set-up time is
/// mostly warm-up, and a short one (3 rounds, 0.4 s) read the shared
/// host's speed over too short a time: it spread 36% over five seeds.
constexpr int kWarmupRounds = 16;

struct Instance {
  std::string label;
  prairie::workload::Workload load;
  prairie::exec::Database db;
};

struct OpResult {
  bool ok = false;
  Plan plan;
  uint64_t rows = 0;
  uint64_t fingerprint = 0;
};

prairie::common::Status MakeMix(const RuleSet& rules, uint64_t seed,
                                std::vector<Instance>* mix) {
  struct Point {
    int last_query;
    int joins;
    JoinShape shape;
    const char* name;
    int64_t min_card;
    int64_t max_card;
  };
  const Point points[] = {{8, 1, JoinShape::kChain, "chain", 500, 2000},
                          {6, 2, JoinShape::kChain, "chain", 100, 400},
                          {6, 2, JoinShape::kStar, "star", 100, 400}};
  for (const Point& p : points) {
    for (int q = 1; q <= p.last_query; ++q) {
      // The catalog and query are the same for every seed, so each run
      // does comparable work; the seed draws the database contents.
      prairie::workload::QuerySpec spec = prairie::workload::PaperQuery(
          q, p.joins, kCatalogSeed + mix->size());
      spec.shape = p.shape;
      spec.min_card = p.min_card;
      spec.max_card = p.max_card;
      Instance inst;
      inst.label = "Q" + std::to_string(q) + "/" + p.name + "/n" +
                   std::to_string(p.joins) + "/#" +
                   std::to_string(mix->size());
      PRAIRIE_ASSIGN_OR_RETURN(
          inst.load, prairie::workload::MakeWorkload(*rules.algebra, spec));
      PRAIRIE_ASSIGN_OR_RETURN(
          inst.db, prairie::workload::MakeDatabase(
                       inst.load.catalog,
                       prairie::common::HashCombine(seed, mix->size())));
      mix->push_back(std::move(inst));
    }
  }
  return prairie::common::Status::OK();
}

/// Builds `plan` and drains it into a fingerprint; sets the build and run
/// times.
prairie::common::Status BuildAndDrain(const ExecutorRegistry& registry,
                                      const prairie::algebra::Algebra& algebra,
                                      const Plan& plan,
                                      const prairie::exec::Database& db,
                                      OpResult* r, double* build_ms,
                                      double* run_ms) {
  const prairie::algebra::ExprPtr expr = plan.root->ToExpr(algebra);
  const Clock::time_point b0 = Clock::now();
  PRAIRIE_ASSIGN_OR_RETURN(IterPtr it, registry.Build(*expr, algebra, db));
  const Clock::time_point r0 = Clock::now();
  RowFingerprint fp(it->schema());
  PRAIRIE_RETURN_NOT_OK(it->Open());
  prairie::exec::Row row;
  for (;;) {
    PRAIRIE_ASSIGN_OR_RETURN(bool more, it->Next(&row));
    if (!more) break;
    fp.Add(row);
  }
  PRAIRIE_RETURN_NOT_OK(it->Close());
  const Clock::time_point r1 = Clock::now();
  r->rows = fp.rows();
  r->fingerprint = fp.sum();
  *build_ms = Ms(r0 - b0);
  *run_ms = Ms(r1 - r0);
  return prairie::common::Status::OK();
}

/// One operation. Returns its latency in ms.
double RunOp(const RuleSet& rules, const ExecutorRegistry& registry,
             const Instance& inst, OpResult* r, std::string* error, bool trace,
             LayerReport* layers) {
  const Clock::time_point t0 = Clock::now();
  Clock::time_point o0, o1;
  prairie::common::Status st;
  WorkCounts work;
  {
    Optimizer optimizer(&rules, &inst.load.catalog);
    o0 = Clock::now();
    prairie::common::Result<Plan> plan = optimizer.Optimize(*inst.load.query);
    o1 = Clock::now();
    if (plan.ok()) {
      r->plan = std::move(plan).ValueUnsafe();
      work.Add(optimizer.stats());
    } else {
      st = plan.status();
    }
  }
  double build_ms = 0;
  double run_ms = 0;
  if (st.ok()) {
    st = BuildAndDrain(registry, *rules.algebra, r->plan, inst.db, r,
                       &build_ms, &run_ms);
  }
  const double op_ms = Ms(Clock::now() - t0);
  r->ok = st.ok();
  if (!st.ok() && error->empty()) *error = inst.label + ": " + st.ToString();
  if (trace && r->ok) {
    const double optimize_ms = Ms(o1 - o0);
    layers->optimize_ms_interp.Add(optimize_ms);
    layers->work.Merge(work);
    layers->build_us.Add(build_ms * 1e3);
    layers->run_ms.Add(run_ms);
    layers->rows += r->rows;
    layers->remainder_ms.Add(op_ms - optimize_ms - build_ms - run_ms);
    Optimizer expander(&rules, &inst.load.catalog);
    const Clock::time_point e0 = Clock::now();
    if (expander.ExpandOnly(*inst.load.query).ok()) {
      const double expand_ms = Ms(Clock::now() - e0);
      layers->expand_ms.Add(expand_ms);
      layers->implement_cost_ms.Add(optimize_ms - expand_ms);
    }
  }
  return op_ms;
}

}  // namespace

Outcome RunExecute(const RunConfig& config) {
  Outcome out;
  LayerReport layers;
  HostSpeed speed;
  prairie::common::Result<Deployments> loaded = LoadOodb(/*all_three=*/false);
  if (!loaded.ok()) {
    out.Check("loading the rule set: " + loaded.status().ToString());
    return out;
  }
  layers.dsl_parse_ms = loaded->parse_ms;
  layers.p2v_translate_ms = loaded->translate_ms;
  const RuleSet& rules = *loaded->interp;
  ExecutorRegistry registry;
  if (prairie::common::Status st =
          prairie::opt::RegisterStandardExecutors(&registry);
      !st.ok()) {
    out.Check("registering executors: " + st.ToString());
    return out;
  }

  std::vector<Instance> mix;
  const Clock::time_point g0 = Clock::now();
  if (prairie::common::Status st = MakeMix(rules, config.seed, &mix);
      !st.ok()) {
    out.Check("generating the query mix: " + st.ToString());
    return out;
  }
  layers.workload_generate_ms = Ms(Clock::now() - g0);

  // Warm-up; the last round's results are what the timed rounds must
  // reproduce.
  std::vector<OpResult> warm(mix.size());
  std::string error;
  uint64_t failed = 0;  // warm-up operations that returned an error
  const Clock::time_point w0 = Clock::now();
  for (int round = 0; round < kWarmupRounds; ++round) {
    for (size_t i = 0; i < mix.size(); ++i) {
      RunOp(rules, registry, mix[i], &warm[i], &error, false, &layers);
      speed.Tick();
      if (!warm[i].ok) ++failed;
    }
  }
  const double warm_s = Seconds(Clock::now() - w0);
  for (const OpResult& r : warm) {
    if (r.ok) layers.plan_costs.push_back(r.plan.cost);
  }

  std::vector<OpResult> last(mix.size());
  uint64_t rounds = 0;
  uint64_t timed_failed = 0;
  uint64_t mismatched = 0;  // timed results whose fingerprint differs
  const Clock::time_point start = Clock::now();
  const double setup_s = CorrectedSeconds(speed, ProcessStart(), start);
  std::fprintf(stderr,
               "execute: set-up %.3f s (corrected %.3f s), of which "
               "generation %.1f ms and warm-up %.3f s\n",
               Seconds(start - ProcessStart()), setup_s,
               layers.workload_generate_ms, warm_s);
  const Clock::time_point deadline =
      start + std::chrono::seconds(config.seconds);
  SerialWindow window(start);
  do {
    for (size_t i = 0; i < mix.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      window.Add(t0, RunOp(rules, registry, mix[i], &last[i], &error,
                           config.trace, &layers));
      speed.Tick();
      if (!last[i].ok) {
        ++timed_failed;
      } else if (last[i].rows != warm[i].rows ||
                 last[i].fingerprint != warm[i].fingerprint) {
        ++mismatched;
      }
    }
    window.EndRound();
    ++rounds;
  } while (Clock::now() < deadline);
  const double peak_rss = PeakRssMb();
  out.attempted = rounds * mix.size();
  out.failed = timed_failed;
  std::fprintf(stderr, "execute: %zu queries, %llu rounds\n", mix.size(),
               static_cast<unsigned long long>(rounds));

  // Checks, outside the timed window: the warm-up plans' full results
  // against the reference evaluator, and every timed fingerprint against
  // the warm-up's.
  out.Check(CheckNoFailures(failed + timed_failed, error));
  if (mismatched > 0) {
    out.Check(std::to_string(mismatched) +
              " timed executions returned other rows than warm-up");
  }
  for (size_t i = 0; i < mix.size(); ++i) {
    const Instance& inst = mix[i];
    if (!warm[i].ok) continue;
    const std::string where = inst.label + ": ";
    prairie::common::Result<prairie::opt::ReferenceResult> ref =
        prairie::opt::EvaluateLogical(*inst.load.query, *rules.algebra,
                                      inst.db);
    const prairie::algebra::ExprPtr expr =
        warm[i].plan.root->ToExpr(*rules.algebra);
    prairie::common::Result<IterPtr> it =
        registry.Build(*expr, *rules.algebra, inst.db);
    if (!ref.ok() || !it.ok()) {
      out.Check(where + "reference or plan build failed: " +
                (ref.ok() ? it.status() : ref.status()).ToString());
      continue;
    }
    prairie::common::Result<std::vector<prairie::exec::Row>> rows =
        prairie::exec::CollectAll(it->get());
    if (!rows.ok()) {
      out.Check(where + "re-execution failed: " + rows.status().ToString());
      continue;
    }
    const std::string msg =
        CheckSameRows(*rows, (*it)->schema(), ref->rows, ref->schema);
    if (!msg.empty()) out.Check(where + msg);
    RowFingerprint expect(ref->schema);
    for (const prairie::exec::Row& row : ref->rows) expect.Add(row);
    if (expect.rows() != warm[i].rows || expect.sum() != warm[i].fingerprint) {
      out.Check(where + "streamed result fingerprint differs from the "
                        "reference's");
    }
  }

  if (config.trace) {
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
