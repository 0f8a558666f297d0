// Workload `traffic`: closed-loop, parameter-varying Zipf traffic through
// the parameterized plan cache, with catalog statistics updates beside the
// reads.
//
// A workload::TrafficGenerator with its default mix (16 Q1-Q8 skeletons at
// N = 2, 4 tenants, Zipf s = 1.1), seeded by --seed, pre-generates a ring
// of requests for each of kSessions sessions. Each session sends its next
// request when the previous one returns: one fresh Optimizer per request
// over one shared concurrent descriptor store and one shared PlanCache with
// param_cache on. Every kUpdateEvery-th timed request first applies a
// statistics update: the next skeleton in a seeded cyclic order has its
// catalog's first class's cardinality doubled or restored, which bumps
// that catalog's epoch and forces its next request to search again.
// Catalog mutation is not thread-safe in the program, so each skeleton's
// catalog sits behind a reader-writer lock: requests read under a shared
// lock, updates write under an exclusive one.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "algebra/param.h"
#include "common/hash.h"
#include "common/rng.h"
#include "cpp/checks.h"
#include "cpp/workloads.h"
#include "volcano/plancache.h"
#include "workload/traffic.h"

namespace perfbench {
namespace {

using prairie::catalog::Catalog;
using prairie::volcano::Optimizer;
using prairie::volcano::OptimizerOptions;
using prairie::volcano::Plan;
using prairie::volcano::PlanCache;
using prairie::volcano::RuleSet;

constexpr int kSessions = 2;
/// One statistics update per kUpdateEvery requests. The rate is a design
/// choice, not a measured production rate: it is set so that cold searches
/// (an update's stale drop plus the duplicates racing it) take about half
/// of the sessions' busy time while staying well under 1% of requests, so
/// both the hit path and search move `qps` and the percentiles up to p99
/// stay on the hit path (the README gives the measured shares).
constexpr uint64_t kUpdateEvery = 3000;
/// Peak RSS is read when the window's request with this ticket is sent,
/// so it reflects a fixed amount of work: the shared descriptor store
/// grows with every search and never shrinks.
constexpr uint64_t kRssAtRequest = 100000;
/// Every kSampleEvery-th request, and the first request on a skeleton
/// after every kSampleUpdateEvery-th update, is kept for re-optimization
/// after the window (each takes a cold search, ~15 ms).
constexpr uint64_t kSampleEvery = 10000;
constexpr uint64_t kSampleUpdateEvery = 4;
/// Serial warm-up passes over the request rings: the first fills the
/// cache, the rest make set-up about 2 s of fixed work, so that set-up time
/// reads the shared host's speed over more than a fraction of a second.
constexpr int kWarmupPasses = 16;
constexpr size_t kRingPerSession = 4096;

struct SkeletonState {
  Catalog base;     ///< The generator's catalog.
  Catalog catalog;  ///< Mutable copy of `base`, the one requests use.
  std::shared_mutex mu;  ///< Shared: requests. Exclusive: updates.
  std::string first_file;
  int64_t base_card = 0;
  bool doubled = false;
  std::atomic<bool> sample_next{false};
};

struct Request {
  int skeleton = 0;
  prairie::algebra::ExprPtr query;
};

struct Sample {
  int skeleton = 0;
  bool after_update = false;
  const prairie::algebra::Expr* query = nullptr;  ///< Owned by the ring.
  Plan served;
  /// The catalog's state when the plan was served: whether its first
  /// class's cardinality stood doubled.
  bool doubled = false;
};

struct Session {
  std::vector<Request> ring;
  size_t next = 0;
  std::vector<double> latencies;
  /// The window second each latency sample completed in (the last one for
  /// requests that complete after the window).
  std::vector<uint16_t> second;
  std::vector<uint64_t> per_second;  ///< Completed in each window second.
  HostSpeed speed;  ///< Probes taken by this session's thread.
  std::vector<Sample> samples;
  /// (skeleton, catalog epoch) of every request that searched.
  std::vector<std::pair<int, uint64_t>> searched;
  uint64_t requests = 0;
  uint64_t failed = 0;
  std::string error;
  LayerReport layers;  ///< Traced run only.
};

class Traffic {
 public:
  Traffic(const RuleSet* rules, uint64_t seed, bool trace)
      : rules_(rules),
        seed_(seed),
        trace_(trace),
        store_(&rules->algebra->properties(),
               prairie::algebra::StoreMode::kConcurrent),
        cache_(&store_) {
    options_.plan_cache = &cache_;
    options_.param_cache = true;
  }

  prairie::common::Status Generate() {
    prairie::workload::TrafficOptions topt;
    topt.seed = seed_;
    PRAIRIE_ASSIGN_OR_RETURN(
        prairie::workload::TrafficGenerator gen,
        prairie::workload::TrafficGenerator::Make(*rules_->algebra, topt));
    for (int i = 0; i < gen.num_skeletons(); ++i) {
      auto sk = std::make_unique<SkeletonState>();
      sk->base = gen.catalog(i);
      sk->catalog = sk->base;
      sk->first_file = sk->catalog.FileNames().front();
      sk->base_card = sk->catalog.Find(sk->first_file)->cardinality();
      skeletons_.push_back(std::move(sk));
      update_order_.push_back(i);
    }
    // Updates visit every skeleton once per cycle, so the searches they
    // force do the same work whatever the seed; the seed sets the order.
    prairie::common::Rng rng(prairie::common::HashCombine(seed_, 0x5eedu));
    for (size_t i = update_order_.size(); i > 1; --i) {
      std::swap(update_order_[i - 1], update_order_[rng.Index(i)]);
    }
    for (int s = 0; s < kSessions; ++s) {
      sessions_[s].ring.reserve(kRingPerSession);
    }
    for (size_t i = 0; i < kRingPerSession * kSessions; ++i) {
      prairie::workload::TrafficRequest r = gen.Next();
      sessions_[i % kSessions].ring.push_back(
          {r.skeleton, std::move(r.query)});
    }
    return prairie::common::Status::OK();
  }

  /// Warm-up: sends every session's request ring kWarmupPasses times,
  /// serially and without updates, so it is a fixed amount of work that
  /// does not depend on how the sessions race.
  void WarmUp() {
    for (int pass = 0; pass < kWarmupPasses; ++pass) {
      for (Session& s : sessions_) {
        for (const Request& r : s.ring) {
          Serve(&s, r);
          warm_speed_.Tick();
        }
      }
    }
  }

  /// Runs every session for `seconds` from `start`, counting the requests
  /// each completes in every second of the window.
  void RunWindow(Clock::time_point start, int seconds) {
    const Clock::time_point deadline = start + std::chrono::seconds(seconds);
    std::vector<std::thread> threads;
    threads.reserve(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([this, s, start, deadline, seconds] {
        Session& session = sessions_[s];
        session.per_second.assign(static_cast<size_t>(seconds), 0);
        Clock::time_point now = Clock::now();
        while (now < deadline) {
          now = Serve(&session,
                      session.ring[session.next++ % session.ring.size()]);
          const int64_t slice = (now - start) / std::chrono::seconds(1);
          if (slice < seconds) ++session.per_second[slice];
          session.second.push_back(
              static_cast<uint16_t>(std::min<int64_t>(slice, seconds - 1)));
          session.speed.Tick();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  /// Forgets what the warm-up recorded (the cache stays warm) and turns
  /// the updates on. Returns the number of warm-up requests that failed.
  uint64_t StartWindow() {
    uint64_t warm_failed = 0;
    for (Session& s : sessions_) {
      warm_failed += s.failed;
      s.latencies.clear();
      s.second.clear();
      s.samples.clear();
      s.searched.clear();
      s.requests = 0;
      s.failed = 0;
      s.layers = LayerReport();
    }
    base_stats_ = cache_.stats();
    tickets_.store(0);
    timed_ = true;
    return warm_failed;
  }

  void ReserveLatencies(size_t per_session) {
    for (Session& s : sessions_) {
      s.latencies.reserve(per_session);
      s.second.reserve(per_session);
    }
  }

  /// Requests sent in the timed window.
  uint64_t sent() const { return tickets_.load(); }
  /// Peak RSS at the kRssAtRequest-th timed request; 0 if not reached.
  double rss_mb() const { return rss_mb_; }
  const PlanCache& cache() const { return cache_; }
  const prairie::volcano::PlanCacheStats& base_stats() const {
    return base_stats_;
  }
  Session* sessions() { return sessions_; }
  /// Probes taken during the serial warm-up.
  const HostSpeed& warm_speed() const { return warm_speed_; }

  /// Re-optimizes every sample without the cache against the catalog it
  /// was served under; the served plan must be the fresh one.
  void Verify(Outcome* out, LayerReport* layers) const {
    size_t checked = 0;
    size_t after_update = 0;
    for (const Session& s : sessions_) {
      for (const Sample& sample : s.samples) {
        const SkeletonState& sk = *skeletons_[sample.skeleton];
        Catalog catalog = sk.base;
        catalog.MutableFile(sk.first_file)
            ->set_cardinality(sk.base_card * (sample.doubled ? 2 : 1));
        Optimizer fresh(rules_, &catalog);
        prairie::common::Result<Plan> plan = fresh.Optimize(*sample.query);
        const std::string where = "skeleton " +
                                  std::to_string(sample.skeleton) +
                                  (sample.after_update ? " (after update)" : "") +
                                  ": ";
        if (!plan.ok()) {
          out->Check(where + "fresh optimization failed: " +
                     plan.status().ToString());
          continue;
        }
        std::string msg = CheckSameCost(sample.served.cost, plan->cost, 1e-9);
        if (!msg.empty()) out->Check(where + "served plan " + msg);
        msg = CheckSamePlan(PlanText(sample.served, *rules_->algebra),
                            PlanText(*plan, *rules_->algebra));
        if (!msg.empty()) out->Check(where + "served " + msg);
        layers->plan_costs.push_back(plan->cost);
        ++checked;
        if (sample.after_update) ++after_update;
      }
    }
    std::fprintf(stderr,
                 "traffic: re-optimized %zu served plans (%zu right after a "
                 "catalog update)\n",
                 checked, after_update);
    if (after_update == 0) {
      out->Check("no served plan right after a catalog update was sampled");
    }
  }

 private:
  /// Update `k`: toggles the first class's cardinality in the k-th
  /// skeleton of the update order between its generated value and twice
  /// that. Each catalog thus has two statistics states.
  void ApplyUpdate(uint64_t k) {
    SkeletonState& sk =
        *skeletons_[update_order_[k % update_order_.size()]];
    std::unique_lock<std::shared_mutex> lock(sk.mu);
    sk.doubled = !sk.doubled;
    sk.catalog.MutableFile(sk.first_file)
        ->set_cardinality(sk.base_card * (sk.doubled ? 2 : 1));
    if (k % kSampleUpdateEvery == 0) {
      sk.sample_next.store(true, std::memory_order_relaxed);
    }
  }

  /// Sends one request; returns the clock reading at its completion.
  Clock::time_point Serve(Session* s, const Request& req) {
    const uint64_t ticket = tickets_.fetch_add(1, std::memory_order_relaxed);
    if (timed_ && ticket % kUpdateEvery == kUpdateEvery - 1) {
      ApplyUpdate(ticket / kUpdateEvery);
    }
    if (timed_ && ticket == kRssAtRequest) rss_mb_ = PeakRssMb();
    SkeletonState& sk = *skeletons_[req.skeleton];
    std::shared_lock<std::shared_mutex> lock(sk.mu);
    if (trace_) {
      const Clock::time_point p0 = Clock::now();
      prairie::algebra::ParameterizedQuery pq =
          prairie::algebra::ParameterizeQuery(*req.query);
      s->layers.parameterize_us.Add(Ms(Clock::now() - p0) * 1e3);
    }
    const Clock::time_point t0 = Clock::now();
    Clock::time_point o0, o1;
    bool from_cache = false;
    prairie::common::Result<Plan> plan =
        prairie::common::Status::OptimizeError("not run");
    {
      Optimizer optimizer(rules_, &sk.catalog, options_, &store_);
      o0 = Clock::now();
      plan = optimizer.Optimize(*req.query);
      o1 = Clock::now();
      from_cache = optimizer.stats().plan_from_cache;
      if (trace_ && plan.ok() && !from_cache) {
        s->layers.work.Add(optimizer.stats());
      }
    }
    const Clock::time_point t1 = Clock::now();
    s->latencies.push_back(Ms(t1 - t0));
    ++s->requests;
    if (!plan.ok()) {
      ++s->failed;
      if (s->error.empty()) s->error = plan.status().ToString();
      return t1;
    }
    if (!from_cache) {
      s->searched.emplace_back(req.skeleton, sk.catalog.version());
    }
    const bool after_update =
        sk.sample_next.load(std::memory_order_relaxed) &&
        sk.sample_next.exchange(false, std::memory_order_relaxed);
    if (after_update || ticket % kSampleEvery == 0) {
      s->samples.push_back(
          {req.skeleton, after_update, req.query.get(), *plan, sk.doubled});
    }
    if (trace_) {
      const double optimize_ms = Ms(o1 - o0);
      s->layers.optimize_ms_interp.Add(optimize_ms);
      s->layers.remainder_ms.Add(Ms(t1 - t0) - optimize_ms);
      if (from_cache) {
        s->layers.hit_us.Add(optimize_ms * 1e3);
      } else {
        s->layers.miss_ms.Add(optimize_ms);
        Optimizer expander(rules_, &sk.catalog);
        const Clock::time_point e0 = Clock::now();
        if (expander.ExpandOnly(*req.query).ok()) {
          const double expand_ms = Ms(Clock::now() - e0);
          s->layers.expand_ms.Add(expand_ms);
          s->layers.implement_cost_ms.Add(optimize_ms - expand_ms);
        }
      }
    }
    return t1;
  }

  const RuleSet* rules_;
  const uint64_t seed_;
  const bool trace_;
  prairie::algebra::DescriptorStore store_;
  PlanCache cache_;
  OptimizerOptions options_;
  std::vector<std::unique_ptr<SkeletonState>> skeletons_;
  std::vector<size_t> update_order_;  ///< Skeletons in update order.
  Session sessions_[kSessions];
  HostSpeed warm_speed_;
  std::atomic<uint64_t> tickets_{0};
  /// Set before the session threads start; no update runs before it.
  bool timed_ = false;
  double rss_mb_ = 0;  ///< Written by the one request that reads it.
  prairie::volcano::PlanCacheStats base_stats_;
};

}  // namespace

Outcome RunTraffic(const RunConfig& config) {
  Outcome out;
  LayerReport layers;
  prairie::common::Result<Deployments> loaded = LoadOodb(/*all_three=*/false);
  if (!loaded.ok()) {
    out.Check("loading the rule set: " + loaded.status().ToString());
    return out;
  }
  layers.dsl_parse_ms = loaded->parse_ms;
  layers.p2v_translate_ms = loaded->translate_ms;

  auto traffic = std::make_unique<Traffic>(loaded->interp.get(), config.seed,
                                           config.trace);
  const Clock::time_point g0 = Clock::now();
  if (prairie::common::Status st = traffic->Generate(); !st.ok()) {
    out.Check("generating the traffic: " + st.ToString());
    return out;
  }
  layers.workload_generate_ms = Ms(Clock::now() - g0);

  const Clock::time_point w0 = Clock::now();
  traffic->WarmUp();
  const double warm_s = Seconds(Clock::now() - w0);
  const uint64_t warm_failed = traffic->StartWindow();
  traffic->ReserveLatencies(static_cast<size_t>(
      1.5 * kWarmupPasses * kRingPerSession * kSessions * config.seconds /
      std::max(warm_s, 1e-3)));

  const Clock::time_point start = Clock::now();
  const double setup_s = CorrectedSeconds(traffic->warm_speed(),
                                          ProcessStart(), start);
  std::fprintf(stderr,
               "traffic: set-up %.3f s (corrected %.3f s), of which "
               "generation %.1f ms and warm-up %.3f s\n",
               Seconds(start - ProcessStart()), setup_s,
               layers.workload_generate_ms, warm_s);
  traffic->RunWindow(start, config.seconds);
  double peak_rss = traffic->rss_mb();
  if (peak_rss == 0) {
    std::fprintf(stderr,
                 "traffic: fewer than %llu requests sent; peak RSS read at "
                 "the end of the window\n",
                 static_cast<unsigned long long>(kRssAtRequest));
    peak_rss = PeakRssMb();
  }

  // Host-speed correction: every latency by the factor of the second it
  // completed in, and each second's request count by its factor.
  HostSpeed speed;
  for (int s = 0; s < kSessions; ++s) speed.Merge(traffic->sessions()[s].speed);
  const std::vector<double> factor = speed.PerSecond(start, config.seconds);
  std::vector<double> latencies;
  std::vector<double> second_qps(static_cast<size_t>(config.seconds), 0);
  std::set<std::pair<int, uint64_t>> distinct_searches;
  uint64_t searched = 0;
  std::string first_error;
  for (int s = 0; s < kSessions; ++s) {
    Session& session = traffic->sessions()[s];
    for (size_t i = 0; i < session.latencies.size(); ++i) {
      latencies.push_back(session.latencies[i] * factor[session.second[i]]);
    }
    for (size_t i = 0; i < second_qps.size(); ++i) {
      second_qps[i] += static_cast<double>(session.per_second[i]) / factor[i];
    }
    out.attempted += session.requests;
    out.failed += session.failed;
    if (first_error.empty()) first_error = session.error;
    for (const auto& key : session.searched) distinct_searches.insert(key);
    searched += session.searched.size();
    const LayerReport& l = session.layers;
    layers.expand_ms.Merge(l.expand_ms);
    layers.implement_cost_ms.Merge(l.implement_cost_ms);
    layers.work.Merge(l.work);
    layers.optimize_ms_interp.Merge(l.optimize_ms_interp);
    layers.hit_us.Merge(l.hit_us);
    layers.parameterize_us.Merge(l.parameterize_us);
    layers.miss_ms.Merge(l.miss_ms);
    layers.remainder_ms.Merge(l.remainder_ms);
  }

  // Checks, outside the timed window.
  out.Check(CheckNoFailures(warm_failed + out.failed, first_error));
  const prairie::volcano::PlanCacheStats stats = traffic->cache().stats();
  const prairie::volcano::PlanCacheStats& base = traffic->base_stats();
  out.Check(CheckRequestTotals(traffic->sent(), stats.hits - base.hits,
                               stats.misses - base.misses));
  traffic->Verify(&out, &layers);

  layers.requests = out.attempted;
  layers.cache_hits = stats.hits - base.hits;
  layers.rebinds = stats.param_hits - base.param_hits;
  layers.searches = stats.misses - base.misses;
  layers.stale_drops = stats.stale_drops - base.stale_drops;
  layers.duplicate_searches = searched - distinct_searches.size();
  layers.cache_bytes = static_cast<double>(traffic->cache().bytes());
  std::fprintf(stderr,
               "traffic: %d sessions, %llu requests, %llu searches (%llu "
               "duplicate), %llu stale drops, hit ratio %.4f\n",
               kSessions, static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(layers.searches),
               static_cast<unsigned long long>(layers.duplicate_searches),
               static_cast<unsigned long long>(layers.stale_drops),
               static_cast<double>(layers.cache_hits) /
                   static_cast<double>(std::max<uint64_t>(1, out.attempted)));

  if (config.trace) {
    layers.AddTo(&out);
  } else {
    AddEndToEnd(&out, setup_s, &second_qps, &latencies, peak_rss);
  }
  return out;
}

}  // namespace perfbench
