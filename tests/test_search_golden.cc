// Plan-identity and work-count goldens for the OODB optimizer in all three
// deployments (interpreted P2V, emitted C++, hand-coded Volcano).
//
// The sweep covers Q1..Q8 on chain join graphs at N = 1..3 (Q7/Q8 only up
// to N = 2) and on star and clique graphs at N = 2, for seeds 1 and 2.
//   - search_plans.txt: the winning plan tree and cost of every case. It
//     must stay byte-identical: a search-work optimization may not change
//     any plan.
//   - search_counts.txt: the exact OptimizerStats work counts of every
//     case. No count may rise above its recorded value; a change that cuts
//     work regenerates the file on purpose (PRAIRIE_REGEN_GOLDEN=1) and
//     shows the drop in review.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "golden.h"
#include "optimizers/oodb.h"
#include "optimizers/props.h"
#include "optimizers/volcano_hand.h"
#include "p2v/translator.h"
#include "volcano/engine.h"
#include "workload/workload.h"

namespace prairie_generated {
prairie::common::Result<std::shared_ptr<prairie::volcano::RuleSet>>
BuildOodbEmitted(std::shared_ptr<prairie::core::HelperRegistry>);
}  // namespace prairie_generated

namespace prairie {
namespace {

struct Deployment {
  const char* name;
  std::shared_ptr<volcano::RuleSet> rules;
};

std::vector<Deployment> Deployments() {
  std::vector<Deployment> out;
  auto spec = opt::BuildOodbPrairie();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  auto interp = p2v::Translate(*spec, nullptr);
  EXPECT_TRUE(interp.ok()) << interp.status().ToString();
  out.push_back({"interpreted", *interp});
  auto emitted = prairie_generated::BuildOodbEmitted(opt::StandardHelpers());
  EXPECT_TRUE(emitted.ok()) << emitted.status().ToString();
  out.push_back({"emitted", *emitted});
  auto hand = opt::BuildOodbVolcano();
  EXPECT_TRUE(hand.ok()) << hand.status().ToString();
  out.push_back({"hand", *hand});
  return out;
}

struct Case {
  int query;
  workload::JoinShape shape;
  const char* shape_name;
  int joins;
  uint64_t seed;
};

std::vector<Case> Sweep() {
  std::vector<Case> out;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    for (int q = 1; q <= 8; ++q) {
      for (int n = 1; n <= (q >= 7 ? 2 : 3); ++n) {
        out.push_back({q, workload::JoinShape::kChain, "chain", n, seed});
      }
      out.push_back({q, workload::JoinShape::kStar, "star", 2, seed});
      out.push_back({q, workload::JoinShape::kClique, "clique", 2, seed});
    }
  }
  return out;
}

/// The counts gated by search_counts.txt, in file column order.
constexpr const char* kCountNames[] = {"trans_attempts", "trans_fired",
                                       "impl_attempts",  "plans_costed",
                                       "groups",         "mexprs"};

std::vector<size_t> CountsOf(const volcano::OptimizerStats& s) {
  return {s.trans_attempts, s.trans_fired, s.impl_attempts,
          s.plans_costed,   s.groups,      s.mexprs};
}

/// Parses search_counts.txt: "# header" lines, then "<case> <counts...>".
std::map<std::string, std::vector<size_t>> ParseCounts(
    const std::string& text) {
  std::map<std::string, std::vector<size_t>> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    std::vector<size_t> counts;
    for (size_t v; fields >> v;) counts.push_back(v);
    out[key] = std::move(counts);
  }
  return out;
}

TEST(SearchGolden, PlansIdenticalAndWorkNeverRises) {
  std::string plans;
  std::string counts = "# case";
  for (const char* name : kCountNames) counts += std::string(" ") + name;
  counts += "\n";
  std::map<std::string, std::vector<size_t>> got;
  for (const Deployment& d : Deployments()) {
    ASSERT_NE(d.rules, nullptr);
    for (const Case& c : Sweep()) {
      workload::QuerySpec spec = workload::PaperQuery(c.query, c.joins, c.seed);
      spec.shape = c.shape;
      auto w = workload::MakeWorkload(*d.rules->algebra, spec);
      ASSERT_TRUE(w.ok()) << w.status().ToString();
      volcano::Optimizer o(d.rules.get(), &w->catalog);
      auto plan = o.Optimize(*w->query);
      const std::string key = common::StringPrintf(
          "Q%d/%s/N%d/seed%d/%s", c.query, c.shape_name, c.joins,
          static_cast<int>(c.seed), d.name);
      ASSERT_TRUE(plan.ok()) << key << ": " << plan.status().ToString();
      plans += common::StringPrintf("## %s cost %.12g\n", key.c_str(),
                                    plan->cost) +
               plan->root->TreeString(*d.rules->algebra) + "\n";
      got[key] = CountsOf(o.stats());
      counts += key;
      for (size_t v : got[key]) counts += " " + std::to_string(v);
      counts += "\n";
    }
  }
  golden::Check(plans, "search_plans.txt");
  if (golden::Regen()) {
    golden::Write(counts, "search_counts.txt");
    return;
  }
  const std::optional<std::string> text = golden::Read("search_counts.txt");
  ASSERT_TRUE(text.has_value())
      << "missing " << golden::Path("search_counts.txt");
  const std::map<std::string, std::vector<size_t>> want = ParseCounts(*text);
  EXPECT_EQ(want.size(), got.size()) << "the recorded sweep differs";
  for (const auto& [key, counts_now] : got) {
    auto it = want.find(key);
    ASSERT_NE(it, want.end()) << key << " is not recorded";
    ASSERT_EQ(it->second.size(), counts_now.size()) << key;
    for (size_t i = 0; i < counts_now.size(); ++i) {
      EXPECT_LE(counts_now[i], it->second[i])
          << key << ": " << kCountNames[i] << " rose above its recorded value";
    }
  }
}

}  // namespace
}  // namespace prairie
