// Unit tests of the benchmark's own helpers: the order statistics and the
// host-speed correction against hand-computed values, the result line's
// form, and every correctness check against a deliberately corrupted
// input.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cpp/checks.h"
#include "cpp/hostspeed.h"
#include "cpp/report.h"
#include "cpp/stats.h"

namespace perfbench {
namespace {

using prairie::algebra::Attr;
using prairie::exec::Datum;
using prairie::exec::Row;
using prairie::exec::RowSchema;

TEST(Stats, MedianOfEvenAndOddCounts) {
  std::vector<double> odd = {5, 1, 3};
  EXPECT_DOUBLE_EQ(Percentile(&odd, 0.5), 3);
  std::vector<double> even = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(&even, 0.5), 2.5);
}

TEST(Stats, PercentileInterpolatesBetweenOrderStatistics) {
  // h = (n-1)q: for 1..4, q=0.25 gives h=0.75 -> 1 + 0.75*(2-1).
  std::vector<double> x = {3, 1, 4, 2};
  EXPECT_DOUBLE_EQ(Percentile(&x, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Percentile(&x, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(Percentile(&x, 0.0), 1);
  EXPECT_DOUBLE_EQ(Percentile(&x, 1.0), 4);
  // 1..100: p99 has h = 98.01 -> 99 + 0.01*(100-99).
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_NEAR(Percentile(&hundred, 0.99), 99.01, 1e-12);
  EXPECT_DOUBLE_EQ(Percentile(&hundred, 0.5), 50.5);
}

TEST(Stats, PercentileEdgeCases) {
  std::vector<double> empty;
  EXPECT_EQ(Percentile(&empty, 0.5), 0);
  std::vector<double> one = {7};
  EXPECT_EQ(Percentile(&one, 0.99), 7);
  std::vector<double> ties = {2, 2, 2, 9};
  EXPECT_DOUBLE_EQ(Percentile(&ties, 0.5), 2);
}

TEST(Stats, GeoMean) {
  EXPECT_NEAR(GeoMean({1, 100}), 10, 1e-12);
  EXPECT_NEAR(GeoMean({2, 8}), 4, 1e-12);
  EXPECT_EQ(GeoMean({}), 0);
  EXPECT_EQ(GeoMean({3, 0}), 0);
}

Clock::time_point At(Clock::time_point t0, int ms) {
  return t0 + std::chrono::milliseconds(ms);
}

TEST(HostSpeed, FactorIsReferenceOverMedianProbe) {
  const Clock::time_point t0 = Clock::now();
  HostSpeed speed;
  EXPECT_DOUBLE_EQ(speed.Factor(t0, At(t0, 1000)), 1.0);  // no probes
  speed.Record(At(t0, 100), 2 * kProbeRefMs);
  speed.Record(At(t0, 200), 2 * kProbeRefMs);
  speed.Record(At(t0, 300), 4 * kProbeRefMs);
  speed.Record(At(t0, 1500), kProbeRefMs);  // outside [t0, t0 + 1 s)
  EXPECT_DOUBLE_EQ(speed.Factor(t0, At(t0, 1000)), 0.5);
  EXPECT_DOUBLE_EQ(speed.ProbeSeconds(t0, At(t0, 1000)),
                   8 * kProbeRefMs / 1e3);
}

TEST(HostSpeed, SecondWithoutProbesTakesTheWholeSpansFactor) {
  const Clock::time_point t0 = Clock::now();
  HostSpeed a;
  HostSpeed b;
  a.Record(At(t0, 500), kProbeRefMs);       // second 0: factor 1
  b.Record(At(t0, 2500), 3 * kProbeRefMs);  // second 2: factor 1/3
  a.Merge(b);
  const std::vector<double> f = a.PerSecond(t0, 3);
  ASSERT_EQ(f.size(), 3u);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 0.5);  // median of {1, 3} x reference = 2
  EXPECT_DOUBLE_EQ(f[2], 1.0 / 3);
}

TEST(HostSpeed, SerialWindowCorrectsEachOperationBySecond) {
  const Clock::time_point t0 = Clock::now();
  HostSpeed speed;
  speed.Record(At(t0, 400), 2 * kProbeRefMs);  // second 0: factor 0.5
  speed.Record(At(t0, 1400), kProbeRefMs);     // second 1: factor 1
  SerialWindow window(t0);
  window.Add(At(t0, 100), 2.0);
  window.Add(At(t0, 200), 4.0);
  window.EndRound();
  window.Add(At(t0, 1500), 6.0);
  window.EndRound();
  std::vector<double> latencies;
  std::vector<double> qps;
  window.Finish(speed, &latencies, &qps);
  EXPECT_EQ(latencies, (std::vector<double>{1.0, 2.0, 6.0}));
  ASSERT_EQ(qps.size(), 2u);
  EXPECT_DOUBLE_EQ(qps[0], 2 * 1e3 / 3.0);
  EXPECT_DOUBLE_EQ(qps[1], 1e3 / 6.0);
}

TEST(HostSpeed, CorrectedSecondsLeavesOutTheProbes) {
  const Clock::time_point t0 = Clock::now();
  HostSpeed speed;
  speed.Record(At(t0, 500), 2 * kProbeRefMs);
  speed.Record(At(t0, 1500), 2 * kProbeRefMs);
  EXPECT_DOUBLE_EQ(CorrectedSeconds(speed, t0, At(t0, 2000)),
                   (2.0 - 4 * kProbeRefMs / 1e3) * 0.5);
}

TEST(Report, ResultLineHasExactlyTheFourKeys) {
  Outcome o;
  o.attempted = 12;
  o.failed = 1;
  o.Add("latency_p50_ms", 1.25, "ms");
  o.Add("setup_s", 0.5, "s");
  EXPECT_EQ(ResultLine(o),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
            "\"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  EXPECT_TRUE(Passed(o));
}

TEST(Report, ValuesKeepAllTheirDigits) {
  Outcome o;
  o.Add("x", 0.1 + 0.2, "s");
  EXPECT_NE(ResultLine(o).find("0.30000000000000004"), std::string::npos);
}

TEST(Report, FailedCheckOrNonFiniteValueIsNotCorrect) {
  Outcome checked;
  checked.Check("");
  EXPECT_TRUE(Passed(checked));
  checked.Check("cost differs");
  EXPECT_FALSE(Passed(checked));
  EXPECT_EQ(ResultLine(checked).rfind("{\"correct\": false", 0), 0u);

  Outcome nan;
  nan.Add("qps", std::numeric_limits<double>::quiet_NaN(), "1/s");
  EXPECT_FALSE(Passed(nan));
  EXPECT_NE(ResultLine(nan).find("{\"value\": 0,"), std::string::npos);
}

TEST(Checks, CostWithinToleranceAgrees) {
  EXPECT_EQ(CheckSameCost(30356.0, 30356.0, 1e-9), "");
  EXPECT_EQ(CheckSameCost(30356.0 * (1 + 1e-12), 30356.0, 1e-9), "");
}

TEST(Checks, PlanWithADifferentCostFails) {
  const double cost = 188587.36;
  EXPECT_NE(CheckSameCost(cost * (1 + 1e-7), cost, 1e-9), "");
  EXPECT_NE(CheckSameCost(cost + 1, cost, 1e-9), "");
  EXPECT_NE(CheckSameCost(std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::infinity(), 1e-9),
            "");
}

TEST(Checks, DifferentPlanTextFails) {
  EXPECT_EQ(CheckSamePlan("Hash_join(a, b)", "Hash_join(a, b)"), "");
  EXPECT_NE(CheckSamePlan("Hash_join(a, b)", "Hash_join(b, a)"), "");
}

TEST(Checks, MiscountedRequestTotalFails) {
  EXPECT_EQ(CheckRequestTotals(1000, 990, 10), "");
  EXPECT_NE(CheckRequestTotals(1001, 990, 10), "");
  EXPECT_NE(CheckRequestTotals(1000, 990, 9), "");
}

TEST(Checks, AFailedOperationMakesTheRunIncorrect) {
  EXPECT_EQ(CheckNoFailures(0, ""), "");
  Outcome o;
  o.attempted = 282;
  o.failed = 1;
  o.Check(CheckNoFailures(1, "Q3/chain/n2/#11/interp: no plan"));
  EXPECT_FALSE(Passed(o));
  EXPECT_EQ(ResultLine(o).rfind("{\"correct\": false", 0), 0u);
}

RowSchema Schema(std::vector<std::string> names) {
  RowSchema s;
  for (std::string& n : names) s.attrs.push_back(Attr{"C1", n});
  return s;
}

Row IntRow(std::vector<int64_t> values) {
  Row r;
  for (int64_t v : values) r.push_back(Datum::Int(v));
  return r;
}

TEST(Checks, SameRowsInAnotherRowAndColumnOrderAgree) {
  const RowSchema ab = Schema({"a", "b"});
  const RowSchema ba = Schema({"b", "a"});
  const std::vector<Row> got = {IntRow({1, 10}), IntRow({2, 20}),
                                IntRow({2, 20})};
  const std::vector<Row> want = {IntRow({20, 2}), IntRow({10, 1}),
                                 IntRow({20, 2})};
  EXPECT_EQ(CheckSameRows(got, ab, want, ba), "");
}

TEST(Checks, DroppedResultRowFails) {
  const RowSchema ab = Schema({"a", "b"});
  const std::vector<Row> want = {IntRow({1, 10}), IntRow({2, 20}),
                                 IntRow({2, 20})};
  std::vector<Row> got = want;
  got.pop_back();  // one of the duplicate rows is lost
  EXPECT_NE(CheckSameRows(got, ab, want, ab), "");
  EXPECT_NE(CheckSameRows(want, ab, want, Schema({"a", "c"})), "");
}

TEST(Checks, RowFingerprintIsOrderFreeAndSeesADroppedRow) {
  const RowSchema ab = Schema({"a", "b"});
  const RowSchema ba = Schema({"b", "a"});
  const std::vector<Row> rows = {IntRow({1, 10}), IntRow({2, 20}),
                                 IntRow({2, 20}), IntRow({3, 30})};
  RowFingerprint forward(ab);
  for (const Row& r : rows) forward.Add(r);
  RowFingerprint reversed(ba);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    reversed.Add(IntRow({std::get<int64_t>((*it)[1].v),
                         std::get<int64_t>((*it)[0].v)}));
  }
  EXPECT_TRUE(forward == reversed);

  RowFingerprint dropped(ab);
  for (size_t i = 0; i + 1 < rows.size(); ++i) dropped.Add(rows[i]);
  EXPECT_FALSE(forward == dropped);
  // A changed value with the same row count is seen too.
  RowFingerprint changed(ab);
  for (size_t i = 0; i + 1 < rows.size(); ++i) changed.Add(rows[i]);
  changed.Add(IntRow({3, 31}));
  EXPECT_EQ(changed.rows(), forward.rows());
  EXPECT_FALSE(forward == changed);
}

}  // namespace
}  // namespace perfbench
