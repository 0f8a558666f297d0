#include "cpp/checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/hash.h"
#include "exec/iterator.h"

namespace perfbench {

using prairie::exec::Row;
using prairie::exec::RowSchema;

namespace {

std::vector<size_t> SortedColumnOrder(const RowSchema& schema) {
  std::vector<size_t> order(schema.attrs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return schema.attrs[a] < schema.attrs[b];
  });
  return order;
}

std::vector<Row> Reordered(const std::vector<Row>& rows,
                           const RowSchema& schema) {
  const std::vector<size_t> order = SortedColumnOrder(schema);
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    Row r;
    r.reserve(order.size());
    for (size_t i : order) r.push_back(row[i]);
    out.push_back(std::move(r));
  }
  return out;
}

// splitmix64's finalizer: spreads a row hash over all 64 bits before it is
// summed, so structured row hashes do not cancel.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string CheckSameCost(double got, double want, double rel_tol) {
  const double scale = std::max({std::fabs(got), std::fabs(want), 1.0});
  if (std::isfinite(got) && std::isfinite(want) &&
      std::fabs(got - want) <= rel_tol * scale) {
    return "";
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "cost %.17g differs from %.17g", got, want);
  return buf;
}

std::string CheckSamePlan(const std::string& got, const std::string& want) {
  if (got == want) return "";
  return "plan differs:\n  got  " + got + "\n  want " + want;
}

std::string CheckSameRows(const std::vector<Row>& got,
                          const RowSchema& got_schema,
                          const std::vector<Row>& want,
                          const RowSchema& want_schema) {
  prairie::algebra::AttrList got_attrs = got_schema.attrs;
  prairie::algebra::AttrList want_attrs = want_schema.attrs;
  std::sort(got_attrs.begin(), got_attrs.end());
  std::sort(want_attrs.begin(), want_attrs.end());
  if (got_attrs != want_attrs) {
    return "result columns (" + got_schema.ToString() +
           ") differ from the reference's (" + want_schema.ToString() + ")";
  }
  if (prairie::exec::SameResult(Reordered(got, got_schema),
                                Reordered(want, want_schema))) {
    return "";
  }
  return "result rows differ from the reference (" +
         std::to_string(got.size()) + " rows vs " +
         std::to_string(want.size()) + ")";
}

std::string CheckRequestTotals(uint64_t sent, uint64_t hits,
                               uint64_t searches) {
  if (sent == hits + searches) return "";
  return "requests sent " + std::to_string(sent) + " != cache hits " +
         std::to_string(hits) + " + searches " + std::to_string(searches);
}

std::string CheckNoFailures(uint64_t failed,
                            const std::string& first_error) {
  if (failed == 0) return "";
  return std::to_string(failed) + " operations failed; the first: " +
         first_error;
}

RowFingerprint::RowFingerprint(const RowSchema& schema)
    : order_(SortedColumnOrder(schema)) {}

void RowFingerprint::Add(const Row& row) {
  uint64_t h = 0x51ed270b27d4a4c1ULL;
  for (size_t i : order_) h = prairie::common::HashCombine(h, row[i].Hash());
  sum_ += Mix(h);
  ++rows_;
}

}  // namespace perfbench
