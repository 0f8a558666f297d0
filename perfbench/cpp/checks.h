// Correctness checks the workloads apply to the program's outputs.
//
// Each check returns an empty string when it passes and a one-line
// description of the mismatch otherwise, so a workload can collect every
// failure before it reports. The checks compare against independent
// computations (another deployment, an exhaustive search, a fresh
// uncached search, the naive reference evaluator) — never against a
// stored copy of earlier output.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/tuple.h"

namespace perfbench {

/// Two plan costs agree to `rel_tol` relative to the larger magnitude.
std::string CheckSameCost(double got, double want, double rel_tol);

/// Two renderings of a plan are identical.
std::string CheckSamePlan(const std::string& got, const std::string& want);

/// Two results are equal as multisets of rows, after both are brought to
/// one column order (attributes sorted), since different plans may lay
/// columns out differently.
std::string CheckSameRows(const std::vector<prairie::exec::Row>& got,
                          const prairie::exec::RowSchema& got_schema,
                          const std::vector<prairie::exec::Row>& want,
                          const prairie::exec::RowSchema& want_schema);

/// Every request the benchmark sent was either served from the plan cache
/// or searched: sent == hits + searches.
std::string CheckRequestTotals(uint64_t sent, uint64_t hits,
                               uint64_t searches);

/// No operation failed. Every workload's inputs are chosen so that each
/// operation succeeds, so one that returned an error (in the warm-up or in
/// the timed window) is a fault, not a skipped measurement.
std::string CheckNoFailures(uint64_t failed,
                            const std::string& first_error);

/// \brief Order-independent fingerprint of a result multiset, computed
/// while rows stream out of an iterator: the row count plus the wrapping
/// sum of a mixed hash of each row's values in sorted-attribute order.
/// Two results with equal multisets of rows have equal fingerprints
/// whatever their row and column order.
class RowFingerprint {
 public:
  explicit RowFingerprint(const prairie::exec::RowSchema& schema);

  void Add(const prairie::exec::Row& row);

  uint64_t rows() const { return rows_; }
  uint64_t sum() const { return sum_; }
  bool operator==(const RowFingerprint& o) const {
    return rows_ == o.rows_ && sum_ == o.sum_;
  }

 private:
  std::vector<size_t> order_;  ///< Column positions in sorted-attr order.
  uint64_t rows_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace perfbench
