// The memo: equivalence classes of logical multi-expressions (the paper's
// Figure 14 counts these classes).
//
// Groups are identified by GroupId with union-find indirection: when a
// transformation produces, as the root of some group g, an expression that
// already exists in another group h, the two groups are provably
// equivalent and are merged. Expression identity is (operation,
// argument-property slice of the descriptor, child groups); physical and
// cost properties are excluded, as in Volcano.
//
// Descriptors are hash-consed: the memo owns a DescriptorStore and every
// expression/stream/requirement descriptor is a dense DescriptorId with
// id-equality <=> value-equality. Expression identity compares the interned
// argument-slice id (one integer), and winner tables key on the interned
// requirement id directly — no stored-descriptor collision guard.
//
// Storage model: groups and each group's expression list live in
// arena-backed StableVectors — append-only chunk ladders whose elements
// never move. That is what makes MemoMode::kConcurrent possible (readers
// hold references across concurrent inserts) and what keeps the serial
// mode's allocation profile flat: the 1995 paper's virtual-memory wall at
// 8-way joins was allocator churn as much as search-space size.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/descriptor_store.h"
#include "algebra/expr.h"
#include "common/arena.h"
#include "common/small_bitset.h"
#include "volcano/plan.h"
#include "volcano/rules.h"

namespace prairie::volcano {

/// \brief A logical multi-expression stored in a group.
struct MExpr {
  bool is_file = false;
  /// Serial memos only: this expression is identical (operator, arg_key,
  /// children under Find) to an earlier expression of its own group. A
  /// merge makes such twins when it unites two child groups of one parent
  /// group; the memo flags them (Merge and append) and the engine neither
  /// expands, binds, nor implements them — the earlier copy covers the
  /// same bindings and plans. Twins stay in the group, so dumps and
  /// expression counts are unchanged. DESIGN.md §6.2.
  bool twin = false;
  algebra::OpId op = -1;
  std::string file;
  /// Full descriptor of this node (interned).
  algebra::DescriptorId args = algebra::kInvalidDescriptorId;
  /// Interned argument-slice projection of `args`: the identity carrier.
  /// Filled lazily by the memo on insert; equal ids <=> equal arg slices.
  algebra::DescriptorId arg_key = algebra::kInvalidDescriptorId;
  std::vector<GroupId> children;   ///< Child groups (canonicalized on use).
  /// TransRules already applied here. Atomic words so concurrent readers
  /// and writers race cleanly, but NOT a claim primitive: the engine
  /// tests the bit, applies the rule, and only then sets it, so two
  /// workers can redundantly apply the same rule to the same expression
  /// (memo dedup makes that idempotent). The deferred Set is deliberate —
  /// a pass that saw a child group mid-expansion leaves the bit clear so
  /// a later pass redoes the application, which an eager test-and-set
  /// claim could not express. The memo sizes the bitset to the rule count
  /// before publishing the expression.
  common::AtomicBitset applied;
  /// Provenance (observability): the trans rule that created this
  /// expression (-1: copied in from the input query), and the memo
  /// identity key (arg_key) of the source expression the rewrite matched
  /// (invalid for RHS subtree expressions, which have no single source).
  /// The source lives in the same group; resolve by scanning for its
  /// arg_key — indexes go stale under merges, interned keys do not.
  int src_rule = -1;
  algebra::DescriptorId src_arg_key = algebra::kInvalidDescriptorId;
};

/// \brief Memoized result of optimizing a group under one requirement.
///
/// Keyed by the interned requirement id, so no collision guard is stored.
struct Winner {
  bool has_plan = false;
  double cost = 0;
  PhysNodeRef plan;
  /// When >= 0: the search failed under this cost limit; a retry is only
  /// worthwhile with a larger limit.
  double failed_limit = -1;
  /// The interned requirement id this winner is memoized under (its own
  /// key in Group::winners) — lets callers chain provenance without
  /// re-interning the requirement.
  algebra::DescriptorId rid = algebra::kInvalidDescriptorId;
};

/// \brief Provenance of a memoized winner (observability): why the chosen
/// plan exists. Stored beside Group::winners under the same key so the
/// hot search path never copies it (Winner values travel by value; this
/// does not).
struct WinnerProv {
  int impl_rule = -1;  ///< Index into RuleSet::impl_rules, or -1.
  int enforcer = -1;   ///< Index into RuleSet::enforcers, or -1.
  /// arg_key (memo identity) of the implemented logical expression;
  /// invalid for stored-file winners.
  algebra::DescriptorId src_arg_key = algebra::kInvalidDescriptorId;
  /// Child groups of the implemented expression: arg_key alone is
  /// ambiguous when two expressions differ only in child order (e.g. a
  /// commuted join whose rewrite reuses the argument slice).
  std::vector<GroupId> src_children;
  /// (child group, interned requirement id) of each optimized input — the
  /// winner-table keys to continue the provenance walk downward.
  std::vector<std::pair<GroupId, algebra::DescriptorId>> child_keys;
};

/// \brief One equivalence class. Expressions live in a StableVector:
/// appended under the group lock (concurrent mode), read lock-free.
/// Groups are neither copyable nor movable — they are constructed in place
/// in the memo's stable group table and never relocate.
struct Group {
  explicit Group(common::Arena* arena) : exprs(arena) {}
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  common::StableVector<MExpr> exprs;
  /// Logical annotations of the stream this class produces (used to bind
  /// rule input descriptors D1..Dk). Interned.
  algebra::DescriptorId stream_desc = algebra::kInvalidDescriptorId;
  std::atomic<bool> expanded{false};
  std::atomic<bool> expanding{false};
  std::atomic<bool> merged_away{false};
  /// Key: interned id of the physical-slice requirement descriptor.
  /// Accessed through Memo::FindWinner/StoreWinner on the hot path (which
  /// take `mu` in concurrent mode); direct access is reserved for
  /// quiescent readers (inspector dumps, provenance walks after search).
  std::unordered_map<algebra::DescriptorId, Winner> winners;
  /// Winner provenance, same key as `winners`; entries exist only for
  /// winners that carry a plan. Cleared together with `winners` on merge.
  std::unordered_map<algebra::DescriptorId, WinnerProv> prov;
  /// Serial memos only: ids of the groups holding an expression with a
  /// child in this group (raw ids, possibly repeated; resolve with Find).
  /// A merge walks the merged-away group's list to find the parents whose
  /// expressions may have become twins.
  std::vector<GroupId> parents;
  /// Serial memos only: some expression here was indexed before one of its
  /// child groups merged, so its index key is stale and an insert's index
  /// probe can miss it. Appends to such a group check it for a twin.
  bool stale_keys = false;
  /// Guards expression appends and the winner tables in concurrent mode.
  mutable std::mutex mu;
};

/// \brief Limits protecting against search-space explosion (the paper hit
/// virtual-memory exhaustion at 8-way joins in 1994; we fail cleanly).
/// Hitting one is an error (ResourceExhausted) — for graceful degradation
/// use the engine's anytime budgets (OptimizerOptions::search_budget_ms /
/// group_budget) instead.
struct MemoLimits {
  size_t max_groups = 2'000'000;
  size_t max_exprs = 8'000'000;
};

/// \brief Structural tallies of one memo (observability), snapshotted by
/// Memo::tallies(). The memo maintains these as relaxed atomics so
/// concurrent workers can bump them without contention; the engine flushes
/// deltas into the process-wide metrics registry at the end of each query.
struct MemoTallies {
  uint64_t groups_created = 0;   ///< NewGroup calls.
  uint64_t groups_merged = 0;    ///< Equivalence merges performed.
  uint64_t exprs_inserted = 0;   ///< Multi-expressions actually added.
  /// Inserts resolved to an existing expr, plus expressions flagged as
  /// twins (MExpr::twin) of an earlier expression of their group.
  uint64_t exprs_deduped = 0;
  uint64_t arena_bytes = 0;      ///< Arena bytes backing groups + exprs.
};

/// \brief Threading contract of one memo.
enum class MemoMode {
  /// Single-threaded owner; no locking at all (the historical behavior,
  /// byte-identical search results and dumps).
  kSerial,
  /// Shared by intra-query search workers: sharded expression index,
  /// per-group locks for appends and winner tables, lock-free union-find
  /// reads, merges serialized behind an exclusive merge lock. Mirrors
  /// StoreMode::kConcurrent in the DescriptorStore.
  kConcurrent,
};

/// \brief The memo structure.
///
/// In MemoMode::kSerial a memo is single-threaded, exactly as before. In
/// MemoMode::kConcurrent one memo is shared by the parallel search's
/// workers: InsertInto / GetOrCreateGroup / Find / FindWinner /
/// StoreWinner are safe to call concurrently. For parallel BATCH
/// optimization (across queries), several serial memos may still share one
/// concurrent DescriptorStore so descriptor ids stay globally canonical.
class Memo {
 public:
  /// `shared_store` null: the memo owns a private store (serial for
  /// MemoMode::kSerial, concurrent for MemoMode::kConcurrent). Non-null:
  /// the memo interns through `shared_store` (which must outlive it, use
  /// the rule set's schema and, when other threads share it, be in
  /// StoreMode::kConcurrent).
  Memo(const RuleSet* rules, MemoLimits limits,
       algebra::DescriptorStore* shared_store = nullptr,
       MemoMode mode = MemoMode::kSerial);

  MemoMode mode() const { return mode_; }
  bool concurrent() const { return mode_ == MemoMode::kConcurrent; }

  /// The descriptor store backing every id in this memo. The engine and
  /// rule callbacks intern through this store so ids are comparable.
  algebra::DescriptorStore* store() { return store_; }
  const algebra::DescriptorStore* store() const { return store_; }

  /// Canonical (union-find) representative of `g`. Lock-free: parent
  /// links only ever step toward smaller ids, so racy path compression is
  /// benign.
  GroupId Find(GroupId g) const;

  /// The canonical group of `g`. References stay valid forever (stable
  /// storage); under concurrent merges the REPRESENTATIVE may change, so
  /// long-running loops re-Find (as the serial engine already does).
  Group& group(GroupId g) { return groups_[static_cast<size_t>(Find(g))]; }
  const Group& group(GroupId g) const {
    return groups_[static_cast<size_t>(Find(g))];
  }

  /// The group stored at exactly `g` (no union-find indirection) — a
  /// stable handle for enumerations that must survive merges: a merged
  /// loser's expressions remain readable in concurrent mode.
  Group& raw_group(GroupId g) { return groups_[static_cast<size_t>(g)]; }
  const Group& raw_group(GroupId g) const {
    return groups_[static_cast<size_t>(g)];
  }

  /// Copies a logical operator tree into the memo; returns the root group.
  /// Interior nodes must be abstract operators of the rule set's algebra.
  common::Result<GroupId> CopyIn(const algebra::Expr& tree);

  /// Finds the group already containing an expression identical to `m`, or
  /// creates a new group for it. `desc` (interned) seeds a new group's
  /// stream descriptor.
  common::Result<GroupId> GetOrCreateGroup(MExpr m, algebra::DescriptorId desc);

  /// Inserts `m` as a new expression of group `g`. If an identical
  /// expression lives in another group, the groups are merged. Returns
  /// true if a new expression was actually added somewhere.
  common::Result<bool> InsertInto(GroupId g, MExpr m);

  /// The memoized winner of (group, interned requirement), if any. Takes
  /// the group lock in concurrent mode; the returned Winner is a copy.
  std::optional<Winner> FindWinner(GroupId g, algebra::DescriptorId rid) const;

  /// Memoizes `w` (and its provenance, when it has a plan) for
  /// (group, rid). First writer wins: if a winner is already present —
  /// another worker finished the same (group, requirement) search first —
  /// the existing entry is kept. Returns the stored winner.
  Winner StoreWinner(GroupId g, algebra::DescriptorId rid, Winner w,
                     WinnerProv prov);

  /// Number of live (representative) groups — the paper's "equivalence
  /// classes".
  size_t NumGroups() const;

  /// Total logical multi-expressions across live groups.
  size_t NumExprs() const;

  /// Bumps on every merge; long-running loops over a group's expressions
  /// restart when they observe a change.
  uint64_t merge_epoch() const {
    return merge_epoch_.load(std::memory_order_acquire);
  }

  size_t allocated_groups() const {
    return groups_.size();
  }

  /// Snapshot of the structural tallies since construction (groups
  /// created/merged, exprs inserted/deduped, arena bytes).
  MemoTallies tallies() const;

  /// Bytes of arena-backed storage (group table + expression lists).
  size_t arena_bytes() const { return arena_.bytes_reserved(); }

  std::string ToString(const algebra::Algebra& algebra) const;

 private:
  struct IndexShard {
    mutable std::shared_mutex mu;
    /// key -> (group, expr index) for duplicate detection.
    std::unordered_multimap<uint64_t, std::pair<GroupId, int>> map;
  };
  static constexpr size_t kNumShards = 16;
  static size_t ShardOf(uint64_t h) { return (h >> 56) & (kNumShards - 1); }

  /// Fills m.arg_key (the interned identity projection) if unset.
  void EnsureKey(MExpr& m);
  uint64_t KeyOf(const MExpr& m) const;
  bool SameExpr(const MExpr& a, const MExpr& b) const;
  /// Probes shard `sh` for an expression identical to `m`; returns the
  /// canonical group holding it, or -1. Caller holds the shard lock (any
  /// flavor) in concurrent mode.
  GroupId FindDup(const IndexShard& sh, uint64_t key, const MExpr& m) const;
  common::Status Merge(GroupId keep, GroupId lose);
  /// Serial mode: records canonical group `g` as a parent of each of
  /// `m`'s child groups.
  void LinkParents(GroupId g, const MExpr& m);
  /// Serial mode: index of the non-twin expression of `grp` identical to
  /// `m`, or -1 (a linear scan, for groups whose index keys went stale).
  int FindLiveCopy(const Group& grp, const MExpr& m) const;
  /// Serial mode: flags every expression of `grp` identical to an earlier
  /// live one (after a merge changed what its children resolve to).
  void FlagTwins(Group& grp);
  common::Result<GroupId> NewGroupLocked(MExpr m, algebra::DescriptorId desc,
                                         uint64_t key, IndexShard& sh);
  /// Serial fast paths (no locks, original algorithm).
  common::Result<GroupId> GetOrCreateGroupSerial(MExpr m,
                                                 algebra::DescriptorId desc);
  common::Result<bool> InsertIntoSerial(GroupId g, MExpr m);
  /// Appends `m` to canonical group `g` and indexes it. Caller holds the
  /// needed locks (shard + group) in concurrent mode.
  common::Result<bool> AppendExpr(GroupId g, MExpr m, uint64_t key,
                                  IndexShard& sh);

  const RuleSet* rules_;
  MemoLimits limits_;
  const MemoMode mode_;
  /// Set when the memo owns its store (no shared store was supplied).
  std::unique_ptr<algebra::DescriptorStore> owned_store_;
  algebra::DescriptorStore* store_;
  algebra::SliceId arg_slice_id_;

  /// Arena backing the group table, every group's expression list and the
  /// union-find parent array. Never shrinks; dies with the memo.
  common::Arena arena_;
  common::StableVector<Group> groups_;
  mutable common::StableVector<std::atomic<GroupId>> parent_;
  /// Guards group-table appends (NewGroup) in concurrent mode.
  std::mutex groups_mu_;
  /// Merges are rare and global: they take this exclusively; inserts and
  /// group creation hold it shared so union-find results stay stable
  /// inside one operation.
  mutable std::shared_mutex merge_mu_;
  IndexShard shards_[kNumShards];

  std::atomic<size_t> num_exprs_{0};
  std::atomic<uint64_t> merge_epoch_{0};
  struct {
    std::atomic<uint64_t> groups_created{0};
    std::atomic<uint64_t> groups_merged{0};
    std::atomic<uint64_t> exprs_inserted{0};
    std::atomic<uint64_t> exprs_deduped{0};
  } tally_;
};

}  // namespace prairie::volcano
