#include "volcano/memo.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/hash.h"
#include "common/strings.h"

namespace prairie::volcano {

using common::Result;
using common::Status;

Memo::Memo(const RuleSet* rules, MemoLimits limits,
           algebra::DescriptorStore* shared_store, MemoMode mode)
    : rules_(rules),
      limits_(limits),
      mode_(mode),
      owned_store_(shared_store != nullptr
                       ? nullptr
                       : std::make_unique<algebra::DescriptorStore>(
                             &rules->algebra->properties(),
                             mode == MemoMode::kConcurrent
                                 ? algebra::StoreMode::kConcurrent
                                 : algebra::StoreMode::kSerial)),
      store_(shared_store != nullptr ? shared_store : owned_store_.get()),
      arg_slice_id_(store_->RegisterSlice(rules->ArgSlice())),
      groups_(&arena_),
      parent_(&arena_) {
  assert(store_->schema() == &rules->algebra->properties() &&
         "shared store must use the rule set's property schema");
  assert((mode_ != MemoMode::kConcurrent || store_->concurrent()) &&
         "a concurrent memo needs a concurrent descriptor store");
}

GroupId Memo::Find(GroupId g) const {
  GroupId root = g;
  for (;;) {
    const GroupId p =
        parent_[static_cast<size_t>(root)].load(std::memory_order_acquire);
    if (p == root) break;
    root = p;
  }
  // Path compression. Parent links only ever step toward smaller ids, so a
  // racy CAS that loses simply leaves one extra hop for the next reader.
  while (g != root) {
    GroupId next =
        parent_[static_cast<size_t>(g)].load(std::memory_order_relaxed);
    if (next == root) break;
    parent_[static_cast<size_t>(g)].compare_exchange_weak(
        next, root, std::memory_order_relaxed);
    g = next;
  }
  return root;
}

void Memo::EnsureKey(MExpr& m) {
  if (m.arg_key == algebra::kInvalidDescriptorId) {
    m.arg_key = store_->Project(arg_slice_id_, m.args);
  }
}

uint64_t Memo::KeyOf(const MExpr& m) const {
  uint64_t h = m.is_file ? common::HashMix(0x417e, m.file)
                         : common::HashMix(0x09a1, m.op);
  h = common::HashCombine(h, store_->HashOf(m.arg_key));
  for (GroupId c : m.children) {
    h = common::HashMix(h, static_cast<int64_t>(Find(c)));
  }
  return h;
}

bool Memo::SameExpr(const MExpr& a, const MExpr& b) const {
  if (a.is_file != b.is_file || a.op != b.op || a.file != b.file ||
      a.children.size() != b.children.size()) {
    return false;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (Find(a.children[i]) != Find(b.children[i])) return false;
  }
  // Interned identity: one integer compare instead of a deep slice walk.
  return a.arg_key == b.arg_key;
}

GroupId Memo::FindDup(const IndexShard& sh, uint64_t key,
                      const MExpr& m) const {
  auto [begin, end] = sh.map.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    const GroupId g = Find(it->second.first);
    const Group& grp = groups_[static_cast<size_t>(g)];
    const int idx = it->second.second;
    if (idx < static_cast<int>(grp.exprs.size()) &&
        SameExpr(grp.exprs[static_cast<size_t>(idx)], m)) {
      return g;
    }
  }
  return -1;
}

Result<GroupId> Memo::NewGroupLocked(MExpr m, algebra::DescriptorId desc,
                                     uint64_t key, IndexShard& sh) {
  // Caller holds the shard lock exclusively in concurrent mode; the group
  // table itself has its own append lock.
  std::unique_lock<std::mutex> glock(groups_mu_, std::defer_lock);
  if (concurrent()) glock.lock();
  if (groups_.size() >= limits_.max_groups) {
    return Status::ResourceExhausted(
        "memo group limit reached (" + std::to_string(limits_.max_groups) +
        " groups); the search space exploded");
  }
  const GroupId id = static_cast<GroupId>(groups_.size());
  Group& g = groups_.EmplaceBack(&arena_);
  parent_.EmplaceBack(id);
  g.stream_desc = desc;
  m.applied.EnsureCapacity(static_cast<int>(rules_->trans_rules.size()));
  g.exprs.EmplaceBack(std::move(m));
  if (!concurrent()) LinkParents(id, g.exprs[0]);
  num_exprs_.fetch_add(1, std::memory_order_relaxed);
  tally_.groups_created.fetch_add(1, std::memory_order_relaxed);
  tally_.exprs_inserted.fetch_add(1, std::memory_order_relaxed);
  sh.map.emplace(key, std::make_pair(id, 0));
  return id;
}

Result<GroupId> Memo::GetOrCreateGroupSerial(MExpr m,
                                             algebra::DescriptorId desc) {
  EnsureKey(m);
  const uint64_t key = KeyOf(m);
  IndexShard& sh = shards_[ShardOf(key)];
  const GroupId dup = FindDup(sh, key, m);
  if (dup >= 0) {
    tally_.exprs_deduped.fetch_add(1, std::memory_order_relaxed);
    return dup;
  }
  return NewGroupLocked(std::move(m), desc, key, sh);
}

Result<GroupId> Memo::GetOrCreateGroup(MExpr m, algebra::DescriptorId desc) {
  if (!concurrent()) return GetOrCreateGroupSerial(std::move(m), desc);
  // Inserts hold the merge lock shared so union-find results are stable
  // for the duration of one operation (merges take it exclusively).
  std::shared_lock<std::shared_mutex> ml(merge_mu_);
  EnsureKey(m);
  const uint64_t key = KeyOf(m);
  IndexShard& sh = shards_[ShardOf(key)];
  {
    std::shared_lock<std::shared_mutex> sl(sh.mu);
    const GroupId dup = FindDup(sh, key, m);
    if (dup >= 0) {
      tally_.exprs_deduped.fetch_add(1, std::memory_order_relaxed);
      return dup;
    }
  }
  // Re-probe under the exclusive shard lock: identical expressions hash to
  // the same shard, so this closes the create/create race.
  std::unique_lock<std::shared_mutex> sl(sh.mu);
  const GroupId dup = FindDup(sh, key, m);
  if (dup >= 0) {
    tally_.exprs_deduped.fetch_add(1, std::memory_order_relaxed);
    return dup;
  }
  return NewGroupLocked(std::move(m), desc, key, sh);
}

Result<bool> Memo::AppendExpr(GroupId g, MExpr m, uint64_t key,
                              IndexShard& sh) {
  if (num_exprs_.load(std::memory_order_relaxed) >= limits_.max_exprs) {
    return Status::ResourceExhausted(
        "memo expression limit reached (" + std::to_string(limits_.max_exprs) +
        " expressions); the search space exploded");
  }
  Group& grp = groups_[static_cast<size_t>(g)];
  std::unique_lock<std::mutex> glock(grp.mu, std::defer_lock);
  if (concurrent()) glock.lock();
  const int idx = static_cast<int>(grp.exprs.size());
  // The caller's index probe cannot see a serial group's expressions whose
  // keys went stale in a merge: an identical one may still be here.
  m.twin = !concurrent() && grp.stale_keys && FindLiveCopy(grp, m) >= 0;
  if (m.twin) tally_.exprs_deduped.fetch_add(1, std::memory_order_relaxed);
  if (!concurrent()) LinkParents(g, m);
  m.applied.EnsureCapacity(static_cast<int>(rules_->trans_rules.size()));
  grp.exprs.EmplaceBack(std::move(m));
  num_exprs_.fetch_add(1, std::memory_order_relaxed);
  tally_.exprs_inserted.fetch_add(1, std::memory_order_relaxed);
  sh.map.emplace(key, std::make_pair(g, idx));
  return true;
}

Result<bool> Memo::InsertIntoSerial(GroupId g, MExpr m) {
  g = Find(g);
  EnsureKey(m);
  const uint64_t key = KeyOf(m);
  IndexShard& sh = shards_[ShardOf(key)];
  const GroupId dup = FindDup(sh, key, m);
  if (dup >= 0) {
    tally_.exprs_deduped.fetch_add(1, std::memory_order_relaxed);
    if (dup != g) {
      // The expression proves g and dup equivalent: merge.
      PRAIRIE_RETURN_NOT_OK(Merge(g, dup));
    }
    return false;
  }
  return AppendExpr(g, std::move(m), key, sh);
}

Result<bool> Memo::InsertInto(GroupId g, MExpr m) {
  if (!concurrent()) return InsertIntoSerial(g, std::move(m));
  for (;;) {
    {
      std::shared_lock<std::shared_mutex> ml(merge_mu_);
      g = Find(g);
      EnsureKey(m);
      const uint64_t key = KeyOf(m);
      IndexShard& sh = shards_[ShardOf(key)];
      GroupId dup;
      {
        std::shared_lock<std::shared_mutex> sl(sh.mu);
        dup = FindDup(sh, key, m);
      }
      if (dup == g) {
        tally_.exprs_deduped.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (dup < 0) {
        // Append path: the exclusive shard lock re-probe closes the race
        // against a concurrent insert of the identical expression.
        std::unique_lock<std::shared_mutex> sl(sh.mu);
        const GroupId dup2 = FindDup(sh, key, m);
        if (dup2 == g) {
          tally_.exprs_deduped.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        if (dup2 < 0) return AppendExpr(g, std::move(m), key, sh);
        // An identical expression appeared in another group; fall through
        // to the merge path after releasing the shared merge lock.
      }
    }
    // The expression exists in another group: g and that group are
    // equivalent. Merging needs the merge lock exclusively; re-validate
    // after the upgrade since the world may have changed in between.
    std::unique_lock<std::shared_mutex> ml(merge_mu_);
    g = Find(g);
    const uint64_t key = KeyOf(m);
    IndexShard& sh = shards_[ShardOf(key)];
    // Exclusive merge lock excludes every inserter; no shard lock needed.
    const GroupId dup = FindDup(sh, key, m);
    if (dup < 0) continue;  // It merged away meanwhile; retry the insert.
    tally_.exprs_deduped.fetch_add(1, std::memory_order_relaxed);
    if (dup != g) {
      PRAIRIE_RETURN_NOT_OK(Merge(g, dup));
    }
    return false;
  }
}

Status Memo::Merge(GroupId keep, GroupId lose) {
  // Serial mode: called inline. Concurrent mode: the caller holds
  // merge_mu_ exclusively, so no insert/lookup runs concurrently.
  keep = Find(keep);
  lose = Find(lose);
  if (keep == lose) return Status::OK();
  // Keep the smaller id as representative for stable statistics.
  if (lose < keep) std::swap(keep, lose);
  Group& kg = groups_[static_cast<size_t>(keep)];
  Group& lg = groups_[static_cast<size_t>(lose)];
  parent_[static_cast<size_t>(lose)].store(keep, std::memory_order_release);
  tally_.groups_merged.fetch_add(1, std::memory_order_relaxed);
  // Fold the loser's expressions into the keeper, re-deduplicating. Serial
  // mode moves them and clears the loser (the historical behavior);
  // concurrent mode COPIES and leaves the loser's list intact, so stale
  // readers still holding (group, index) handles into the loser read
  // valid expressions and recover via Find + merge_epoch.
  const size_t n = lg.exprs.size();
  for (size_t i = 0; i < n; ++i) {
    MExpr& m = lg.exprs[i];
    const uint64_t key = KeyOf(m);
    IndexShard& sh = shards_[ShardOf(key)];
    const GroupId dup = FindDup(sh, key, m);
    // The probe misses a serial keeper's copy whose index key went stale:
    // drop `m` as its duplicate and index the copy under the current key.
    const int copy = dup < 0 && !concurrent() && kg.stale_keys
                         ? FindLiveCopy(kg, m)
                         : -1;
    if (copy >= 0) sh.map.emplace(key, std::make_pair(keep, copy));
    if (dup == keep || copy >= 0) {
      num_exprs_.fetch_sub(1, std::memory_order_relaxed);
      tally_.exprs_deduped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const int idx = static_cast<int>(kg.exprs.size());
    if (concurrent()) {
      std::lock_guard<std::mutex> glock(kg.mu);
      kg.exprs.EmplaceBack(m);  // Copy; the loser's slot stays readable.
    } else {
      kg.exprs.EmplaceBack(std::move(m));
    }
    sh.map.emplace(key, std::make_pair(keep, idx));
  }
  if (!concurrent()) {
    lg.exprs.Clear();
    // Expressions of the loser's parent groups now resolve `lose` to
    // `keep`: their index keys are stale, and two of them may have become
    // identical.
    std::vector<GroupId> parents = std::exchange(lg.parents, {});
    kg.parents.insert(kg.parents.end(), parents.begin(), parents.end());
    for (GroupId& p : parents) p = Find(p);
    std::sort(parents.begin(), parents.end());
    parents.erase(std::unique(parents.begin(), parents.end()), parents.end());
    for (GroupId p : parents) {
      Group& pg = groups_[static_cast<size_t>(p)];
      pg.stale_keys = true;
      FlagTwins(pg);
    }
  }
  lg.merged_away.store(true, std::memory_order_release);
  // Winners may no longer be best (new expressions arrived): recompute.
  {
    std::unique_lock<std::mutex> klock(kg.mu, std::defer_lock);
    if (concurrent()) klock.lock();
    kg.winners.clear();
    kg.prov.clear();
  }
  {
    std::unique_lock<std::mutex> llock(lg.mu, std::defer_lock);
    if (concurrent()) llock.lock();
    lg.winners.clear();
    lg.prov.clear();
  }
  kg.expanded.store(false, std::memory_order_release);
  merge_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

void Memo::LinkParents(GroupId g, const MExpr& m) {
  for (GroupId c : m.children) {
    std::vector<GroupId>& ps = groups_[static_cast<size_t>(Find(c))].parents;
    if (ps.empty() || ps.back() != g) ps.push_back(g);
  }
}

int Memo::FindLiveCopy(const Group& grp, const MExpr& m) const {
  for (size_t i = 0; i < grp.exprs.size(); ++i) {
    if (!grp.exprs[i].twin && SameExpr(grp.exprs[i], m)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void Memo::FlagTwins(Group& grp) {
  std::vector<std::pair<uint64_t, uint32_t>> live;  // (key, expr index)
  for (size_t i = 0; i < grp.exprs.size(); ++i) {
    if (!grp.exprs[i].twin) {
      live.emplace_back(KeyOf(grp.exprs[i]), static_cast<uint32_t>(i));
    }
  }
  // Identical expressions share a key; each run of equal keys is in
  // expression order, so a match flags the later one.
  std::sort(live.begin(), live.end());
  for (size_t run = 0; run < live.size();) {
    size_t end = run + 1;
    while (end < live.size() && live[end].first == live[run].first) ++end;
    for (size_t a = run + 1; a < end; ++a) {
      MExpr& m = grp.exprs[live[a].second];
      for (size_t b = run; b < a && !m.twin; ++b) {
        const MExpr& earlier = grp.exprs[live[b].second];
        m.twin = !earlier.twin && SameExpr(earlier, m);
      }
      if (m.twin) tally_.exprs_deduped.fetch_add(1, std::memory_order_relaxed);
    }
    run = end;
  }
}

std::optional<Winner> Memo::FindWinner(GroupId g,
                                       algebra::DescriptorId rid) const {
  const Group& grp = group(g);
  std::unique_lock<std::mutex> lock(grp.mu, std::defer_lock);
  if (concurrent()) lock.lock();
  auto it = grp.winners.find(rid);
  if (it == grp.winners.end()) return std::nullopt;
  return it->second;
}

Winner Memo::StoreWinner(GroupId g, algebra::DescriptorId rid, Winner w,
                         WinnerProv prov) {
  Group& grp = group(g);
  std::unique_lock<std::mutex> lock(grp.mu, std::defer_lock);
  if (concurrent()) lock.lock();
  w.rid = rid;
  auto it = grp.winners.find(rid);
  if (it != grp.winners.end() && concurrent() && it->second.has_plan) {
    // Another worker finished this (group, requirement) first; both
    // searched the same expanded space, so keep the established winner.
    return it->second;
  }
  Winner& slot = grp.winners[rid];
  slot = std::move(w);
  if (slot.has_plan) {
    grp.prov[rid] = std::move(prov);
  } else {
    grp.prov.erase(rid);
  }
  return slot;
}

Result<GroupId> Memo::CopyIn(const algebra::Expr& tree) {
  MExpr m;
  if (tree.is_file()) {
    m.is_file = true;
    m.file = tree.file_name();
    const algebra::DescriptorId d = store_->Intern(tree.descriptor());
    m.args = d;
    return GetOrCreateGroup(std::move(m), d);
  }
  if (rules_->algebra->is_algorithm(tree.op())) {
    return Status::InvalidArgument(
        "input operator trees must be logical; found algorithm '" +
        rules_->algebra->name(tree.op()) + "'");
  }
  m.op = tree.op();
  const algebra::DescriptorId d = store_->Intern(tree.descriptor());
  m.args = d;
  m.children.reserve(tree.num_children());
  for (const algebra::ExprPtr& c : tree.children()) {
    PRAIRIE_ASSIGN_OR_RETURN(GroupId cg, CopyIn(*c));
    m.children.push_back(cg);
  }
  return GetOrCreateGroup(std::move(m), d);
}

size_t Memo::NumGroups() const {
  size_t n = 0;
  const size_t total = groups_.size();
  for (size_t i = 0; i < total; ++i) {
    if (!groups_[i].merged_away.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

size_t Memo::NumExprs() const {
  return num_exprs_.load(std::memory_order_relaxed);
}

MemoTallies Memo::tallies() const {
  MemoTallies t;
  t.groups_created = tally_.groups_created.load(std::memory_order_relaxed);
  t.groups_merged = tally_.groups_merged.load(std::memory_order_relaxed);
  t.exprs_inserted = tally_.exprs_inserted.load(std::memory_order_relaxed);
  t.exprs_deduped = tally_.exprs_deduped.load(std::memory_order_relaxed);
  t.arena_bytes = arena_.bytes_reserved();
  return t;
}

std::string Memo::ToString(const algebra::Algebra& algebra) const {
  std::string out;
  for (size_t i = 0; i < groups_.size(); ++i) {
    const Group& g = groups_[i];
    if (g.merged_away.load(std::memory_order_acquire)) continue;
    out += common::StringPrintf("group %d:\n", static_cast<int>(i));
    for (const MExpr& m : g.exprs) {
      out += "  ";
      if (m.is_file) {
        out += m.file;
      } else {
        out += algebra.name(m.op) + "(";
        std::vector<std::string> parts;
        for (GroupId c : m.children) {
          parts.push_back("g" + std::to_string(Find(c)));
        }
        out += common::Join(parts, ", ") + ")";
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace prairie::volcano
