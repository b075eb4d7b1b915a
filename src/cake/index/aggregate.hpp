// Online subscription aggregation (ROADMAP item 3; DESIGN.md §13).
//
// The paper exploits covering (Defs. 2–3) at submission time only: A8's
// collapse prunes the *upward* antichain, but a broker's own table still
// holds one index entry per child subscription. `AggregatedIndex` moves the
// covering relation into the table itself: constituent filters are grouped
// under a single *representative* — the least-general upper bound computed
// by `weaken::join_filters` — and only the representative enters the inner
// matching engine. Matching an event touches one entry per *group*, then
// expands to the member ids, so index cost tracks the number of distinct
// interest shapes, not the number of subscriptions (Shi et al.'s
// subscription-aggregation argument, PAPERS.md).
//
// Soundness is one-directional by construction: every representative
// covers every member (join_filters returns a filter covering both inputs,
// and the fold preserves that inductively), so the aggregated match set is
// always a *superset* of the unmerged one — aggregation can cause spurious
// forwards (charged by the trace pipeline, endpoints.cpp) but never a lost
// event. The cost gate below bounds how far a representative may widen, so
// the superset stays close to exact on covering-heavy populations.
//
// Canonical-representative invariant: a group's representative equals the
// left fold of `join_filters` over its member filters *in member order*.
// Two facts keep that cheap to maintain:
//   * when rep already covers the new member, join(rep, f) == rep
//     (relax_join returns the covering side), so absorbing a covered
//     filter is free and leaves the rep bit-identical;
//   * removal re-derives the rep by re-folding the survivors (O(k) joins,
//     k ≤ max_group), so mid-chain expiry un-merges deterministically.
// The invariant makes the structural fixpoint exact and checkable —
// `check_invariants()` recomputes every fold and cross-references members,
// groups, buckets and the inner engine; the un-merge fuzz test drives it.
#pragma once

#include <functional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cake/index/index.hpp"
#include "cake/weaken/weaken.hpp"

namespace cake::index {

/// Groups examined per rebalance() call (the broker runs one call per
/// renew tick) — the incremental re-clustering pass.
inline constexpr std::size_t kRebalanceBudget = 32;

/// Aggregation knobs (BrokerConfig embeds one; disabled by default, in
/// which case brokers build their engine directly and nothing changes).
struct AggregateConfig {
  bool enabled = false;
  /// Constituents one merged entry may absorb. Bounds un-merge cost: a
  /// removal re-folds at most this many joins.
  std::size_t max_group = 64;
  /// Widening budget of the cost gate: a join may weaken or drop at most
  /// this many of either input's constraints, else the candidate is
  /// rejected and the filter starts its own group. 0 = merge only filters
  /// the representative already covers (no widening at all).
  std::size_t max_loss = 1;
  /// Candidate groups examined per insert (most-recently-merged first), and
  /// per group during a rebalance step. Bounds insert cost under churn.
  std::size_t probe_limit = 8;
  /// Test knob: skip representative re-derivation on member removal. The
  /// stale (wider) rep stays sound but breaks the canonical-representative
  /// invariant — proof that the fuzz test's fixpoint check bites.
  bool inject_unmerge_bug = false;
};

/// Aggregation observability (metrics::aggregation_table renders these).
struct AggregateStats {
  std::size_t constituents = 0;  ///< live member filters
  std::size_t groups = 0;        ///< live merged entries (inner-index size)
  std::uint64_t merges = 0;           ///< inserts absorbed into a group
  std::uint64_t widening_merges = 0;  ///< of those, the rep had to widen
  std::uint64_t unmerges = 0;         ///< removals that re-derived a rep
  std::uint64_t group_drops = 0;      ///< groups emptied and retired
  std::uint64_t recluster_merges = 0; ///< group pairs fused by rebalance()
  std::uint64_t rejected = 0;         ///< joins refused by the cost gate

  /// Index entries per subscription — the table-compression headline.
  [[nodiscard]] double entries_per_subscription() const noexcept {
    return constituents == 0 ? 1.0
                             : static_cast<double>(groups) /
                                   static_cast<double>(constituents);
  }
  /// Fraction of live constituents sharing a multi-member entry.
  [[nodiscard]] double merge_ratio() const noexcept {
    return constituents == 0
               ? 0.0
               : 1.0 - static_cast<double>(groups) /
                           static_cast<double>(constituents);
  }
};

/// Covering-based merging façade over a counting index of representatives.
///
/// Outer FilterIds are sequential and never reused (like every other
/// engine), so callers keyed by id — the broker's entry table, the
/// differential tests — see ordinary MatchIndex behaviour; only the inner
/// entry count shrinks. match() takes a shared lock over the inner match
/// and the group-to-member expansion; add()/remove()/rebalance() serialize
/// behind the unique side.
class AggregatedIndex final : public MatchIndex {
public:
  /// A representative entering or leaving the inner engine. `removed` /
  /// `added` are null when the update only creates or only retires a rep;
  /// both set = the rep widened or was re-derived. Pointers are valid only
  /// for the duration of the callback.
  struct GroupUpdate {
    const filter::ConjunctiveFilter* removed = nullptr;
    const filter::ConjunctiveFilter* added = nullptr;
  };
  using Listener = std::function<void(const GroupUpdate&)>;

  explicit AggregatedIndex(AggregateConfig config,
                           const reflect::TypeRegistry& registry =
                               reflect::TypeRegistry::global());

  /// Installs the representative-lifecycle listener (brokers re-advertise
  /// the LUB upward from it). Fired under the writer lock: the callback
  /// must not re-enter this index.
  void set_listener(Listener listener) { listener_ = std::move(listener); }

  using MatchIndex::match;
  FilterId add(filter::ConjunctiveFilter filter) override;
  void remove(FilterId id) override;
  void match(const event::EventImage& image, std::vector<FilterId>& out,
             MatchScratch& scratch) const override;
  /// Live *constituents* — the broker-facing subscription count. The
  /// compressed entry count is stats().groups.
  [[nodiscard]] std::size_t size() const noexcept override;
  [[nodiscard]] const filter::ConjunctiveFilter* find(FilterId id) const noexcept override;

  /// Incremental re-clustering: examines up to `budget` groups (advancing a
  /// persistent cursor) and fuses same-bucket neighbours that pass the cost
  /// gate. Returns the number of group pairs fused. Bounded work per call —
  /// the broker invokes it once per renew tick, so aggregation quality
  /// tracks population drift without ever stalling the event path.
  std::size_t rebalance(std::size_t budget);

  [[nodiscard]] AggregateStats stats() const;

  /// Live representatives (one per group), unordered. What the inner
  /// engine actually holds; brokers advertise these upward.
  [[nodiscard]] std::vector<filter::ConjunctiveFilter> group_reps() const;

  /// Structural fixpoint check (test oracle): recomputes every group's
  /// canonical fold and cross-references members ↔ groups ↔ buckets ↔ the
  /// inner engine. Returns an empty string when everything agrees, else a
  /// description of the first violated invariant.
  [[nodiscard]] std::string check_invariants() const;

private:
  struct Member {
    filter::ConjunctiveFilter filter;
    std::size_t group = 0;
    bool alive = false;
  };
  struct Group {
    filter::ConjunctiveFilter rep;
    FilterId inner_id = 0;
    std::vector<FilterId> members;  // fold order == member order
    std::string bucket;
    bool alive = false;
  };

  /// Probe bucket: event-type constraint + sorted constrained attribute
  /// names. Only filters of one shape compete for the same groups, so the
  /// probe never wastes its budget on unjoinable candidates.
  [[nodiscard]] static std::string signature(const filter::ConjunctiveFilter& f);
  /// Constraints of `g` that `joined` weakened or dropped.
  [[nodiscard]] static std::size_t join_loss(const filter::ConjunctiveFilter& g,
                                             const filter::ConjunctiveFilter& joined);
  /// Cost gate: may `joined` replace `a` ⊔ `b` as one entry?
  [[nodiscard]] bool join_acceptable(const filter::ConjunctiveFilter& a,
                                     const filter::ConjunctiveFilter& b,
                                     const filter::ConjunctiveFilter& joined) const;
  /// Canonical rep: left fold of join_filters over `ids` in order.
  [[nodiscard]] filter::ConjunctiveFilter fold_members(
      const std::vector<FilterId>& ids) const;
  /// Swaps a group's representative in the inner engine and notifies.
  void swap_rep(Group& group, filter::ConjunctiveFilter next);
  void notify(const filter::ConjunctiveFilter* removed,
              const filter::ConjunctiveFilter* added);
  /// Moves `gid` to the front of its bucket (MRU: hot groups probe first).
  void touch(std::size_t gid);
  void drop_group(std::size_t gid);
  /// by_rep_ maintenance: (un)registers a live group under its current rep.
  void link_rep(std::size_t gid);
  void unlink_rep(std::size_t gid);

  const reflect::TypeRegistry& registry_;
  AggregateConfig config_;
  Listener listener_;

  mutable std::shared_mutex mutex_;
  CountingIndex inner_;  // matches the group representatives
  std::vector<Member> members_;  // outer id -> member
  std::vector<Group> groups_;
  std::vector<std::size_t> free_groups_;
  std::unordered_map<std::string, std::vector<std::size_t>> buckets_;
  std::unordered_map<FilterId, std::size_t> by_inner_;  // inner id -> group
  /// Exact-representative fast path: groups keyed by their current rep
  /// (several groups share a rep once a popular shape overflows max_group).
  /// A filter identical to some rep is covered by definition, so duplicate
  /// subscriptions — the bulk of a Zipf-clustered population — route to
  /// their group in O(1) instead of through the bounded MRU probe.
  std::unordered_map<filter::ConjunctiveFilter, std::vector<std::size_t>> by_rep_;
  std::size_t live_ = 0;
  std::size_t live_groups_ = 0;
  std::size_t rebalance_cursor_ = 0;
  AggregateStats stats_;
};

}  // namespace cake::index
