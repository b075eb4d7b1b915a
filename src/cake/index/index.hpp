// Filter matching engines.
//
// The paper's Fig. 6 evaluates every event against every filter in a
// node's table — kept here as `NaiveTable`, the reference implementation
// and the oracle the tests validate everything against. The paper defers
// "efficient indexing and matching techniques" to related work;
// `CountingIndex` is that technique: filters are decomposed into
// predicates, a hash table keyed by the image's attribute keys and
// per-attribute scan lists find the satisfied predicates for an incoming
// event, and a counting pass reports the filters whose predicate count is
// fully satisfied. Both implement
// `MatchIndex`, so brokers and baselines can switch engines (A4 ablation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cake/filter/filter.hpp"
#include "cake/symbol/symbol.hpp"

namespace cake::index {

/// Stable handle for a filter inside one index.
using FilterId = std::size_t;

/// Per-caller matching state.
///
/// Engines that need working memory during a match — the counting pass of
/// `CountingIndex`, the shard-local id buffer of `ShardedIndex` — draw it
/// from here instead of from shared mutable members, so any number of
/// threads may match() against one index concurrently as long as each
/// passes its own scratch. A scratch is reusable across calls and across
/// indexes (it rebinds itself per index); it must not be shared between
/// threads. Long-lived matchers (brokers, the local bus) keep one per
/// owner/thread so the epoch trick below never has to re-clear.
class MatchScratch {
public:
  MatchScratch() = default;

private:
  friend class CountingIndex;
  friend class ShardedIndex;
  friend class AggregatedIndex;

  /// Predicate-hit counter of one filter, epoch-stamped so a reused
  /// scratch needs no O(filters) clearing between matches.
  struct Tally {
    std::uint64_t stamp = 0;
    std::uint32_t count = 0;
  };
  struct CountingState {
    std::vector<Tally> tallies;
    std::uint64_t epoch = 0;
  };

  /// State for `owner`, grown to cover `filters` entries. Kept per owner
  /// (bounded; reset wholesale past a small cap) so alternating matches
  /// against several indexes — e.g. one per shard — stay O(1) to rebind;
  /// repeated matches against one index skip the map.
  CountingState& counting_for(const void* owner, std::size_t filters) {
    if (owner != last_owner_) rebind(owner);
    if (last_state_->tallies.size() < filters)
      // New tallies get stamp 0; epoch is always ≥ 1 by the time they are
      // read, so they can never alias a live count.
      last_state_->tallies.resize(filters);
    return *last_state_;
  }
  void rebind(const void* owner);

  std::unordered_map<const void*, CountingState> counting_;
  const void* last_owner_ = nullptr;
  CountingState* last_state_ = nullptr;  // counting_[last_owner_]
  std::vector<FilterId> shard_ids_;  // ShardedIndex: inner-id buffer
  std::vector<FilterId> agg_ids_;    // AggregatedIndex: group-rep id buffer
};

/// Incremental many-filters-to-one-event matcher.
///
/// Thread safety: concurrent match() calls against one index are safe when
/// every thread passes its own MatchScratch (the convenience overload uses
/// a thread-local one) — no engine mutates shared state while matching.
/// add() and remove() require external exclusion against everything else;
/// `ShardedIndex` lifts that restriction with internal per-shard locks.
class MatchIndex {
public:
  virtual ~MatchIndex() = default;

  /// Inserts a filter and returns its handle.
  virtual FilterId add(filter::ConjunctiveFilter filter) = 0;

  /// Removes a filter; removing an unknown id is a no-op.
  virtual void remove(FilterId id) = 0;

  /// Appends the ids of all filters matching `image` to `out` (cleared
  /// first), drawing working memory from `scratch`. Must agree exactly
  /// with ConjunctiveFilter::matches.
  virtual void match(const event::EventImage& image, std::vector<FilterId>& out,
                     MatchScratch& scratch) const = 0;

  /// Convenience: match with a per-thread scratch.
  void match(const event::EventImage& image, std::vector<FilterId>& out) const {
    thread_local MatchScratch scratch;
    match(image, out, scratch);
  }

  /// Number of live filters.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// The filter stored under `id` (null if removed/unknown). The pointer
  /// is invalidated by the next add(); do not use it concurrently with
  /// writers.
  [[nodiscard]] virtual const filter::ConjunctiveFilter* find(FilterId id) const noexcept = 0;
};

/// Which single-table engine a broker, peer or baseline server runs: the
/// Fig. 6 reference scan or the counting index. Both need external
/// synchronization for writers; `ShardedIndex` (sharded.hpp) and
/// `AggregatedIndex` (aggregate.hpp) build counting indexes directly.
enum class Engine { Naive, Counting };

/// Factory: builds an engine bound to `registry` for subtype tests.
[[nodiscard]] std::unique_ptr<MatchIndex> make_index(
    Engine engine,
    const reflect::TypeRegistry& registry = reflect::TypeRegistry::global());

/// Fig. 6: linear scan over the filter table.
class NaiveTable final : public MatchIndex {
public:
  explicit NaiveTable(const reflect::TypeRegistry& registry) : registry_(registry) {}

  using MatchIndex::match;
  FilterId add(filter::ConjunctiveFilter filter) override;
  void remove(FilterId id) override;
  void match(const event::EventImage& image, std::vector<FilterId>& out,
             MatchScratch& scratch) const override;
  [[nodiscard]] std::size_t size() const noexcept override { return live_; }
  [[nodiscard]] const filter::ConjunctiveFilter* find(FilterId id) const noexcept override;

private:
  const reflect::TypeRegistry& registry_;
  std::vector<std::optional<filter::ConjunctiveFilter>> slots_;
  std::size_t live_ = 0;
};

/// Predicate-counting matcher. A stage table holds a handful of filters,
/// so a match's cost is its fixed per-call work; the layout keeps that to
/// one pass over the event's attributes (DESIGN.md §9, "Counting index"):
///
///   * `required` counts a filter's attribute predicates only. The type
///     test runs once, when the count completes, from the dense hot array
///     (`{required, type, include_subtypes, alive}` by FilterId); the cold
///     `Entry` holding the whole filter is read by find() alone.
///   * Equality predicates live in one flat open-addressed table keyed by
///     `ImageAttribute::key`, which the image carries from its decode: a
///     probe hashes nothing and a hit is verified by attribute id and
///     `Value ==`. The other operators sit in per-attribute lists reached
///     through an array indexed by the attribute's symbol id.
///   * Filters with no attribute predicate skip counting: accept-all ones
///     in one list, type-only ones in per-type lists.
///   * remove() clears the filter's alive flag; its id leaves the lists
///     once removed ids outnumber live ones (compact()), so a match walks
///     at most twice the live ids and a remove is O(1) amortized.
///
/// Output order (`LocalBus` and `CentralizedServer` run handlers in it):
/// accept-all filters by id; then type-only filters, the exact ones on the
/// event's type by id, then the subtype-inclusive ones rooted at the event's
/// type and at each registered ancestor in turn, nearest first, each by id;
/// then every other filter at the attribute that completes its count, in
/// the image's attribute order, postings before the other operators, each
/// list by id.
class CountingIndex final : public MatchIndex {
public:
  explicit CountingIndex(const reflect::TypeRegistry& registry) : registry_(registry) {}

  using MatchIndex::match;
  FilterId add(filter::ConjunctiveFilter filter) override;
  void remove(FilterId id) override;
  void match(const event::EventImage& image, std::vector<FilterId>& out,
             MatchScratch& scratch) const override;
  [[nodiscard]] std::size_t size() const noexcept override { return live_; }
  [[nodiscard]] const filter::ConjunctiveFilter* find(FilterId id) const noexcept override;

private:
  // Cold: the whole filter, released on remove().
  struct Entry {
    filter::ConjunctiveFilter filter;
  };
  // Hot: everything the counting pass reads of one filter.
  struct Hot {
    std::uint32_t required = 0;  // non-wildcard attribute predicates
    symbol::Id type = 0;         // type-test name; 0 accepts every type
    bool include_subtypes = false;
    bool alive = false;
  };
  // Ids of the filters with (attr == operand), for every operand == to it.
  struct Posting {
    symbol::Id attr = 0;
    value::Value operand;
    std::vector<FilterId> ids;
  };
  // One open-addressed slot: the posting's key beside its index, so a probe
  // touches the posting only on a key hit.
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t posting = kEmptySlot;
  };
  static constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};
  // A presence-requiring predicate other than equality.
  struct Other {
    filter::Op op;
    value::Value operand;
    FilterId id;
  };

  class EventType;
  void bump(FilterId id, const EventType& type, std::vector<FilterId>& out,
            MatchScratch::CountingState& state) const;
  [[nodiscard]] std::uint32_t find_posting(std::uint64_t key, symbol::Id attr,
                                           const value::Value& value) const noexcept;
  std::vector<FilterId>& posting_for(symbol::Id attr, const value::Value& operand);
  void compact();

  const reflect::TypeRegistry& registry_;
  std::vector<Entry> entries_;
  std::vector<Hot> hot_;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;  // removed ids still in the lists
  std::vector<Posting> postings_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  // Attribute symbol id -> 1 + index into others_, 0 for none.
  std::vector<std::uint32_t> others_at_;
  std::vector<std::vector<Other>> others_;
  std::vector<FilterId> accept_all_;
  // Type-only filters, by type-name symbol: exact tests, and
  // subtype-inclusive tests rooted at that type.
  std::unordered_map<symbol::Id, std::vector<FilterId>> exact_type_;
  std::unordered_map<symbol::Id, std::vector<FilterId>> subtree_type_;
};

}  // namespace cake::index
