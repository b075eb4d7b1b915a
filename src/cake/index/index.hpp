// Filter matching engines.
//
// The paper's Fig. 6 evaluates every event against every filter in a
// node's table — kept here as `NaiveTable`, the reference implementation
// and the oracle the tests validate everything against. The paper defers
// "efficient indexing and matching techniques" to related work;
// `CountingIndex` is that technique: filters are decomposed into
// predicates, per-attribute hash/scan indexes find the satisfied
// predicates for an incoming event, and a counting pass reports the
// filters whose predicate count is fully satisfied. Both implement
// `MatchIndex`, so brokers and baselines can switch engines (A4 ablation).
#pragma once

#include <cstddef>
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

  /// Predicate-hit counters for one counting index, epoch-stamped so a
  /// reused scratch needs no O(filters) clearing between matches.
  struct CountingState {
    std::vector<std::size_t> counts;
    std::vector<std::uint64_t> stamps;
    std::uint64_t epoch = 0;
  };

  /// State for `owner`, grown to cover `filters` entries. Kept per owner
  /// (bounded; reset wholesale past a small cap) so alternating matches
  /// against several indexes — e.g. one per shard — stay O(1) to rebind.
  CountingState& counting_for(const void* owner, std::size_t filters);

  std::unordered_map<const void*, CountingState> counting_;
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

/// Predicate-counting matcher with per-attribute hash indexes for equality
/// constraints and per-attribute scan lists for the rest.
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
  struct Entry {
    filter::ConjunctiveFilter filter;
    std::size_t required = 0;  // non-trivial predicates incl. type test
    bool alive = true;
  };
  struct AttrIndex {
    // value -> filter ids with (attr == value)
    std::unordered_map<value::Value, std::vector<FilterId>> equals;
    // all other presence-requiring constraints on this attribute
    std::vector<std::pair<filter::AttributeConstraint, FilterId>> other;
  };

  static void bump(const Entry& entry, FilterId id, std::vector<FilterId>& out,
                   MatchScratch::CountingState& state);

  const reflect::TypeRegistry& registry_;
  std::vector<Entry> entries_;
  std::size_t live_ = 0;
  // All three tables key by interned symbol id: the match loop hashes one
  // u32 per attribute instead of a string (DESIGN.md §9).
  std::unordered_map<symbol::Id, AttrIndex> by_attribute_;
  // type-name symbol -> ids of filters with an exact type test on it
  std::unordered_map<symbol::Id, std::vector<FilterId>> exact_type_;
  // type-name symbol -> ids of subtype-inclusive filters rooted at it
  std::unordered_map<symbol::Id, std::vector<FilterId>> subtree_type_;
};

}  // namespace cake::index
