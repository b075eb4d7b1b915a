// Concurrent sharded matching engine.
//
// The paper's first filtering stage is type-based: an event is an instance
// of exactly one class, so only filters naming that class (or a supertype)
// can match it. `ShardedIndex` turns that observation into a concurrency
// structure: the filter population is partitioned by event class name into
// N shards, each running its own counting index behind its own
// reader–writer lock. A match consults exactly one shard — the one the
// event's class hashes to — under a *shared* lock, so:
//
//   * matchers on distinct event classes never touch the same lock word
//     (beyond the hash collisions of class → shard);
//   * matchers on the same class proceed concurrently, because the
//     counting index draws its state from the caller's MatchScratch
//     rather than from shared mutable members;
//   * add/remove take the writer side of only the affected shard(s), so
//     subscription churn on one event class never stalls matching on
//     another.
//
// Filters that cannot be pinned to one class — an accept-all type test, or
// a subtype-inclusive test (whose concrete matching classes are open: new
// subtypes may be registered later) — are *replicated* into every shard.
// That keeps the routing invariant trivially sound and complete: every
// filter that could match an event of class C is present in shard(C), and
// each shard's index matches the full filter, so replicas never produce
// false positives. The cost is one insert per shard for broad filters —
// the same trade Shi et al. make for predicate-sharded aggregation, and a
// good one under the paper's workloads, where almost all subscriptions
// name a concrete class.
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "cake/index/index.hpp"

namespace cake::index {

/// One shard's observability counters (metrics::shard_imbalance scores them).
struct ShardStats {
  std::size_t shard = 0;
  std::uint64_t matches = 0;  ///< match() calls routed here
  std::uint64_t hits = 0;     ///< of those, events matching ≥ 1 filter
  std::size_t filters = 0;    ///< live filters (broad ones count in every shard)
};

class ShardedIndex final : public MatchIndex {
public:
  /// Every shard runs a `CountingIndex`. `shards` is rounded up to a power
  /// of two; 0 sizes the table to the hardware: the next power of two ≥
  /// the core count, clamped to [4, 64].
  explicit ShardedIndex(const reflect::TypeRegistry& registry =
                            reflect::TypeRegistry::global(),
                        std::size_t shards = 0);

  using MatchIndex::match;
  FilterId add(filter::ConjunctiveFilter filter) override;
  void remove(FilterId id) override;
  void match(const event::EventImage& image, std::vector<FilterId>& out,
             MatchScratch& scratch) const override;
  [[nodiscard]] std::size_t size() const noexcept override {
    return live_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const filter::ConjunctiveFilter* find(FilterId id) const noexcept override;

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  /// The shard an event of class `type_name` is matched against.
  [[nodiscard]] std::size_t shard_of(std::string_view type_name) const noexcept {
    return std::hash<std::string_view>{}(type_name) & (shards_.size() - 1);
  }

  /// Snapshot of every shard's counters, shard order.
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;

private:
  struct alignas(64) Shard {  // own cache line: rwlock + counters stay private
    mutable std::shared_mutex mutex;
    std::unique_ptr<CountingIndex> inner;
    std::vector<FilterId> to_outer;  // inner id -> outer id
    mutable std::atomic<std::uint64_t> matches{0};
    mutable std::atomic<std::uint64_t> hits{0};
  };
  /// Where one outer filter lives: `inner[i]` is its id in shard
  /// `shard + i`. A broad filter starts at shard 0 and has one id per
  /// shard; a pinned one has a single id in its home shard.
  struct Placement {
    std::size_t shard = 0;
    std::vector<FilterId> inner;
    bool alive = false;
  };

  mutable std::shared_mutex meta_mutex_;  // placements_ only
  std::vector<Placement> placements_;
  std::atomic<std::size_t> live_{0};
  std::vector<Shard> shards_;  // fixed size after construction
};

}  // namespace cake::index
