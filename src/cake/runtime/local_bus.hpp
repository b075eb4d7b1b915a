// In-process, thread-safe publish/subscribe.
//
// The simulator modules reproduce the paper's *distributed* system; this
// is the embeddable flavour a host application links directly: the same
// typed events, the same filter language (including closures evaluated
// with full type safety), the same counting index — but dispatching
// within one process, with no serialization at all. Events are handed to
// handlers as `const Event&`; the image is extracted once per publish for
// matching only, so the paper's encapsulation story holds trivially.
//
// Concurrency model (see DESIGN.md §6 for the full contract):
//   * Matching runs on a ShardedIndex: the filter table is partitioned by
//     event class name, each shard behind its own reader–writer lock.
//     publish() takes only a shared (read) snapshot of the one shard its
//     event's class hashes to, drawing counting state from a per-thread
//     scratch — so publishers on distinct classes share no lock at all,
//     and publishers on the same class match concurrently.
//   * subscribe / unsubscribe / publish may be called from any thread;
//     subscribe and unsubscribe are writers (bus table + affected shards)
//     and linearize against publishes: once subscribe() returns, every
//     subsequently *started* publish sees the subscription; once
//     unsubscribe() returns, no new handler invocation starts.
//   * Handlers and predicates run on the publishing thread, outside every
//     bus lock, so they may publish or (un)subscribe reentrantly.
//   * After unsubscribe() returns, the handler will not be *started*
//     again, but an invocation already in flight on another thread may
//     still complete (the usual in-proc bus semantics).
//   * Stats counters are relaxed atomics: stats() is a monotonic snapshot,
//     not a cross-counter-consistent one.
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>

#include "cake/index/sharded.hpp"
#include "cake/metrics/lane_counters.hpp"
#include "cake/runtime/threaded.hpp"

namespace cake::runtime {

/// Counters; snapshot via stats().
struct BusStats {
  std::uint64_t events_published = 0;
  std::uint64_t events_matched = 0;  ///< matched ≥ 1 subscription
  std::uint64_t deliveries = 0;      ///< handler invocations
  std::size_t subscriptions = 0;
};

/// Construction knobs for LocalBus.
struct BusOptions {
  /// Shard count, each shard a counting index; 0 = auto-size to the
  /// hardware (see ShardedIndex).
  std::size_t shards = 0;
};

class LocalBus {
public:
  using Token = std::uint64_t;
  using Handler = std::function<void(const event::Event&)>;
  /// Arbitrary stateful predicate — the paper's closure filter. Runs on
  /// the publishing thread; guard your own state if you publish from
  /// several threads.
  using Predicate = std::function<bool(const event::Event&)>;

  explicit LocalBus(const BusOptions& options = {},
                    const reflect::TypeRegistry& registry =
                        reflect::TypeRegistry::global());

  LocalBus(const LocalBus&) = delete;
  LocalBus& operator=(const LocalBus&) = delete;

  /// Registers a subscription; the handler fires for events matching the
  /// declarative filter and, when given, the predicate.
  Token subscribe(filter::ConjunctiveFilter filter, Handler handler,
                  Predicate predicate = {});

  /// Typed sugar: subscribes to events conforming to `T` (subtypes
  /// included when the filter names no type) and hands handlers the
  /// concrete object — no reconstruction, it is the published instance.
  template <class T>
  Token subscribe(filter::ConjunctiveFilter f,
                  std::function<void(const T&)> handler,
                  std::function<bool(const T&)> predicate = {}) {
    if (f.type().accepts_all()) {
      f = filter::ConjunctiveFilter{
          filter::TypeConstraint{registry_.get<T>().symbol(), true},
          f.constraints()};
    }
    Handler wrapped;
    if (handler) {
      wrapped = [handler = std::move(handler)](const event::Event& e) {
        if (const auto* typed = dynamic_cast<const T*>(&e)) handler(*typed);
      };
    }
    Predicate wrapped_pred;
    if (predicate) {
      wrapped_pred = [predicate = std::move(predicate)](const event::Event& e) {
        const auto* typed = dynamic_cast<const T*>(&e);
        return typed != nullptr && predicate(*typed);
      };
    }
    return subscribe(std::move(f), std::move(wrapped), std::move(wrapped_pred));
  }

  /// Stops the subscription (see the concurrency contract above).
  void unsubscribe(Token token);

  /// Matches and dispatches synchronously; returns handler invocations.
  std::size_t publish(const event::Event& event);

  [[nodiscard]] BusStats stats() const;

  /// Per-shard match counters.
  [[nodiscard]] std::vector<index::ShardStats> shard_stats() const {
    return index_.shard_stats();
  }

private:
  struct Subscription {
    Handler handler;
    Predicate predicate;
    std::atomic<bool> active{true};
  };

  const reflect::TypeRegistry& registry_;
  mutable std::shared_mutex table_mutex_;  // protects subs_ and token maps
  index::ShardedIndex index_;  // synchronizes matching per shard internally
  std::unordered_map<index::FilterId, std::shared_ptr<Subscription>> subs_;
  Token next_token_ = 1;
  std::unordered_map<Token, index::FilterId> by_token_;

  // Per-event counters bumped by every publishing lane: one shared atomic
  // here is a cache line ping-ponging across workers (the A16 flatline).
  // Per-lane slots keep the hot path contention-free; stats() sums them.
  metrics::LaneCounter events_published_{runtime::kMaxWorkers};
  metrics::LaneCounter events_matched_{runtime::kMaxWorkers};
  metrics::LaneCounter deliveries_{runtime::kMaxWorkers};
  std::atomic<std::size_t> subscription_count_{0};
};

}  // namespace cake::runtime
