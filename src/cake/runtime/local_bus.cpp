#include "cake/runtime/local_bus.hpp"

#include <vector>

namespace cake::runtime {

LocalBus::LocalBus(const BusOptions& options,
                   const reflect::TypeRegistry& registry)
    : registry_(registry), index_(registry, options.shards) {}

LocalBus::Token LocalBus::subscribe(filter::ConjunctiveFilter filter,
                                    Handler handler, Predicate predicate) {
  if (const reflect::TypeInfo* type = registry_.find(filter.type().name.id))
    filter = filter.standard_form(*type);

  auto subscription = std::make_shared<Subscription>();
  subscription->handler = std::move(handler);
  subscription->predicate = std::move(predicate);

  std::unique_lock table_lock{table_mutex_};
  // The sharded engine locks the affected shard(s) internally.
  const index::FilterId fid = index_.add(std::move(filter));
  subs_.emplace(fid, std::move(subscription));
  const Token token = next_token_++;
  by_token_.emplace(token, fid);
  subscription_count_.store(subs_.size(), std::memory_order_relaxed);
  return token;
}

void LocalBus::unsubscribe(Token token) {
  std::unique_lock table_lock{table_mutex_};
  const auto it = by_token_.find(token);
  if (it == by_token_.end()) return;
  const index::FilterId fid = it->second;
  by_token_.erase(it);
  if (const auto sub = subs_.find(fid); sub != subs_.end()) {
    sub->second->active.store(false, std::memory_order_release);
    subs_.erase(sub);
  }
  index_.remove(fid);
  subscription_count_.store(subs_.size(), std::memory_order_relaxed);
}

std::size_t LocalBus::publish(const event::Event& event) {
  // Reuse a thread-local image: image_of_into rewrites it in place, so a
  // warmed-up publish builds the image without touching the heap. Safe
  // against reentrancy for the same reason as the scratch below — matching
  // is over before any handler can publish again on this thread.
  thread_local event::EventImage image;
  event::image_of_into(event, image);

  // Match under a shared snapshot — the table lock plus, inside the
  // sharded index, a read lock on the one shard this event's class maps
  // to — copy the live subscriptions out, then dispatch lock-free so
  // handlers may re-enter the bus. The thread-local scratch is done with
  // by the time handlers (or predicates) run, so reentrant publishes on
  // this thread reuse it safely.
  std::vector<std::shared_ptr<Subscription>> targets;
  {
    std::shared_lock table_lock{table_mutex_};
    thread_local index::MatchScratch scratch;
    thread_local std::vector<index::FilterId> matched;
    index_.match(image, matched, scratch);
    targets.reserve(matched.size());
    for (const index::FilterId fid : matched) {
      const auto it = subs_.find(fid);
      if (it != subs_.end()) targets.push_back(it->second);
    }
  }

  std::size_t invoked = 0;
  for (const auto& subscription : targets) {
    if (!subscription->active.load(std::memory_order_acquire)) continue;
    if (subscription->predicate && !subscription->predicate(event)) continue;
    if (subscription->handler) {
      subscription->handler(event);
      ++invoked;
    }
  }

  const std::size_t lane = current_lane();
  events_published_.add(lane, 1);
  if (!targets.empty()) events_matched_.add(lane, 1);
  if (invoked > 0) deliveries_.add(lane, invoked);
  return invoked;
}

BusStats LocalBus::stats() const {
  return BusStats{events_published_.read(), events_matched_.read(),
                  deliveries_.read(),
                  subscription_count_.load(std::memory_order_relaxed)};
}

}  // namespace cake::runtime
