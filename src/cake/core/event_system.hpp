// Public API façade: typed publish/subscribe over the multi-stage overlay.
//
// This is the interface the paper argues for (§3.4): applications publish
// *objects* of their own event types and subscribe with predicates on
// those types' accessors plus arbitrary local closures; everything below —
// image extraction, standard forms, weakening, the covering search, lease
// renewal — is the runtime's business.
//
//   EventSystem sys;                                // builds the overlay
//   sys.advertise<Stock>();                         // G_c from the registry
//   auto& sub = sys.make_subscriber();
//   sub.subscribe<Stock>(
//       FilterBuilder{"Stock"}.where("symbol", Op::Eq, "Foo")
//                             .where("price", Op::Lt, 10.0).build(),
//       [](const Stock& s) { buy(s); },
//       [last = 0.0](const Stock& s) mutable {      // stateful closure
//         const bool hit = s.price() <= last * 0.95;
//         last = s.price();
//         return hit;
//       });
//   sys.publish(Stock{"Foo", 9.0, 32300});
//   sys.run();
#pragma once

#include "cake/metrics/metrics.hpp"
#include "cake/routing/overlay.hpp"

namespace cake::core {

/// Stage-0 process with typed subscription sugar on top of SubscriberNode.
class TypedSubscriber {
public:
  TypedSubscriber(routing::SubscriberNode& node,
                  const reflect::TypeRegistry& registry,
                  const event::EventCodec& codec)
      : node_(node), registry_(registry), codec_(codec) {}

  /// Subscribes to events conforming to `T` (subtypes included when the
  /// filter carries no explicit type). `handler` receives the rebuilt
  /// typed object; `local` is the optional end-to-end closure predicate.
  /// Returns the subscription token (usable with unsubscribe()).
  template <class T>
  std::uint64_t subscribe(filter::ConjunctiveFilter f,
                          std::function<void(const T&)> handler,
                          std::function<bool(const T&)> local = {},
                          bool durable = false) {
    if (f.type().accepts_all()) {
      f = filter::ConjunctiveFilter{
          filter::TypeConstraint{registry_.get<T>().symbol(), true},
          f.constraints()};
    }
    routing::SubscriberNode::Handler image_handler;
    if (handler) {
      image_handler = [this, handler = std::move(handler)](
                          const event::EventImage& image) {
        const std::unique_ptr<event::Event> rebuilt = codec_.decode(image);
        if (const auto* typed = dynamic_cast<const T*>(rebuilt.get()))
          handler(*typed);
      };
    }
    routing::SubscriberNode::LocalPredicate image_local;
    if (local) {
      image_local = [this, local = std::move(local)](
                        const event::EventImage& image) {
        const std::unique_ptr<event::Event> rebuilt = codec_.decode(image);
        const auto* typed = dynamic_cast<const T*>(rebuilt.get());
        return typed != nullptr && local(*typed);
      };
    }
    return node_.subscribe(std::move(f), std::move(image_handler),
                           std::move(image_local), durable);
  }

  /// Disjunctive subscription over `T`: the handler fires once per event
  /// matching ANY of the disjuncts (routed independently, delivered once).
  template <class T>
  std::vector<std::uint64_t> subscribe_any(
      std::vector<filter::ConjunctiveFilter> disjuncts,
      std::function<void(const T&)> handler) {
    for (auto& f : disjuncts) {
      if (f.type().accepts_all()) {
        f = filter::ConjunctiveFilter{
            filter::TypeConstraint{registry_.get<T>().symbol(), true},
            f.constraints()};
      }
    }
    return node_.subscribe_any(
        std::move(disjuncts),
        [this, handler = std::move(handler)](const event::EventImage& image) {
          const std::unique_ptr<event::Event> rebuilt = codec_.decode(image);
          if (const auto* typed = dynamic_cast<const T*>(rebuilt.get()))
            handler(*typed);
        });
  }

  /// Untyped subscription: the handler sees raw event images.
  std::uint64_t subscribe_images(filter::ConjunctiveFilter f,
                                 routing::SubscriberNode::Handler handler) {
    return node_.subscribe(std::move(f), std::move(handler));
  }

  void unsubscribe(std::uint64_t token) { node_.unsubscribe(token); }

  /// Durable-subscription lifecycle (paper §2.1 disconnected subscribers).
  void detach() { node_.detach(); }
  void resume() { node_.resume(); }

  [[nodiscard]] const routing::SubscriberStats& stats() const noexcept {
    return node_.stats();
  }
  [[nodiscard]] routing::SubscriberNode& node() noexcept { return node_; }

private:
  routing::SubscriberNode& node_;
  const reflect::TypeRegistry& registry_;
  const event::EventCodec& codec_;
};

/// The whole system: overlay, default publisher, typed endpoints.
class EventSystem {
public:
  struct Config {
    routing::OverlayConfig overlay;
    /// Stages in generated schemas (0 = overlay broker stages + 1).
    std::size_t schema_stages = 0;
  };

  /// Default overlay (1 root, 10 stage-2, 100 stage-1 brokers).
  EventSystem() : EventSystem(Config{}) {}

  explicit EventSystem(Config config,
                       const reflect::TypeRegistry& registry =
                           reflect::TypeRegistry::global(),
                       const event::EventCodec& codec = event::EventCodec::global());

  /// Advertises event class `T` with the default drop-one-per-stage schema
  /// derived from its registered attribute order.
  template <class T>
  void advertise() {
    advertise(weaken::StageSchema::drop_one_per_stage(registry_.get<T>(),
                                                      schema_stages()));
  }

  /// Advertises an explicit schema (custom G_c).
  void advertise(weaken::StageSchema schema);

  /// Publishes a typed event through the default publisher.
  void publish(const event::Event& event);

  /// Creates a new stage-0 subscriber process.
  TypedSubscriber& make_subscriber();

  /// Runs the simulation until quiescence / for a virtual duration.
  void run() { overlay_.run(); }
  void run_for(sim::Time duration);

  [[nodiscard]] routing::Overlay& overlay() noexcept { return overlay_; }
  [[nodiscard]] std::size_t schema_stages() const noexcept;

private:
  const reflect::TypeRegistry& registry_;
  const event::EventCodec& codec_;
  routing::Overlay overlay_;
  Config config_;
  routing::PublisherNode* default_publisher_;
  std::vector<std::unique_ptr<TypedSubscriber>> typed_subscribers_;
};

}  // namespace cake::core
