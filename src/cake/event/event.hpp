// Typed events and their low-level images.
//
// Two representations coexist by design (paper §3.4 "Ensuring Event
// Encapsulation on an End-to-End Base"):
//
//   * `Event` — the high-level, encapsulated application object. This is
//     what publishers construct and what subscriber callbacks receive; its
//     state is only reachable through the accessors the application chose
//     to expose.
//   * `EventImage` — the low-level, routable meta-data: the event's class
//     name plus ordered name-value pairs extracted through reflection
//     (`image_of`). Brokers match *images* against weakened filters, never
//     touching application code. An optional opaque byte payload carries
//     non-attribute state across the wire without the brokers seeing it.
//
// `EventCodec` reconstructs typed events from images at the subscriber edge
// so local closures run against the real object — the user never marshals.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cake/reflect/reflect.hpp"
#include "cake/symbol/symbol.hpp"
#include "cake/util/hash.hpp"
#include "cake/wire/wire.hpp"

namespace cake::event {

/// Base class of all application event types.
class Event : public reflect::Reflectable {
public:
  /// Hook for serializing state that is not exposed as attributes; the
  /// matching factory must read it back in the same order. Default: none.
  virtual void save_extra(wire::Writer&) const {}
};

/// Shared immutable handle used when fanning one event out to many nodes.
using EventPtr = std::shared_ptr<const Event>;

/// CRTP helper wiring `type()` to the global registry:
///
///   class Stock : public EventOf<Stock> { ... };
///   class CarAuction : public EventOf<CarAuction, Auction> { ... };
///
/// The `Derived` type must be registered (TypeBuilder) before the first
/// `type()` call.
template <class Derived, class Base = Event>
class EventOf : public Base {
  static_assert(std::is_base_of_v<Event, Base>, "Base must derive from Event");

public:
  using Base::Base;  // expose the base type's constructors to subclasses

  [[nodiscard]] const reflect::TypeInfo& type() const noexcept override;
};

template <class Derived, class Base>
const reflect::TypeInfo& EventOf<Derived, Base>::type() const noexcept {
  // get() throws on unregistered types; surfacing that early is preferable
  // to routing an anonymous event, so we let it terminate via noexcept.
  return reflect::TypeRegistry::global().get<Derived>();
}

/// The 64-bit key of the pair (attribute `id`, `value`): the interned id
/// mixed with `Value::hash`, so equal pairs (1 and 1.0 included) share a
/// key. The counting index probes its equality postings with it and the
/// signature prefilter takes its top six bits (DESIGN.md §9).
[[nodiscard]] inline std::uint64_t key_of(symbol::Id id,
                                          const value::Value& value) noexcept {
  std::uint64_t h = value.hash() ^ (std::uint64_t{id} * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h;
}

/// One extracted name-value pair. The name is *interned*: `id` is the dense
/// symbol id and `name` a borrowed view into the interner's process-lifetime
/// storage — constructing an attribute never copies the name (DESIGN.md §9).
/// `key` is `key_of(id, value)`, hashed once where the attribute is built
/// (the constructor, `decode_into`) so every broker on the event's path
/// shares it; code that assigns `value` afterwards must reset `key`.
struct ImageAttribute {
  symbol::Id id = 0;
  std::string_view name;
  value::Value value;
  std::uint64_t key = key_of(0, {});

  ImageAttribute() = default;
  ImageAttribute(symbol::Symbol symbol, value::Value value) noexcept
      : id(symbol.id), name(symbol.text), value(std::move(value)),
        key(key_of(id, this->value)) {}

  [[nodiscard]] bool operator==(const ImageAttribute& other) const noexcept {
    return id == other.id && value == other.value;
  }
};

/// The low-level event representation used for routing and matching.
///
/// Flat form: the type name and attribute names are interned symbols
/// (borrowed views, never owned copies); attribute values are owned.
class EventImage {
public:
  EventImage() = default;
  EventImage(std::string_view type_name, std::vector<ImageAttribute> attributes,
             std::vector<std::byte> opaque = {});

  [[nodiscard]] std::string_view type_name() const noexcept { return type_name_; }
  /// Interned symbol id of the type name (integer key for index lookups).
  [[nodiscard]] symbol::Id type_id() const noexcept { return type_id_; }
  [[nodiscard]] const std::vector<ImageAttribute>& attributes() const noexcept {
    return attributes_;
  }
  [[nodiscard]] const std::vector<std::byte>& opaque() const noexcept {
    return opaque_;
  }

  /// Value of the named attribute, or null if absent.
  [[nodiscard]] const value::Value* find(std::string_view name) const noexcept;
  /// Same, by interned name: an integer compare per attribute (the exact
  /// filter's lookup, DESIGN.md §9).
  [[nodiscard]] const value::Value* find(symbol::Id name) const noexcept {
    for (const ImageAttribute& attr : attributes_) {
      if (attr.id == name) return &attr.value;
    }
    return nullptr;
  }
  [[nodiscard]] bool has(std::string_view name) const noexcept {
    return find(name) != nullptr;
  }

  /// Returns a copy containing only the named attributes (present ones, in
  /// this image's order) — the paper's *weakened event* projection.
  [[nodiscard]] EventImage project(const std::vector<std::string>& keep) const;

  void encode(wire::Writer& w) const;
  [[nodiscard]] static EventImage decode(wire::Reader& r);

  /// `decode` into *this*, reusing its attribute, string and opaque
  /// capacity: decoding an image of the same shape into a warm image
  /// allocates nothing (the per-frame memo, DESIGN.md §9). Throws
  /// wire::WireError when an attribute name repeats.
  void decode_into(wire::Reader& r);

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] bool operator==(const EventImage&) const = default;

private:
  friend void image_of_into(const Event& event, EventImage& out);

  symbol::Id type_id_ = 0;
  std::string_view type_name_;
  std::vector<ImageAttribute> attributes_;
  std::vector<std::byte> opaque_;
};

/// Extracts the image of `event` through its registered attributes
/// (reflection). The attribute order is the declaration order, i.e.
/// most-general first (inherited attributes leftmost).
[[nodiscard]] EventImage image_of(const Event& event);

/// Like `image_of` but reuses `out`'s capacity (the LocalBus publish
/// scratch); attribute names ride the pre-interned registration symbols.
void image_of_into(const Event& event, EventImage& out);

/// Writes exactly the bytes `image_of(event).encode(w)` writes, straight
/// from the reflection getters: no image and no attribute vector is built
/// (the publisher's encode, DESIGN.md §9).
void encode_image(const Event& event, wire::Writer& w);

/// Registry of per-type factories reconstructing typed events from images.
class EventCodec {
public:
  using Factory = std::function<std::unique_ptr<Event>(const EventImage&)>;

  /// Process-wide codec used by the high-level API.
  [[nodiscard]] static EventCodec& global();

  /// Registers the factory for `type_name`; throws ReflectError on duplicates.
  void add(std::string type_name, Factory factory);

  [[nodiscard]] bool can_decode(std::string_view type_name) const noexcept;

  /// Rebuilds a typed event; throws ReflectError for unknown types.
  [[nodiscard]] std::unique_ptr<Event> decode(const EventImage& image) const;

private:
  util::StringMap<Factory> factories_;  // transparent: no-alloc lookup
};

/// Serializes `event` for link transfer: reflective image + checksum frame.
[[nodiscard]] std::vector<std::byte> to_wire(const Event& event);

/// Parses wire bytes back into an image (broker side; no app code involved).
[[nodiscard]] EventImage image_from_wire(std::span<const std::byte> bytes);

/// Full round trip: wire bytes -> typed event (subscriber side).
[[nodiscard]] std::unique_ptr<Event> from_wire(std::span<const std::byte> bytes,
                                               const EventCodec& codec);

}  // namespace cake::event
