#include "cake/event/event.hpp"

#include <sstream>

namespace cake::event {

EventImage::EventImage(std::string_view type_name,
                       std::vector<ImageAttribute> attributes,
                       std::vector<std::byte> opaque)
    : attributes_(std::move(attributes)), opaque_(std::move(opaque)) {
  const symbol::Symbol type = symbol::intern(type_name);
  type_id_ = type.id;
  type_name_ = type.text;
}

const value::Value* EventImage::find(std::string_view name) const noexcept {
  for (const auto& attr : attributes_) {
    if (attr.name == name) return &attr.value;
  }
  return nullptr;
}

EventImage EventImage::project(const std::vector<std::string>& keep) const {
  std::vector<ImageAttribute> kept;
  kept.reserve(keep.size());
  for (const auto& attr : attributes_) {
    for (const auto& name : keep) {
      if (attr.name == name) {
        kept.push_back(attr);
        break;
      }
    }
  }
  // Projection is routing meta-data only; opaque state stays with the full
  // event, not the weakened copies.
  return EventImage{type_name_, std::move(kept)};
}

void EventImage::encode(wire::Writer& w) const {
  w.string(type_name_);
  w.varint(attributes_.size());
  for (const auto& attr : attributes_) {
    w.string(attr.name);
    w.value(attr.value);
  }
  w.varint(opaque_.size());
  w.raw(opaque_);
}

void EventImage::decode_into(wire::Reader& r) {
  const symbol::Symbol type = symbol::intern(r.string_view());
  type_id_ = type.id;
  type_name_ = type.text;
  const std::uint64_t n = r.count(2);  // name length byte + value tag
  // resize, not clear: the surviving attributes keep their string storage.
  attributes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ImageAttribute& attr = attributes_[i];
    const symbol::Symbol name = symbol::intern(r.string_view());
    for (std::size_t j = 0; j < i; ++j)  // or an index counts it twice
      if (attributes_[j].id == name.id)
        throw wire::WireError{"event: repeated attribute name"};
    attr.id = name.id;
    attr.name = name.text;
    r.value_into(attr.value);
    attr.key = key_of(attr.id, attr.value);
  }
  const std::uint64_t extra = r.count(1);
  const std::span<const std::byte> raw = r.bytes(extra);
  opaque_.assign(raw.begin(), raw.end());
}

EventImage EventImage::decode(wire::Reader& r) {
  EventImage image;
  image.decode_into(r);
  return image;
}

std::string EventImage::to_string() const {
  std::ostringstream os;
  os << '(' << "class, \"" << type_name_ << "\")";
  for (const auto& attr : attributes_)
    os << " (" << attr.name << ", " << attr.value.to_string() << ')';
  return os.str();
}

EventImage image_of(const Event& event) {
  EventImage image;
  image_of_into(event, image);
  return image;
}

void image_of_into(const Event& event, EventImage& out) {
  const reflect::TypeInfo& info = event.type();
  out.type_id_ = info.symbol().id;
  out.type_name_ = info.symbol().text;
  out.attributes_.clear();
  out.attributes_.reserve(info.attributes().size());
  for (const auto* attr : info.attributes())
    out.attributes_.emplace_back(attr->symbol, attr->get(event));
  wire::Writer extra;
  event.save_extra(extra);
  out.opaque_ = extra.take();
}

void encode_image(const Event& event, wire::Writer& w) {
  const reflect::TypeInfo& info = event.type();
  w.string(info.symbol().text);
  w.varint(info.attributes().size());
  for (const auto* attr : info.attributes()) {
    w.string(attr->symbol.text);
    w.value(attr->get(event));
  }
  // The opaque bytes go behind their length, so they are gathered first;
  // the scratch writer allocates only when save_extra writes something.
  wire::Writer extra;
  event.save_extra(extra);
  w.varint(extra.size());
  w.raw(extra.bytes());
}

EventCodec& EventCodec::global() {
  static EventCodec instance;
  return instance;
}

void EventCodec::add(std::string type_name, Factory factory) {
  if (!factories_.emplace(std::move(type_name), std::move(factory)).second)
    throw reflect::ReflectError{"EventCodec: duplicate factory"};
}

bool EventCodec::can_decode(std::string_view type_name) const noexcept {
  return factories_.contains(type_name);  // heterogeneous: no temporary
}

std::unique_ptr<Event> EventCodec::decode(const EventImage& image) const {
  const auto it = factories_.find(image.type_name());
  if (it == factories_.end())
    throw reflect::ReflectError{"EventCodec: no factory for type '" +
                                std::string{image.type_name()} + "'"};
  return it->second(image);
}

std::vector<std::byte> to_wire(const Event& event) {
  wire::Writer w;
  encode_image(event, w);
  return wire::frame(w.bytes());
}

EventImage image_from_wire(std::span<const std::byte> bytes) {
  wire::Reader r{wire::unframe(bytes)};
  return EventImage::decode(r);
}

std::unique_ptr<Event> from_wire(std::span<const std::byte> bytes,
                                 const EventCodec& codec) {
  return codec.decode(image_from_wire(bytes));
}

}  // namespace cake::event
