#include "cake/filter/filter.hpp"

#include <sstream>

namespace cake::filter {

bool TypeConstraint::covers(const TypeConstraint& weaker,
                            const TypeConstraint& stronger,
                            const reflect::TypeRegistry& registry) noexcept {
  if (weaker.accepts_all()) return true;
  if (stronger.accepts_all()) return false;
  if (weaker.name == stronger.name)
    return weaker.include_subtypes || !stronger.include_subtypes;
  if (!weaker.include_subtypes) return false;
  const reflect::TypeInfo* strong_type = registry.find(stronger.name.id);
  const reflect::TypeInfo* weak_type = registry.find(weaker.name.id);
  return strong_type != nullptr && weak_type != nullptr &&
         strong_type->conforms_to(*weak_type);
}

namespace {

/// The one bit that the pair with key `key` contributes to a signature word.
std::uint64_t signature_bit(std::uint64_t key) noexcept {
  return std::uint64_t{1} << (key >> 58);
}

}  // namespace

std::uint64_t signature(const ConjunctiveFilter& filter) noexcept {
  std::uint64_t word = 0;
  for (const auto& c : filter.constraints()) {
    if (c.op == Op::Eq) word |= signature_bit(event::key_of(c.name.id, c.operand));
  }
  return word;
}

std::uint64_t signature(const event::EventImage& image) noexcept {
  std::uint64_t word = 0;
  for (const event::ImageAttribute& attr : image.attributes())
    word |= signature_bit(attr.key);
  return word;
}

bool ConjunctiveFilter::matches(const event::EventImage& image,
                                const reflect::TypeRegistry& registry) const noexcept {
  if (!type_.matches(image.type_id(), registry)) return false;
  for (const auto& constraint : constraints_) {
    if (!constraint.matches(image)) return false;
  }
  return true;
}

bool ConjunctiveFilter::has_wildcard() const noexcept {
  for (const auto& c : constraints_) {
    if (c.is_wildcard()) return true;
  }
  return false;
}

std::vector<std::string> ConjunctiveFilter::wildcard_attributes() const {
  std::vector<std::string> names;
  for (const auto& c : constraints_) {
    if (c.is_wildcard()) names.emplace_back(c.name.text);
  }
  return names;
}

ConjunctiveFilter ConjunctiveFilter::standard_form(
    const reflect::TypeInfo& type) const {
  std::vector<AttributeConstraint> ordered;
  ordered.reserve(type.attributes().size());
  std::vector<bool> used(constraints_.size(), false);
  for (const auto* attr : type.attributes()) {
    bool found = false;
    for (std::size_t i = 0; i < constraints_.size(); ++i) {
      if (constraints_[i].name == attr->symbol) {
        ordered.push_back(constraints_[i]);
        used[i] = true;
        found = true;
      }
    }
    if (!found) ordered.push_back({attr->symbol, Op::Any, {}});
  }
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (!used[i]) ordered.push_back(constraints_[i]);  // unknown attributes
  }
  return ConjunctiveFilter{type_, std::move(ordered)};
}

void ConjunctiveFilter::encode(wire::Writer& w) const {
  w.string(type_.name.text);
  w.u8(type_.include_subtypes ? 1 : 0);
  w.varint(constraints_.size());
  for (const auto& c : constraints_) c.encode(w);
}

ConjunctiveFilter ConjunctiveFilter::decode(wire::Reader& r) {
  TypeConstraint type;
  type.name = symbol::intern(r.string_view());
  type.include_subtypes = r.u8() != 0;
  const std::uint64_t n = r.count(3);  // name length + op + value tag
  std::vector<AttributeConstraint> constraints;
  constraints.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    constraints.push_back(AttributeConstraint::decode(r));
  return ConjunctiveFilter{std::move(type), std::move(constraints)};
}

std::string ConjunctiveFilter::to_string() const {
  std::ostringstream os;
  if (type_.accepts_all()) {
    os << "(class, ALL, =)";
  } else {
    os << "(class, \"" << type_.name.text << "\", " << (type_.include_subtypes ? "<:" : "=")
       << ')';
  }
  for (const auto& c : constraints_) os << ' ' << c.to_string();
  return os.str();
}

std::size_t ConjunctiveFilter::hash() const noexcept {
  auto mix = [](std::size_t seed, std::size_t h) {
    return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
  };
  // Hashes the text, not the id: the value must not depend on the order
  // names were first interned in.
  std::size_t h = std::hash<std::string_view>{}(type_.name.text);
  h = mix(h, type_.include_subtypes ? 1 : 0);
  for (const auto& c : constraints_) {
    h = mix(h, std::hash<std::string_view>{}(c.name.text));
    h = mix(h, static_cast<std::size_t>(c.op));
    h = mix(h, c.operand.hash());
  }
  return h;
}

bool covers(const ConjunctiveFilter& weaker, const ConjunctiveFilter& stronger,
            const reflect::TypeRegistry& registry) noexcept {
  if (!TypeConstraint::covers(weaker.type(), stronger.type(), registry))
    return false;
  for (const auto& weak_constraint : weaker.constraints()) {
    if (weak_constraint.is_wildcard()) continue;
    bool implied = false;
    for (const auto& strong_constraint : stronger.constraints()) {
      if (filter::covers(weak_constraint, strong_constraint)) {
        implied = true;
        break;
      }
    }
    if (!implied) return false;
  }
  return true;
}

namespace {

/// Can a single value satisfy both constraints? Sound: false only when
/// provably impossible.
bool constraints_compatible(const AttributeConstraint& a,
                            const AttributeConstraint& b) noexcept {
  if (a.op == Op::Any || b.op == Op::Any) return true;
  if (a.op == Op::Exists || b.op == Op::Exists) return true;
  if (a.op == Op::Ne || b.op == Op::Ne) return true;  // almost always sat

  // A point constraint must satisfy the other side exactly.
  if (a.op == Op::Eq) return applies(b.op, a.operand, b.operand);
  if (b.op == Op::Eq) return applies(a.op, b.operand, a.operand);

  const bool a_upper = a.op == Op::Lt || a.op == Op::Le;
  const bool a_lower = a.op == Op::Gt || a.op == Op::Ge;
  const bool b_upper = b.op == Op::Lt || b.op == Op::Le;
  const bool b_lower = b.op == Op::Gt || b.op == Op::Ge;

  if ((a_upper && b_lower) || (a_lower && b_upper)) {
    const auto& upper = a_upper ? a : b;
    const auto& lower = a_upper ? b : a;
    const auto cmp = lower.operand.compare(upper.operand);
    if (!cmp) return false;  // bounds of incomparable kinds: no common value
    if (*cmp < 0) return true;
    if (*cmp > 0) return false;
    // Equal bounds: a common point exists only if both ends are inclusive.
    return lower.op == Op::Ge && upper.op == Op::Le;
  }
  if ((a_upper && b_upper) || (a_lower && b_lower)) {
    // Same direction: satisfiable iff the operands are comparable at all.
    return a.operand.compare(b.operand).has_value();
  }

  if (a.op == Op::Prefix && b.op == Op::Prefix) {
    if (a.operand.kind() != value::Kind::String ||
        b.operand.kind() != value::Kind::String)
      return false;
    const auto& p = a.operand.as_string();
    const auto& q = b.operand.as_string();
    return p.starts_with(q) || q.starts_with(p);
  }
  // Prefix/Regex vs bounds, Regex vs Regex, ...: assume satisfiable.
  return true;
}

bool types_compatible(const TypeConstraint& a, const TypeConstraint& b,
                      const reflect::TypeRegistry& registry) noexcept {
  if (a.accepts_all() || b.accepts_all()) return true;
  if (a.name == b.name) return true;
  // Single inheritance: two different types share instances only along one
  // conformance chain, and only when the ancestor side includes subtypes.
  const reflect::TypeInfo* ta = registry.find(a.name.id);
  const reflect::TypeInfo* tb = registry.find(b.name.id);
  if (ta == nullptr || tb == nullptr) return false;  // names differ, unknown
  if (a.include_subtypes && tb->conforms_to(*ta)) return true;
  if (b.include_subtypes && ta->conforms_to(*tb)) return true;
  return false;
}

}  // namespace

bool overlaps(const ConjunctiveFilter& a, const ConjunctiveFilter& b,
              const reflect::TypeRegistry& registry) noexcept {
  if (!types_compatible(a.type(), b.type(), registry)) return false;
  // Every pair of constraints on a shared attribute (cross-filter and
  // within one filter) must be individually satisfiable together; one
  // impossible pair proves the conjunction empty.
  std::vector<const AttributeConstraint*> all;
  all.reserve(a.constraints().size() + b.constraints().size());
  for (const auto& c : a.constraints()) all.push_back(&c);
  for (const auto& c : b.constraints()) all.push_back(&c);
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      if (all[i]->name != all[j]->name) continue;
      if (!constraints_compatible(*all[i], *all[j])) return false;
    }
  }
  return true;
}

bool event_covers(const event::EventImage& e, const event::EventImage& e_orig,
                  const ConjunctiveFilter& f,
                  const reflect::TypeRegistry& registry) noexcept {
  return !f.matches(e_orig, registry) || f.matches(e, registry);
}

}  // namespace cake::filter
