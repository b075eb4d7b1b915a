// Attribute constraints and their implication (covering) relation.
//
// A constraint is one "(name, value, op)" tuple of the paper. The covering
// test `covers(weaker, stronger)` decides syntactically whether every event
// satisfying `stronger` also satisfies `weaker` — the per-attribute building
// block of filter covering (Definition 2). The test is *sound* (never
// claims covering that does not hold) but deliberately incomplete:
// soundness is what guarantees pre-filtering loses no events, while a
// missed covering merely costs a redundant filter at an inner node.
#pragma once

#include <string>

#include "cake/event/event.hpp"
#include "cake/filter/op.hpp"
#include "cake/wire/wire.hpp"

namespace cake::filter {

/// One predicate on one named attribute. The name is interned where it
/// enters (a literal, `FilterBuilder::where`, `decode`); copies carry the
/// symbol, so matching and covering compare ids, never text.
struct AttributeConstraint {
  symbol::Symbol name;
  Op op = Op::Any;
  value::Value operand;  // ignored for Exists/Any

  /// Evaluates this constraint against an event image. Absent attributes
  /// satisfy only `Any` (weakened images drop exactly the attributes that
  /// weakened filters no longer constrain, so this cannot cause a false
  /// negative under a consistent stage schema). Inline: the subscriber's
  /// exact stage runs it once per constraint per subscription per arrival.
  [[nodiscard]] bool matches(const event::EventImage& image) const noexcept {
    if (op == Op::Any) return true;  // present or not
    const value::Value* attr = image.find(name.id);
    return attr != nullptr && applies(op, *attr, operand);
  }

  [[nodiscard]] bool is_wildcard() const noexcept { return op == Op::Any; }

  void encode(wire::Writer& w) const;
  [[nodiscard]] static AttributeConstraint decode(wire::Reader& r);

  /// Paper rendering: `(price, 10.0, <)`, `(symbol, ALL, =)`, `(volume, ∃)`.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool operator==(const AttributeConstraint&) const = default;
};

/// Sound implication test between two constraints *on the same attribute*:
/// true means every value satisfying `stronger` satisfies `weaker`.
/// Constraints on different attribute names never cover each other.
[[nodiscard]] bool covers(const AttributeConstraint& weaker,
                          const AttributeConstraint& stronger) noexcept;

/// Least-upper-bound relaxation: the most restrictive single constraint on
/// the same attribute that covers both inputs (used when merging sibling
/// filters during weakening, e.g. price<10 ⊔ price<11 → price<11).
/// Falls back to the wildcard when no tighter join is representable.
[[nodiscard]] AttributeConstraint relax_join(const AttributeConstraint& a,
                                             const AttributeConstraint& b);

}  // namespace cake::filter
