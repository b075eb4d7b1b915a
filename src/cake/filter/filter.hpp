// Conjunctive filters: the subscription language of the brokers.
//
// A filter is a *type test* plus a conjunction of attribute constraints —
// exactly the paper's "(class, 'Stock', =) (symbol, 'Foo', =) (price, 10.0,
// <)" form, with the class tuple promoted to a distinguished field so that
// type-based filtering (matching subtypes of the subscribed type, §2.1
// "Subscription Expressiveness") can consult the type hierarchy.
//
// `covers` implements Definition 2 (filter covering) soundly; brokers use
// it both to decide where a new subscription should live (Fig. 5) and to
// collapse similar subscriptions into one weakened parent filter.
#pragma once

#include <string>
#include <vector>

#include "cake/event/event.hpp"
#include "cake/filter/constraint.hpp"

namespace cake::filter {

/// The distinguished "(class, T, =)" part of a filter.
///
/// An empty name accepts every type. With `include_subtypes`, instances of
/// any type conforming to `name` match (type-based subscription); without,
/// only exact instances do. The name is interned, like the constraints'.
struct TypeConstraint {
  symbol::Symbol name;
  bool include_subtypes = false;

  [[nodiscard]] bool accepts_all() const noexcept { return name.id == 0; }

  /// Does an event whose interned type name is `type` pass this constraint?
  /// The registry is consulted, by id, only for `include_subtypes`. Inline:
  /// the exact stage runs it once per subscription per arrival.
  [[nodiscard]] bool matches(symbol::Id type,
                             const reflect::TypeRegistry& registry) const noexcept {
    if (type == name.id || accepts_all()) return true;
    if (!include_subtypes) return false;
    const reflect::TypeInfo* event_type = registry.find(type);
    const reflect::TypeInfo* base = registry.find(name.id);
    return event_type != nullptr && base != nullptr && event_type->conforms_to(*base);
  }

  /// Sound covering test between type constraints.
  [[nodiscard]] static bool covers(const TypeConstraint& weaker,
                                   const TypeConstraint& stronger,
                                   const reflect::TypeRegistry& registry) noexcept;

  [[nodiscard]] bool operator==(const TypeConstraint&) const = default;
};

/// A conjunction of attribute constraints guarded by a type test.
class ConjunctiveFilter {
public:
  ConjunctiveFilter() = default;
  ConjunctiveFilter(TypeConstraint type, std::vector<AttributeConstraint> constraints)
      : type_(std::move(type)), constraints_(std::move(constraints)) {}

  [[nodiscard]] const TypeConstraint& type() const noexcept { return type_; }
  [[nodiscard]] const std::vector<AttributeConstraint>& constraints() const noexcept {
    return constraints_;
  }

  /// The filter that accepts every event (the paper's f_T).
  [[nodiscard]] static ConjunctiveFilter accept_all() { return {}; }

  /// Definition 1: does `image` match this filter?
  [[nodiscard]] bool matches(const event::EventImage& image,
                             const reflect::TypeRegistry& registry =
                                 reflect::TypeRegistry::global()) const noexcept;

  /// True when any constraint is a wildcard (drives HANDLE-WILDCARD-SUBS).
  [[nodiscard]] bool has_wildcard() const noexcept;

  /// Names of wildcard-constrained attributes, in filter order (§4.4's C).
  [[nodiscard]] std::vector<std::string> wildcard_attributes() const;

  /// §4.4 standard subscription form: constraints reordered to `type`'s
  /// declared attribute order (most-general first) and missing attributes
  /// filled with wildcards. Constraints on attributes unknown to the type
  /// are preserved at the end (they can only ever be checked end-to-end).
  [[nodiscard]] ConjunctiveFilter standard_form(const reflect::TypeInfo& type) const;

  void encode(wire::Writer& w) const;
  [[nodiscard]] static ConjunctiveFilter decode(wire::Reader& r);

  /// Paper rendering: `(class, "Stock", =) (price, 10.0, <)`.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t hash() const noexcept;
  [[nodiscard]] bool operator==(const ConjunctiveFilter&) const = default;

private:
  TypeConstraint type_;
  std::vector<AttributeConstraint> constraints_;
};

/// Definition 2 (sound approximation): true ⟹ every event matching
/// `stronger` also matches `weaker`.
[[nodiscard]] bool covers(const ConjunctiveFilter& weaker,
                          const ConjunctiveFilter& stronger,
                          const reflect::TypeRegistry& registry =
                              reflect::TypeRegistry::global()) noexcept;

/// Sound *disjointness* test: false means NO event can match both filters
/// (provably disjoint — incompatible type constraints, or some attribute
/// whose combined constraints are unsatisfiable); true means they may
/// overlap. Used by advertisement-based routing to prune subscription
/// propagation: pruning only on provable disjointness preserves safety.
[[nodiscard]] bool overlaps(const ConjunctiveFilter& a,
                            const ConjunctiveFilter& b,
                            const reflect::TypeRegistry& registry =
                                reflect::TypeRegistry::global()) noexcept;

/// Definition 3 bound to one filter: does image `e` cover image `e_orig`
/// for `f`, i.e. f(e_orig) ⟹ f(e)?  Used by tests to validate event
/// weakening (Proposition 2).
[[nodiscard]] bool event_covers(const event::EventImage& e,
                                const event::EventImage& e_orig,
                                const ConjunctiveFilter& f,
                                const reflect::TypeRegistry& registry =
                                    reflect::TypeRegistry::global()) noexcept;

/// The subscriber's prefilter word (DESIGN.md §9, "Signature prefilter"):
/// one bit per `Op::Eq` constraint, the top six bits of
/// `event::key_of(attribute id, operand)`. Other operators, wildcards and
/// the type test set no bit, so a filter with no equality constraint has
/// word 0.
[[nodiscard]] std::uint64_t signature(const ConjunctiveFilter& filter) noexcept;

/// The image's prefilter word: one bit per attribute, from the
/// `ImageAttribute::key` the image already carries.
/// `Value::hash` agrees with `==`, so `f.matches(image)` implies
/// `(signature(f) & ~signature(image)) == 0`.
[[nodiscard]] std::uint64_t signature(const event::EventImage& image) noexcept;

/// Fluent construction helper used by tests, workloads and examples:
///
///   auto f = FilterBuilder{"Stock"}.where("symbol", Op::Eq, "Foo")
///                                  .where("price", Op::Lt, 10.0).build();
class FilterBuilder {
public:
  FilterBuilder() = default;
  explicit FilterBuilder(symbol::Symbol type_name, bool include_subtypes = false)
      : type_{type_name, include_subtypes} {}

  FilterBuilder& where(symbol::Symbol attribute, Op op, value::Value operand = {}) {
    constraints_.push_back({attribute, op, std::move(operand)});
    return *this;
  }

  [[nodiscard]] ConjunctiveFilter build() {
    return ConjunctiveFilter{std::move(type_), std::move(constraints_)};
  }

private:
  TypeConstraint type_;
  std::vector<AttributeConstraint> constraints_;
};

}  // namespace cake::filter

template <>
struct std::hash<cake::filter::ConjunctiveFilter> {
  std::size_t operator()(const cake::filter::ConjunctiveFilter& f) const noexcept {
    return f.hash();
  }
};
