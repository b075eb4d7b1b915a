#include "cake/filter/constraint.hpp"

#include "cake/util/regex.hpp"

#include <algorithm>
#include <stdexcept>

namespace cake::filter {
namespace {

using value::Value;

/// Three-way compare helper; nullopt means incomparable.
std::optional<std::int8_t> cmp(const Value& a, const Value& b) noexcept {
  return a.compare(b);
}

bool is_upper_bound(Op op) noexcept { return op == Op::Lt || op == Op::Le; }
bool is_lower_bound(Op op) noexcept { return op == Op::Gt || op == Op::Ge; }

std::string common_prefix(const std::string& a, const std::string& b) {
  const auto n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return a.substr(0, i);
}

}  // namespace

void AttributeConstraint::encode(wire::Writer& w) const {
  w.string(name.text);
  w.u8(static_cast<std::uint8_t>(op));
  w.value(operand);
}

AttributeConstraint AttributeConstraint::decode(wire::Reader& r) {
  AttributeConstraint c;
  c.name = symbol::intern(r.string_view());
  c.op = static_cast<Op>(r.u8());
  c.operand = r.value();
  return c;
}

std::string AttributeConstraint::to_string() const {
  const std::string head = '(' + std::string{name.text};
  if (op == Op::Exists) return head + ", ∃)";
  if (op == Op::Any) return head + ", ALL, =)";
  if (op == Op::Regex) return head + ", " + operand.to_string() + ", ~)";
  return head + ", " + operand.to_string() + ", " +
         std::string{filter::to_string(op)} + ')';
}

bool covers(const AttributeConstraint& weaker,
            const AttributeConstraint& stronger) noexcept {
  if (weaker.name != stronger.name) return false;
  // Identical constraints always imply each other, including degenerate
  // ones (e.g. a Prefix with a numeric operand, which matches nothing) —
  // this keeps covering reflexive, which the table dedup and the
  // subscription-placement search rely on.
  if (weaker == stronger) return true;
  if (weaker.op == Op::Any) return true;
  if (stronger.op == Op::Any) return false;  // matches absent attributes too
  if (weaker.op == Op::Exists) return true;  // every other op needs presence
  if (stronger.op == Op::Exists) return false;

  const Value& v = weaker.operand;
  const Value& u = stronger.operand;

  switch (weaker.op) {
    case Op::Eq:
      return stronger.op == Op::Eq && v == u;
    case Op::Ne:
      switch (stronger.op) {
        case Op::Eq: return !(u == v);
        case Op::Ne: return u == v;
        case Op::Lt: { const auto c = cmp(v, u); return c && *c >= 0; }
        case Op::Le: { const auto c = cmp(v, u); return c && *c > 0; }
        case Op::Gt: { const auto c = cmp(v, u); return c && *c <= 0; }
        case Op::Ge: { const auto c = cmp(v, u); return c && *c < 0; }
        case Op::Prefix:
          return v.kind() == value::Kind::String &&
                 u.kind() == value::Kind::String &&
                 !v.as_string().starts_with(u.as_string());
        case Op::Regex:
          // x matches pattern u ⇒ x != v  iff  the pattern rejects v.
          return v.kind() == value::Kind::String &&
                 u.kind() == value::Kind::String &&
                 !applies(Op::Regex, v, u);
        default: return false;
      }
    case Op::Lt:
      switch (stronger.op) {
        case Op::Lt: { const auto c = cmp(u, v); return c && *c <= 0; }
        case Op::Le: { const auto c = cmp(u, v); return c && *c < 0; }
        case Op::Eq: { const auto c = cmp(u, v); return c && *c < 0; }
        default: return false;
      }
    case Op::Le:
      switch (stronger.op) {
        case Op::Lt:
        case Op::Le:
        case Op::Eq: { const auto c = cmp(u, v); return c && *c <= 0; }
        default: return false;
      }
    case Op::Gt:
      switch (stronger.op) {
        case Op::Gt: { const auto c = cmp(u, v); return c && *c >= 0; }
        case Op::Ge: { const auto c = cmp(u, v); return c && *c > 0; }
        case Op::Eq: { const auto c = cmp(u, v); return c && *c > 0; }
        default: return false;
      }
    case Op::Ge:
      switch (stronger.op) {
        case Op::Gt:
        case Op::Ge:
        case Op::Eq: { const auto c = cmp(u, v); return c && *c >= 0; }
        default: return false;
      }
    case Op::Prefix:
      if (v.kind() != value::Kind::String || u.kind() != value::Kind::String)
        return false;
      return u.as_string().starts_with(v.as_string());
    case Op::Regex:
      if (v.kind() != value::Kind::String) return false;
      // Identical patterns cover each other; a pattern covers an equality
      // point it matches. Anything subtler is left uncovered (sound).
      if (stronger.op == Op::Regex) return u == v;
      if (stronger.op == Op::Eq) return applies(Op::Regex, u, v);
      return false;
    default:
      return false;
  }
}

AttributeConstraint relax_join(const AttributeConstraint& a,
                               const AttributeConstraint& b) {
  if (a.name != b.name)
    throw std::invalid_argument{"relax_join: constraints on different attributes"};
  if (covers(a, b)) return a;
  if (covers(b, a)) return b;

  const AttributeConstraint wildcard{a.name, Op::Any, {}};

  // Upper-bound family: keep the laxer bound.
  if (is_upper_bound(a.op) && is_upper_bound(b.op)) {
    const auto c = cmp(a.operand, b.operand);
    if (!c) return wildcard;
    if (*c != 0) return *c > 0 ? a : b;
    // Equal bounds but neither covered the other cannot happen (Le covers
    // Lt at the same bound); keep the inclusive one for determinism.
    return a.op == Op::Le ? a : b;
  }
  if (is_lower_bound(a.op) && is_lower_bound(b.op)) {
    const auto c = cmp(a.operand, b.operand);
    if (!c) return wildcard;
    if (*c != 0) return *c < 0 ? a : b;
    return a.op == Op::Ge ? a : b;
  }

  // Point + bound: widen the bound to include the point.
  auto join_point_bound = [&](const AttributeConstraint& point,
                              const AttributeConstraint& bound) -> AttributeConstraint {
    const auto c = cmp(point.operand, bound.operand);
    if (!c) return wildcard;
    if (is_upper_bound(bound.op))
      return AttributeConstraint{a.name, Op::Le, point.operand};  // point >= bound here
    return AttributeConstraint{a.name, Op::Ge, point.operand};
  };
  if (a.op == Op::Eq && (is_upper_bound(b.op) || is_lower_bound(b.op)))
    return join_point_bound(a, b);
  if (b.op == Op::Eq && (is_upper_bound(a.op) || is_lower_bound(a.op)))
    return join_point_bound(b, a);

  // String-shaped joins: fall back to the longest common prefix.
  const bool strings = a.operand.kind() == value::Kind::String &&
                       b.operand.kind() == value::Kind::String;
  const bool prefixy = (a.op == Op::Eq || a.op == Op::Prefix) &&
                       (b.op == Op::Eq || b.op == Op::Prefix);
  if (strings && prefixy) {
    std::string p = common_prefix(a.operand.as_string(), b.operand.as_string());
    if (!p.empty()) return AttributeConstraint{a.name, Op::Prefix, Value{std::move(p)}};
  }

  // Anything else still requires presence: Exists is a tighter join than ALL.
  if (a.op != Op::Any && b.op != Op::Any)
    return AttributeConstraint{a.name, Op::Exists, {}};
  return wildcard;
}

}  // namespace cake::filter
