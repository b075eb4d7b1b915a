#include "cake/weaken/weaken.hpp"

#include <algorithm>

namespace cake::weaken {

using filter::AttributeConstraint;
using filter::ConjunctiveFilter;
using filter::TypeConstraint;

ConjunctiveFilter weaken_filter(const ConjunctiveFilter& filter,
                                const StageSchema& schema, std::size_t stage) {
  const auto& kept = schema.attributes_at(stage);
  std::vector<AttributeConstraint> constraints;
  for (const auto& constraint : filter.constraints()) {
    if (constraint.is_wildcard()) continue;
    if (std::find(kept.begin(), kept.end(), constraint.name.text) != kept.end())
      constraints.push_back(constraint);
  }
  return ConjunctiveFilter{filter.type(), std::move(constraints)};
}

event::EventImage weaken_image(const event::EventImage& image,
                               const StageSchema& schema, std::size_t stage) {
  return image.project(schema.attributes_at(stage));
}

std::vector<ConjunctiveFilter> collapse(std::vector<ConjunctiveFilter> filters,
                                        const reflect::TypeRegistry& registry) {
  // Decide survivors first, then move: moving eagerly would corrupt the
  // filters still being compared against.
  std::vector<bool> dominated(filters.size(), false);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    for (std::size_t j = 0; j < filters.size() && !dominated[i]; ++j) {
      if (i == j || dominated[j]) continue;
      if (!covers(filters[j], filters[i], registry)) continue;
      // j covers i. Drop i unless they are mutually covering duplicates,
      // in which case keep only the first occurrence.
      dominated[i] = !covers(filters[i], filters[j], registry) || j < i;
    }
  }
  std::vector<ConjunctiveFilter> kept;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    if (!dominated[i]) kept.push_back(std::move(filters[i]));
  }
  return kept;
}

namespace {

/// Nearest common ancestor type constraint, or accept-all when unrelated.
TypeConstraint join_types(const TypeConstraint& a, const TypeConstraint& b,
                          const reflect::TypeRegistry& registry) {
  if (TypeConstraint::covers(a, b, registry)) return a;
  if (TypeConstraint::covers(b, a, registry)) return b;
  const reflect::TypeInfo* ta = registry.find(a.name.id);
  const reflect::TypeInfo* tb = registry.find(b.name.id);
  if (ta != nullptr && tb != nullptr) {
    for (const reflect::TypeInfo* anc = ta; anc != nullptr; anc = anc->parent()) {
      if (tb->conforms_to(*anc)) return TypeConstraint{anc->symbol(), true};
    }
  }
  return TypeConstraint{};  // unrelated: accept every type
}

}  // namespace

ConjunctiveFilter join_filters(const ConjunctiveFilter& a,
                               const ConjunctiveFilter& b,
                               const reflect::TypeRegistry& registry) {
  TypeConstraint type = join_types(a.type(), b.type(), registry);
  std::vector<AttributeConstraint> joined;
  for (const auto& ca : a.constraints()) {
    if (ca.is_wildcard()) continue;
    // Join against every b-constraint on the same attribute; all must be
    // folded in for the result to cover b's conjunction on that attribute.
    // A conjunction on the b side only needs ONE of its conjuncts covered,
    // so we join with the single constraint yielding the tightest result —
    // soundly approximated by joining pairwise and keeping any non-wildcard.
    AttributeConstraint best{ca.name, filter::Op::Any, {}};
    bool seen = false;
    for (const auto& cb : b.constraints()) {
      if (cb.name != ca.name || cb.is_wildcard()) continue;
      const AttributeConstraint candidate = relax_join(ca, cb);
      if (!seen || filter::covers(best, candidate)) {
        best = candidate;  // keep the strongest (most specific) join
        seen = true;
      }
    }
    if (seen && best.op != filter::Op::Any) joined.push_back(std::move(best));
  }
  return ConjunctiveFilter{std::move(type), std::move(joined)};
}

}  // namespace cake::weaken
