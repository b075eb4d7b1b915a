#include "cake/index/index.hpp"

namespace cake::index {

std::unique_ptr<MatchIndex> make_index(Engine engine,
                                       const reflect::TypeRegistry& registry) {
  switch (engine) {
    case Engine::Naive: return std::make_unique<NaiveTable>(registry);
    case Engine::Counting: return std::make_unique<CountingIndex>(registry);
  }
  return std::make_unique<NaiveTable>(registry);
}

MatchScratch::CountingState& MatchScratch::counting_for(const void* owner,
                                                        std::size_t filters) {
  // Bound the per-owner cache: a scratch that has visited many short-lived
  // indexes sheds them all at once rather than leaking state forever.
  if (counting_.size() > 64 && !counting_.contains(owner)) counting_.clear();
  CountingState& state = counting_[owner];
  if (state.stamps.size() < filters) {
    // New entries get stamp 0; epoch is always ≥ 1 by the time they are
    // read, so they can never alias a live count.
    state.counts.resize(filters, 0);
    state.stamps.resize(filters, 0);
  }
  return state;
}

FilterId NaiveTable::add(filter::ConjunctiveFilter filter) {
  slots_.emplace_back(std::move(filter));
  ++live_;
  return slots_.size() - 1;
}

void NaiveTable::remove(FilterId id) {
  if (id < slots_.size() && slots_[id].has_value()) {
    slots_[id].reset();
    --live_;
  }
}

void NaiveTable::match(const event::EventImage& image, std::vector<FilterId>& out,
                       MatchScratch&) const {
  out.clear();
  for (FilterId id = 0; id < slots_.size(); ++id) {
    if (slots_[id].has_value() && slots_[id]->matches(image, registry_))
      out.push_back(id);
  }
}

const filter::ConjunctiveFilter* NaiveTable::find(FilterId id) const noexcept {
  if (id >= slots_.size() || !slots_[id].has_value()) return nullptr;
  return &*slots_[id];
}

FilterId CountingIndex::add(filter::ConjunctiveFilter filter) {
  const FilterId id = entries_.size();
  std::size_t required = 0;

  const auto& type = filter.type();
  if (!type.accepts_all()) {
    ++required;
    auto& bucket = type.include_subtypes ? subtree_type_[type.name.id]
                                         : exact_type_[type.name.id];
    bucket.push_back(id);
  }
  for (const auto& constraint : filter.constraints()) {
    if (constraint.is_wildcard()) continue;  // trivially satisfied
    ++required;
    AttrIndex& attr_index = by_attribute_[constraint.name.id];
    if (constraint.op == filter::Op::Eq)
      attr_index.equals[constraint.operand].push_back(id);
    else
      attr_index.other.emplace_back(constraint, id);
  }

  entries_.push_back(Entry{std::move(filter), required, true});
  ++live_;
  return id;
}

void CountingIndex::remove(FilterId id) {
  if (id < entries_.size() && entries_[id].alive) {
    entries_[id].alive = false;
    --live_;
  }
}

// `inline`: match() runs this once per satisfied predicate. Without the
// hint GCC 12 left three of its five call sites out of line, which cost
// biblio-sim throughput measurably.
inline void CountingIndex::bump(const Entry& entry, FilterId id,
                                std::vector<FilterId>& out,
                                MatchScratch::CountingState& state) {
  if (!entry.alive) return;
  if (state.stamps[id] != state.epoch) {
    state.stamps[id] = state.epoch;
    state.counts[id] = 0;
  }
  if (++state.counts[id] == entry.required) out.push_back(id);
}

void CountingIndex::match(const event::EventImage& image,
                          std::vector<FilterId>& out,
                          MatchScratch& scratch) const {
  out.clear();
  MatchScratch::CountingState& state =
      scratch.counting_for(this, entries_.size());
  ++state.epoch;

  // Filters with no non-trivial predicate match everything.
  for (FilterId id = 0; id < entries_.size(); ++id) {
    if (entries_[id].alive && entries_[id].required == 0) out.push_back(id);
  }

  // Type predicates: exact name, then every registered ancestor's subtree.
  // All lookups are by interned symbol id — integer hashes, no strings.
  if (const auto exact = exact_type_.find(image.type_id());
      exact != exact_type_.end()) {
    for (const FilterId id : exact->second) bump(entries_[id], id, out, state);
  }
  const reflect::TypeInfo* type = registry_.find(image.type_id());
  if (type != nullptr) {
    for (const reflect::TypeInfo* anc = type; anc != nullptr; anc = anc->parent()) {
      if (const auto it = subtree_type_.find(anc->symbol().id);
          it != subtree_type_.end())
        for (const FilterId id : it->second) bump(entries_[id], id, out, state);
    }
  } else if (const auto it = subtree_type_.find(image.type_id());
             it != subtree_type_.end()) {
    // Unregistered event type: a subtree rooted at exactly this name still
    // matches (conformance is reflexive).
    for (const FilterId id : it->second) bump(entries_[id], id, out, state);
  }

  // Attribute predicates.
  for (const auto& attr : image.attributes()) {
    const auto it = by_attribute_.find(attr.id);
    if (it == by_attribute_.end()) continue;
    const AttrIndex& attr_index = it->second;
    if (const auto eq = attr_index.equals.find(attr.value);
        eq != attr_index.equals.end()) {
      for (const FilterId id : eq->second) bump(entries_[id], id, out, state);
    }
    for (const auto& [constraint, id] : attr_index.other) {
      if (applies(constraint.op, attr.value, constraint.operand))
        bump(entries_[id], id, out, state);
    }
  }
}

const filter::ConjunctiveFilter* CountingIndex::find(FilterId id) const noexcept {
  if (id >= entries_.size() || !entries_[id].alive) return nullptr;
  return &entries_[id].filter;
}

}  // namespace cake::index
