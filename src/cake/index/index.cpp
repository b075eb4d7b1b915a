#include "cake/index/index.hpp"

#include <algorithm>

namespace cake::index {

std::unique_ptr<MatchIndex> make_index(Engine engine,
                                       const reflect::TypeRegistry& registry) {
  switch (engine) {
    case Engine::Naive: return std::make_unique<NaiveTable>(registry);
    case Engine::Counting: return std::make_unique<CountingIndex>(registry);
  }
  return std::make_unique<NaiveTable>(registry);
}

void MatchScratch::rebind(const void* owner) {
  // Bound the per-owner cache: a scratch that has visited many short-lived
  // indexes sheds them all at once rather than leaking state forever.
  if (counting_.size() > 64 && !counting_.contains(owner)) counting_.clear();
  last_owner_ = owner;
  last_state_ = &counting_[owner];  // node-based: stable until the clear
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

// The event's type, resolved against the registry at most once per match
// and only if a subtype-inclusive test needs its ancestors.
class CountingIndex::EventType {
public:
  EventType(symbol::Id id, const reflect::TypeRegistry& registry) noexcept
      : id_(id), registry_(registry) {}

  [[nodiscard]] symbol::Id id() const noexcept { return id_; }

  /// The registered type, or null for an unregistered one.
  [[nodiscard]] const reflect::TypeInfo* info() const noexcept {
    if (!resolved_) {
      info_ = registry_.find(id_);
      resolved_ = true;
    }
    return info_;
  }

  /// TypeConstraint::matches, from a filter's hot state.
  [[nodiscard]] bool passes(const Hot& hot) const noexcept {
    if (hot.type == 0 || hot.type == id_) return true;
    if (!hot.include_subtypes) return false;
    for (const reflect::TypeInfo* anc = info(); anc != nullptr; anc = anc->parent()) {
      if (anc->symbol().id == hot.type) return true;
    }
    return false;
  }

private:
  symbol::Id id_;
  const reflect::TypeRegistry& registry_;
  mutable const reflect::TypeInfo* info_ = nullptr;
  mutable bool resolved_ = false;
};

inline std::uint32_t CountingIndex::find_posting(std::uint64_t key, symbol::Id attr,
                                          const value::Value& value) const noexcept {
  if (slots_.empty()) return kEmptySlot;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = key & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.posting == kEmptySlot) return kEmptySlot;
    if (slot.key == key) {
      const Posting& posting = postings_[slot.posting];
      if (posting.attr == attr && posting.operand == value) return slot.posting;
    }
  }
}

std::vector<FilterId>& CountingIndex::posting_for(symbol::Id attr,
                                                  const value::Value& operand) {
  const std::uint64_t key = event::key_of(attr, operand);
  if (const std::uint32_t found = find_posting(key, attr, operand);
      found != kEmptySlot)
    return postings_[found].ids;

  if (2 * (postings_.size() + 1) > slots_.size()) {
    // Grow to keep the table at most half full, re-placing every posting.
    std::vector<Slot> grown(std::max<std::size_t>(16, 2 * slots_.size()));
    const std::size_t mask = grown.size() - 1;
    for (const Slot& slot : slots_) {
      if (slot.posting == kEmptySlot) continue;
      std::size_t i = slot.key & mask;
      while (grown[i].posting != kEmptySlot) i = (i + 1) & mask;
      grown[i] = slot;
    }
    slots_ = std::move(grown);
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = key & mask;
  while (slots_[i].posting != kEmptySlot) i = (i + 1) & mask;
  slots_[i] = Slot{key, static_cast<std::uint32_t>(postings_.size())};
  postings_.push_back(Posting{attr, operand, {}});
  return postings_.back().ids;
}

FilterId CountingIndex::add(filter::ConjunctiveFilter filter) {
  const FilterId id = entries_.size();
  const filter::TypeConstraint& type = filter.type();
  Hot hot{0, type.name.id, type.include_subtypes, true};

  for (const auto& constraint : filter.constraints()) {
    if (constraint.is_wildcard()) continue;  // trivially satisfied
    ++hot.required;
    const symbol::Id attr = constraint.name.id;
    if (constraint.op == filter::Op::Eq) {
      posting_for(attr, constraint.operand).push_back(id);
      continue;
    }
    if (attr >= others_at_.size()) others_at_.resize(attr + 1, 0);
    if (others_at_[attr] == 0) {
      others_.emplace_back();
      others_at_[attr] = static_cast<std::uint32_t>(others_.size());
    }
    others_[others_at_[attr] - 1].push_back(Other{constraint.op, constraint.operand, id});
  }
  if (hot.required == 0) {
    if (type.accepts_all())
      accept_all_.push_back(id);
    else
      (type.include_subtypes ? subtree_type_ : exact_type_)[type.name.id].push_back(id);
  }

  entries_.push_back(Entry{std::move(filter)});
  hot_.push_back(hot);
  ++live_;
  return id;
}

void CountingIndex::remove(FilterId id) {
  if (id >= hot_.size() || !hot_[id].alive) return;
  hot_[id].alive = false;
  entries_[id] = Entry{};  // release the filter's storage
  --live_;
  // The id stays in its lists, skipped by the alive test, until dead ids
  // outnumber live ones: compaction is then linear in what it sweeps, so
  // a remove costs O(1) amortized and a match walks at most 2× the ids.
  if (++dead_ > live_) compact();
}

void CountingIndex::compact() {
  const auto dead = [this](FilterId id) { return !hot_[id].alive; };
  for (Posting& posting : postings_) std::erase_if(posting.ids, dead);
  for (std::vector<Other>& others : others_)
    std::erase_if(others, [&](const Other& other) { return dead(other.id); });
  std::erase_if(accept_all_, dead);
  for (auto* lists : {&exact_type_, &subtree_type_}) {
    for (auto& [type, ids] : *lists) std::erase_if(ids, dead);
    // Dropping emptied types keeps empty() a fast path in match().
    std::erase_if(*lists, [](const auto& entry) { return entry.second.empty(); });
  }
  dead_ = 0;
}

// `inline`: match() runs this once per satisfied predicate; out of line it
// cost biblio-sim throughput measurably.
inline void CountingIndex::bump(FilterId id, const EventType& type,
                                std::vector<FilterId>& out,
                                MatchScratch::CountingState& state) const {
  MatchScratch::Tally& tally = state.tallies[id];
  if (tally.stamp != state.epoch) {
    tally.stamp = state.epoch;
    tally.count = 0;
  }
  const Hot& hot = hot_[id];
  if (++tally.count == hot.required && hot.alive && type.passes(hot))
    out.push_back(id);
}

void CountingIndex::match(const event::EventImage& image,
                          std::vector<FilterId>& out,
                          MatchScratch& scratch) const {
  out.clear();
  const EventType type{image.type_id(), registry_};

  // Filters with no attribute predicate: accept-all, then type-only.
  const auto add_live = [&](const std::vector<FilterId>& ids) {
    for (const FilterId id : ids) {
      if (hot_[id].alive) out.push_back(id);
    }
  };
  add_live(accept_all_);
  if (!exact_type_.empty()) {
    if (const auto it = exact_type_.find(type.id()); it != exact_type_.end())
      add_live(it->second);
  }
  if (!subtree_type_.empty()) {
    const auto add_subtree = [&](symbol::Id root) {
      if (const auto it = subtree_type_.find(root); it != subtree_type_.end())
        add_live(it->second);
    };
    if (const reflect::TypeInfo* info = type.info()) {
      for (const reflect::TypeInfo* anc = info; anc != nullptr; anc = anc->parent())
        add_subtree(anc->symbol().id);
    } else {
      // Unregistered event type: a subtree rooted at exactly this name
      // still matches (conformance is reflexive).
      add_subtree(type.id());
    }
  }

  // Attribute predicates: one key probe and one array load per attribute.
  if (postings_.empty() && others_.empty()) return;
  MatchScratch::CountingState& state = scratch.counting_for(this, hot_.size());
  ++state.epoch;
  for (const event::ImageAttribute& attr : image.attributes()) {
    if (const std::uint32_t posting = find_posting(attr.key, attr.id, attr.value);
        posting != kEmptySlot) {
      for (const FilterId id : postings_[posting].ids) bump(id, type, out, state);
    }
    if (attr.id < others_at_.size() && others_at_[attr.id] != 0) {
      for (const Other& other : others_[others_at_[attr.id] - 1]) {
        if (applies(other.op, attr.value, other.operand))
          bump(other.id, type, out, state);
      }
    }
  }
}

const filter::ConjunctiveFilter* CountingIndex::find(FilterId id) const noexcept {
  if (id >= hot_.size() || !hot_[id].alive) return nullptr;
  return &entries_[id].filter;
}

}  // namespace cake::index
