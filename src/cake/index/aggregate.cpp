#include "cake/index/aggregate.hpp"

#include <algorithm>
#include <mutex>

namespace cake::index {

AggregatedIndex::AggregatedIndex(AggregateConfig config,
                                 const reflect::TypeRegistry& registry)
    : registry_(registry),
      config_(config),
      inner_(registry) {
  if (config_.max_group == 0) config_.max_group = 1;
}

std::string AggregatedIndex::signature(const filter::ConjunctiveFilter& f) {
  std::string sig{f.type().name.text};
  sig += f.type().include_subtypes ? "\x01s" : "\x01e";
  std::vector<std::string_view> attrs;
  attrs.reserve(f.constraints().size());
  for (const auto& c : f.constraints()) {
    if (!c.is_wildcard()) attrs.push_back(c.name.text);
  }
  std::sort(attrs.begin(), attrs.end());
  for (const std::string_view attr : attrs) {
    sig += '\x02';
    sig += attr;
  }
  return sig;
}

std::size_t AggregatedIndex::join_loss(const filter::ConjunctiveFilter& g,
                                       const filter::ConjunctiveFilter& joined) {
  // A constraint survives the join only if it appears verbatim in the
  // result; anything weakened (Eq → Prefix/Exists, tightened bound → laxer
  // bound) or dropped outright counts toward the widening budget.
  std::size_t loss = 0;
  for (const auto& c : g.constraints()) {
    if (c.is_wildcard()) continue;
    const bool kept = std::any_of(
        joined.constraints().begin(), joined.constraints().end(),
        [&](const filter::AttributeConstraint& j) { return j == c; });
    if (!kept) ++loss;
  }
  return loss;
}

bool AggregatedIndex::join_acceptable(const filter::ConjunctiveFilter& a,
                                      const filter::ConjunctiveFilter& b,
                                      const filter::ConjunctiveFilter& joined) const {
  // Never let a join erase the type test that both inputs had: an
  // accept-all entry would pull the whole event stream through this group.
  if (joined.type().accepts_all() && !a.type().accepts_all() &&
      !b.type().accepts_all())
    return false;
  return join_loss(a, joined) <= config_.max_loss &&
         join_loss(b, joined) <= config_.max_loss;
}

filter::ConjunctiveFilter AggregatedIndex::fold_members(
    const std::vector<FilterId>& ids) const {
  filter::ConjunctiveFilter rep = members_[ids.front()].filter;
  for (std::size_t i = 1; i < ids.size(); ++i)
    rep = weaken::join_filters(rep, members_[ids[i]].filter, registry_);
  return rep;
}

void AggregatedIndex::notify(const filter::ConjunctiveFilter* removed,
                             const filter::ConjunctiveFilter* added) {
  if (listener_) listener_(GroupUpdate{removed, added});
}

void AggregatedIndex::link_rep(std::size_t gid) {
  by_rep_[groups_[gid].rep].push_back(gid);
}

void AggregatedIndex::unlink_rep(std::size_t gid) {
  const auto it = by_rep_.find(groups_[gid].rep);
  if (it == by_rep_.end()) return;
  std::vector<std::size_t>& gids = it->second;
  gids.erase(std::remove(gids.begin(), gids.end(), gid), gids.end());
  if (gids.empty()) by_rep_.erase(it);
}

void AggregatedIndex::swap_rep(Group& group, filter::ConjunctiveFilter next) {
  const std::size_t gid = static_cast<std::size_t>(&group - groups_.data());
  unlink_rep(gid);
  const filter::ConjunctiveFilter old = std::move(group.rep);
  group.rep = std::move(next);
  link_rep(gid);
  inner_.remove(group.inner_id);
  by_inner_.erase(group.inner_id);
  group.inner_id = inner_.add(group.rep);
  by_inner_.emplace(group.inner_id,
                    static_cast<std::size_t>(&group - groups_.data()));
  notify(&old, &group.rep);
}

void AggregatedIndex::touch(std::size_t gid) {
  std::vector<std::size_t>& bucket = buckets_[groups_[gid].bucket];
  const auto it = std::find(bucket.begin(), bucket.end(), gid);
  if (it != bucket.end() && it != bucket.begin())
    std::rotate(bucket.begin(), it, it + 1);
}

FilterId AggregatedIndex::add(filter::ConjunctiveFilter filter) {
  std::unique_lock lock{mutex_};
  const FilterId outer = members_.size();

  // Pass 0 — exact duplicates: a filter identical to some live rep is
  // covered by definition, so it routes straight to that rep's first group
  // with space. Zipf-clustered populations are mostly duplicates, and the
  // bounded MRU probe below loses them whenever churn rotates the bucket;
  // the rep map keeps the common case O(1) and probe-independent.
  if (const auto hit = by_rep_.find(filter); hit != by_rep_.end()) {
    for (const std::size_t gid : hit->second) {
      Group& group = groups_[gid];
      if (group.members.size() >= config_.max_group) continue;
      group.members.push_back(outer);
      members_.push_back({std::move(filter), gid, true});
      ++live_;
      ++stats_.merges;
      touch(gid);
      return outer;
    }
  }

  std::string sig = signature(filter);
  std::vector<std::size_t>& bucket = buckets_[sig];

  // Pass 1 — free merges: a representative that already covers the filter
  // absorbs it without changing (join(rep, f) == rep), so the inner engine
  // and the upward advertisement stay untouched.
  std::size_t probed = 0;
  for (const std::size_t gid : bucket) {
    if (++probed > config_.probe_limit) break;
    Group& group = groups_[gid];
    if (group.members.size() >= config_.max_group) continue;
    if (!covers(group.rep, filter, registry_)) continue;
    group.members.push_back(outer);
    members_.push_back({std::move(filter), gid, true});
    ++live_;
    ++stats_.merges;
    touch(gid);
    return outer;
  }

  // Pass 2 — widening merges: join the candidate rep with the filter and
  // accept the first result the cost gate allows.
  probed = 0;
  for (const std::size_t gid : bucket) {
    if (++probed > config_.probe_limit) break;
    Group& group = groups_[gid];
    if (group.members.size() >= config_.max_group) continue;
    filter::ConjunctiveFilter joined =
        weaken::join_filters(group.rep, filter, registry_);
    if (!join_acceptable(group.rep, filter, joined)) {
      ++stats_.rejected;
      continue;
    }
    group.members.push_back(outer);
    members_.push_back({std::move(filter), gid, true});
    ++live_;
    ++stats_.merges;
    ++stats_.widening_merges;
    // Appending then folding the new member is exactly join(rep, f): the
    // canonical left-fold invariant extends by one step.
    swap_rep(group, std::move(joined));
    touch(gid);
    return outer;
  }

  // No acceptable home: the filter opens its own group.
  std::size_t gid;
  if (!free_groups_.empty()) {
    gid = free_groups_.back();
    free_groups_.pop_back();
  } else {
    gid = groups_.size();
    groups_.emplace_back();
  }
  Group& group = groups_[gid];
  group.rep = filter;
  group.members.assign(1, outer);
  group.bucket = std::move(sig);
  group.alive = true;
  group.inner_id = inner_.add(group.rep);
  by_inner_.emplace(group.inner_id, gid);
  link_rep(gid);
  buckets_[group.bucket].insert(buckets_[group.bucket].begin(), gid);
  members_.push_back({std::move(filter), gid, true});
  ++live_;
  ++live_groups_;
  notify(nullptr, &group.rep);
  return outer;
}

void AggregatedIndex::drop_group(std::size_t gid) {
  Group& group = groups_[gid];
  inner_.remove(group.inner_id);
  by_inner_.erase(group.inner_id);
  unlink_rep(gid);
  std::vector<std::size_t>& bucket = buckets_[group.bucket];
  bucket.erase(std::remove(bucket.begin(), bucket.end(), gid), bucket.end());
  if (bucket.empty()) buckets_.erase(group.bucket);
  const filter::ConjunctiveFilter retired = std::move(group.rep);
  group = Group{};
  free_groups_.push_back(gid);
  --live_groups_;
  ++stats_.group_drops;
  notify(&retired, nullptr);
}

void AggregatedIndex::remove(FilterId id) {
  std::unique_lock lock{mutex_};
  if (id >= members_.size() || !members_[id].alive) return;
  Member& member = members_[id];
  member.alive = false;
  --live_;
  const std::size_t gid = member.group;
  Group& group = groups_[gid];
  group.members.erase(
      std::remove(group.members.begin(), group.members.end(), id),
      group.members.end());
  if (group.members.empty()) {
    drop_group(gid);
    return;
  }
  ++stats_.unmerges;
  if (config_.inject_unmerge_bug) return;  // leave the stale, wider rep
  // Re-derive the canonical representative from the survivors. When the
  // departed member never widened the rep (the common, covered case) the
  // fold reproduces it exactly and the inner engine is left alone.
  filter::ConjunctiveFilter next = fold_members(group.members);
  if (next != group.rep) swap_rep(group, std::move(next));
}

void AggregatedIndex::match(const event::EventImage& image,
                            std::vector<FilterId>& out,
                            MatchScratch& scratch) const {
  std::shared_lock lock{mutex_};
  inner_.match(image, scratch.agg_ids_, scratch);
  out.clear();
  for (const FilterId inner_id : scratch.agg_ids_) {
    const auto it = by_inner_.find(inner_id);
    if (it == by_inner_.end()) continue;  // racing remove; superset-safe
    const Group& group = groups_[it->second];
    out.insert(out.end(), group.members.begin(), group.members.end());
  }
}

std::size_t AggregatedIndex::size() const noexcept {
  std::shared_lock lock{mutex_};
  return live_;
}

const filter::ConjunctiveFilter* AggregatedIndex::find(FilterId id) const noexcept {
  std::shared_lock lock{mutex_};
  if (id >= members_.size() || !members_[id].alive) return nullptr;
  return &members_[id].filter;
}

std::size_t AggregatedIndex::rebalance(std::size_t budget) {
  std::unique_lock lock{mutex_};
  if (groups_.empty() || budget == 0) return 0;
  std::size_t fused = 0;
  for (std::size_t step = 0; step < budget; ++step) {
    rebalance_cursor_ = (rebalance_cursor_ + 1) % groups_.size();
    const std::size_t gid = rebalance_cursor_;
    if (!groups_[gid].alive) continue;
    const std::vector<std::size_t>& bucket = buckets_[groups_[gid].bucket];
    std::size_t probed = 0;
    std::size_t victim = groups_.size();
    filter::ConjunctiveFilter fused_rep;
    for (const std::size_t other : bucket) {
      if (other == gid) continue;
      if (++probed > config_.probe_limit) break;
      Group& g = groups_[gid];
      Group& h = groups_[other];
      if (g.members.size() + h.members.size() > config_.max_group) continue;
      // The merged group's canonical rep continues g's fold over h's
      // members (associativity of join is not assumed, so the fold order
      // must be the concatenated member order).
      filter::ConjunctiveFilter joined = g.rep;
      for (const FilterId mid : h.members)
        joined = weaken::join_filters(joined, members_[mid].filter, registry_);
      if (!join_acceptable(g.rep, h.rep, joined)) {
        ++stats_.rejected;
        continue;
      }
      victim = other;
      fused_rep = std::move(joined);
      break;
    }
    if (victim == groups_.size()) continue;
    Group& g = groups_[gid];
    Group& h = groups_[victim];
    for (const FilterId mid : h.members) {
      members_[mid].group = gid;
      g.members.push_back(mid);
    }
    h.members.clear();
    drop_group(victim);
    if (fused_rep != g.rep) swap_rep(g, std::move(fused_rep));
    touch(gid);
    ++stats_.recluster_merges;
    ++fused;
  }
  return fused;
}

AggregateStats AggregatedIndex::stats() const {
  std::shared_lock lock{mutex_};
  AggregateStats s = stats_;
  s.constituents = live_;
  s.groups = live_groups_;
  return s;
}

std::vector<filter::ConjunctiveFilter> AggregatedIndex::group_reps() const {
  std::shared_lock lock{mutex_};
  std::vector<filter::ConjunctiveFilter> reps;
  reps.reserve(live_groups_);
  for (const Group& group : groups_) {
    if (group.alive) reps.push_back(group.rep);
  }
  return reps;
}

std::string AggregatedIndex::check_invariants() const {
  std::shared_lock lock{mutex_};
  std::size_t member_count = 0;
  for (FilterId id = 0; id < members_.size(); ++id) {
    const Member& member = members_[id];
    if (!member.alive) continue;
    ++member_count;
    if (member.group >= groups_.size() || !groups_[member.group].alive)
      return "live member " + std::to_string(id) + " points at a dead group";
    const std::vector<FilterId>& ids = groups_[member.group].members;
    if (std::count(ids.begin(), ids.end(), id) != 1)
      return "member " + std::to_string(id) +
             " not listed exactly once by its group";
  }
  if (member_count != live_) return "live-member count drifted";

  std::size_t group_count = 0;
  for (std::size_t gid = 0; gid < groups_.size(); ++gid) {
    const Group& group = groups_[gid];
    if (!group.alive) continue;
    ++group_count;
    if (group.members.empty())
      return "group " + std::to_string(gid) + " is alive but empty";
    for (const FilterId id : group.members) {
      if (id >= members_.size() || !members_[id].alive ||
          members_[id].group != gid)
        return "group " + std::to_string(gid) + " lists a foreign member";
      if (!covers(group.rep, members_[id].filter, registry_))
        return "group " + std::to_string(gid) +
               " rep does not cover member " + std::to_string(id);
    }
    if (fold_members(group.members) != group.rep)
      return "group " + std::to_string(gid) +
             " rep is not the canonical member fold";
    const auto it = by_inner_.find(group.inner_id);
    if (it == by_inner_.end() || it->second != gid)
      return "group " + std::to_string(gid) + " inner id is unmapped";
    const filter::ConjunctiveFilter* stored = inner_.find(group.inner_id);
    if (stored == nullptr || *stored != group.rep)
      return "inner engine disagrees with group " + std::to_string(gid);
    const auto bucket = buckets_.find(group.bucket);
    if (bucket == buckets_.end() ||
        std::count(bucket->second.begin(), bucket->second.end(), gid) != 1)
      return "group " + std::to_string(gid) + " missing from its bucket";
  }
  if (group_count != live_groups_) return "live-group count drifted";
  std::size_t rep_links = 0;
  for (const auto& [rep, gids] : by_rep_) {
    for (const std::size_t gid : gids) {
      ++rep_links;
      if (gid >= groups_.size() || !groups_[gid].alive ||
          groups_[gid].rep != rep)
        return "rep map lists a dead group or a stale representative";
    }
  }
  if (rep_links != group_count)
    return "rep map does not list every live group exactly once";
  if (by_inner_.size() != group_count) return "inner map holds dead groups";
  if (inner_.size() != group_count)
    return "inner engine size disagrees with live groups";
  for (const auto& [sig, ids] : buckets_) {
    for (const std::size_t gid : ids) {
      if (gid >= groups_.size() || !groups_[gid].alive ||
          groups_[gid].bucket != sig)
        return "bucket '" + sig + "' lists a dead or foreign group";
    }
  }
  return {};
}

}  // namespace cake::index
