#include "cake/index/sharded.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <thread>

namespace cake::index {

namespace {

std::size_t default_shard_count() {
  const unsigned cores = std::thread::hardware_concurrency();
  const std::size_t want = cores == 0 ? 8 : std::bit_ceil<std::size_t>(cores);
  return std::clamp<std::size_t>(want, 4, 64);
}

}  // namespace

ShardedIndex::ShardedIndex(const reflect::TypeRegistry& registry,
                           std::size_t shards) {
  const std::size_t count =
      shards == 0 ? default_shard_count() : std::bit_ceil(shards);
  shards_ = std::vector<Shard>(count);
  for (Shard& shard : shards_)
    shard.inner = std::make_unique<CountingIndex>(registry);
}

FilterId ShardedIndex::add(filter::ConjunctiveFilter filter) {
  const filter::TypeConstraint& type = filter.type();
  // Subtype-inclusive filters match an open set of concrete classes (new
  // subtypes may register later), so like accept-all filters they go to
  // every shard; only exact-type filters can be pinned.
  const bool broad = type.accepts_all() || type.include_subtypes;

  FilterId id;
  {
    std::unique_lock meta_lock{meta_mutex_};
    id = placements_.size();
    placements_.emplace_back();  // placeholder; published below
  }

  // Adds to one shard under its writer lock and maps the inner id back.
  const auto insert = [id](Shard& shard, filter::ConjunctiveFilter f) {
    std::unique_lock shard_lock{shard.mutex};
    const FilterId inner_id = shard.inner->add(std::move(f));
    if (inner_id >= shard.to_outer.size()) shard.to_outer.resize(inner_id + 1);
    shard.to_outer[inner_id] = id;
    return inner_id;
  };
  Placement placement;
  placement.alive = true;
  if (broad) {
    placement.inner.reserve(shards_.size());
    for (Shard& shard : shards_)
      placement.inner.push_back(insert(shard, filter));
  } else {
    placement.shard = shard_of(type.name.text);
    placement.inner.push_back(
        insert(shards_[placement.shard], std::move(filter)));
  }

  {
    std::unique_lock meta_lock{meta_mutex_};
    placements_[id] = std::move(placement);
  }
  live_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void ShardedIndex::remove(FilterId id) {
  Placement placement;
  {
    std::unique_lock meta_lock{meta_mutex_};
    if (id >= placements_.size() || !placements_[id].alive) return;
    placements_[id].alive = false;  // claims the shard removals below
    placement = placements_[id];
  }
  live_.fetch_sub(1, std::memory_order_relaxed);

  for (std::size_t i = 0; i < placement.inner.size(); ++i) {
    Shard& shard = shards_[placement.shard + i];
    std::unique_lock shard_lock{shard.mutex};
    shard.inner->remove(placement.inner[i]);
  }
}

void ShardedIndex::match(const event::EventImage& image,
                         std::vector<FilterId>& out,
                         MatchScratch& scratch) const {
  out.clear();
  const Shard& shard = shards_[shard_of(image.type_name())];
  {
    std::shared_lock shard_lock{shard.mutex};
    shard.inner->match(image, scratch.shard_ids_, scratch);
    out.reserve(scratch.shard_ids_.size());
    for (const FilterId inner_id : scratch.shard_ids_)
      out.push_back(shard.to_outer[inner_id]);
  }
  shard.matches.fetch_add(1, std::memory_order_relaxed);
  if (!out.empty()) shard.hits.fetch_add(1, std::memory_order_relaxed);
}

const filter::ConjunctiveFilter* ShardedIndex::find(FilterId id) const noexcept {
  Placement placement;
  {
    std::shared_lock meta_lock{meta_mutex_};
    if (id >= placements_.size() || !placements_[id].alive) return nullptr;
    placement = placements_[id];
  }
  const Shard& shard = shards_[placement.shard];
  std::shared_lock shard_lock{shard.mutex};
  return shard.inner->find(placement.inner.front());
}

std::vector<ShardStats> ShardedIndex::shard_stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    std::shared_lock shard_lock{shard.mutex};
    stats.push_back(ShardStats{s, shard.matches.load(std::memory_order_relaxed),
                               shard.hits.load(std::memory_order_relaxed),
                               shard.inner->size()});
  }
  return stats;
}

}  // namespace cake::index
