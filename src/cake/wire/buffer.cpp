#include "cake/wire/buffer.hpp"

#include <utility>

namespace cake::wire {

namespace {

// Thread-local free lists: each thread returns buffers and holder nodes to
// its own pool, so cross-thread Frame destruction is safe without locks.
// Bounded so a burst can't pin unbounded capacity.
constexpr std::size_t kMaxPooled = 64;

// Capacity of a buffer minted on a pool miss: room for a typical event
// frame (~100 bytes), so encoding one does not regrow the vector byte by
// doubling byte. Larger frames still grow as needed.
constexpr std::size_t kFreshCapacity = 128;

std::vector<std::vector<std::byte>>& pool() {
  thread_local std::vector<std::vector<std::byte>> buffers;
  return buffers;
}

}  // namespace

std::vector<std::byte> acquire_buffer() {
  auto& p = pool();
  if (p.empty()) {
    std::vector<std::byte> fresh;
    fresh.reserve(kFreshCapacity);
    return fresh;
  }
  std::vector<std::byte> buf = std::move(p.back());
  p.pop_back();
  buf.clear();
  return buf;
}

void release_buffer(std::vector<std::byte>&& buf) noexcept {
  if (buf.capacity() == 0) return;
  auto& p = pool();
  if (p.size() >= kMaxPooled) return;  // excess capacity is just freed
  p.push_back(std::move(buf));
}

namespace {

// Freelist of holder nodes. The wrapper's destructor frees leftovers at
// thread exit, so the pool never leaks under LeakSanitizer.
struct HolderFreelist {
  std::vector<detail::FrameHolder*> nodes;
  ~HolderFreelist() {
    for (detail::FrameHolder* h : nodes) delete h;
  }
};

std::vector<detail::FrameHolder*>& holder_pool() {
  thread_local HolderFreelist freelist;
  return freelist.nodes;
}

}  // namespace

detail::FrameHolder* Frame::make_holder(std::vector<std::byte> buf) {
  auto& p = holder_pool();
  if (!p.empty()) {
    Holder* h = p.back();
    p.pop_back();
    h->buf = std::move(buf);
    h->refs.store(1, std::memory_order_relaxed);
    h->verified.store(false, std::memory_order_relaxed);
    // The memo object stays (its capacity is reused), its contents do not.
    h->memo_state.store(detail::kMemoEmpty, std::memory_order_relaxed);
    return h;
  }
  Holder* h = new Holder;
  h->buf = std::move(buf);
  return h;
}

void Frame::release(Holder* h) noexcept {
  // acq_rel: the last releaser must observe every other thread's reads of
  // the buffer as complete before recycling it.
  if (h->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  release_buffer(std::move(h->buf));
  h->buf = {};
  auto& p = holder_pool();
  if (p.size() < kMaxPooled) {
    p.push_back(h);
    return;
  }
  delete h;
}

Frame::Frame(std::vector<std::byte> bytes)
    : holder_(make_holder(std::move(bytes))), offset_(0) {}

}  // namespace cake::wire
