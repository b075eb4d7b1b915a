// Overload-control vocabulary shared by every queue the system owns
// (DESIGN.md §15). The paper's overlay assumes consumers keep up; at the
// ROADMAP's "millions of users" scale one stalled subscriber or a 10x
// publish storm must degrade goodput gracefully instead of exhausting
// memory or starving the control plane. This module holds the pieces every
// layer agrees on:
//
//   * `Watermarks` — the low/high/capacity triple each bounded queue is
//     configured with (low < high < capacity, validated at startup);
//   * `QueueHealth` — the per-queue hysteresis state machine
//     Healthy → Backpressured → Shedding (Quarantining is imposed from
//     outside by the broker's slow-child detector);
//   * `push_bounded` — the drop-oldest append every parking pen uses
//     (grace pen, slow-child pens, detached-durable buffers, stall inbox);
//   * startup validation for documented invariants that were previously
//     only prose: `rto_max` ≪ lease TTL, `heartbeat_misses ≥ 2`, the
//     dedup window covering the link window, and watermark ordering.
//
// The one rule every layer enforces structurally rather than by policy:
// control traffic (Subscribe/Renew/Ack/Heartbeat) is never shed and never
// starved behind event traffic. Shedding applies to events only, and every
// shed is accounted against the conservation identity
// `published == delivered + shed + in_flight` (metrics::ShedLedger).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>

namespace cake::health {

/// Degradation ladder of one node (or one queue, when imposed per-queue).
/// States only ever step along the ladder; hysteresis (recovery requires
/// draining to the *low* watermark, not just below high) keeps a queue
/// hovering at a boundary from flapping.
enum class NodeState : std::uint8_t {
  Healthy,        ///< below the high watermark; admit everything
  Backpressured,  ///< above high: producers pace (block or queue upstream)
  Shedding,       ///< at capacity: events shed drop-newest, control exempt
  Quarantining,   ///< slow-consumer pen: traffic parked, drained on recovery
};

[[nodiscard]] std::string_view to_string(NodeState state) noexcept;

/// Appends `item` to a drop-oldest pen of at most `limit` entries. Returns
/// false when the append cost a frame the caller must count as shed: the
/// oldest entry, or `item` itself when `limit` is 0 (a pen that holds
/// nothing).
template <typename T>
bool push_bounded(std::deque<T>& pen, std::size_t limit, T item) {
  if (limit == 0) return false;
  const bool room = pen.size() < limit;
  if (!room) pen.pop_front();
  pen.push_back(std::move(item));
  return room;
}

/// The low/high/capacity triple of one bounded queue. `low` is the drain
/// target hysteresis recovers at, `high` the point backpressure engages,
/// `capacity` the hard bound shedding defends.
struct Watermarks {
  std::size_t low = 256;
  std::size_t high = 768;
  std::size_t capacity = 1024;

  /// Throws std::invalid_argument unless 0 < low < high < capacity.
  /// `what` names the queue in the error message.
  void validate(std::string_view what) const;
};

/// Hysteresis state machine over one queue's depth. Feed it the depth on
/// every change; it reports the state and counts upward transitions.
class QueueHealth {
public:
  QueueHealth() = default;
  explicit QueueHealth(Watermarks marks) : marks_(marks) {}

  [[nodiscard]] NodeState state() const noexcept { return state_; }
  [[nodiscard]] const Watermarks& watermarks() const noexcept { return marks_; }

  /// Observes the current queue depth; returns the (possibly new) state.
  /// Healthy → Backpressured at `high`, → Shedding at `capacity`; recovery
  /// only at `low` (full hysteresis — no flapping at the boundaries).
  NodeState observe(std::size_t depth) noexcept;

  /// Upward transitions seen (entries into Backpressured or Shedding).
  [[nodiscard]] std::uint64_t escalations() const noexcept {
    return escalations_;
  }

private:
  Watermarks marks_;
  NodeState state_ = NodeState::Healthy;
  std::uint64_t escalations_ = 0;
};

/// Startup validation of documented invariants (throws std::invalid_argument
/// with an actionable message naming the offending values and the rule).
/// The parameters are plain integers so this layer stays dependency-free;
/// routing::Overlay feeds it the configured LinkOptions/BrokerConfig fields.

/// `rto_max` must sit well below the lease TTL: under sustained loss the
/// retransmit cadence is what keeps renewals landing before leases expire,
/// so a backoff ceiling near the TTL starves the lease pipeline no matter
/// what the overlay does. Enforced rule: 4 * rto_max <= ttl.
void validate_rto_vs_ttl(std::uint64_t rto_max, std::uint64_t ttl);

/// Below 2, an idle-but-healthy peer is declared dead on its first silent
/// interval before any ping can draw a reply — a guaranteed false positive
/// on every idle link.
void validate_heartbeat_misses(std::uint32_t heartbeat_misses);

/// The subscriber event-id dedup window must cover every copy a fault
/// window can re-serve: it has to span at least the reliable link's
/// in-flight window (retransmits of the same session) or the journal replay
/// cannot be collapsed to exactly-once. Enforced rule: dedup_capacity >=
/// link window. The caller gates it to reliable links, the only ones with a
/// window.
void validate_dedup_capacity(std::size_t dedup_capacity,
                             std::size_t link_window);

}  // namespace cake::health
