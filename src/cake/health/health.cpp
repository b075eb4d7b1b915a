#include "cake/health/health.hpp"

#include <stdexcept>

namespace cake::health {

std::string_view to_string(NodeState state) noexcept {
  switch (state) {
    case NodeState::Healthy: return "Healthy";
    case NodeState::Backpressured: return "Backpressured";
    case NodeState::Shedding: return "Shedding";
    case NodeState::Quarantining: return "Quarantining";
  }
  return "?";
}

void Watermarks::validate(std::string_view what) const {
  if (low == 0 || low >= high || high >= capacity)
    throw std::invalid_argument{
        std::string{what} + ": watermarks must satisfy 0 < low < high < "
        "capacity, got low=" + std::to_string(low) +
        " high=" + std::to_string(high) +
        " capacity=" + std::to_string(capacity) +
        " (low is the hysteresis drain target, high engages backpressure, "
        "capacity is the shed bound)"};
}

NodeState QueueHealth::observe(std::size_t depth) noexcept {
  switch (state_) {
    case NodeState::Healthy:
      if (depth >= marks_.capacity) {
        state_ = NodeState::Shedding;
        ++escalations_;
      } else if (depth >= marks_.high) {
        state_ = NodeState::Backpressured;
        ++escalations_;
      }
      break;
    case NodeState::Backpressured:
      if (depth >= marks_.capacity) {
        state_ = NodeState::Shedding;
        ++escalations_;
      } else if (depth <= marks_.low) {
        state_ = NodeState::Healthy;
      }
      break;
    case NodeState::Shedding:
      // Recovery from Shedding passes straight to Healthy once the queue
      // has drained to the low watermark; the intermediate band keeps it
      // Shedding so the bound is defended until real headroom exists.
      if (depth <= marks_.low) state_ = NodeState::Healthy;
      break;
    case NodeState::Quarantining:
      // Imposed and lifted externally (broker slow-child detector);
      // observe() never enters or leaves it.
      break;
  }
  return state_;
}

void validate_rto_vs_ttl(std::uint64_t rto_max, std::uint64_t ttl) {
  if (rto_max * 4 > ttl)
    throw std::invalid_argument{
        "config: rto_max=" + std::to_string(rto_max) +
        "us is too close to the lease ttl=" + std::to_string(ttl) +
        "us (need 4*rto_max <= ttl); under sustained loss the retransmit "
        "cadence is what lands renewals before leases expire, so lower "
        "rto_max or raise the ttl"};
}

void validate_heartbeat_misses(std::uint32_t heartbeat_misses) {
  if (heartbeat_misses < 2)
    throw std::invalid_argument{
        "config: heartbeat_misses=" + std::to_string(heartbeat_misses) +
        " guarantees false positives (an idle peer is declared dead before "
        "its first ping can draw a reply); use >= 2"};
}

void validate_dedup_capacity(std::size_t dedup_capacity,
                             std::size_t link_window) {
  if (dedup_capacity < link_window)
    throw std::invalid_argument{
        "config: dedup window=" + std::to_string(dedup_capacity) +
        " is smaller than the link window=" + std::to_string(link_window) +
        "; the event-id ring must cover at least one in-flight window or "
        "retransmitted/replayed copies escape the exactly-once dedup"};
}

}  // namespace cake::health
