// Delivery oracle: the deliveries the centralized exact matcher
// (baseline::CentralizedServer) makes for the same filters and images are
// the specification; handler calls observed through the overlay are
// compared against them per (subscription, event key).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <vector>

#include "cake/event/event.hpp"
#include "cake/filter/filter.hpp"
#include "harness.hpp"

namespace perfbench {

/// One handler invocation: subscription index and event key. Biblio
/// images carry no unique field, so their key is a hash of the image
/// content (equal images share a key); Stock events are keyed by the
/// event index the benchmark writes into `volume`.
struct Delivery {
  std::uint32_t sub = 0;
  std::uint64_t key = 0;
  auto operator<=>(const Delivery&) const = default;
};

/// Order-independent 64-bit hash of an image's type and attribute values.
[[nodiscard]] std::uint64_t content_key(const event::EventImage& image);

struct Verdict {
  std::uint64_t expected = 0;    ///< deliveries the exact matcher makes
  std::uint64_t delivered = 0;   ///< handler calls observed
  std::uint64_t missed = 0;      ///< expected, never delivered
  std::uint64_t duplicates = 0;  ///< delivered more often than expected
  std::uint64_t spurious = 0;    ///< delivered, never expected
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return missed + duplicates + spurious;
  }
  Verdict& operator+=(const Verdict& o) noexcept;
};

/// Compares the multisets; sorts both vectors in place.
[[nodiscard]] Verdict compare(std::vector<Delivery>& expected,
                              std::vector<Delivery>& actual);

/// Expected deliveries of `events` events, published in order (event i has
/// the image `image(i)`), to `filters` (subscription i = filters[i]) by the
/// centralized exact matcher. `live(event, sub)` says whether subscription
/// `sub` is subscribed when event `event` is published; `key(event, image)`
/// names the event. Images are built one at a time, so the oracle's memory
/// stays out of the workload's peak RSS.
[[nodiscard]] std::vector<Delivery> expected_deliveries(
    const std::vector<filter::ConjunctiveFilter>& filters, std::size_t events,
    const std::function<event::EventImage(std::size_t event)>& image,
    const std::function<bool(std::size_t event, std::uint32_t sub)>& live,
    const std::function<std::uint64_t(std::size_t event,
                                      const event::EventImage&)>& key);

}  // namespace perfbench
