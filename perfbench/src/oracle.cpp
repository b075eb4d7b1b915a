#include "oracle.hpp"

#include <algorithm>

#include "cake/baseline/baseline.hpp"

namespace perfbench {

namespace {

std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t content_key(const event::EventImage& image) {
  std::uint64_t h = mix(image.type_id());
  for (const auto& attr : image.attributes())
    h ^= mix(attr.id * 0x100000001b3ull ^ std::hash<value::Value>{}(attr.value));
  return h;
}

Verdict& Verdict::operator+=(const Verdict& o) noexcept {
  expected += o.expected;
  delivered += o.delivered;
  missed += o.missed;
  duplicates += o.duplicates;
  spurious += o.spurious;
  return *this;
}

Verdict compare(std::vector<Delivery>& expected, std::vector<Delivery>& actual) {
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  Verdict v;
  v.expected = expected.size();
  v.delivered = actual.size();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < expected.size() || j < actual.size()) {
    Delivery d;
    if (j == actual.size() || (i < expected.size() && expected[i] < actual[j]))
      d = expected[i];
    else
      d = actual[j];
    std::uint64_t e = 0;
    std::uint64_t a = 0;
    while (i < expected.size() && expected[i] == d) ++e, ++i;
    while (j < actual.size() && actual[j] == d) ++a, ++j;
    if (e == 0)
      v.spurious += a;
    else if (a < e)
      v.missed += e - a;
    else
      v.duplicates += a - e;
  }
  return v;
}

std::vector<Delivery> expected_deliveries(
    const std::vector<filter::ConjunctiveFilter>& filters, std::size_t events,
    const std::function<event::EventImage(std::size_t)>& image,
    const std::function<bool(std::size_t, std::uint32_t)>& live,
    const std::function<std::uint64_t(std::size_t, const event::EventImage&)>& key) {
  baseline::CentralizedServer server;
  for (std::size_t i = 0; i < filters.size(); ++i)
    server.subscribe(filters[i], static_cast<baseline::SubscriberId>(i));
  std::vector<Delivery> out;
  std::size_t current = 0;
  server.set_delivery_handler(
      [&](baseline::SubscriberId sub, const event::EventImage& delivered) {
        if (live(current, sub)) out.push_back(Delivery{sub, key(current, delivered)});
      });
  for (current = 0; current < events; ++current) server.publish(image(current));
  return out;
}

}  // namespace perfbench
