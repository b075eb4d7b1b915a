// Allocation guard for the zero-allocation hot path (DESIGN.md §9).
//
// A counting `operator new` interposer pins the steady-state costs: an
// inner broker forwarding an EventMsg frame, and a subscriber receiving
// one, perform *zero* heap allocations per event (one decode per frame into
// the recycled frame's memo, frame pass-through), and `LocalBus::publish`
// settles to a small fixed constant. The interposer is
// global to this binary, which is why these tests live in their own
// executable instead of the GLOB'd cake_tests.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "cake/filter/filter.hpp"
#include "cake/index/index.hpp"
#include "cake/link/link.hpp"
#include "cake/routing/broker.hpp"
#include "cake/routing/endpoints.hpp"
#include "cake/routing/protocol.hpp"
#include "cake/runtime/local_bus.hpp"
#include "cake/runtime/sim_transport.hpp"
#include "cake/runtime/threaded.hpp"
#include "cake/sim/sim.hpp"
#include "cake/workload/generators.hpp"
#include "cake/workload/types.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

std::uint64_t news() { return g_news.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cake {
namespace {

using filter::FilterBuilder;
using filter::Op;
using value::Value;

// A Publication image whose title is longer than the SSO buffer: a decode
// that does not reuse the memo's string capacity allocates per event.
event::EventImage long_title_image() {
  return event::EventImage{
      "Publication",
      {{"year", Value{2002}},
       {"conference", Value{"ICDCS"}},
       {"author", Value{"Eugster"}},
       {"title",
        Value{"Event Systems: How to Have Your Cake and Eat It Too"}}}};
}

// An inner broker in steady state: decode memoized on the frame, frame
// pass-through.
// After warm-up (scratch capacities grown, symbols interned, hash maps
// populated), re-delivering the same published frame must not allocate at
// all — not in the network, not in the broker, not in the sink delivery.
TEST(AllocGuard, BrokerForwardPathIsAllocationFree) {
  workload::ensure_types_registered();
  const auto& registry = reflect::TypeRegistry::global();

  sim::Scheduler scheduler;
  runtime::SimTransport transport{scheduler};
  sim::Network network{scheduler, 10};

  routing::BrokerConfig config;
  config.auto_renew = false;  // static workload: no periodic tasks
  routing::Broker broker{1, 1, network, transport, registry, config,
                         util::Rng{7}};
  broker.start();

  // A plain sink stands in for the next hop (the subscriber edge has its
  // own guard below).
  network.attach(2, [](sim::NodeId, const sim::Network::Payload&) {});

  // Install a filter the event matches, through the wire like a child would.
  workload::BiblioGenerator gen{{}, 2002};
  const event::EventImage image = gen.next_event();
  const auto filter = FilterBuilder{"Publication"}
                          .where("year", Op::Eq, *image.find("year"))
                          .build();
  ASSERT_TRUE(filter.matches(image, registry));
  network.send(2, 1,
               routing::encode(routing::Packet{routing::ReqInsert{filter, 2}}));
  scheduler.run();

  // One pre-encoded event frame, re-sent for every iteration: the publisher
  // serializes once and every hop below passes bytes through.
  const sim::Network::Payload frame =
      routing::encode_event_frame(image, 0, 1, 0);

  for (int i = 0; i < 64; ++i) {  // warm-up: grow every capacity once
    network.send(0, 1, frame);
    scheduler.run();
  }
  const std::uint64_t forwarded_before = broker.stats().events_forwarded;

  const std::uint64_t before = news();
  for (int i = 0; i < 512; ++i) {
    network.send(0, 1, frame);
    scheduler.run();
  }
  const std::uint64_t after = news();

  EXPECT_EQ(after - before, 0u)
      << "steady-state forward path allocated on the heap";
  EXPECT_EQ(broker.stats().events_forwarded, forwarded_before + 512);
  EXPECT_EQ(broker.stats().malformed_packets, 0u);
}

// The reliable link layer must not tax the steady-state forward path: with
// sequencing, delayed cumulative ACKs and retransmit timers armed, an inner
// broker forwarding to an acknowledging peer still performs zero heap
// allocations per event once warm. The sink runs its own LinkManager so the
// full protocol round-trips: tagged data out, dedup + in-order release +
// standalone ACK back, window recycling at the broker.
TEST(AllocGuard, ReliableForwardPathIsAllocationFree) {
  workload::ensure_types_registered();
  const auto& registry = reflect::TypeRegistry::global();

  sim::Scheduler scheduler;
  runtime::SimTransport transport{scheduler};
  sim::Network network{scheduler, 10};

  link::LinkOptions reliable;
  reliable.reliability = link::Reliability::Reliable;
  reliable.ack_delay = 0;  // ack within the drain so the window never fills

  routing::BrokerConfig config;
  config.auto_renew = false;
  config.link = reliable;
  routing::Broker broker{1, 1, network, transport, registry, config,
                         util::Rng{7}};
  broker.start();

  link::LinkManager sink{2, network, transport, reliable, 99};
  sink.attach([](sim::NodeId, const sim::Network::Payload&) {});

  workload::BiblioGenerator gen{{}, 2002};
  const event::EventImage image = gen.next_event();
  const auto filter = FilterBuilder{"Publication"}
                          .where("year", Op::Eq, *image.find("year"))
                          .build();
  ASSERT_TRUE(filter.matches(image, registry));
  sink.send_control(
      1, routing::encode(routing::Packet{routing::ReqInsert{filter, 2}}));
  scheduler.run();

  const sim::Network::Payload frame =
      routing::encode_event_frame(image, 0, 1, 0);

  for (int i = 0; i < 128; ++i) {  // warm-up: rings, maps, timer churn
    network.send(0, 1, frame);
    scheduler.run();
  }
  const std::uint64_t forwarded_before = broker.stats().events_forwarded;

  const std::uint64_t before = news();
  for (int i = 0; i < 512; ++i) {
    network.send(0, 1, frame);
    scheduler.run();
  }
  EXPECT_EQ(news() - before, 0u)
      << "reliable-link forward path allocated on the heap";
  EXPECT_EQ(broker.stats().events_forwarded, forwarded_before + 512);
  EXPECT_EQ(broker.link_counters().retransmits, 0u);
  EXPECT_EQ(sink.counters().duplicates_suppressed, 0u);
}

// An idle reliable link costs nothing on the heap either. Two ends watch
// each other with the default ACK delay, and every burst of events is
// followed by silence longer than the heartbeat interval, so each gap runs
// heartbeat ticks that ping and pong, and each burst delayed standalone
// ACKs. Once warm, a burst and its gap allocate nothing.
TEST(AllocGuard, ReliablePairIdlingPastTheHeartbeatIsAllocationFree) {
  sim::Scheduler scheduler;
  runtime::SimTransport transport{scheduler};
  sim::Network network{scheduler, 10};

  link::LinkOptions reliable;
  reliable.reliability = link::Reliability::Reliable;
  link::LinkManager a{1, network, transport, reliable, 11};
  link::LinkManager b{2, network, transport, reliable, 22};
  std::uint64_t delivered = 0;
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});
  b.attach([&delivered](sim::NodeId, const sim::Network::Payload&) {
    ++delivered;
  });
  a.watch(2);
  b.watch(1);

  const sim::Network::Payload frame =
      routing::encode_event_frame(long_title_image(), 0, 1, 0);
  constexpr int kBurst = 16;
  const sim::Time gap = 5 * reliable.heartbeat_interval / 2;
  const auto burst_then_idle = [&] {
    for (int i = 0; i < kBurst; ++i) a.send_event(2, frame);
    scheduler.run_until(scheduler.now() + gap);
  };
  for (int i = 0; i < 16; ++i) burst_then_idle();  // warm-up
  const std::uint64_t pings_before = a.counters().heartbeats_sent;

  constexpr int kRounds = 64;
  const std::uint64_t before = news();
  for (int i = 0; i < kRounds; ++i) burst_then_idle();
  EXPECT_EQ(news() - before, 0u)
      << "a reliable pair allocated across bursts and idle heartbeats";
  EXPECT_EQ(delivered, std::uint64_t{(16 + kRounds) * kBurst});
  EXPECT_GE(a.counters().heartbeats_sent - pings_before, std::uint64_t{kRounds});
  EXPECT_TRUE(a.peer_alive(2));
  EXPECT_TRUE(b.peer_alive(1));
  EXPECT_EQ(a.counters().retransmits, 0u);
}

// Pooling recycles both the byte buffers and the intrusive refcount holder
// nodes, so minting a fresh frame per event — as a publisher does — and
// forwarding it through a broker is allocation-free in steady state. The
// broker decodes every fresh frame, into the memo its recycled holder kept,
// so the guard runs a generated image and one with a long string. The link
// layer relies on the same pools for its standalone ACK encodes.
TEST(AllocGuard, FreshEventFramePerEventRecyclesBuffersAndHolders) {
  workload::ensure_types_registered();
  const auto& registry = reflect::TypeRegistry::global();

  sim::Scheduler scheduler;
  runtime::SimTransport transport{scheduler};
  sim::Network network{scheduler, 10};

  routing::BrokerConfig config;
  config.auto_renew = false;
  routing::Broker broker{1, 1, network, transport, registry, config,
                         util::Rng{7}};
  broker.start();
  network.attach(2, [](sim::NodeId, const sim::Network::Payload&) {});

  const auto filter = FilterBuilder{"Publication"}.build();
  network.send(2, 1,
               routing::encode(routing::Packet{routing::ReqInsert{filter, 2}}));
  scheduler.run();

  workload::BiblioGenerator gen{{}, 2002};
  const event::EventImage images[] = {gen.next_event(), long_title_image()};
  std::uint64_t event_id = 0;

  for (const event::EventImage& image : images) {
    SCOPED_TRACE(image.to_string());
    for (int i = 0; i < 64; ++i) {
      network.send(0, 1, routing::encode_event_frame(image, 0, ++event_id, 0));
      scheduler.run();
    }
    const std::uint64_t forwarded_before = broker.stats().events_forwarded;

    const std::uint64_t before = news();
    for (int i = 0; i < 512; ++i) {
      network.send(0, 1, routing::encode_event_frame(image, 0, ++event_id, 0));
      scheduler.run();
    }
    EXPECT_EQ(news() - before, 0u)
        << "a fresh frame per event should recycle buffers, holder nodes "
           "and the memo's capacity";
    EXPECT_EQ(broker.stats().events_forwarded, forwarded_before + 512);
  }
}

// The subscriber edge: a fresh frame per event goes through a broker to a
// SubscriberNode whose exact filter and handler run on every event, with a
// title longer than the SSO buffer. The broker's decode is the only one
// (into the recycled holder's memo, reusing its capacity); the subscriber
// reads that memo. Event ids interleave two publishers and every event
// arrives twice, so the event-id dedup judges each copy against its
// publisher's window. Steady-state delivery allocates nothing.
TEST(AllocGuard, SubscriberEdgeDeliveryIsAllocationFree) {
  workload::ensure_types_registered();
  const auto& registry = reflect::TypeRegistry::global();

  sim::Scheduler scheduler;
  runtime::SimTransport transport{scheduler};
  sim::Network network{scheduler, 10};

  routing::BrokerConfig broker_config;
  broker_config.auto_renew = false;
  routing::Broker broker{1, 1, network, transport, registry, broker_config,
                         util::Rng{7}};
  broker.start();
  routing::SubscriberConfig sub_config;
  sub_config.auto_renew = false;
  routing::SubscriberNode subscriber{2,         1,        network, transport,
                                     registry, sub_config};
  subscriber.start();

  std::uint64_t handled = 0;
  std::size_t title_bytes = 0;
  const std::uint64_t token = subscriber.subscribe(
      FilterBuilder{"Publication"}.where("year", Op::Eq, Value{2002}).build(),
      [&handled, &title_bytes](const event::EventImage& e) {
        ++handled;
        title_bytes += e.find("title")->as_string().size();
      });
  scheduler.run();
  ASSERT_EQ(subscriber.accepted_at(token), std::optional<sim::NodeId>{1});

  const event::EventImage image = long_title_image();
  const std::size_t title_size = image.find("title")->as_string().size();
  ASSERT_GT(title_size, std::string{}.capacity());  // past the SSO buffer
  // Event n comes from publisher 7 or 9 in turn; each publisher's seqs
  // count up on their own.
  std::uint64_t n = 0;
  const auto publish_twice = [&] {
    const std::uint64_t event_id =
        ((7 + 2 * (n % 2)) << 32) | (n / 2 + 1);
    ++n;
    for (int copy = 0; copy < 2; ++copy) {
      network.send(0, 1, routing::encode_event_frame(image, 0, event_id, 0));
      scheduler.run();
    }
  };

  for (int i = 0; i < 64; ++i) publish_twice();
  ASSERT_EQ(handled, 64u);

  constexpr std::uint64_t kEvents = 512;
  const std::uint64_t before = news();
  for (std::uint64_t i = 0; i < kEvents; ++i) publish_twice();
  EXPECT_EQ(news() - before, 0u)
      << "steady-state subscriber-edge delivery allocated on the heap";
  EXPECT_EQ(handled, 64u + kEvents);
  EXPECT_EQ(subscriber.stats().events_received, 2 * (64u + kEvents));
  EXPECT_EQ(subscriber.stats().events_delivered, 64u + kEvents);
  EXPECT_EQ(title_bytes, (64u + kEvents) * title_size);
}

// The subscriber's exact stage over a full table: twenty-one subscriptions
// on one subscriber, one of which matches. Every arrival runs the signature
// prefilter over all of them and the exact filters it lets through (type
// tests by interned id, subtype walks, absent attributes, bounds, prefixes,
// a regex) and one handler; none of it allocates.
TEST(AllocGuard, SubscriberExactStageOverTwentySubscriptionsIsAllocationFree) {
  workload::ensure_types_registered();
  const auto& registry = reflect::TypeRegistry::global();

  sim::Scheduler scheduler;
  runtime::SimTransport transport{scheduler};
  sim::Network network{scheduler, 10};

  routing::BrokerConfig broker_config;
  broker_config.auto_renew = false;
  routing::Broker broker{1, 1, network, transport, registry, broker_config,
                         util::Rng{7}};
  broker.start();
  routing::SubscriberConfig sub_config;
  sub_config.auto_renew = false;
  routing::SubscriberNode subscriber{2,         1,        network, transport,
                                     registry, sub_config};
  subscriber.start();

  std::uint64_t handled = 0;
  std::uint64_t misfired = 0;
  const auto miss = [&misfired](const event::EventImage&) { ++misfired; };
  std::vector<filter::ConjunctiveFilter> misses;
  for (int year = 1995; year < 2002; ++year)
    misses.push_back(
        FilterBuilder{"Publication"}.where("year", Op::Eq, Value{year}).build());
  misses.push_back(FilterBuilder{"Stock"}.where("price", Op::Lt, Value{1.0}).build());
  misses.push_back(FilterBuilder{"Auction", true}.build());
  misses.push_back(FilterBuilder{"Mystery"}.build());
  misses.push_back(
      FilterBuilder{"CarAuction"}.where("doors", Op::Gt, Value{2}).build());
  misses.push_back(
      FilterBuilder{"Publication"}.where("author", Op::Eq, Value{"Lamport"}).build());
  misses.push_back(
      FilterBuilder{"Publication"}.where("title", Op::Prefix, Value{"Zebra"}).build());
  misses.push_back(FilterBuilder{"Publication"}
                       .where("conference", Op::Ne, Value{"ICDCS"})
                       .build());
  misses.push_back(
      FilterBuilder{"Publication"}.where("year", Op::Lt, Value{1900}).build());
  misses.push_back(
      FilterBuilder{"Publication"}.where("pages", Op::Exists).build());
  misses.push_back(FilterBuilder{"Publication"}
                       .where("year", Op::Eq, Value{2002})
                       .where("author", Op::Ne, Value{"Eugster"})
                       .build());
  misses.push_back(FilterBuilder{}.where("symbol", Op::Eq, Value{"Foo"}).build());
  misses.push_back(FilterBuilder{"Publication"}
                       .where("year", Op::Ge, Value{2003})
                       .where("conference", Op::Eq, Value{"ICDCS"})
                       .build());
  misses.push_back(FilterBuilder{"Publication"}
                       .where("conference", Op::Regex, Value{"PODC|SOSP"})
                       .build());
  ASSERT_EQ(misses.size(), 20u);
  for (std::size_t i = 0; i < misses.size(); ++i) {
    if (i == 9) {
      subscriber.subscribe(FilterBuilder{"Publication"}
                               .where("year", Op::Eq, Value{2002})
                               .where("conference", Op::Eq, Value{"ICDCS"})
                               .build(),
                           [&handled](const event::EventImage&) { ++handled; });
    }
    subscriber.subscribe(misses[i], miss);
  }
  scheduler.run();
  ASSERT_EQ(subscriber.subscriptions(), 21u);

  const event::EventImage image = long_title_image();
  std::uint64_t event_id = 0;
  for (int i = 0; i < 64; ++i) {
    network.send(0, 1, routing::encode_event_frame(image, 0, ++event_id, 0));
    scheduler.run();
  }
  ASSERT_EQ(handled, 64u);

  constexpr std::uint64_t kEvents = 512;
  const std::uint64_t before = news();
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    network.send(0, 1, routing::encode_event_frame(image, 0, ++event_id, 0));
    scheduler.run();
  }
  EXPECT_EQ(news() - before, 0u)
      << "the exact stage over twenty-one subscriptions allocated on the heap";
  EXPECT_EQ(handled, 64u + kEvents);
  EXPECT_EQ(misfired, 0u);
  EXPECT_EQ(subscriber.stats().events_received, 64u + kEvents);
  EXPECT_EQ(subscriber.stats().events_delivered, 64u + kEvents);
}

// One filter per operator (and the subtype-inclusive and accept-all
// shapes), each matched by a CountingIndex against a Publication image
// whose title is past the SSO buffer: once warm, a match allocates nothing
// whatever the operator.
struct OperatorCase {
  const char* name;
  filter::ConjunctiveFilter filter;
};
void PrintTo(const OperatorCase& c, std::ostream* os) { *os << c.name; }

std::vector<OperatorCase> operator_cases() {
  workload::ensure_types_registered();
  const auto on = [](const char* attr, Op op, Value operand = {}) {
    return FilterBuilder{"Publication"}.where(attr, op, std::move(operand)).build();
  };
  return {
      {"Eq", on("year", Op::Eq, Value{2002})},
      {"Ne", on("conference", Op::Ne, Value{"PODC"})},
      {"Lt", on("year", Op::Lt, Value{2003})},
      {"Le", on("year", Op::Le, Value{2002.0})},
      {"Gt", on("year", Op::Gt, Value{2001})},
      {"Ge", on("year", Op::Ge, Value{2002})},
      {"Prefix", on("title", Op::Prefix, Value{"Event Systems"})},
      {"Exists", on("author", Op::Exists)},
      {"Any", on("author", Op::Any)},
      {"Regex", on("conference", Op::Regex, Value{"ICDCS|PODC"})},
      {"SubtypeInclusive", FilterBuilder{"Publication", true}
                               .where("year", Op::Ge, Value{2000})
                               .build()},
      {"AcceptAll", filter::ConjunctiveFilter::accept_all()},
  };
}

class CountingMatchAllocGuard : public ::testing::TestWithParam<OperatorCase> {};

TEST_P(CountingMatchAllocGuard, MatchIsAllocationFreeOnceWarm) {
  index::CountingIndex counting{reflect::TypeRegistry::global()};
  // A miss beside the hit: the table holds a posting the event skips.
  counting.add(FilterBuilder{"Publication"}.where("year", Op::Eq, Value{1999}).build());
  const index::FilterId hit = counting.add(GetParam().filter);

  const event::EventImage image = long_title_image();
  index::MatchScratch scratch;
  std::vector<index::FilterId> out;
  for (int i = 0; i < 8; ++i) counting.match(image, out, scratch);
  ASSERT_EQ(out, std::vector<index::FilterId>{hit});

  std::uint64_t matched = 0;
  const std::uint64_t before = news();
  for (int i = 0; i < 512; ++i) {
    counting.match(image, out, scratch);
    matched += out.size();
  }
  EXPECT_EQ(news() - before, 0u) << "CountingIndex::match allocated";
  EXPECT_EQ(matched, 512u);
}

INSTANTIATE_TEST_SUITE_P(EveryOperator, CountingMatchAllocGuard,
                         ::testing::ValuesIn(operator_cases()),
                         [](const auto& info) { return std::string{info.param.name}; });

// A malformed pattern's failure is cached like a compile: evaluating it
// again is one lookup that allocates nothing, not a parse and a throw.
TEST(AllocGuard, MalformedRegexEvaluationIsAllocationFreeOnceWarm) {
  const Value subject{"PODC"};
  const Value pattern{"(PODC|SOSP"};
  ASSERT_FALSE(filter::applies(Op::Regex, subject, pattern));  // warm

  std::uint64_t matched = 0;
  const std::uint64_t before = news();
  for (int i = 0; i < 512; ++i) matched += filter::applies(Op::Regex, subject, pattern);
  EXPECT_EQ(news() - before, 0u) << "a cached regex failure allocated";
  EXPECT_EQ(matched, 0u);
}

// LocalBus::publish: the typed event -> image extraction reuses a
// thread-local image and the match runs over thread-local scratch; the only
// remaining allocation is the per-publish target snapshot. Pin it to a
// small constant that holds for *every* iteration, not just on average.
TEST(AllocGuard, LocalBusPublishCostsAFixedSmallConstant) {
  workload::ensure_types_registered();
  runtime::LocalBus bus;
  int delivered = 0;
  bus.subscribe(FilterBuilder{"Stock"}.build(),
                [&](const event::Event&) { ++delivered; });

  const workload::Stock stock{"CAKE", 31.41, 1000};
  for (int i = 0; i < 64; ++i) bus.publish(stock);  // warm-up

  const std::uint64_t before = news();
  bus.publish(stock);
  const std::uint64_t per_publish = news() - before;
  EXPECT_LE(per_publish, 2u) << "publish cost grew beyond the snapshot";

  for (int i = 0; i < 256; ++i) {
    const std::uint64_t start = news();
    bus.publish(stock);
    EXPECT_EQ(news() - start, per_publish) << "iteration " << i;
  }
  EXPECT_EQ(delivered, 64 + 1 + 256);
}

// A lane task keeps its callable inline (DESIGN.md §11): a capture of the
// full 64 bytes — the size of the fabric's {Network*, Delivery} frame task
// — is stored, moved and run without touching the heap.
TEST(AllocGuard, LaneTaskStoresASixtyFourByteCaptureWithoutAllocating) {
  const std::array<std::uint64_t, 7> words{1, 2, 3, 4, 5, 6, 7};
  std::uint64_t sum = 0;
  const auto fn = [words, out = &sum] {
    for (const std::uint64_t w : words) *out += w;
  };
  static_assert(sizeof(fn) == runtime::LaneTask::kInline);

  const std::uint64_t before = news();
  {
    runtime::LaneTask task{fn};
    runtime::LaneTask moved{std::move(task)};
    runtime::LaneTask assigned;
    assigned = std::move(moved);
    assigned();
  }
  EXPECT_EQ(news() - before, 0u);
  EXPECT_EQ(sum, 28u);
}

// Threaded fabric forward path (DESIGN.md §14): the cross-lane handoff —
// one lane task per frame, its capture held inline in the lane's queue —
// rides on pooled frames, so its overhead over the zero-alloc sim forward
// path must stay under 0.25 allocations per event. The interposer counts
// across every thread (g_news is atomic), so the budget covers the whole
// pipeline: main-thread sends, the broker lane's forwards, the sink lane's
// deliveries.
TEST(AllocGuard, ThreadedFabricForwardOverheadStaysUnderQuarterAllocPerEvent) {
  workload::ensure_types_registered();
  const auto& registry = reflect::TypeRegistry::global();

  runtime::ThreadedTransport transport{};
  sim::Scheduler scheduler;  // fabric mode never runs it; Network wants one
  sim::Network network{scheduler, 10};
  network.bind_lanes(transport);

  routing::BrokerConfig config;
  config.auto_renew = false;
  // Real threads run on the wall clock: push every periodic deadline far
  // past the test so no lease machinery fires mid-measurement.
  config.ttl = 3'600'000'000;
  config.renew_interval = 1'800'000'000;
  config.reap_interval = 1'800'000'000;
  routing::Broker broker{1, 1, network, transport, registry, config,
                         util::Rng{7}};
  network.attach(2, [](sim::NodeId, const sim::Network::Payload&) {});
  // Start on the broker's own lane: timers inherit lane affinity and the
  // handler attach is serialized before any traffic reaches the lane.
  transport.post(1 % transport.workers(), [&broker] { broker.start(); });
  transport.drain();

  workload::BiblioGenerator gen{{}, 2002};
  const event::EventImage image = gen.next_event();
  const auto filter = FilterBuilder{"Publication"}
                          .where("year", Op::Eq, *image.find("year"))
                          .build();
  ASSERT_TRUE(filter.matches(image, registry));
  network.send(2, 1,
               routing::encode(routing::Packet{routing::ReqInsert{filter, 2}}));
  transport.drain();

  const sim::Network::Payload frame =
      routing::encode_event_frame(image, 0, 1, 0);

  for (int i = 0; i < 128; ++i) network.send(0, 1, frame);  // warm-up
  transport.drain();
  const std::uint64_t forwarded_before = broker.stats().events_forwarded;

  constexpr std::uint64_t kEvents = 512;
  const std::uint64_t before = news();
  for (std::uint64_t i = 0; i < kEvents; ++i) network.send(0, 1, frame);
  transport.drain();
  const std::uint64_t after = news();

  EXPECT_LE(after - before, kEvents / 4)
      << "threaded handoff overhead exceeded 0.25 allocs/event: "
      << (after - before) << " allocs over " << kEvents << " events";
  EXPECT_EQ(broker.stats().events_forwarded, forwarded_before + kEvents);
  EXPECT_EQ(network.undeliverable(), 0u);
  transport.shutdown();
}

}  // namespace
}  // namespace cake
