// Link-layer unit tests: two LinkManagers over a lossy/duplicating/jittery
// simulated network, asserting the channel contract the overlay builds on —
// exactly-once in-order delivery, bounded windows with the event-shed /
// control-never-shed policy, heartbeat failure detection at exactly N
// misses, stream resync after a cold receiver restart, and the broker's
// flap-damping on top of the detector.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cake/link/link.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/routing/protocol.hpp"
#include "cake/sim/sim.hpp"

namespace cake {
namespace {

/// A tiny, distinguishable, fully framed control-plane payload: the link
/// layer never looks inside data frames (sequencing rides in the LinkTag),
/// but real frames keep wire::frame_tag() honest about what is and is not
/// link control.
sim::Network::Payload marked(std::uint64_t n) {
  return routing::encode(
      routing::Packet{routing::Detach{static_cast<sim::NodeId>(n)}});
}

std::uint64_t unmark(const sim::Network::Payload& payload) {
  return std::get<routing::Detach>(routing::decode(payload)).child;
}

link::LinkOptions reliable_options() {
  link::LinkOptions options;
  options.reliability = link::Reliability::Reliable;
  return options;
}

struct Harness {
  sim::Scheduler scheduler;
  runtime::SimTransport transport{scheduler};
  sim::Network network{scheduler, /*default_latency=*/1000};
};

TEST(Link, ExactlyOnceInOrderUnderDuplication) {
  Harness h;
  link::LinkManager a{1, h.network, h.transport, reliable_options(), 11};
  link::LinkManager b{2, h.network, h.transport, reliable_options(), 22};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});
  std::vector<std::uint64_t> got;
  b.attach([&](sim::NodeId, const sim::Network::Payload& p) {
    got.push_back(unmark(p));
  });

  // Every physical message is tripled — data, acks and nacks alike.
  h.network.set_interceptor([](sim::NodeId, sim::NodeId,
                               const sim::Network::Payload&) {
    return sim::Network::FaultAction{/*copies=*/3, /*extra_latency=*/0};
  });

  for (std::uint64_t i = 0; i < 50; ++i) a.send_control(2, marked(i));
  h.scheduler.run_until(1'000'000);

  ASSERT_EQ(got.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(b.counters().duplicates_suppressed, 0u);
  EXPECT_GT(h.network.duplicated(), 0u);
}

TEST(Link, RetransmissionRecoversEverythingFromHeavyLoss) {
  Harness h;
  link::LinkManager a{1, h.network, h.transport, reliable_options(), 33};
  link::LinkManager b{2, h.network, h.transport, reliable_options(), 44};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});
  std::vector<std::uint64_t> got;
  b.attach([&](sim::NodeId, const sim::Network::Payload& p) {
    got.push_back(unmark(p));
  });

  h.network.set_loss_rate(0.4, /*seed=*/7);
  for (std::uint64_t i = 0; i < 100; ++i) a.send_control(2, marked(i));
  h.scheduler.run_until(20'000'000);

  ASSERT_EQ(got.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(a.counters().retransmits, 0u);
  EXPECT_GT(h.network.dropped(), 0u);
}

TEST(Link, JitterReordersOnTheWireButReleasesInOrder) {
  Harness h;
  link::LinkManager a{1, h.network, h.transport, reliable_options(), 55};
  link::LinkManager b{2, h.network, h.transport, reliable_options(), 66};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});
  std::vector<std::uint64_t> got;
  b.attach([&](sim::NodeId, const sim::Network::Payload& p) {
    got.push_back(unmark(p));
  });

  // Deterministic sawtooth latency: successive frames overtake each other.
  std::uint64_t ticket = 0;
  h.network.set_interceptor([&ticket](sim::NodeId, sim::NodeId,
                                      const sim::Network::Payload&) {
    return sim::Network::FaultAction{1, (ticket++ % 7) * 1'700};
  });

  for (std::uint64_t i = 0; i < 50; ++i) a.send_control(2, marked(i));
  h.scheduler.run_until(2'000'000);

  ASSERT_EQ(got.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(b.counters().reordered_held, 0u);
}

TEST(Link, WindowOverflowShedsEventsNewestFirstButNeverControl) {
  Harness h;
  link::LinkOptions options = reliable_options();
  options.window = 4;
  options.queue_limit = 2;
  link::LinkManager a{1, h.network, h.transport, options, 77};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});

  // Peer 2 does not exist yet: nothing is ever acknowledged, so the window
  // jams after 4 frames and the queue after 2 more.
  for (std::uint64_t i = 0; i < 10; ++i) a.send_event(2, marked(100 + i));
  EXPECT_EQ(a.counters().events_shed, 4u);
  EXPECT_EQ(a.in_flight(2), 6u);

  // Control is never shed: it queues past the limit instead.
  for (std::uint64_t i = 0; i < 10; ++i) a.send_control(2, marked(200 + i));
  EXPECT_EQ(a.counters().events_shed, 4u);
  EXPECT_EQ(a.in_flight(2), 16u);

  // Let the first transmissions evaporate against the absent peer before it
  // comes up; only retransmission can drain what was not shed, in
  // class-priority order: the window's in-flight events keep their original
  // sequences, then every queued control frame — control is never starved
  // behind events — then the surviving queued events.
  h.scheduler.run_until(50'000);
  link::LinkManager b{2, h.network, h.transport, options, 88};
  std::vector<std::uint64_t> got;
  b.attach([&](sim::NodeId, const sim::Network::Payload& p) {
    got.push_back(unmark(p));
  });
  h.scheduler.run_until(5'000'000);

  ASSERT_EQ(got.size(), 16u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(got[i], 100 + i);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(got[4 + i], 200 + i);
  for (std::uint64_t i = 0; i < 2; ++i) EXPECT_EQ(got[14 + i], 104 + i);
  EXPECT_EQ(a.in_flight(2), 0u);
  EXPECT_GT(a.counters().retransmits, 0u);
}

TEST(Link, PeerDeclaredDeadAtExactlyThreeMissesAndRevivedByTraffic) {
  Harness h;
  link::LinkOptions options = reliable_options();
  ASSERT_EQ(options.heartbeat_misses, 3u);
  const sim::Time interval = options.heartbeat_interval;

  link::LinkManager a{1, h.network, h.transport, options, 99};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});
  std::vector<sim::NodeId> deaths;
  a.set_peer_down([&](sim::NodeId peer) { deaths.push_back(peer); });
  a.watch(2);  // peer 2 is silent (it does not even exist yet)

  // Two full intervals of silence: two misses, still presumed alive.
  h.scheduler.run_until(2 * interval + interval / 2);
  EXPECT_TRUE(a.peer_alive(2));
  EXPECT_EQ(a.heartbeat_misses(2), 2u);
  EXPECT_TRUE(deaths.empty());

  // The third missed interval kills it — once.
  h.scheduler.run_until(3 * interval + interval / 2);
  EXPECT_FALSE(a.peer_alive(2));
  EXPECT_EQ(a.counters().peers_declared_dead, 1u);
  ASSERT_EQ(deaths.size(), 1u);
  EXPECT_EQ(deaths[0], 2u);

  // Any arrival from the peer is proof of life.
  link::LinkManager b{2, h.network, h.transport, reliable_options(), 111};
  b.attach([](sim::NodeId, const sim::Network::Payload&) {});
  b.send_control(1, marked(0));
  h.scheduler.run_until(h.scheduler.now() + 10'000);
  EXPECT_TRUE(a.peer_alive(2));
  EXPECT_EQ(a.heartbeat_misses(2), 0u);
}

TEST(Link, HeartbeatExchangeKeepsAnIdleLinkAlive) {
  Harness h;
  link::LinkManager a{1, h.network, h.transport, reliable_options(), 123};
  link::LinkManager b{2, h.network, h.transport, reliable_options(), 321};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});
  b.attach([](sim::NodeId, const sim::Network::Payload&) {});
  a.watch(2);

  // No data ever flows; pings and pongs alone must keep the verdict alive.
  h.scheduler.run_until(20 * reliable_options().heartbeat_interval);
  EXPECT_TRUE(a.peer_alive(2));
  EXPECT_EQ(a.counters().peers_declared_dead, 0u);
  EXPECT_GT(a.counters().heartbeats_sent, 0u);  // pings
  EXPECT_GT(b.counters().heartbeats_sent, 0u);  // pongs
}

TEST(Link, RedirectMovesUnackedAndQueuedFramesInOrder) {
  Harness h;
  link::LinkOptions options = reliable_options();
  options.window = 4;
  link::LinkManager a{1, h.network, h.transport, options, 222};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});

  // Six controls to a dead peer: four jam the window, two queue behind it.
  for (std::uint64_t i = 0; i < 6; ++i) a.send_control(2, marked(i));
  EXPECT_EQ(a.in_flight(2), 6u);

  // Re-parent: node 3 inherits the whole stream, oldest first.
  link::LinkManager c{3, h.network, h.transport, options, 333};
  std::vector<std::uint64_t> got;
  c.attach([&](sim::NodeId, const sim::Network::Payload& p) {
    got.push_back(unmark(p));
  });
  a.redirect(2, 3);
  EXPECT_EQ(a.in_flight(2), 0u);

  h.scheduler.run_until(2'000'000);
  ASSERT_EQ(got.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(got[i], i);
}

// Each kind of per-peer state keeps its own lifetime, for peer ids anywhere
// in the network's range: redirect moves a peer's streams away but keeps
// its watch, and forget drops all three, so the forgotten peer reads as an
// empty stream whose old marks are reached.
TEST(Link, PeerStateLifetimesHoldAcrossTheWholeIdRange) {
  Harness h;
  const link::LinkOptions options = reliable_options();
  constexpr auto kLast = static_cast<sim::NodeId>(sim::Network::kMaxNodes - 1);
  const std::vector<sim::NodeId> peers{2, 1023, 1024, 65'537, kLast - 1, kLast};
  link::LinkManager a{1, h.network, h.transport, options, 666};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});

  // No peer is attached, so nothing is ever acknowledged and every watched
  // peer stays silent. Peer i holds i + 1 frames.
  for (std::size_t i = 0; i < peers.size(); ++i) {
    for (std::uint64_t k = 0; k <= i; ++k) a.send_control(peers[i], marked(k));
    a.watch(peers[i]);
  }
  for (std::size_t i = 0; i < peers.size(); ++i)
    EXPECT_EQ(a.in_flight(peers[i]), i + 1) << "peer " << peers[i];

  const link::LinkManager::TxMark mark = a.tx_mark(1024);
  EXPECT_FALSE(a.tx_reached(1024, mark));
  a.redirect(kLast, 1024);
  EXPECT_EQ(a.in_flight(kLast), 0u);
  EXPECT_EQ(a.in_flight(1024), 3u + 6u);

  a.forget(1024);
  EXPECT_EQ(a.in_flight(1024), 0u);
  EXPECT_TRUE(a.tx_reached(1024, mark));

  // Silence past the death threshold: the kept watch on kLast fires, the
  // forgotten one on 1024 does not, the untouched peers keep their frames.
  h.scheduler.run_until((options.heartbeat_misses + 1) * options.heartbeat_interval);
  EXPECT_FALSE(a.peer_alive(kLast));
  EXPECT_TRUE(a.peer_alive(1024));
  EXPECT_EQ(a.heartbeat_misses(1024), 0u);
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i] == 1024 || peers[i] == kLast) continue;
    EXPECT_FALSE(a.peer_alive(peers[i])) << "peer " << peers[i];
    EXPECT_EQ(a.in_flight(peers[i]), i + 1) << "peer " << peers[i];
  }
  EXPECT_EQ(a.counters().peers_declared_dead, peers.size() - 1);

  // A forgotten peer starts over on a fresh stream.
  a.send_control(1024, marked(0));
  EXPECT_EQ(a.in_flight(1024), 1u);
  EXPECT_FALSE(a.tx_reached(1024, mark));
}

// Streams to many peers, half of them then forgotten: every survivor keeps
// exactly its own frames, whatever order the peers came and went in.
TEST(Link, ManyPeersComeAndGoWithoutDisturbingTheOthers) {
  Harness h;
  link::LinkManager a{1, h.network, h.transport, reliable_options(), 777};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});
  std::vector<sim::NodeId> peers;
  for (sim::NodeId i = 0; i < 300; ++i) peers.push_back(2 + (i * 7919) % 4'000'000);
  for (std::size_t i = 0; i < peers.size(); ++i)
    for (std::uint64_t k = 0; k < 1 + i % 3; ++k) a.send_control(peers[i], marked(k));
  for (std::size_t i = 0; i < peers.size(); i += 2) a.forget(peers[i]);
  for (std::size_t i = 0; i < peers.size(); ++i)
    EXPECT_EQ(a.in_flight(peers[i]), i % 2 == 0 ? 0 : 1 + i % 3) << "peer " << peers[i];
}

TEST(Link, ReceiverColdRestartForcesStreamResyncWithoutDuplicates) {
  Harness h;
  link::LinkManager a{1, h.network, h.transport, reliable_options(), 444};
  link::LinkManager b{2, h.network, h.transport, reliable_options(), 555};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});
  std::vector<std::uint64_t> got;
  const auto deliver = [&](sim::NodeId, const sim::Network::Payload& p) {
    got.push_back(unmark(p));
  };
  b.attach(deliver);

  for (std::uint64_t i = 0; i < 5; ++i) a.send_control(2, marked(i));
  h.scheduler.run_until(500'000);
  ASSERT_EQ(got.size(), 5u);

  // Cold restart: the receiver forgets every stream. The sender's next
  // frames land mid-stream on a blank receiver, which answers with a
  // resync NACK; the sender restarts under a fresh session and nothing is
  // delivered twice.
  b.reset();
  b.attach(deliver);
  for (std::uint64_t i = 5; i < 10; ++i) a.send_control(2, marked(i));
  h.scheduler.run_until(2'000'000);

  ASSERT_EQ(got.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GE(a.counters().stream_resets, 1u);
}

TEST(Link, BestEffortModeBypassesTheWholeMachine) {
  Harness h;
  link::LinkOptions options;  // BestEffort default
  link::LinkManager a{1, h.network, h.transport, options, 666};
  link::LinkManager b{2, h.network, h.transport, options, 777};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});
  std::vector<std::uint64_t> got;
  b.attach([&](sim::NodeId, const sim::Network::Payload& p) {
    got.push_back(unmark(p));
  });

  for (std::uint64_t i = 0; i < 10; ++i) a.send_event(2, marked(i));
  h.scheduler.run_until(100'000);

  ASSERT_EQ(got.size(), 10u);
  const link::LinkCounters& c = a.counters();
  EXPECT_EQ(c.data_sent, 0u);  // nothing was sequenced
  EXPECT_EQ(c.retransmits + c.acks_sent + c.heartbeats_sent, 0u);
}

link::LinkOptions credit_options() {
  link::LinkOptions options = reliable_options();
  options.credit = true;
  options.credit_window = 8;
  return options;
}

TEST(LinkCredit, ExhaustedBudgetQueuesEventsAndGrantResumesInOrder) {
  Harness h;
  link::LinkManager a{1, h.network, h.transport, credit_options(), 12};
  link::LinkManager b{2, h.network, h.transport, credit_options(), 21};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});
  std::vector<std::uint64_t> got;
  b.attach([&](sim::NodeId, const sim::Network::Payload& p) {
    got.push_back(unmark(p));
  });

  // The consumer stalls before any traffic flows: the sender gets only its
  // implicit initial budget of credit_window frames, then must queue —
  // never blind-fire into retransmit storms, never shed.
  b.set_credit_paused(true);
  for (std::uint64_t i = 0; i < 20; ++i) a.send_event(2, marked(i));
  h.scheduler.run_until(2'000'000);

  EXPECT_EQ(got.size(), 8u);
  EXPECT_TRUE(a.credit_starved(2));
  EXPECT_EQ(a.queued_events(2), 12u);
  EXPECT_GT(a.counters().credit_stalls, 0u);
  EXPECT_EQ(a.counters().events_shed, 0u);

  // Recovery re-grants immediately; the backlog drains in order, complete.
  b.set_credit_paused(false);
  h.scheduler.run_until(4'000'000);
  ASSERT_EQ(got.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(got[i], i);
  EXPECT_FALSE(a.credit_starved(2));
  EXPECT_EQ(a.queued_events(2), 0u);
  EXPECT_GT(b.counters().credits_sent, 0u);
}

TEST(LinkCredit, ControlBypassesAnExhaustedBudget) {
  Harness h;
  link::LinkManager a{1, h.network, h.transport, credit_options(), 34};
  link::LinkManager b{2, h.network, h.transport, credit_options(), 43};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});
  std::vector<std::uint64_t> got;
  b.attach([&](sim::NodeId, const sim::Network::Payload& p) {
    got.push_back(unmark(p));
  });

  b.set_credit_paused(true);
  for (std::uint64_t i = 0; i < 12; ++i) a.send_event(2, marked(100 + i));
  h.scheduler.run_until(1'000'000);
  ASSERT_EQ(got.size(), 8u);  // budget exhausted, 4 events parked

  // Control admitted past the exhausted budget: a stalled consumer's
  // protocol stack (renewals, acks, heartbeats) keeps breathing.
  for (std::uint64_t i = 0; i < 5; ++i) a.send_control(2, marked(200 + i));
  h.scheduler.run_until(2'000'000);

  ASSERT_EQ(got.size(), 13u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(got[i], 100 + i);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(got[8 + i], 200 + i);
  EXPECT_EQ(a.queued_events(2), 4u);
}

TEST(LinkCredit, DisabledCreditNeverEmitsGrantsOrStalls) {
  Harness h;
  link::LinkManager a{1, h.network, h.transport, reliable_options(), 56};
  link::LinkManager b{2, h.network, h.transport, reliable_options(), 65};
  a.attach([](sim::NodeId, const sim::Network::Payload&) {});
  std::vector<std::uint64_t> got;
  b.attach([&](sim::NodeId, const sim::Network::Payload& p) {
    got.push_back(unmark(p));
  });

  b.set_credit_paused(true);  // documented no-op with credit off
  for (std::uint64_t i = 0; i < 100; ++i) a.send_event(2, marked(i));
  h.scheduler.run_until(5'000'000);

  ASSERT_EQ(got.size(), 100u);
  EXPECT_EQ(a.counters().credit_stalls, 0u);
  EXPECT_EQ(b.counters().credits_sent, 0u);
}

TEST(Link, FlappingAncestryDampsReparentChurn) {
  // A leaf broker whose entire ancestor chain is dead cycles parent ->
  // grandparent -> parent -> ... Each hop doubles the flap-damping gate, so
  // churn grows logarithmically in time where an undamped broker would
  // re-parent once per detection period (~600k us: 3 misses x 200k).
  routing::OverlayConfig oc;
  oc.stage_counts = {1, 1, 1};
  oc.link.reliability = link::Reliability::Reliable;
  routing::Overlay overlay{oc};

  overlay.crash(0);  // root
  overlay.crash(1);  // the leaf's parent
  overlay.scheduler().run_until(6'000'000);

  const routing::Broker* leaf = overlay.brokers()[2].get();
  const std::uint64_t reparents = leaf->stats().reparents;
  // Undamped: ~10 re-parents in 6M us. Damped: detection + 250k<<streak
  // gates admit at most a handful.
  EXPECT_GE(reparents, 2u);
  EXPECT_LE(reparents, 5u);
  EXPECT_EQ(overlay.total_reparents(), reparents);
  // Still a live process: the damping gate defers, it never abandons.
  EXPECT_FALSE(leaf->crashed());
}

}  // namespace
}  // namespace cake
