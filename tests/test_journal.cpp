// Durable event journal (DESIGN.md §12): record format, segment rotation,
// retention, crash recovery, the decode-fuzz guarantees (a corrupted or
// torn log never replays garbage and never crashes — recovery stops
// cleanly at the last valid record), the overlay-level crash-recovery
// goldens (durable subscriptions and the zero-match pen surviving broker
// restarts) and the recorder/replayer determinism properties backing
// tools/cake_replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "cake/core/event_system.hpp"
#include "cake/core/replay.hpp"
#include "cake/journal/journal.hpp"
#include "cake/util/env.hpp"
#include "cake/workload/generators.hpp"

namespace cake {
namespace {

using event::EventImage;
using filter::FilterBuilder;
using filter::Op;
using journal::Journal;
using journal::JournalConfig;
using journal::MemStorage;
using journal::Record;
using journal::RecordKind;
using routing::Overlay;
using routing::OverlayConfig;
using value::Value;

std::vector<std::byte> bytes_of(const std::string& text) {
  std::vector<std::byte> out(text.size());
  for (std::size_t i = 0; i < text.size(); ++i)
    out[i] = static_cast<std::byte>(text[i]);
  return out;
}

std::vector<Record> scan_all(const Journal& journal) {
  std::vector<Record> out;
  journal.scan(journal.first_offset(),
               [&](const Record& rec) { out.push_back(rec); });
  return out;
}

// ---- record log basics ------------------------------------------------------

TEST(Journal, AppendsAreMonotonicAndScanReturnsThemInOrder) {
  MemStorage storage;
  Journal journal{storage};
  EXPECT_TRUE(journal.empty());
  EXPECT_EQ(journal.next_offset(), 0u);

  for (int i = 0; i < 10; ++i) {
    const auto offset =
        journal.append_event(bytes_of("event-" + std::to_string(i)));
    EXPECT_EQ(offset, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(journal.size(), 10u);
  EXPECT_EQ(journal.next_offset(), 10u);

  const std::vector<Record> all = scan_all(journal);
  ASSERT_EQ(all.size(), 10u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].offset, i);
    EXPECT_EQ(all[i].kind, RecordKind::Event);
    EXPECT_EQ(all[i].payload, bytes_of("event-" + std::to_string(i)));
  }

  // scan(from) skips everything below `from`.
  std::vector<std::uint64_t> offsets;
  journal.scan(7, [&](const Record& rec) { offsets.push_back(rec.offset); });
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{7, 8, 9}));
}

TEST(Journal, AnEventRecordHoldsTheCallersFrameNotACopy) {
  MemStorage storage;
  Journal journal{storage};
  const wire::Frame frame{bytes_of("shared-event-bytes")};
  journal.append_event(frame);
  const std::vector<Record> all = scan_all(journal);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].payload.data(), frame.data());
  // The storage still holds its own copy: header, then the payload bytes.
  const std::vector<std::byte> blob = storage.read(storage.list().front());
  ASSERT_EQ(blob.size(), journal::kSegmentHeaderBytes +
                             journal::kRecordHeaderBytes + frame.size());
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(),
                         blob.end() - static_cast<std::ptrdiff_t>(frame.size())));
}

TEST(MemStorage, AppendAfterRemovingTheOpenBlobStartsItAfresh) {
  MemStorage storage;
  storage.append("a", bytes_of("old"));
  storage.append("b", bytes_of("other"));
  storage.append("a", bytes_of("+more"));
  EXPECT_EQ(storage.read("a"), bytes_of("old+more"));
  storage.remove("a");
  storage.append("a", bytes_of("new"));
  EXPECT_EQ(storage.read("a"), bytes_of("new"));
  EXPECT_EQ(storage.read("b"), bytes_of("other"));
  storage.truncate("a", 1);
  storage.append("a", bytes_of("ow"));
  EXPECT_EQ(storage.read("a"), bytes_of("now"));
}

TEST(MemStorage, ACopyAppendsToItsOwnBlobs) {
  MemStorage original;
  original.append("a", bytes_of("base"));
  MemStorage copy = original;
  copy.append("a", bytes_of("+copy"));
  original.append("a", bytes_of("+orig"));
  EXPECT_EQ(copy.read("a"), bytes_of("base+copy"));
  EXPECT_EQ(original.read("a"), bytes_of("base+orig"));
  copy = original;
  copy.append("a", bytes_of("!"));
  EXPECT_EQ(copy.read("a"), bytes_of("base+orig!"));
  EXPECT_EQ(original.read("a"), bytes_of("base+orig"));
}

TEST(Journal, RotationSplitsSegmentsAndReopenRecoversEverything) {
  MemStorage storage;
  std::vector<std::vector<std::byte>> payloads;
  {
    Journal journal{storage, JournalConfig{.segment_bytes = 256}};
    for (int i = 0; i < 40; ++i) {
      payloads.push_back(bytes_of("record-payload-" + std::to_string(i)));
      journal.append_event(payloads.back());
    }
    EXPECT_GT(journal.segments(), 1u);
    journal.sync();
  }
  // A fresh journal over the same storage is a crash-recovery: every
  // record must come back, in order, with nothing torn.
  Journal reopened{storage, JournalConfig{.segment_bytes = 256}};
  EXPECT_EQ(reopened.stats().recovered_records, 40u);
  EXPECT_EQ(reopened.stats().torn_bytes, 0u);
  const std::vector<Record> all = scan_all(reopened);
  ASSERT_EQ(all.size(), payloads.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i].payload, payloads[i]) << "record " << i;
  // And the recovered log keeps appending where it left off.
  EXPECT_EQ(reopened.append_event(bytes_of("post-recovery")), 40u);
}

TEST(Journal, RetentionDropsWholeSegmentsFromTheFront) {
  MemStorage storage;
  Journal journal{storage,
                  JournalConfig{.segment_bytes = 256, .max_segments = 2}};
  for (int i = 0; i < 60; ++i)
    journal.append_event(bytes_of("retained-" + std::to_string(i)));
  EXPECT_LE(journal.segments(), 2u);
  EXPECT_GT(journal.first_offset(), 0u);
  EXPECT_GT(journal.stats().segments_retired, 0u);

  // Replay from an offset older than the cut starts at the cut.
  const std::vector<Record> all = scan_all(journal);
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front().offset, journal.first_offset());
  EXPECT_EQ(all.back().offset, journal.next_offset() - 1);
  std::vector<std::uint64_t> from_zero;
  journal.scan(0, [&](const Record& rec) { from_zero.push_back(rec.offset); });
  EXPECT_EQ(from_zero.front(), journal.first_offset());
}

TEST(Journal, CursorRecordsRoundtrip) {
  MemStorage storage;
  Journal journal{storage};
  journal.append_cursor(17, 42);
  journal.append_cursor_clear(17);

  const std::vector<Record> all = scan_all(journal);
  ASSERT_EQ(all.size(), 2u);
  ASSERT_EQ(all[0].kind, RecordKind::Cursor);
  const auto set = Journal::parse_cursor(all[0].payload);
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ(set->subscriber, 17u);
  EXPECT_TRUE(set->active);
  EXPECT_EQ(set->offset, 42u);
  const auto cleared = Journal::parse_cursor(all[1].payload);
  ASSERT_TRUE(cleared.has_value());
  EXPECT_FALSE(cleared->active);
  // Garbage is rejected, not misparsed.
  EXPECT_FALSE(Journal::parse_cursor(bytes_of("xx")).has_value());
}

// ---- decode fuzz: corruption never replays garbage --------------------------

// Recovered records must be an exact prefix of what was appended: nothing
// reordered, nothing invented, nothing past the first invalid byte.
void expect_exact_prefix(const Journal& recovered,
                         const std::vector<std::vector<std::byte>>& originals) {
  const std::vector<Record> all = scan_all(recovered);
  ASSERT_LE(all.size(), originals.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i].offset, i);
    ASSERT_EQ(all[i].payload, originals[i]) << "record " << i << " corrupted";
  }
}

// One small multi-segment journal shared by the fuzz sweeps below.
MemStorage fuzz_fixture(std::vector<std::vector<std::byte>>& payloads) {
  MemStorage storage;
  Journal journal{storage, JournalConfig{.segment_bytes = 192}};
  for (int i = 0; i < 16; ++i) {
    payloads.push_back(
        bytes_of("fuzz-record-" + std::to_string(i) + "-payload"));
    journal.append_event(payloads.back());
  }
  journal.sync();
  return storage;
}

TEST(JournalFuzz, TruncationAtEveryByteOffsetRecoversACleanPrefix) {
  std::vector<std::vector<std::byte>> payloads;
  const MemStorage pristine = fuzz_fixture(payloads);

  for (const std::string& name : pristine.list()) {
    const std::size_t full = pristine.read(name).size();
    for (std::size_t cut = 0; cut < full; ++cut) {
      MemStorage mutant = pristine;
      mutant.truncate(name, cut);
      // Must not throw: a torn tail is recovery's job, not an error.
      Journal recovered{mutant, JournalConfig{.segment_bytes = 192}};
      expect_exact_prefix(recovered, payloads);
      // The recovered log still accepts appends at the right offset.
      const auto next = recovered.next_offset();
      EXPECT_EQ(recovered.append_event(bytes_of("after-cut")), next);
      if (HasFatalFailure()) {
        ADD_FAILURE() << "blob " << name << " truncated to " << cut;
        return;
      }
    }
  }
}

TEST(JournalFuzz, BitFlipsAtEveryByteNeverReplayACorruptRecord) {
  std::vector<std::vector<std::byte>> payloads;
  const MemStorage pristine = fuzz_fixture(payloads);

  for (const std::string& name : pristine.list()) {
    const std::size_t full = pristine.read(name).size();
    for (std::size_t pos = 0; pos < full; ++pos) {
      MemStorage mutant = pristine;
      // Walk the flipped bit with the position so every bit lane in every
      // header field gets exercised across the sweep.
      mutant.mutate(name)[pos] ^= static_cast<std::byte>(1u << (pos % 8));
      Journal recovered{mutant, JournalConfig{.segment_bytes = 192}};
      expect_exact_prefix(recovered, payloads);
      if (HasFatalFailure()) {
        ADD_FAILURE() << "blob " << name << " bit flipped at byte " << pos;
        return;
      }
    }
  }
}

// ---- overlay crash-recovery goldens -----------------------------------------

EventImage pub_event(int year, const std::string& conf,
                     const std::string& author, const std::string& title) {
  return EventImage{"Publication",
                    {{"year", Value{year}},
                     {"conference", Value{conf}},
                     {"author", Value{author}},
                     {"title", Value{title}}}};
}

OverlayConfig durable_config() {
  OverlayConfig config;
  config.stage_counts = {1};  // single root: placement is pinned
  config.durability = routing::Durability::Journal;
  config.broker.ttl = 1'000'000;
  config.broker.renew_interval = 400'000;
  config.broker.reap_interval = 500'000;
  config.broker.match_grace = 10'000'000;
  config.subscriber.renew_interval = 400'000;
  return config;
}

struct DurableFx {
  explicit DurableFx(OverlayConfig config = durable_config())
      : overlay(config) {
    workload::ensure_types_registered();
    publisher = &overlay.add_publisher();
    publisher->advertise(workload::BiblioGenerator::schema());
    overlay.run();
  }
  Overlay overlay;
  routing::PublisherNode* publisher = nullptr;
};

// G1: a durable subscription detaches, misses events, resumes — every
// missed event is served exactly once from the journal (no bounded RAM
// buffer involved; the frames are re-read from the log).
TEST(JournalGolden, DurableSubscriptionReplaysMissedEventsFromTheJournal) {
  DurableFx fx;
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> seen;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage& image) {
                  seen.push_back(std::string{image.find("title")->as_string()});
                },
                {}, /*durable=*/true);
  fx.overlay.run();

  sub.detach();
  fx.overlay.run();
  for (int i = 0; i < 5; ++i)
    fx.publisher->publish(
        pub_event(2002, "ICDCS", "eugster", "missed-" + std::to_string(i)));
  fx.publisher->publish(pub_event(1999, "ICDCS", "eugster", "non-matching"));
  fx.overlay.run();
  EXPECT_TRUE(seen.empty());  // detached: nothing reaches the process

  sub.resume();
  fx.overlay.run();
  ASSERT_EQ(seen.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(seen[static_cast<std::size_t>(i)],
              "missed-" + std::to_string(i));
  EXPECT_GT(fx.overlay.root().stats().events_replayed, 0u);
  EXPECT_GT(fx.overlay.root().stats().events_journaled, 0u);
}

// G2: events that matched *nothing* (parked in the zero-match pen) survive
// a broker crash: restart() replays the journal, the frames re-park, and a
// late subscriber still gets them exactly once. The control arm — replay
// disabled — loses them, which is what the durable chaos oracle detects.
TEST(JournalGolden, PenParkedEventsSurviveBrokerRestartViaJournalReplay) {
  for (const bool replay_on : {true, false}) {
    OverlayConfig config = durable_config();
    config.broker.journal_replay_on_restart = replay_on;
    DurableFx fx{config};
    for (int i = 0; i < 3; ++i)
      fx.publisher->publish(
          pub_event(2002, "ICDCS", "eugster", "parked-" + std::to_string(i)));
    fx.overlay.run();
    EXPECT_EQ(fx.overlay.root().stats().events_parked, 3u);

    fx.overlay.crash(0);
    fx.overlay.restart(0);
    fx.overlay.run();

    auto& sub = fx.overlay.add_subscriber();
    int count = 0;
    sub.subscribe(FilterBuilder{"Publication"}
                      .where("year", Op::Eq, Value{2002})
                      .build(),
                  [&](const EventImage&) { ++count; });
    fx.overlay.run();
    // Let the pen re-match the replayed frames against the healed table.
    fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() +
                                     2 * config.broker.match_grace);
    if (replay_on) {
      EXPECT_EQ(count, 3) << "journal replay must re-park and deliver";
      EXPECT_GT(fx.overlay.root().stats().journal_replays, 0u);
    } else {
      EXPECT_EQ(count, 0) << "control arm: without replay the pen is lost";
    }
  }
}

// G2b: a crash and restart inside one pen-tick period leave a single pen
// chain. The pre-crash tick is still pending after the restart; when it
// fires it must not disarm the chain the restart's journal replay started,
// or the next park arms a second chain and the pen runs twice as often.
// Observed as pending background work, which must equal that of a control
// arm that never crashed.
TEST(JournalGolden, CrashRestartInsideOnePenTickKeepsOnePenChain) {
  std::size_t pending[2] = {};
  for (const bool crash : {false, true}) {
    const OverlayConfig config = durable_config();
    const sim::Time tick = config.broker.match_grace / 4;
    DurableFx fx{config};
    sim::Scheduler& scheduler = fx.overlay.scheduler();
    for (int i = 0; i < 3; ++i)
      fx.publisher->publish(
          pub_event(2002, "ICDCS", "eugster", "parked-" + std::to_string(i)));
    fx.overlay.run();
    ASSERT_EQ(fx.overlay.root().stats().events_parked, 3u);

    scheduler.run_until(scheduler.now() + tick / 4);
    if (crash) {
      fx.overlay.crash(0);
      fx.overlay.restart(0);  // the replayed frames re-park
      fx.overlay.run();
    }
    // The pre-crash tick fires; then one more zero-match event parks.
    scheduler.run_until(scheduler.now() + tick);
    fx.publisher->publish(pub_event(2002, "ICDCS", "eugster", "late"));
    fx.overlay.run();
    scheduler.run_until(scheduler.now() + tick);
    pending[crash ? 1 : 0] = scheduler.pending();
  }
  EXPECT_EQ(pending[1], pending[0]);
}

// G3: durable cursor across a broker crash. A detached durable subscriber
// must resume from its journaled cursor even when the hosting broker
// crashed and cold-restarted in between (the cursor record is recovered
// from the log, not from the broker's RAM).
TEST(JournalGolden, DurableCursorSurvivesBrokerCrashAndRestart) {
  OverlayConfig config = durable_config();
  config.link.reliability = link::Reliability::Reliable;
  DurableFx fx{config};
  auto& sub = fx.overlay.add_subscriber();
  std::vector<std::string> seen;
  sub.subscribe(FilterBuilder{"Publication"}
                    .where("year", Op::Eq, Value{2002})
                    .build(),
                [&](const EventImage& image) {
                  seen.push_back(std::string{image.find("title")->as_string()});
                },
                {}, /*durable=*/true);
  fx.overlay.run();

  sub.detach();
  fx.overlay.run();
  for (int i = 0; i < 4; ++i)
    fx.publisher->publish(
        pub_event(2002, "ICDCS", "eugster", "durable-" + std::to_string(i)));
  fx.overlay.run();

  fx.overlay.crash(0);
  fx.overlay.restart(0);
  fx.overlay.run();

  sub.resume();
  // Resume may land before the durable lease is re-established (the
  // subscriber rejoins on its next renewal after Expired); give the
  // soft-state machinery a few TTLs.
  fx.overlay.scheduler().run_until(fx.overlay.scheduler().now() + 20'000'000);
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(seen[static_cast<std::size_t>(i)],
              "durable-" + std::to_string(i));
}

// ---- recorder / replayer determinism (tools/cake_replay) --------------------

std::uint64_t replay_seed_count() {
  // ~20 seeds in the PR lane; nightly raises it via CAKE_REPLAY_SEEDS=200.
  return util::env_u64("CAKE_REPLAY_SEEDS").value_or(20);
}

TEST(JournalReplay, RecordingIsByteIdenticalAcrossRuns) {
  const core::ReplayConfig cfg;
  for (std::uint64_t seed = 0; seed < replay_seed_count(); ++seed) {
    MemStorage storage_a, storage_b;
    Journal journal_a{storage_a}, journal_b{storage_b};
    const core::ReplayReport a = core::record_workload(cfg, seed, journal_a);
    const core::ReplayReport b = core::record_workload(cfg, seed, journal_b);
    ASSERT_TRUE(a.exact) << "seed " << seed << ": " << a.diff;
    ASSERT_GT(a.deliveries, 0u) << "seed " << seed;
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "seed " << seed;
    EXPECT_TRUE(storage_a.identical(storage_b))
        << "seed " << seed << " produced different journal bytes";
  }
}

TEST(JournalReplay, ReplayingTwiceIsDeterministicAndMatchesTheRecording) {
  const core::ReplayConfig cfg;
  for (std::uint64_t seed = 0; seed < replay_seed_count(); ++seed) {
    MemStorage storage;
    Journal journal{storage};
    const core::ReplayReport live = core::record_workload(cfg, seed, journal);
    ASSERT_TRUE(live.exact) << "seed " << seed << ": " << live.diff;
    const core::ReplayReport first = core::replay_workload(cfg, seed, journal);
    const core::ReplayReport second = core::replay_workload(cfg, seed, journal);
    ASSERT_TRUE(first.exact) << "seed " << seed << ": " << first.diff;
    EXPECT_EQ(first.deliveries, live.deliveries) << "seed " << seed;
    EXPECT_EQ(first.fingerprint, second.fingerprint) << "seed " << seed;
    EXPECT_EQ(first.fingerprint, live.fingerprint) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cake
