// Chaos engine + differential oracle tests.
//
// The acceptance bar for the harness itself: a 50-seed sweep of random
// fault schedules (drops, partitions, duplication, jitter, and at least
// one broker crash–restart per run) passes deterministically, and a known
// completeness bug — a subscriber that ignores `Expired` instead of
// re-joining — is caught within those same 50 seeds, with the failing
// schedule shrinking to a smaller still-failing one.
#include <gtest/gtest.h>

#include <set>

#include "cake/core/replay.hpp"
#include "differential.hpp"

namespace cake {
namespace {

using chaos::HarnessConfig;
using chaos::TrialResult;
using sim::FaultKind;
using sim::FaultOp;
using sim::FaultPlan;

constexpr std::uint64_t kSweepSeeds = 50;

// ---- fault-plan traces ------------------------------------------------------

TEST(FaultPlan, TraceRoundTripsExactly) {
  const HarnessConfig cfg;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const FaultPlan plan = chaos::plan_for(seed, cfg);
    const FaultPlan back = FaultPlan::parse(plan.encode());
    EXPECT_EQ(plan, back) << plan.encode();
  }
}

TEST(FaultPlan, ParseRejectsMalformedTraces) {
  EXPECT_THROW((void)FaultPlan::parse(""), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("seed=x"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("seed=1;Z,0,1,2,3,4,5,6"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("seed=1;D,0,1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("D,0,1,2,3,4,5,6"),
               std::invalid_argument);
}

TEST(FaultPlan, RandomPlansCoverEveryFaultKindAcrossTheSweep) {
  const HarnessConfig cfg;
  std::set<FaultKind> seen;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const FaultPlan plan = chaos::plan_for(seed, cfg);
    bool has_crash = false;
    for (const FaultOp& op : plan.ops) {
      seen.insert(op.kind);
      has_crash |= op.kind == FaultKind::Crash;
      EXPECT_LE(op.at, op.until);
      EXPECT_LE(op.until, cfg.horizon);
    }
    EXPECT_TRUE(has_crash) << "seed " << seed
                           << " has no crash-restart op: " << plan.encode();
  }
  EXPECT_EQ(seen.size(), 5u) << "sweep never exercised some fault kind";
}

TEST(FaultPlan, SameSeedSamePlanDifferentSeedDifferentPlan) {
  const HarnessConfig cfg;
  EXPECT_EQ(chaos::plan_for(7, cfg), chaos::plan_for(7, cfg));
  EXPECT_NE(chaos::plan_for(7, cfg), chaos::plan_for(8, cfg));
}

// ---- scripted scenarios -----------------------------------------------------

TEST(ChaosTrial, SurvivesScriptedLeafBrokerCrashRestart) {
  const HarnessConfig cfg;
  FaultPlan plan;
  plan.seed = 11;
  // Crash a stage-1 broker (ids 3..6 under {1,2,4}) long enough that every
  // lease it held is reaped before it returns cold.
  plan.ops.push_back({FaultKind::Crash, 500'000, 500'000 + 4 * cfg.ttl, 4, 0,
                      FaultOp::kAnyType, 0, 0});
  const TrialResult result = chaos::run_trial(cfg, plan);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(result.chaos.crashes, 1u);
  EXPECT_EQ(result.chaos.restarts, 1u);
  EXPECT_GT(result.expected_deliveries, 0u);
}

TEST(ChaosTrial, SurvivesScriptedRootCrashRestart) {
  const HarnessConfig cfg;
  FaultPlan plan;
  plan.seed = 12;
  plan.ops.push_back({FaultKind::Crash, 500'000, 500'000 + 4 * cfg.ttl, 0, 0,
                      FaultOp::kAnyType, 0, 0});
  const TrialResult result = chaos::run_trial(cfg, plan);
  EXPECT_TRUE(result.ok) << result.failure;
}

TEST(ChaosTrial, SurvivesScriptedPartitionSplitAndHeal) {
  const HarnessConfig cfg;
  FaultPlan plan;
  plan.seed = 13;
  // Isolate the subtree ids [3, 8] (two leaf brokers plus endpoints) from
  // the rest of the overlay for several TTLs, then heal.
  plan.ops.push_back({FaultKind::Partition, 200'000, 200'000 + 4 * cfg.ttl, 3,
                      8, FaultOp::kAnyType, 0, 0});
  const TrialResult result = chaos::run_trial(cfg, plan);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_GT(result.chaos.dropped, 0u) << "partition never cut a message";
}

TEST(ChaosTrial, DuplicationAloneNeverViolatesTheOracle) {
  const HarnessConfig cfg;
  FaultPlan plan;
  plan.seed = 14;
  plan.ops.push_back({FaultKind::Duplicate, 0, cfg.horizon, sim::kNoNode,
                      sim::kNoNode, FaultOp::kAnyType, 500, 0});
  const TrialResult result = chaos::run_trial(cfg, plan);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_GT(result.chaos.duplicated, 0u);
  EXPECT_EQ(result.duplicate_peak, 1u) << "a duplicate reached a handler";
}

TEST(ChaosTrial, ReplayIsBitForBitDeterministic) {
  const HarnessConfig cfg;
  const FaultPlan plan = chaos::plan_for(3, cfg);
  const TrialResult a = chaos::run_trial(cfg, plan);
  const TrialResult b = chaos::run_trial(cfg, plan);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.converged_at, b.converged_at);
  EXPECT_EQ(a.expected_deliveries, b.expected_deliveries);
  EXPECT_EQ(a.duplicate_peak, b.duplicate_peak);
  EXPECT_EQ(a.chaos.dropped, b.chaos.dropped);
  EXPECT_EQ(a.chaos.duplicated, b.chaos.duplicated);
  EXPECT_EQ(a.chaos.delayed, b.chaos.delayed);
  EXPECT_EQ(a.chaos.crashes, b.chaos.crashes);
}

TEST(ChaosTrial, TraceReplayMatchesOriginalRun) {
  const HarnessConfig cfg;
  const FaultPlan plan = chaos::plan_for(21, cfg);
  const FaultPlan replayed = FaultPlan::parse(plan.encode());
  const TrialResult a = chaos::run_trial(cfg, plan);
  const TrialResult b = chaos::run_trial(cfg, replayed);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.converged_at, b.converged_at);
  EXPECT_EQ(a.chaos.dropped, b.chaos.dropped);
}

// ---- reliable links: the strict oracle --------------------------------------

TEST(ChaosReliable, ScriptedMessageFaultsAreMaskedExactlyOnce) {
  HarnessConfig cfg;
  cfg.reliability = link::Reliability::Reliable;
  FaultPlan plan;
  plan.seed = 41;
  // Heavy event drops + broad duplication + jitter for the whole horizon:
  // everything the link layer claims to mask. With Reliable set and no
  // crash/partition ops, run_trial arms the strict oracle — events
  // published *inside* this fault window must still be exactly-once.
  plan.ops.push_back({FaultKind::Drop, 0, cfg.horizon, sim::kNoNode,
                      sim::kNoNode, 7, 400, 0});
  plan.ops.push_back({FaultKind::Duplicate, 0, cfg.horizon, sim::kNoNode,
                      sim::kNoNode, FaultOp::kAnyType, 400, 0});
  plan.ops.push_back({FaultKind::Jitter, 0, cfg.horizon, sim::kNoNode,
                      sim::kNoNode, FaultOp::kAnyType, 400, 20'000});
  const TrialResult result = chaos::run_trial(cfg, plan);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_GT(result.chaos.dropped, 0u) << "the drop rule never fired";
  EXPECT_GT(result.link.retransmits, 0u)
      << "drops were masked without a single retransmission?";
  EXPECT_GT(result.link.duplicates_suppressed, 0u);
}

TEST(ChaosReliable, TenRandomMessageFaultSeedsAreExactlyOnce) {
  HarnessConfig cfg;
  cfg.reliability = link::Reliability::Reliable;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const FaultPlan plan = chaos::message_plan_for(seed, cfg);
    const TrialResult result = chaos::run_trial(cfg, plan);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.failure
                           << "\n  replay: " << chaos::replay_command(plan);
  }
}

TEST(ChaosReliable, CrashedParentHealsByReparentingWithoutRestart) {
  HarnessConfig cfg;
  cfg.reliability = link::Reliability::Reliable;
  cfg.leave_crashed = true;
  // Acceptance bar: the filter tables reach their fixpoint within 3 renew
  // intervals of the heal instant — not the full soft-state window the
  // relaxed trials allow. Shrink the convergence slack to exactly that.
  cfg.extra_convergence_slack =
      static_cast<std::int64_t>(3 * cfg.renew_interval) -
      static_cast<std::int64_t>(3 * cfg.ttl + 2 * cfg.reap_interval +
                                6 * cfg.renew_interval);
  FaultPlan plan;
  plan.seed = 42;
  // Broker 1 is a stage-2 node under {1,2,4} with two leaf children: they
  // must heartbeat-detect the death, climb to the root and replay their
  // filter tables. The scripted restart instant is a no-op (leave_crashed),
  // so self-healing is the only road back.
  plan.ops.push_back({FaultKind::Crash, 500'000, 600'000, 1, 0,
                      FaultOp::kAnyType, 0, 0});
  const TrialResult result = chaos::run_trial(cfg, plan);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(result.chaos.crashes, 1u);
  EXPECT_GT(result.link.peers_declared_dead, 0u)
      << "nobody noticed the crash";
  EXPECT_GE(result.reparents, 2u) << "orphaned children never re-attached";
}

// ---- durable journaled brokers: the zero-loss oracle ------------------------

TEST(ChaosDurable, ScriptedCrashIsExactlyOnceInWindow) {
  HarnessConfig cfg;
  cfg.reliability = link::Reliability::Reliable;
  cfg.durability = true;
  FaultPlan plan;
  plan.seed = 51;
  // Crash the stage-2 broker 1 for a sixth of the horizon while event drops
  // hammer the rest of the overlay. Every fault is in the recoverable set,
  // so the strict oracle arms: even events published while the broker was
  // a corpse must land exactly once — the journal replay re-parks what the
  // crash swallowed, and subscriber dedup absorbs the replayed duplicates.
  plan.ops.push_back({FaultKind::Crash, 2'000'000, 3'500'000, 1, 0,
                      FaultOp::kAnyType, 0, 0});
  plan.ops.push_back({FaultKind::Drop, 0, cfg.horizon, sim::kNoNode,
                      sim::kNoNode, 7, 300, 0});
  const TrialResult result = chaos::run_trial(cfg, plan);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(result.chaos.crashes, 1u);
  EXPECT_EQ(result.chaos.restarts, 1u);
}

TEST(ChaosDurable, FiftyDurableSeedsAreZeroLossAcrossCrashes) {
  HarnessConfig cfg;
  cfg.reliability = link::Reliability::Reliable;
  cfg.durability = true;
  std::uint64_t crashes = 0;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const FaultPlan plan = chaos::durable_plan_for(seed, cfg);
    const TrialResult result = chaos::run_trial(cfg, plan);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.failure
                           << "\n  replay: " << chaos::replay_command(plan);
    crashes += result.chaos.crashes;
  }
  // The sweep is vacuous unless the crash path was genuinely exercised.
  EXPECT_GE(crashes, kSweepSeeds);
}

TEST(ChaosDurable, SeveredJournalReplayIsCaughtAndShrinks) {
  HarnessConfig cfg;
  cfg.reliability = link::Reliability::Reliable;
  cfg.durability = true;
  cfg.inject_replay_bug = true;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const FaultPlan plan = chaos::durable_plan_for(seed, cfg);
    const TrialResult result = chaos::run_trial(cfg, plan);
    if (result.ok) continue;

    // Caught: a restarted broker that skips journal replay loses whatever
    // the crash swallowed. The shrunk plan must still fail and the same
    // schedule must pass once replay is restored — the bug is in the
    // recovery path, not the harness.
    const FaultPlan minimal = chaos::shrink_plan(cfg, plan);
    EXPECT_LE(minimal.ops.size(), plan.ops.size());
    EXPECT_FALSE(chaos::run_trial(cfg, minimal).ok)
        << "shrunk plan no longer reproduces the failure";
    HarnessConfig fixed = cfg;
    fixed.inject_replay_bug = false;
    const TrialResult clean = chaos::run_trial(fixed, minimal);
    EXPECT_TRUE(clean.ok) << clean.failure;
    return;
  }
  FAIL() << "the severed journal replay survived " << kSweepSeeds
         << " seeds undetected";
}

TEST(ChaosDurable, RecordedWorkloadReplaysExactlyAgainstTheMatcher) {
  // The recorder tap captures a whole trial's workload; cake_replay's
  // engine re-drives it through a fresh overlay and must reproduce the
  // reference delivery multiset exactly (the subscription set is rebuilt
  // from the same seed through the shared recipe).
  HarnessConfig cfg;
  journal::MemStorage storage;
  journal::Journal journal{storage};
  cfg.record_journal = &journal;
  FaultPlan plan;
  plan.seed = 61;  // fault-free: the recording itself must be clean
  const TrialResult live = chaos::run_trial(cfg, plan);
  ASSERT_TRUE(live.ok) << live.failure;
  ASSERT_EQ(journal.size(),
            cfg.warm_events + cfg.chaos_events + cfg.probe_events);

  const core::ReplayConfig rc;
  const core::ReplayReport report =
      core::replay_workload(rc, plan.seed, journal);
  EXPECT_EQ(report.events_in, journal.size());
  EXPECT_TRUE(report.exact) << report.diff;
  EXPECT_GT(report.deliveries, 0u);
  EXPECT_EQ(report.deliveries, report.expected);
}

// ---- trace pipeline riding along --------------------------------------------

TEST(ChaosTrace, ScriptedCrashConservesEveryTraceId) {
  HarnessConfig cfg;
  cfg.trace_pipeline = true;
  FaultPlan plan;
  plan.seed = 31;
  plan.ops.push_back({FaultKind::Crash, 500'000, 500'000 + 4 * cfg.ttl, 4, 0,
                      FaultOp::kAnyType, 0, 0});
  const TrialResult result = chaos::run_trial(cfg, plan);
  EXPECT_TRUE(result.ok) << result.failure;
  // Every published event — warm, chaos and probe — must form a journey
  // rooted at a publish span, even the ones the crash swallowed.
  EXPECT_EQ(result.traced_journeys,
            cfg.warm_events + cfg.chaos_events + cfg.probe_events);
  EXPECT_GT(result.traced_spans, result.traced_journeys);
}

TEST(ChaosTrace, EventDropsAndDuplicationLeaveNoOrphanSpans) {
  HarnessConfig cfg;
  cfg.trace_pipeline = true;
  FaultPlan plan;
  plan.seed = 32;
  // Drop a third of EventMsg packets and duplicate broadly: dropped events
  // must silence all downstream spans, duplicated ones add spans to the
  // same journey — neither may strand a span without a publish root.
  plan.ops.push_back({FaultKind::Drop, 0, cfg.horizon, sim::kNoNode,
                      sim::kNoNode, 7, 333, 0});
  plan.ops.push_back({FaultKind::Duplicate, 0, cfg.horizon, sim::kNoNode,
                      sim::kNoNode, FaultOp::kAnyType, 400, 0});
  const TrialResult result = chaos::run_trial(cfg, plan);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_GT(result.chaos.dropped, 0u);
  EXPECT_GT(result.chaos.duplicated, 0u);
  EXPECT_EQ(result.traced_journeys,
            cfg.warm_events + cfg.chaos_events + cfg.probe_events);
}

TEST(ChaosTrace, TenRandomSeedsPassWithTracingRidingAlong) {
  HarnessConfig cfg;
  cfg.trace_pipeline = true;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const FaultPlan plan = chaos::plan_for(seed, cfg);
    const TrialResult result = chaos::run_trial(cfg, plan);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.failure
                           << "\n  replay: " << chaos::replay_command(plan);
    ASSERT_EQ(result.traced_journeys,
              cfg.warm_events + cfg.chaos_events + cfg.probe_events)
        << "seed " << seed;
  }
}

// ---- the acceptance sweep ---------------------------------------------------

TEST(ChaosSweep, FiftyRandomSeedsPassTheDifferentialOracle) {
  const HarnessConfig cfg;
  std::uint64_t total_expected = 0;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const FaultPlan plan = chaos::plan_for(seed, cfg);
    const TrialResult result = chaos::run_trial(cfg, plan);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.failure
                           << "\n  replay: " << chaos::replay_command(plan);
    total_expected += result.expected_deliveries;
  }
  // The sweep is vacuous if the reference model never expected anything.
  EXPECT_GT(total_expected, kSweepSeeds);
}

// Aggregation rides the full random fault sweep: merged broker tables may
// add spurious forwards but must preserve the delivery multiset exactly —
// drops, partitions, duplication, crash–restarts and all — and every
// broker's merge structure must end each trial at its structural fixpoint
// (run_trial checks it alongside the table fixpoint).
TEST(ChaosSweep, FiftyAggregatedSeedsPreserveTheDeliveryMultiset) {
  HarnessConfig cfg;
  cfg.aggregate = true;
  std::uint64_t total_expected = 0;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const FaultPlan plan = chaos::plan_for(seed, cfg);
    const TrialResult result = chaos::run_trial(cfg, plan);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.failure
                           << "\n  replay: " << chaos::replay_command(plan)
                           << " --aggregate";
    total_expected += result.expected_deliveries;
  }
  EXPECT_GT(total_expected, kSweepSeeds);
}

// ---- overload: graceful degradation under a publish storm -------------------

TEST(ChaosOverload, StalledSubscriberIsQuarantinedAndEveryLossAccounted) {
  HarnessConfig cfg;
  cfg.overload = true;
  const FaultPlan plan = chaos::overload_plan_for(7, cfg);
  const TrialResult result = chaos::run_trial(cfg, plan);
  ASSERT_TRUE(result.ok) << result.failure
                         << "\n  replay: " << chaos::replay_command(plan)
                         << " --overload";
  EXPECT_EQ(result.chaos.stalls, 1u);
  EXPECT_EQ(result.chaos.unstalls, 1u);
  EXPECT_EQ(result.expired_notices, 0u);
  EXPECT_EQ(result.rejoins, 0u);
  // The conservation ledger rode along and balances to the same picture the
  // per-subscriber oracle asserted: losses only where the pens say so. The
  // trial fails on a non-empty slow-child pen or a stalled subscriber at
  // quiescence, and this plan detaches nobody, so what is still parked is
  // zero-match frames waiting out the grace pen: its expiry runs on a
  // background task, which quiescence does not wait for.
  EXPECT_EQ(result.ledger.parked, 58u);
  EXPECT_EQ(result.ledger.link_shed, 0u);
}

TEST(ChaosOverload, FiftyStormSeedsDegradeGracefully) {
  HarnessConfig cfg;
  cfg.overload = true;
  std::uint64_t quarantines = 0;
  std::uint64_t stalled_frames = 0;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const FaultPlan plan = chaos::overload_plan_for(seed, cfg);
    const TrialResult result = chaos::run_trial(cfg, plan);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.failure
                           << "\n  replay: " << chaos::replay_command(plan)
                           << " --overload";
    quarantines += result.quarantines;
    stalled_frames += result.events_stalled;
  }
  // The sweep is vacuous unless the storm actually tripped the machinery
  // somewhere: pens must have opened and stall inboxes must have parked.
  EXPECT_GT(quarantines, 0u);
  EXPECT_GT(stalled_frames, 0u);
}

TEST(ChaosSweep, InjectedRejoinBugIsCaughtAndShrinks) {
  HarnessConfig cfg;
  cfg.inject_rejoin_bug = true;
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const FaultPlan plan = chaos::plan_for(seed, cfg);
    const TrialResult result = chaos::run_trial(cfg, plan);
    if (result.ok) continue;

    // Caught. The shrunk plan must still fail, be no larger, and print a
    // usable replay line.
    const FaultPlan minimal = chaos::shrink_plan(cfg, plan);
    EXPECT_LE(minimal.ops.size(), plan.ops.size());
    EXPECT_FALSE(chaos::run_trial(cfg, minimal).ok)
        << "shrunk plan no longer reproduces the failure";
    const std::string cmd = chaos::replay_command(minimal);
    EXPECT_NE(cmd.find("cake_chaos --trace"), std::string::npos);
    EXPECT_NE(cmd.find("seed="), std::string::npos);

    // And the bug is in the *subscriber*, not the harness: the identical
    // schedule passes once the rejoin path is restored.
    HarnessConfig fixed = cfg;
    fixed.inject_rejoin_bug = false;
    const TrialResult clean = chaos::run_trial(fixed, minimal);
    EXPECT_TRUE(clean.ok) << clean.failure;
    return;
  }
  FAIL() << "the injected Expired-ignoring bug survived " << kSweepSeeds
         << " seeds undetected";
}

}  // namespace
}  // namespace cake
