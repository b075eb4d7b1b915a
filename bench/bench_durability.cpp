// Experiment A17 — durability cost and recovery fidelity (DESIGN.md §12).
//
// Three questions, one binary:
//
//   append   what does journaling an inbound event frame cost? Two arms
//            append the same recorded frame stream — `append_mem` over
//            MemStorage (the simulated-broker configuration: pure format
//            cost) and `append_file` over FileStorage (the cake_replay
//            configuration: plus real filesystem writes). Wall-clock, so
//            best-of-R and a relative CI band.
//
//   recovery how fast does the segment-chain scan come back after a crash?
//            The file journal written by the append arm is reopened cold
//            and the constructor's recovery scan is timed; the record
//            count is pinned exactly (recovery that silently drops valid
//            records is a correctness bug, not a perf number).
//
//   replay   does the recorder round-trip? A seeded workload is recorded
//            and re-driven through a fresh overlay (core/replay); the
//            delivery multiset must match the centralized exact matcher
//            and the recording's own fingerprint. Virtual-time and fully
//            deterministic — gated exactly in CI.
//
// Writes BENCH_durability.json for the perf-trend gate
// (tools/bench_gate.py). Exit status: 0 when the deterministic gates
// hold, 1 otherwise.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cake/core/replay.hpp"
#include "cake/journal/journal.hpp"
#include "cake/util/table.hpp"
#include "cake/workload/generators.hpp"

namespace {

using namespace cake;

constexpr int kRounds = 5;
constexpr std::uint64_t kSeed = 4242;

struct AppendArm {
  const char* name;
  double best_events_per_sec = 0.0;
  double bytes_per_event = 0.0;
};

// Times appending `frames` round-robin until `events` records are in the
// log. Rotation and retention stay on their broker defaults so the arm
// measures the configuration the overlay actually runs.
void run_append_arm(AppendArm& arm, journal::Storage& storage,
                    const std::vector<wire::Frame>& frames,
                    std::size_t events) {
  journal::Journal log{storage};
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t e = 0; e < events; ++e)
    log.append_event(frames[e % frames.size()]);
  log.sync();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  arm.best_events_per_sec =
      std::max(arm.best_events_per_sec, double(events) / elapsed.count());
  arm.bytes_per_event =
      double(log.stats().bytes_appended) / double(events);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t events =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50'000;
  if (events == 0) {
    std::cerr << "usage: " << argv[0] << " [events > 0]\n";
    return 2;
  }
  workload::ensure_types_registered();

  // Source material: record a real workload once and lift its event frames,
  // so the append arms write the byte sizes brokers actually journal.
  journal::MemStorage recorded;
  journal::Journal recorder{recorded};
  const core::ReplayConfig rc;
  const core::ReplayReport live = core::record_workload(rc, kSeed, recorder);
  std::vector<wire::Frame> frames;
  recorder.scan(0, [&](const journal::Record& rec) {
    if (rec.kind == journal::RecordKind::Event)
      frames.push_back(rec.payload);
  });
  if (frames.empty() || !live.exact) {
    std::cerr << "recording failed: " << live.diff << "\n";
    return 1;
  }

  std::cout << "=== A17: Durability cost and recovery fidelity ===\n"
            << events << " appends of " << frames.size()
            << " recorded frames, best of " << kRounds << " rounds\n\n";

  const std::filesystem::path dir = "bench_durability_journal";
  AppendArm mem_arm{"append_mem"};
  AppendArm file_arm{"append_file"};
  for (int round = 0; round < kRounds; ++round) {
    journal::MemStorage mem;
    run_append_arm(mem_arm, mem, frames, events);
    std::filesystem::remove_all(dir);
    journal::FileStorage file{dir};
    run_append_arm(file_arm, file, frames, events);
  }

  // Recovery: reopen the file journal the last round left behind and time
  // the constructor's segment-chain scan.
  double recovery_ms = 0.0;
  std::uint64_t recovered = 0;
  {
    journal::FileStorage file{dir};
    const auto start = std::chrono::steady_clock::now();
    journal::Journal reopened{file};
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    recovery_ms = elapsed.count();
    recovered = reopened.stats().recovered_records;
  }
  std::filesystem::remove_all(dir);

  // Replay: re-drive the recording and diff against the exact matcher.
  const core::ReplayReport replayed =
      core::replay_workload(rc, kSeed, recorder);

  util::TextTable table{{"Arm", "Events/s", "Bytes/event"}};
  for (const AppendArm* arm : {&mem_arm, &file_arm})
    table.add_row({arm->name, util::format_number(arm->best_events_per_sec),
                   util::format_number(arm->bytes_per_event)});
  table.print(std::cout);
  std::cout << "\nrecovery: " << recovered << " records in "
            << util::format_number(recovery_ms) << " ms\n"
            << "replay: " << replayed.deliveries << " deliveries, expected "
            << replayed.expected << ", "
            << (replayed.exact ? "exact" : "MISMATCH") << "\n";

  {
    std::ofstream json{"BENCH_durability.json"};
    json << "{\n  \"experiment\": \"A17\",\n  \"events\": " << events
         << ",\n  \"arms\": [\n"
         << "    {\"name\": \"append_mem\", \"events_per_sec\": "
         << mem_arm.best_events_per_sec
         << ", \"bytes_per_event\": " << mem_arm.bytes_per_event << "},\n"
         << "    {\"name\": \"append_file\", \"events_per_sec\": "
         << file_arm.best_events_per_sec
         << ", \"bytes_per_event\": " << file_arm.bytes_per_event << "}\n"
         << "  ],\n  \"recovery\": {\"records\": " << recovered
         << ", \"recovery_ms\": " << recovery_ms
         << "},\n  \"replay\": {\"deliveries\": " << replayed.deliveries
         << ", \"expected\": " << replayed.expected << ", \"exact\": "
         << (replayed.exact ? "true" : "false")
         << ", \"fingerprint_matches\": "
         << (replayed.fingerprint == live.fingerprint ? "true" : "false")
         << "}\n}\n";
  }

  // Deterministic gates: recovery must find every appended record, and the
  // replay must reproduce both the matcher's prediction and the recording's
  // own delivery fingerprint.
  bool ok = true;
  if (recovered != events) {
    std::cerr << "GATE: recovery found " << recovered << " of " << events
              << " records\n";
    ok = false;
  }
  if (!replayed.exact) {
    std::cerr << "GATE: replay diverged from the matcher: " << replayed.diff
              << "\n";
    ok = false;
  }
  if (replayed.fingerprint != live.fingerprint) {
    std::cerr << "GATE: replay fingerprint differs from the recording\n";
    ok = false;
  }
  std::cout << (ok ? "\nA17 durability gate: PASS\n"
                   : "\nA17 durability gate: FAIL\n");
  return ok ? 0 : 1;
}
