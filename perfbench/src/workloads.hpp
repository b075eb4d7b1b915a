// The benchmark's three workloads and the per-layer replay of the traced
// run. Every workload drives the public API of routing::Overlay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cake/event/event.hpp"
#include "cake/filter/filter.hpp"
#include "cake/routing/overlay.hpp"
#include "cake/weaken/schema.hpp"
#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its span log
};

/// Runs one workload in this process and prints its report; returns the
/// process exit code.
int run_workload(const Options& options);

/// End-to-end metrics carried in the JSON result (BENCHMARK.json
/// `end_to_end`), and the per-layer metrics of the traced run (`per_layer`).
[[nodiscard]] const std::vector<std::string>& end_to_end_names();
[[nodiscard]] const std::vector<std::string>& per_layer_names();

/// Everything the per-layer replay needs from one traced pass.
struct LayerInputs {
  std::vector<const event::Event*> events;    ///< typed events, publish order
  /// Every exact filter; the first subscribers × subs_each are grouped by
  /// subscriber, subs_each consecutive filters each.
  std::vector<filter::ConjunctiveFilter> subscriptions;
  std::size_t subs_each = 1;
  /// Churn replacements as (removed, added) subscription indices.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> churn;
  weaken::StageSchema schema;
  double traced_ns_per_event = 0.0;    ///< denominator of unattributed share
  /// Calls per published event into each replayed layer, from the pass's
  /// counters, and the mean broker table size per stage (index 1..3).
  double decode_calls = 0.0;
  double exact_calls = 0.0;
  double journal_calls = 0.0;
  double match_calls[4] = {};
  double table_entries[4] = {};
};

/// Replays the pass's inputs through each layer's public functions under
/// spans and adds the per-layer metrics to `report`.
void measure_layers(const LayerInputs& inputs, Spans& spans, Report& report);

/// Self-test hooks: the counts fingerprint of one small Sim pass of the
/// biblio workload (churn or not) and a digest of its generated inputs.
[[nodiscard]] std::vector<std::uint64_t> small_sim_fingerprint(std::uint64_t seed,
                                                              bool churn);
[[nodiscard]] std::uint64_t small_sim_input_digest(std::uint64_t seed);

/// Span names shared by the workloads and the layer replay.
enum SpanName : std::uint32_t {
  kSpanBatch,
  kSpanPublish,
  kSpanRun,
  kSpanChurnOp,
  kSpanImageOf,
  kSpanEncode,
  kSpanDecode,
  kSpanMatch1,
  kSpanMatch2,
  kSpanMatch3,
  kSpanWeakenImage,
  kSpanWeakenFilter,
  kSpanExact,
  kSpanIndexAdd,
  kSpanIndexRemove,
  kSpanJournalAppend,
  kSpanCount,  ///< also names the calibration spans of empty calls
};
[[nodiscard]] const std::vector<std::string>& span_names();

}  // namespace perfbench
