// The benchmark's own checks: histogram accuracy, the oracle's detection
// of injected faults, metric names, and Sim determinism.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "cake/util/rng.hpp"
#include "cake/workload/generators.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

void histogram_matches_sorted_reference() {
  util::Rng rng{7};
  Histogram h;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 100'000; ++i) {
    // Log-uniform over 1 ns .. 1 s, the range latencies span.
    const auto v = static_cast<std::uint64_t>(std::exp(rng.uniform() * std::log(1e9)));
    values.push_back(v);
    h.add(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * values.size()));
    const double ref = static_cast<double>(values[rank - 1]);
    const double got = h.quantile(q);
    check(got >= ref && got <= ref * (1.0 + 1.0 / Histogram::kSub) + 1.0,
          "histogram p" + std::to_string(q) + " within bucket error of the sorted reference");
  }
  h.add_infinite(1'000'000);
  check(std::isinf(h.quantile(0.5)), "undelivered samples count as later than any limit");
}

void oracle_flags_injected_faults() {
  workload::BiblioGenerator gen{workload::BiblioConfig{}, 11};
  std::vector<filter::ConjunctiveFilter> filters;
  for (int i = 0; i < 50; ++i) filters.push_back(gen.next_subscription());
  std::vector<event::EventImage> images;
  for (int i = 0; i < 2000; ++i) images.push_back(gen.next_event());
  const auto image = [&](std::size_t e) { return images[e]; };
  const auto key = [](std::size_t, const event::EventImage& image) {
    return content_key(image);
  };
  const auto live = [](std::size_t, std::uint32_t) { return true; };
  const std::vector<Delivery> expected = expected_deliveries(filters, images.size(), image, live, key);
  check(!expected.empty(), "oracle expects deliveries on the probe inputs");

  std::vector<Delivery> e = expected;
  std::vector<Delivery> same = expected;
  const Verdict clean = compare(e, same);
  check(clean.failed() == 0 && clean.delivered == clean.expected, "oracle accepts an exact run");

  e = expected;
  std::vector<Delivery> missing = expected;
  missing.pop_back();
  const Verdict m = compare(e, missing);
  check(m.missed == 1 && m.duplicates == 0 && m.spurious == 0, "oracle flags an injected missed delivery");

  e = expected;
  std::vector<Delivery> dup = expected;
  dup.push_back(expected.front());
  const Verdict d = compare(e, dup);
  check(d.duplicates == 1 && d.missed == 0 && d.spurious == 0, "oracle flags an injected duplicate");

  e = expected;
  std::vector<Delivery> extra = expected;
  extra.push_back(Delivery{9999, 1});
  const Verdict s = compare(e, extra);
  check(s.spurious == 1 && s.missed == 0 && s.duplicates == 0, "oracle flags an injected spurious delivery");
}

void names_are_valid() {
  bool ok = true;
  for (const auto* list : {&end_to_end_names(), &per_layer_names(), &span_names()})
    for (const std::string& name : *list) ok = ok && valid_name(name);
  for (const char* name : {"churn_ops_per_s", "failed_share", "oracle.expected",
                           "latency_p50_us.low", "latency_p99_us.high",
                           "latency_samples.low", "harness.generator_late_p99_us"})
    ok = ok && valid_name(name);
  check(ok, "every metric and span name matches [A-Za-z0-9_.-]+");
  check(!valid_name("bad name") && !valid_name("") && !valid_name("a/b"),
        "the name check rejects other characters");
}

void sim_runs_are_deterministic() {
  for (const bool churn : {false, true}) {
    const std::string which = churn ? "churn" : "read";
    const std::vector<std::uint64_t> a = small_sim_fingerprint(3, churn);
    const std::vector<std::uint64_t> b = small_sim_fingerprint(3, churn);
    check(a == b, "two Sim " + which + " runs with one seed give identical counts");
  }
  check(small_sim_input_digest(3) == small_sim_input_digest(3),
        "one seed generates the same inputs");
  check(small_sim_input_digest(3) != small_sim_input_digest(4),
        "another seed generates different inputs");
}

}  // namespace

int run_self_tests() {
  histogram_matches_sorted_reference();
  oracle_flags_injected_faults();
  names_are_valid();
  sim_runs_are_deterministic();
  std::cout << (g_failures == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
