#!/usr/bin/env python3
"""Perf-trend gate: compare benchmark JSON artifacts against a baseline.

Reads the benchmark artifacts the CI smoke lane produces —

  BENCH_hotpath.json    (A14: per-arm events/sec + allocs/event + deliveries)
  BENCH_overlay.json    (A19: broker overlay end-to-end on ThreadedTransport
                         — events/sec, delivered, allocs/event per worker
                         count; the delivery multiset is pinned against a
                         Sim-backend control inside the bench itself)
  BENCH_resilience.json (A15: delivery rate / latency / retransmits per
                         {loss, mode} arm; virtual-time, so deterministic)
  BENCH_durability.json (A17: journal append throughput, cold recovery
                         time, and the recorder/replayer round-trip)
  BENCH_scaling.json    (A18: aggregated vs plain filter-table arms —
                         entries/subscription, match throughput, churn
                         throughput, and the superset-soundness counter)
  BENCH_overload.json   (A20: 1x/2x/10x publish storms with one stalled
                         consumer — healthy-subscriber deliveries, shed
                         accounting, lease expiries, goodput, peak RSS)

— and fails (exit 1) when any gated metric regresses past its per-metric
threshold relative to the baseline copy of the same file.

Threshold philosophy: wall-clock throughput on shared runners jitters, so
events/sec gets a relative band (default 10%); allocation counts and
virtual-time metrics are deterministic for a fixed workload, so they get
tight bands. A missing baseline file passes with a note (first run seeds
the cache); a missing *current* file fails (the bench crashed or was
skipped).

Usage:
  bench_gate.py --baseline DIR --current DIR [--report FILE]
  bench_gate.py --selftest

No third-party dependencies; stdlib only.
"""

import argparse
import json
import os
import sys

# One gate rule: how a metric at `path` may move between baseline and
# current. `direction` is which way is BAD for the metric; `rel` is the
# allowed relative slip, `abs_slack` an additive floor so near-zero
# baselines (allocs/event ~0.06) don't turn noise into failures.
RULES = {
    "BENCH_hotpath.json": [
        dict(key="arms", match=("name",), metric="events_per_sec",
             direction="lower", rel=0.10, abs_slack=0.0),
        dict(key="arms", match=("name",), metric="allocs_per_event",
             direction="higher", rel=0.02, abs_slack=0.05),
        dict(key="arms", match=("name",), metric="deliveries",
             direction="exact", rel=0.0, abs_slack=0.0),
    ],
    "BENCH_overlay.json": [
        # A19: the broker overlay end-to-end on ThreadedTransport. The
        # delivery count is pinned inside the bench against a Sim control
        # of the same seed, so across CI runs it may never move at all;
        # throughput gets the standard wall-clock band, and allocs/event
        # the tight deterministic band with a near-zero additive floor.
        dict(key="arms", match=("workers",), metric="events_per_sec",
             direction="lower", rel=0.10, abs_slack=0.0),
        dict(key="arms", match=("workers",), metric="delivered",
             direction="exact", rel=0.0, abs_slack=0.0),
        dict(key="arms", match=("workers",), metric="allocs_per_event",
             direction="higher", rel=0.02, abs_slack=0.05),
    ],
    "BENCH_resilience.json": [
        dict(key="arms", match=("loss", "mode"), metric="delivery_rate",
             direction="lower", rel=0.0, abs_slack=0.005),
        dict(key="arms", match=("loss", "mode"), metric="retransmits_per_event",
             direction="higher", rel=0.05, abs_slack=0.05),
        dict(key="arms", match=("loss", "mode"), metric="latency_p99_us",
             direction="higher", rel=0.05, abs_slack=50.0),
    ],
    "BENCH_scaling.json": [
        # Table compression is deterministic for a fixed workload seed, but
        # entries/subscription moves when merge heuristics are tuned — give
        # it a small relative band. Growth (higher) is the bad direction.
        dict(key="arms", match=("name",), metric="entries_per_sub",
             direction="higher", rel=0.10, abs_slack=0.0),
        dict(key="arms", match=("name",), metric="index_bytes_per_sub",
             direction="higher", rel=0.10, abs_slack=0.0),
        # Wall-clock throughputs: standard relative bands. Churn gets a
        # wider one — un-merge refolds are the noisiest phase.
        dict(key="arms", match=("name",), metric="match_events_per_sec",
             direction="lower", rel=0.10, abs_slack=0.0),
        dict(key="arms", match=("name",), metric="churn_ops_per_sec",
             direction="lower", rel=0.15, abs_slack=0.0),
        # The probe phase is seeded: the delivery multiset and the
        # superset-soundness counter (always 0) may never move.
        dict(key="arms", match=("name",), metric="deliveries",
             direction="exact", rel=0.0, abs_slack=0.0),
        dict(key="arms", match=("name",), metric="superset_violations",
             direction="exact", rel=0.0, abs_slack=0.0),
    ],
    "BENCH_overload.json": [
        # A20 runs in virtual time, so everything but goodput and RSS is
        # deterministic per storm multiplier: healthy subscribers must
        # match the exact-filter oracle, the shed ledger's total may never
        # move, and lease expiries stay pinned at zero.
        dict(key="arms", match=("multiplier",), metric="healthy_delivered",
             direction="exact", rel=0.0, abs_slack=0.0),
        dict(key="arms", match=("multiplier",), metric="total_shed",
             direction="exact", rel=0.0, abs_slack=0.0),
        dict(key="arms", match=("multiplier",), metric="expired_notices",
             direction="exact", rel=0.0, abs_slack=0.0),
        # Goodput is wall-clock execution of the virtual-time storm:
        # standard relative band.
        dict(key="arms", match=("multiplier",), metric="events_per_sec",
             direction="lower", rel=0.10, abs_slack=0.0),
        # Peak RSS guards "memory stays bounded" — a loose band (allocator
        # and runner variance) with a 10 MB additive floor. A 10x storm
        # leaking its backlog blows well past this.
        dict(key="arms", match=("multiplier",), metric="peak_rss_kb",
             direction="higher", rel=0.25, abs_slack=10240.0),
    ],
    "BENCH_durability.json": [
        # Append throughput is wall-clock (FileStorage touches the real
        # filesystem), so it gets the standard relative band.
        dict(key="arms", match=("name",), metric="events_per_sec",
             direction="lower", rel=0.10, abs_slack=0.0),
        # Cold-recovery time: relative band plus an absolute floor so a
        # few-ms baseline doesn't turn scheduler noise into failures.
        dict(key="recovery", match=(), metric="recovery_ms",
             direction="higher", rel=0.10, abs_slack=5.0),
        # Virtual-time and fully deterministic: the replayed delivery
        # multiset may never move at all.
        dict(key="replay", match=(), metric="deliveries",
             direction="exact", rel=0.0, abs_slack=0.0),
    ],
}


def check_value(rule, label, base, cur):
    """Returns (ok, message) for one metric comparison."""
    metric = rule["metric"]
    if rule["direction"] == "exact":
        ok = base == cur
        verdict = "OK" if ok else "REGRESSION"
        return ok, "%s %s: %s -> %s [%s]" % (label, metric, base, cur, verdict)
    if rule["direction"] == "lower":  # lower current is bad
        floor = base * (1.0 - rule["rel"]) - rule["abs_slack"]
        ok = cur >= floor
    else:  # higher current is bad
        ceil = base * (1.0 + rule["rel"]) + rule["abs_slack"]
        ok = cur <= ceil
    delta = 0.0 if base == 0 else (cur - base) / base * 100.0
    verdict = "OK" if ok else "REGRESSION"
    return ok, "%s %s: %.4g -> %.4g (%+.1f%%, band %s%.0f%%%s) [%s]" % (
        label, metric, base, cur, delta,
        "-" if rule["direction"] == "lower" else "+",
        rule["rel"] * 100.0,
        (" or %.3g abs" % rule["abs_slack"]) if rule["abs_slack"] else "",
        verdict)


def index_arms(arms, match_keys):
    return {tuple(arm.get(k) for k in match_keys): arm for arm in arms}


def compare_file(name, baseline, current):
    """Yields (ok, message) for every applicable rule of one artifact."""
    for rule in RULES[name]:
        node_base = baseline.get(rule["key"])
        node_cur = current.get(rule["key"])
        if node_base is None or node_cur is None:
            # Schema drift (a section one side of the comparison lacks):
            # nothing to compare yet, note it and move on.
            yield True, "%s: %s absent in %s, skipped" % (
                name, rule["key"],
                "baseline" if node_base is None else "current")
            continue
        if rule["match"]:
            base_by_key = index_arms(node_base, rule["match"])
            cur_by_key = index_arms(node_cur, rule["match"])
            for key, base_arm in sorted(base_by_key.items(), key=str):
                cur_arm = cur_by_key.get(key)
                label = "%s %s" % (name, "/".join(str(k) for k in key))
                if cur_arm is None:
                    yield False, "%s: arm disappeared" % label
                    continue
                if rule["metric"] not in base_arm:
                    continue
                yield check_value(rule, label, base_arm[rule["metric"]],
                                  cur_arm[rule["metric"]])
        else:
            if rule["metric"] not in node_base:
                continue
            yield check_value(rule, "%s %s" % (name, rule["key"]),
                              node_base[rule["metric"]],
                              node_cur[rule["metric"]])


def run_gate(baseline_dir, current_dir, report_path=None):
    lines = []
    failures = 0
    for name in sorted(RULES):
        base_path = os.path.join(baseline_dir, name)
        cur_path = os.path.join(current_dir, name)
        if not os.path.exists(base_path):
            lines.append("%s: no baseline yet, seeding pass" % name)
            continue
        if not os.path.exists(cur_path):
            lines.append("%s: MISSING from current run" % name)
            failures += 1
            continue
        with open(base_path) as f:
            baseline = json.load(f)
        with open(cur_path) as f:
            current = json.load(f)
        for ok, message in compare_file(name, baseline, current):
            lines.append(message)
            if not ok:
                failures += 1
    verdict = ("bench gate: PASS" if failures == 0
               else "bench gate: FAIL (%d regression%s)" % (
                   failures, "" if failures == 1 else "s"))
    lines.append(verdict)
    text = "\n".join(lines)
    print(text)
    if report_path:
        with open(report_path, "w") as f:
            f.write("### Perf-trend gate\n\n```\n" + text + "\n```\n")
    return failures == 0


def selftest():
    """Exercises the comparison logic on synthetic artifacts."""
    base = {
        "arms": [
            {"name": "passthrough", "events_per_sec": 100000.0,
             "allocs_per_event": 7.0, "deliveries": 2016},
        ],
    }

    def clone(**overrides):
        cur = json.loads(json.dumps(base))
        cur["arms"][0].update(overrides)
        return cur

    def verdicts(cur):
        return [ok for ok, _ in compare_file("BENCH_hotpath.json", base, cur)]

    checks = [
        ("identical run passes", all(verdicts(clone()))),
        ("9% slowdown passes",
         all(verdicts(clone(events_per_sec=91000.0)))),
        ("11% slowdown fails",
         not all(verdicts(clone(events_per_sec=89000.0)))),
        ("speedup passes", all(verdicts(clone(events_per_sec=150000.0)))),
        ("alloc within band passes",
         all(verdicts(clone(allocs_per_event=7.1)))),
        ("alloc regression fails",
         not all(verdicts(clone(allocs_per_event=8.0)))),
        ("delivery change fails", not all(verdicts(clone(deliveries=2017)))),
        ("missing arm fails",
         not all(ok for ok, _ in compare_file(
             "BENCH_hotpath.json", base, {"arms": []}))),
        ("absent section skips",
         all(ok for ok, _ in compare_file(
             "BENCH_hotpath.json", {}, base))),
    ]

    scaling = {
        "arms": [
            {"name": "counting-200k-agg", "entries_per_sub": 0.07,
             "index_bytes_per_sub": 31.0, "match_events_per_sec": 1500.0,
             "churn_ops_per_sec": 15000.0, "deliveries": 24600000,
             "superset_violations": 0},
        ],
    }

    def scaling_verdicts(**overrides):
        cur = json.loads(json.dumps(scaling))
        cur["arms"][0].update(overrides)
        return [ok for ok, _ in compare_file("BENCH_scaling.json",
                                             scaling, cur)]

    checks += [
        ("scaling identical run passes", all(scaling_verdicts())),
        ("scaling compression loss fails",
         not all(scaling_verdicts(entries_per_sub=0.09))),
        ("scaling deeper compression passes",
         all(scaling_verdicts(entries_per_sub=0.05))),
        ("scaling churn jitter passes",
         all(scaling_verdicts(churn_ops_per_sec=13500.0))),
        ("scaling soundness counter change fails",
         not all(scaling_verdicts(superset_violations=1))),
    ]
    overlay = {
        "arms": [
            {"workers": 4, "events_per_sec": 500000.0, "delivered": 2993,
             "allocs_per_event": 9.1},
        ],
        "speedup_4_workers_vs_1": 1.8,
    }

    def overlay_verdicts(**overrides):
        cur = json.loads(json.dumps(overlay))
        cur["arms"][0].update(overrides)
        return [ok for ok, _ in compare_file("BENCH_overlay.json",
                                             overlay, cur)]

    checks += [
        ("overlay identical run passes", all(overlay_verdicts())),
        ("overlay 9% slowdown passes",
         all(overlay_verdicts(events_per_sec=455000.0))),
        ("overlay 11% slowdown fails",
         not all(overlay_verdicts(events_per_sec=445000.0))),
        ("overlay delivery drift fails",
         not all(overlay_verdicts(delivered=2992))),
        ("overlay alloc jitter within floor passes",
         all(overlay_verdicts(allocs_per_event=9.14))),
        ("overlay alloc regression fails",
         not all(overlay_verdicts(allocs_per_event=9.6))),
    ]
    overload = {
        "arms": [
            {"multiplier": 10, "published": 3000, "healthy_expected": 8700,
             "healthy_delivered": 8700, "victim_delivered": 250,
             "total_shed": 50, "expired_notices": 0, "rejoins": 0,
             "quarantines": 1, "events_per_sec": 40000.0,
             "peak_rss_kb": 51200},
        ],
    }

    def overload_verdicts(**overrides):
        cur = json.loads(json.dumps(overload))
        cur["arms"][0].update(overrides)
        return [ok for ok, _ in compare_file("BENCH_overload.json",
                                             overload, cur)]

    checks += [
        ("overload identical run passes", all(overload_verdicts())),
        ("overload healthy delivery drift fails",
         not all(overload_verdicts(healthy_delivered=8699))),
        ("overload shed-ledger drift fails",
         not all(overload_verdicts(total_shed=51))),
        ("overload lease expiry fails",
         not all(overload_verdicts(expired_notices=1))),
        ("overload goodput jitter passes",
         all(overload_verdicts(events_per_sec=36500.0))),
        ("overload goodput regression fails",
         not all(overload_verdicts(events_per_sec=35000.0))),
        ("overload rss within band passes",
         all(overload_verdicts(peak_rss_kb=60000))),
        ("overload rss blowup fails",
         not all(overload_verdicts(peak_rss_kb=90000))),
    ]
    failed = [label for label, ok in checks if not ok]
    for label, ok in checks:
        print("selftest: %s: %s" % (label, "ok" if ok else "FAILED"))
    return not failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="directory with baseline BENCH_*.json")
    parser.add_argument("--current", help="directory with current BENCH_*.json")
    parser.add_argument("--report", help="write a markdown report here "
                                         "(e.g. $GITHUB_STEP_SUMMARY)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in unit checks and exit")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(0 if selftest() else 1)
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required (or --selftest)")
    sys.exit(0 if run_gate(args.baseline, args.current, args.report) else 1)


if __name__ == "__main__":
    main()
