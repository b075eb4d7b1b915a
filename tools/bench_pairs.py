#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs and the paired-gain verdict.

Runs `python3 perfbench/run.py` in two checkouts of the repository, one
seed at a time, alternating which side goes first (pair 0: parent then
change, pair 1: change then parent, ...), so drift in a shared, noisy host
lands on both sides alike. For each metric asked for it prints every pair,
each side's median and quartiles, how many pairs the change wins, and
whether the median gap exceeds the parent's quartile spread. A gain claim
holds when the change wins at least nine pairs in ten and its median is
better than the parent's by more than the parent's Q3 - Q1.

Usage:
  bench_pairs.py --parent DIR --change DIR --workload biblio-sim \\
                 --seeds 21-30 [--seconds 30] [--trace 0] \\
                 [--metric throughput_eps --metric setup_s:lower ...]
  bench_pairs.py --selftest

`--metric NAME[:higher|:lower]` may repeat (default: throughput_eps,
higher is better). Every metric is read from the same runs and reported;
the claim verdict and the exit status follow the first.

Each checkout builds its own `.bench_build/` on its first run. Nothing
under perfbench/ is read or written except by perfbench/run.py itself.
Exit status: 0 when the claim holds, 1 when it does not, 2 when a run
failed (no result, `"correct": false` or failed operations).

No third-party dependencies; stdlib only.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'11-15,20' -> [11, 12, 13, 14, 15, 20]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def pair_order(index):
    """Which side runs first in pair `index`: parent on even pairs."""
    return ("parent", "change") if index % 2 == 0 else ("change", "parent")


def parse_result(stdout):
    """The JSON object perfbench/run.py prints as its last stdout line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run in `checkout`; returns its result object or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return parse_result(proc.stdout)


def metric_of(result, metric):
    """(value, ok) of `metric` in a run result; ok is False on a bad run."""
    if result is None:
        return None, False
    ok = bool(result.get("correct")) and result.get("failed", 1) == 0
    entry = result.get("metrics", {}).get(metric)
    if entry is None:
        return None, False
    return float(entry["value"]), ok


def quartiles(values):
    """(Q1, median, Q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(pairs, better):
    """Summary of [(parent, change), ...] for a metric where `better` is
    'higher' or 'lower'."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    pq = quartiles(parent)
    cq = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gap = sign * (cq[1] - pq[1])
    spread = pq[2] - pq[0]
    needed = math.ceil(0.9 * len(pairs))
    return {
        "pairs": len(pairs),
        "parent": pq,
        "change": cq,
        "wins": wins,
        "wins_needed": needed,
        "median_ratio": cq[1] / pq[1] if pq[1] else float("inf"),
        "gap": gap,
        "parent_spread": spread,
        "gap_exceeds_spread": gap > spread,
        "holds": wins >= needed and gap > spread,
    }


def report(summary, metric, claimed=True, out=sys.stdout):
    def side(name, q):
        print("%-7s median %.6g  Q1 %.6g  Q3 %.6g" % (name, q[1], q[0], q[2]),
              file=out)

    print("== %s" % metric, file=out)
    side("parent", summary["parent"])
    side("change", summary["change"])
    print("wins %d/%d (need %d); median ratio %.4f" %
          (summary["wins"], summary["pairs"], summary["wins_needed"],
           summary["median_ratio"]), file=out)
    print("median gap %.6g %s parent quartile spread %.6g" %
          (summary["gap"], ">" if summary["gap_exceeds_spread"] else "<=",
           summary["parent_spread"]), file=out)
    if claimed:
        print("%s: claim %s" % (metric, "HOLDS" if summary["holds"] else
                                "does not hold"), file=out)


def selftest():
    assert parse_seeds("11-13,20") == [11, 12, 13, 20]
    assert parse_seeds("7") == [7]
    assert pair_order(0) == ("parent", "change")
    assert pair_order(1) == ("change", "parent")
    canned = ('pass 1: setup 0.02 s\n'
              '{"correct": true, "attempted": 10, "failed": 0, "metrics": '
              '{"throughput_eps": {"value": 1250.5, "unit": "1/s"}}}\n')
    assert metric_of(parse_result(canned), "throughput_eps") == (1250.5, True)
    bad = canned.replace('"failed": 0', '"failed": 3')
    assert metric_of(parse_result(bad), "throughput_eps") == (1250.5, False)
    assert metric_of(parse_result("crash\n"), "throughput_eps") == (None, False)
    assert metric_of(None, "throughput_eps") == (None, False)

    # A clear gain: 10 of 10 wins, medians 100 vs 110, parent IQR 1.75.
    gain = [(100 + d, 110 + d) for d in (-3, -2, -1, 0, 0, 0, 1, 1, 2, 3)]
    s = verdict(gain, "higher")
    assert s["wins"] == 10 and s["wins_needed"] == 9
    assert s["parent"] == (99.25, 100.0, 101.0), s["parent"]
    assert abs(s["median_ratio"] - 1.1) < 1e-12
    assert s["gap_exceeds_spread"] and s["holds"]
    # Wins every pair, but by less than the parent's own spread.
    small = [(100 + 10 * d, 101 + 10 * d) for d in (-2, -1, 0, 1, 2, -2, -1, 0, 1, 2)]
    s = verdict(small, "higher")
    assert s["wins"] == 10 and not s["gap_exceeds_spread"] and not s["holds"]
    # A large median gap, but only 8 wins in 10.
    mixed = gain[:8] + [(120, 110), (121, 111)]
    s = verdict(mixed, "higher")
    assert s["wins"] == 8 and not s["holds"]
    # Lower is better: the change's smaller values win.
    s = verdict([(c, p) for p, c in gain], "lower")
    assert s["wins"] == 10 and s["holds"]
    # Ties count as losses.
    assert verdict([(5.0, 5.0)] * 10, "higher")["wins"] == 0
    assert parse_metric("throughput_eps") == ("throughput_eps", "higher")
    assert parse_metric("setup_s:lower") == ("setup_s", "lower")
    print("bench_pairs selftest: OK")
    return 0


def parse_metric(spec):
    """'setup_s:lower' -> ('setup_s', 'lower'); the default is higher."""
    name, _, better = spec.partition(":")
    if better not in ("", "higher", "lower"):
        raise ValueError("metric direction must be higher or lower: " + spec)
    return name, better or "higher"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload", default="biblio-sim")
    parser.add_argument("--seeds", default="21-30", help="e.g. 21-30 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--metric", action="append",
                        help="NAME[:higher|:lower], repeatable; the first is "
                             "the claimed metric (default throughput_eps)")
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if opts.selftest:
        return selftest()
    if not opts.parent or not opts.change:
        parser.error("--parent and --change are required")
    metrics = [parse_metric(m) for m in opts.metric or ["throughput_eps"]]

    checkouts = {"parent": opts.parent, "change": opts.change}
    pairs = {name: [] for name, _ in metrics}
    failed = False
    for index, seed in enumerate(parse_seeds(opts.seeds)):
        results = {}
        for side in pair_order(index):
            results[side] = run_once(checkouts[side], opts.workload, seed,
                                     opts.seconds, opts.trace)
        for name, _ in metrics:
            values = {}
            for side, result in results.items():
                value, ok = metric_of(result, name)
                if not ok:
                    print("seed %d %s: failed run" % (seed, side), file=sys.stderr)
                    failed = True
                values[side] = value
            if values["parent"] is None or values["change"] is None:
                continue
            pairs[name].append((values["parent"], values["change"]))
            print("seed %d (%s first) %s: parent %.6g change %.6g ratio %.4f" %
                  (seed, pair_order(index)[0], name, values["parent"],
                   values["change"], values["change"] / values["parent"]
                   if values["parent"] else float("inf")), flush=True)
    summaries = []
    for name, better in metrics:
        if not pairs[name]:
            print("%s: no complete pairs" % name, file=sys.stderr)
            return 2
        summaries.append(verdict(pairs[name], better))
        report(summaries[-1], name, claimed=len(summaries) == 1)
    if failed:
        return 2
    return 0 if summaries[0]["holds"] else 1


if __name__ == "__main__":
    sys.exit(main())
