#!/usr/bin/env python3
"""Paired comparison of two checkouts on the e2ebench workloads.

    python3 tools/bench_compare.py --base <checkout> --change <checkout> \
        --workload kv-durable --seeds 301-310 --seconds 20 [--trace 0|1] \
        [--build-root <dir>] [--json <file>]
    python3 tools/bench_compare.py --self-test

Builds each checkout's `avm_e2e` through that checkout's own
`e2ebench/run.py`, each under its own CARGO_TARGET_DIR
(<build-root>/base and <build-root>/change), then runs the two binaries
alternately, one pair per seed and workload, swapping which of the two
goes first from pair to pair. For every metric it prints both medians
with their interquartile range, the median of the per-pair ratios
change/base with a distribution-free 95% interval (binomial order
statistics of the ratios), and how many pairs the change won (by the
metric's direction in the base checkout's BENCHMARK.json). A pair in
which either run fails its audits aborts the comparison. Standard
library only.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("base", "change")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------ statistics --

def binom_cdf(k, n):
    """P(X <= k) for X ~ Binomial(n, 1/2)."""
    if k < 0:
        return 0.0
    return sum(math.comb(n, i) for i in range(min(k, n) + 1)) / 2.0 ** n


def median_interval_ranks(n, alpha=0.05):
    """1-based ranks (lo, hi) of the order statistics that bound the
    median with coverage >= 1 - alpha, and that coverage; None when n
    is too small for any such pair."""
    k = 0
    while binom_cdf(k, n) <= alpha / 2:
        k += 1
    if k == 0:
        return None
    return k, n + 1 - k, 1.0 - 2.0 * binom_cdf(k - 1, n)


def quartiles(values):
    """(q1, median, q3), interpolating linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base, change, better):
    """Per-metric summary of paired samples (base[i], change[i])."""
    ratios = sorted(c / b for b, c in zip(base, change) if b != 0)
    out = {
        "base": quartiles(base),
        "change": quartiles(change),
        "ratio": statistics.median(ratios) if ratios else float("nan"),
        "interval": None,
        "wins": sum(1 for b, c in zip(base, change) if (c > b if better == "higher" else c < b)),
        "pairs": len(base),
    }
    ranks = median_interval_ranks(len(ratios))
    if ranks is not None:
        lo, hi, coverage = ranks
        out["interval"] = (ratios[lo - 1], ratios[hi - 1], coverage)
    return out


def fmt(v):
    if v == 0 or not math.isfinite(v):
        return f"{v:g}"
    mag = abs(v)
    if mag >= 1e6:
        return f"{v / 1e6:.3f}M"
    if mag >= 1e3:
        return f"{v:.0f}"
    if mag >= 10:
        return f"{v:.1f}"
    if mag >= 0.01:
        return f"{v:.4f}"
    return f"{v:.3g}"


def report(workload, values, directions, header):
    print(f"\n{workload}: {header}")
    print(f"  {'metric':<26} {'base median [IQR]':<30} {'change median [IQR]':<30} "
          f"{'ratio (95% interval)':<30} wins")
    for metric in values["base"]:
        better = directions.get(metric, "higher")
        s = summarize(values["base"][metric], values["change"][metric], better)
        b1, bm, b3 = s["base"]
        c1, cm, c3 = s["change"]
        if s["interval"] is None:
            ratio = f"{s['ratio']:.3f} (n/a: < 6 pairs)"
        else:
            lo, hi, coverage = s["interval"]
            ratio = f"{s['ratio']:.3f} ({lo:.3f}-{hi:.3f}, {100 * coverage:.1f}%)"
        mark = "" if metric in directions else " (direction unknown: counts higher)"
        print(f"  {metric:<26} {fmt(bm) + ' [' + fmt(b1) + '-' + fmt(b3) + ']':<30} "
              f"{fmt(cm) + ' [' + fmt(c1) + '-' + fmt(c3) + ']':<30} {ratio:<30} "
              f"{s['wins']}/{s['pairs']} {better}{mark}")


# --------------------------------------------------------------- running --

def build(checkout, target_dir):
    """Builds `avm_e2e` through the checkout's own run.py (one short
    kv-replay run) and returns the binary's path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    log(f"bench_compare: building {checkout} under {target_dir}")
    subprocess.run([sys.executable, os.path.join(checkout, "e2ebench", "run.py"), "--workload",
                    "kv-replay", "--seed", "1", "--seconds", "0.0001"],
                   check=True, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    binary = os.path.join(target_dir, "e2ebench", "avm_e2e")
    if not os.access(binary, os.X_OK):
        raise SystemExit(f"bench_compare: {binary} was not built")
    return binary


def run_once(binary, workload, seed, seconds, trace, scratch):
    work = tempfile.mkdtemp(prefix="work-", dir=scratch)
    try:
        proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed), "--seconds",
                               str(seconds), "--trace", str(trace), "--work-dir", work],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=3 * seconds + 300, check=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"bench_compare: {binary} {workload} seed {seed} failed its audits")
    return {k: v["value"] for k, v in result["metrics"].items()}


def pair_order(i):
    """Which side runs first in pair i: alternate, starting with base."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def directions_of(checkout):
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        doc = json.load(f)
    return {m["name"]: m["better"] for m in doc.get("end_to_end", []) + doc.get("per_layer", [])}


def compare(args):
    checkouts = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    root = os.path.abspath(args.build_root)
    os.makedirs(root, exist_ok=True)
    binaries = {side: build(checkouts[side], os.path.join(root, side)) for side in SIDES}
    directions = directions_of(checkouts["base"])
    seeds = parse_seeds(args.seeds)
    raw = {}
    for workload in args.workload:
        values = {side: {} for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in pair_order(i):
                metrics = run_once(binaries[side], workload, seed, args.seconds, args.trace, root)
                for k, v in metrics.items():
                    values[side].setdefault(k, []).append(v)
            log(f"bench_compare: {workload} pair {i + 1}/{len(seeds)} (seed {seed}) done")
        raw[workload] = {"seeds": seeds, **values}
        report(workload, values, directions,
               f"{len(seeds)} alternating pairs, {args.seconds:g} s each, trace {args.trace}, "
               f"seeds {args.seeds}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


# ------------------------------------------------------------- self-test --

def self_test():
    # Interval ranks against a direct search over the binomial tails.
    for n in range(1, 41):
        ranks = median_interval_ranks(n)
        best = None
        for k in range(1, n // 2 + 1):
            if 2 * sum(math.comb(n, i) for i in range(k)) / 2 ** n <= 0.05:
                best = k
        if best is None:
            assert ranks is None, (n, ranks)
        else:
            assert ranks[:2] == (best, n + 1 - best), (n, ranks, best)
            assert ranks[2] >= 0.95, (n, ranks)
    assert median_interval_ranks(5) is None
    assert median_interval_ranks(6)[:2] == (1, 6)
    assert median_interval_ranks(10)[:2] == (2, 9)
    assert abs(median_interval_ranks(10)[2] - (1 - 22 / 1024)) < 1e-12
    assert median_interval_ranks(20)[:2] == (6, 15)
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9]) == (3, 5, 7)
    assert [pair_order(i)[0] for i in range(4)] == ["base", "change", "base", "change"]
    assert parse_seeds("301-303,341") == [301, 302, 303, 341]

    # A 20% gain under +-5% noise: the interval holds 1.2 and not 1.0,
    # and the change wins every pair of a higher-is-better metric.
    rng = random.Random(7)
    base = [100 * rng.uniform(0.95, 1.05) for _ in range(10)]
    change = [b * 1.2 * rng.uniform(0.97, 1.03) for b in base]
    s = summarize(base, change, "higher")
    lo, hi, _ = s["interval"]
    assert lo < 1.2 < hi and lo > 1.0, s
    assert s["wins"] == 10 and s["pairs"] == 10, s
    assert summarize(base, change, "lower")["wins"] == 0
    # No effect: the interval covers 1 and the wins are split.
    same = [b * rng.uniform(0.97, 1.03) for b in base]
    s = summarize(base, same, "higher")
    assert s["interval"][0] < 1.0 < s["interval"][1], s
    assert 2 <= s["wins"] <= 8, s
    # Too few pairs for an interval.
    assert summarize(base[:5], change[:5], "higher")["interval"] is None
    print("bench_compare self-test: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--base")
    p.add_argument("--change")
    p.add_argument("--workload", action="append", choices=("game-sync", "kv-replay", "kv-durable"))
    p.add_argument("--seeds", help="e.g. 301-310 or 1,5,9")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--build-root", default=".bench_compare")
    p.add_argument("--json", help="write every run's metrics here")
    args = p.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not (args.base and args.change and args.workload and args.seeds and args.seconds):
        p.error("--base, --change, --workload, --seeds and --seconds are required")
    compare(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
