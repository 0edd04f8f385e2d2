#!/usr/bin/env python3
"""Paired A/B runs of a perfbench workload in two checkouts.

  ab.py --parent DIR --change DIR --workload fourier_wake_p8 [--workload ...]
        [--pairs 10] [--seconds 10] [--seed 21] [--out ab.json]
  ab.py --self-test

Runs `python3 perfbench/run.py --workload W --seed S --seconds T` in each
checkout (each builds its own benchmark binary), N pairs in interleaved
order: pair i uses seed S + i on both sides and runs the parent first when
i is even and the change first when i is odd, so a host that drifts within
the hour loads both sides alike.  For each workload and each end-to-end metric of
BENCHMARK.json it prints the two medians, the change/parent ratio of the
medians, the parent's interquartile range, the pairs the change won and
the failed checks of each side; --out writes the same as JSON.

A gain is claimed ("claim": true) when the change wins at least 9 in 10 of
the pairs and its median beats the parent's by more than the parent's IQR.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_metrics() -> list[tuple[str, str]]:
    """(name, "lower" or "higher") of every end-to-end metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(pairs: list[tuple[dict, dict]], metrics: list[tuple[str, str]]) -> dict:
    """Medians, ratio, parent IQR, wins and claim per metric, from
    (parent, change) result lines."""
    out = {"pairs": len(pairs),
           "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                      "change": sum(c["failed"] for _, c in pairs)},
           "metrics": {}}
    for name, better in metrics:
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs if name in p["metrics"] and name in c["metrics"]]
        if not both:
            continue
        parent = [p for p, _ in both]
        change = [c for _, c in both]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(1 for p, c in both if sign * (p - c) > 0)
        med_p, med_c = statistics.median(parent), statistics.median(change)
        iqr = 0.0
        if len(parent) >= 2:
            q = statistics.quantiles(parent, n=4, method="inclusive")
            iqr = q[2] - q[0]
        out["metrics"][name] = {
            "better": better,
            "parent_median": med_p,
            "change_median": med_c,
            "ratio": med_c / med_p if med_p else math.nan,
            "parent_iqr": iqr,
            "wins": wins,
            "n": len(both),
            "claim": wins >= math.ceil(0.9 * len(both)) and sign * (med_p - med_c) > iqr,
        }
    return out


def print_summary(workload: str, s: dict) -> None:
    print(f"{workload}: {s['pairs']} pairs, failed checks parent {s['failed']['parent']}, "
          f"change {s['failed']['change']}")
    print(f"  {'metric':<14}{'parent':>12}{'change':>12}{'ratio':>8}{'parent IQR':>12}"
          f"{'wins':>7}  claim")
    for name, m in s["metrics"].items():
        print(f"  {name:<14}{m['parent_median']:>12.6g}{m['change_median']:>12.6g}"
              f"{m['ratio']:>8.3f}{m['parent_iqr']:>12.3g}{m['wins']:>4}/{m['n']:<2} "
              f"{'yes' if m['claim'] else 'no'}")


def self_test() -> int:
    rng = random.Random(7)
    metrics = [("step_s", "lower"), ("speedup", "higher")]

    def line(step, speedup, failed=0):
        return {"failed": failed, "metrics": {"step_s": {"value": step},
                                              "speedup": {"value": speedup}}}

    # A clear gain on both metrics: claimed.
    gain = [(line(1.0 + rng.gauss(0, 0.01), 2.0), line(0.8 + rng.gauss(0, 0.01), 2.5))
            for _ in range(10)]
    s = summarize(gain, metrics)
    ok = s["metrics"]["step_s"]["claim"] and s["metrics"]["speedup"]["claim"]
    ok &= s["metrics"]["step_s"]["wins"] == 10 and abs(s["metrics"]["step_s"]["ratio"] - 0.8) < 0.05
    # The same code on both sides: no claim.
    same = [(line(1.0 + rng.gauss(0, 0.05), 2.0), line(1.0 + rng.gauss(0, 0.05), 2.0))
            for _ in range(10)]
    ok &= not summarize(same, metrics)["metrics"]["step_s"]["claim"]
    # A shift inside the parent's spread wins 10 of 10 but is not claimed.
    spread = [(line(1.0 + 0.2 * (i % 2), 2.0), line(0.99 + 0.2 * (i % 2), 2.0)) for i in range(10)]
    s = summarize(spread, metrics)
    ok &= s["metrics"]["step_s"]["wins"] == 10 and not s["metrics"]["step_s"]["claim"]
    # A large gain in only 8 of 10 pairs: not claimed.
    eight = [(line(1.0, 2.0), line(0.5 if i < 8 else 1.5, 2.0)) for i in range(10)]
    ok &= not summarize(eight, metrics)["metrics"]["step_s"]["claim"]
    # Failed checks are counted per side.
    failed = summarize([(line(1.0, 2.0, 0), line(0.9, 2.0, 2))], metrics)["failed"]
    ok &= failed == {"parent": 0, "change": 2}
    print("ab.py self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--change", help="checkout of the change")
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=21)
    p.add_argument("--out", help="write the summary as JSON here")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload):
        p.error("--parent, --change and --workload are required")
    metrics = end_to_end_metrics()
    report = {"seconds": args.seconds, "seed": args.seed, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            if i % 2 == 0:
                a = run_once(args.parent, workload, seed, args.seconds)
                b = run_once(args.change, workload, seed, args.seconds)
            else:
                b = run_once(args.change, workload, seed, args.seconds)
                a = run_once(args.parent, workload, seed, args.seconds)
            pairs.append((a, b))
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{n} {a['metrics'][n]['value']:.4g} -> {b['metrics'][n]['value']:.4g}"
                for n, _ in metrics if n in a["metrics"] and n in b["metrics"]), flush=True)
        summary = summarize(pairs, metrics)
        summary["runs"] = [{"parent": a, "change": b} for a, b in pairs]
        report["workloads"][workload] = summary
        print_summary(workload, summary)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
