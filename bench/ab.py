#!/usr/bin/env python3
"""Paired A/B runs of a perfbench workload in two checkouts, or of the
bench_hotpath kernels in two build trees.

  ab.py --parent DIR --change DIR --workload fourier_wake_p8 [--workload ...]
        [--pairs 10] [--seconds 10] [--seed 21] [--out ab.json]
  ab.py --kernels --parent BUILD --change BUILD [--pairs 10] [--out gate.json]
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

--kernels is the kernel perf gate.  Each run is
`BUILD/bench/bench_hotpath --smoke --min-seconds 0.1` at REPRO_THREADS=1,
its RunReport kept as BENCH_hotpath_{parent,change}<i>.json in the working
directory; the pairs interleave as above.  Every `*_ms.<kernel>` field of
every case is one metric, named by its group, its case's coordinates (the
case identity validate_run_report.py checks, taken over its other fields)
and its kernel.  The gate fails, exit status 1, when any kernel's
change/parent ratio of the medians is above 1.15; a kernel or case on
one side only is listed but not gated.
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
sys.path.insert(0, os.path.join(ROOT, "bench"))

from validate_run_report import case_identity  # noqa: E402

# The kernel gate fails a kernel whose change/parent median ratio is above
# this.
KERNEL_BOUND = 1.15


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


def run_hotpath(build: str, out: str) -> dict:
    """One single-threaded smoke run of a build tree's bench_hotpath; its
    RunReport, which is also left at `out`."""
    cmd = [os.path.join(build, "bench", "bench_hotpath"), "--smoke", "--min-seconds", "0.1",
           "--out", out]
    proc = subprocess.run(cmd, env=dict(os.environ, REPRO_THREADS="1"),
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    with open(out) as f:
        return json.load(f)


def kernel_line(report: dict) -> dict:
    """A bench_hotpath RunReport as a result line: one metric per
    `<group>_ms.<kernel>` field of each case, "<group> [<case>] <kernel>"."""
    metrics = {}
    for case in report["cases"]:
        kernels = {k: v for k, v in case.items() if k.partition(".")[0].endswith("_ms")}
        coords = ", ".join(f"{k}={v}" for k, v in case_identity(
            {k: v for k, v in case.items() if k not in kernels}))
        for field, ms in kernels.items():
            group, _, kernel = field.partition(".")
            name = f"{group} [{coords}] {kernel}"
            if name in metrics:
                raise SystemExit(f"two cases of one report time {name}")
            metrics[name] = {"value": ms}
    return {"failed": 0, "metrics": metrics}


def gate_kernels(reports: list[tuple[dict, dict]]) -> dict:
    """summarize() over every kernel of (parent, change) bench_hotpath
    reports, with the kernels whose ratio is above KERNEL_BOUND and those
    on one side only."""
    lines = [(kernel_line(p), kernel_line(c)) for p, c in reports]
    parent = set().union(*(set(p["metrics"]) for p, _ in lines))
    change = set().union(*(set(c["metrics"]) for _, c in lines))
    s = summarize(lines, [(name, "lower") for name in sorted(parent & change)])
    s["bound"] = KERNEL_BOUND
    s["failures"] = [name for name, m in s["metrics"].items() if m["ratio"] > KERNEL_BOUND]
    s["one_side"] = {"parent": sorted(parent - change), "change": sorted(change - parent)}
    return s


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
    w = max([14] + [len(name) + 1 for name in s["metrics"]])
    print(f"  {'metric':<{w}}{'parent':>12}{'change':>12}{'ratio':>8}{'parent IQR':>12}"
          f"{'wins':>7}  claim")
    for name, m in s["metrics"].items():
        print(f"  {name:<{w}}{m['parent_median']:>12.6g}{m['change_median']:>12.6g}"
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

    # The kernel gate on synthetic bench_hotpath reports; "speedup" is a
    # measured ratio outside the kernel groups, so it is not a coordinate.
    def hotpath(slow=1.0, extra_case=False, extra_kernel=False):
        def t(ms):
            return ms * (1.0 + rng.gauss(0, 0.02))
        cases = [{"order": 4, "elements": 64, "planes": p, "batched_ms.to_quad": t(0.1 * p),
                  "sumfact_ms.to_quad": t(0.2 * p), "speedup": t(3.0)} for p in (1, 4)]
        cases.append({"n": 1568, "kd": 267, "banded_ms.solve": t(0.6),
                      "banded_ms.solve6": t(1.0) * slow})
        cases.append({"n": 1568, "kd": 267, "order": 4, "elements": 92,
                      "banded_ms.solve6": t(0.3)})
        if extra_case:
            cases.append({"n": 80, "fft_ms.forward": t(0.01)})
        if extra_kernel:
            cases[0]["batched_ms.grad"] = t(0.3)
        return {"cases": cases}

    aa = gate_kernels([(hotpath(), hotpath()) for _ in range(5)])
    ok &= not aa["failures"] and len(aa["metrics"]) == 7
    ok &= aa["one_side"] == {"parent": [], "change": []}
    slowed = gate_kernels([(hotpath(), hotpath(slow=1.25)) for _ in range(5)])
    ok &= slowed["failures"] == ["banded_ms [kd=267, n=1568] solve6"]
    one_side = gate_kernels([(hotpath(extra_case=True), hotpath(extra_kernel=True))
                             for _ in range(5)])
    ok &= not one_side["failures"] and len(one_side["metrics"]) == 7
    ok &= one_side["one_side"] == {
        "parent": ["fft_ms [n=80] forward"],
        "change": ["batched_ms [elements=64, order=4, planes=1] grad"]}
    print("ab.py self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def interleaved(pairs: int, run):
    """Yields (parent, change) results of run(side, i) for i < pairs, the
    parent first when i is even and the change first when i is odd."""
    for i in range(pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        r = {side: run(side, i) for side in sides}
        yield r["parent"], r["change"]


def kernel_gate(parent: str, change: str, pairs: int, out: str | None) -> int:
    builds = {"parent": parent, "change": change}
    reports = []
    for i, pair in enumerate(interleaved(pairs, lambda side, i: run_hotpath(
            builds[side], f"BENCH_hotpath_{side}{i + 1}.json"))):
        reports.append(pair)
        print(f"kernels pair {i + 1}/{pairs} done", flush=True)
    s = gate_kernels(reports)
    print_summary("bench_hotpath kernels", s)
    for side, names in s["one_side"].items():
        for name in names:
            print(f"not gated, {side} only: {name}")
    for name in s["failures"]:
        m = s["metrics"][name]
        print(f"FAIL {name}: change/parent {m['ratio']:.3f} > {KERNEL_BOUND}")
    print(f"kernel gate {'failed' if s['failures'] else 'passed'}: {len(s['failures'])} of "
          f"{len(s['metrics'])} kernels regressed")
    if out:
        with open(out, "w") as f:
            json.dump(s, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if s["failures"] else 0


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
    p.add_argument("--kernels", action="store_true",
                   help="gate bench_hotpath's kernels; --parent and --change are build trees")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.kernels:
        if not (args.parent and args.change):
            p.error("--kernels needs --parent and --change")
        return kernel_gate(args.parent, args.change, args.pairs, args.out)
    if not (args.parent and args.change and args.workload):
        p.error("--parent, --change and --workload are required")
    metrics = end_to_end_metrics()
    report = {"seconds": args.seconds, "seed": args.seed, "workloads": {}}
    checkouts = {"parent": args.parent, "change": args.change}
    for workload in args.workload:
        pairs = []
        for i, (a, b) in enumerate(interleaved(args.pairs, lambda side, i: run_once(
                checkouts[side], workload, args.seed + i, args.seconds))):
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
