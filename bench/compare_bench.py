#!/usr/bin/env python3
"""Perf-regression gate for bench_hotpath.

Compares a freshly measured BENCH_hotpath.json against one or more committed
baselines and fails when any gated kernel of any case got more than
--threshold slower.  Seven baselines are committed:

  bench/BENCH_hotpath_baseline.json  — the dense batched engine (gate its
                                       "batched_ms" metric group)
  bench/BENCH_sumfact_baseline.json  — the sum-factorised engine (gate its
                                       "sumfact_ms" metric group)
  bench/BENCH_banded_baseline.json   — the banded direct solver (gate its
                                       "banded_ms" metric group)
  bench/BENCH_fft_baseline.json      — FourierNS's z-line transforms, per
                                       line and through the lane batch (gate
                                       its "fft_ms" metric group)
  bench/BENCH_pcg_baseline.json      — the matrix-free PCG Helmholtz apply
                                       (gate its "pcg_apply_ms" metric group)
  bench/BENCH_condensed_baseline.json — SerialNS2d's condensed direct solver
                                       (gate its "condensed_ms" metric group)
  bench/BENCH_setup_baseline.json    — the Discretization and DofMap builds
                                       (gate its "setup_ms" metric group)

All are RunReports (see bench/run_report_schema.json): the sweep lives in the
top-level "cases" array as flat objects whose kernel timings use dotted keys
("batched_ms.to_quad", "sumfact_ms.grad", "banded_ms.factor", ...).  A case
is identified by its coordinates: (order, elements, planes) for the engine
sweep, (n, kd) for the banded one, (n) for the z-line transforms,
(order, elements) for the PCG apply, (order, n, kd) for the condensed
solver and the setup builds.  --baseline and --metric-group repeat in lockstep: the i-th baseline is gated on the i-th group (a single
--metric-group applies to every baseline; the default is "batched_ms").

CI machines are not the baseline machine, so raw milliseconds are not
comparable across runs.  The gate therefore self-normalises: for every
case and kernel of the gated group it forms

    current_ms / baseline_ms

and divides out the *median* of those ratios across the whole sweep.  A
uniformly faster or slower host moves every ratio together and cancels in the
median; a regression in one code path (the way perf bugs actually land)
sticks out against it.  Any kernel more than --threshold above the median is
a failure.

Single smoke runs are noisy at microsecond kernel sizes, so --current may be
given several times: the gate takes the elementwise minimum over the runs
(minima are far more stable than means under scheduler noise).  The committed
baselines should be produced the same way.

Usage:
  compare_bench.py --baseline bench/BENCH_hotpath_baseline.json \
                   --baseline bench/BENCH_sumfact_baseline.json \
                   --metric-group batched_ms --metric-group sumfact_ms \
                   --current run1.json --current run2.json [--threshold 0.15]
  compare_bench.py --update --baseline ... --current ...   # re-baseline
  compare_bench.py --self-test --baseline ... [--baseline ...]  # gate check

Re-baselining (after an intentional perf change): run the Release
bench_hotpath locally or grab the BENCH_hotpath.json artifact from a green
main build, then
  python3 bench/compare_bench.py --update \
      --baseline bench/BENCH_hotpath_baseline.json --current BENCH_hotpath.json
and commit the updated baseline together with the change that moved it.
With --metric-group, --update keeps only the cases that carry that group
(how bench/BENCH_banded_baseline.json, bench/BENCH_fft_baseline.json,
bench/BENCH_pcg_baseline.json,
bench/BENCH_condensed_baseline.json and bench/BENCH_setup_baseline.json are
cut from a full sweep).
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import statistics
import sys

ENGINE_KERNELS = ("to_quad", "weak_inner", "grad")
# Every timing group a sweep may carry, with its kernels; elementwise_min
# folds all of them.
GROUP_KERNELS = {
    "per_element_ms": ENGINE_KERNELS,
    "batched_ms": ENGINE_KERNELS,
    "sumfact_ms": ENGINE_KERNELS,
    "banded_ms": ("factor", "solve", "solve2", "solve6"),
    "fft_ms": ("inverse", "forward", "lines"),
    "pcg_apply_ms": ("lap", "helm"),
    "condensed_ms": ("setup", "solve2", "solve"),
    "setup_ms": ("disc", "dofmap"),
}
# The coordinates that identify a case (each sweep carries a subset).
CASE_COORDS = ("order", "elements", "planes", "n", "kd")

# RunReport schema versions this gate understands.  v2 added the request
# echo and cache blocks; the gated "cases" layout is unchanged, so both
# versions compare against each other during a re-baseline transition.
SUPPORTED_SCHEMAS = (1, 2)


def load_report(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    version = doc.get("schema_version")
    if version not in SUPPORTED_SCHEMAS:
        raise SystemExit(f"{path}: RunReport schema_version {version!r} not in "
                         f"{SUPPORTED_SCHEMAS} — regenerate the file or update "
                         "compare_bench.py")
    return doc


def case_key(case: dict) -> tuple:
    return tuple((c, int(case[c])) for c in CASE_COORDS if c in case)


def describe(key: tuple) -> str:
    return ", ".join(f"{c}={v}" for c, v in key)


def elementwise_min(runs: list[dict]) -> dict:
    """Merge several runs of the same sweep into one with per-entry minima."""
    merged = copy.deepcopy(runs[0])
    cases = {case_key(c): c for c in merged["cases"]}
    for run in runs[1:]:
        run_keys = {case_key(c) for c in run["cases"]}
        if run_keys != set(cases):
            raise SystemExit("cannot merge runs: case sets differ "
                             f"({sorted(set(cases) ^ run_keys)})")
        for c in run["cases"]:
            dst = cases[case_key(c)]
            for group, kernels in GROUP_KERNELS.items():
                for k in kernels:
                    key = f"{group}.{k}"
                    if key in dst and key in c:
                        dst[key] = min(dst[key], c[key])
    return merged


def compare(baseline: dict, current: dict, threshold: float,
            group: str = "batched_ms") -> list[str]:
    base_cases = {case_key(c): c for c in baseline["cases"]}
    cur_cases = {case_key(c): c for c in current["cases"]}
    failures = []
    missing = sorted(set(base_cases) - set(cur_cases))
    for key in missing:
        failures.append(f"case ({describe(key)}) present in baseline but missing from "
                        "current run")

    shared = sorted(set(base_cases) & set(cur_cases))
    entries = []  # (key, kernel, current/baseline ratio)
    for key in shared:
        for k in GROUP_KERNELS[group]:
            metric = f"{group}.{k}"
            if metric not in base_cases[key]:
                raise SystemExit(f"baseline case ({describe(key)}) has no \"{metric}\" — "
                                 "wrong --metric-group for this baseline?")
            base_ms = base_cases[key][metric]
            if base_ms <= 0.0:
                raise SystemExit(f"corrupt baseline: {metric} = {base_ms}")
            if metric not in cur_cases[key]:
                failures.append(f"case ({describe(key)}): current run has no \"{metric}\"")
                continue
            entries.append((key, k, cur_cases[key][metric] / base_ms))
    if not entries:
        return failures

    # Host-speed normalisation: the median ratio is "how fast this machine is
    # relative to the baseline machine"; per-kernel regressions stand out
    # against it.
    scale = statistics.median(r for _, _, r in entries)
    for key, k, r in entries:
        slowdown = r / scale - 1.0
        if slowdown > threshold:
            failures.append(
                f"case ({describe(key)}) kernel "
                f"{group}.{k}: {slowdown:+.0%} vs the run median (limit "
                f"{threshold:+.0%}; raw ratio {r:.3f}, median {scale:.3f})")
    return failures


def pair_groups(baselines: list[str], groups: list[str]) -> list[str]:
    """The metric group gated for each baseline (see module docstring)."""
    if not groups:
        return ["batched_ms"] * len(baselines)
    if len(groups) == 1:
        return groups * len(baselines)
    if len(groups) != len(baselines):
        raise SystemExit(f"{len(baselines)} --baseline but {len(groups)} "
                         "--metric-group: give one per baseline (or one total)")
    return groups


def self_test(baseline_paths: list[str], groups: list[str], threshold: float) -> int:
    groups = pair_groups(baseline_paths, groups)
    for path, group in zip(baseline_paths, groups):
        baseline = load_report(path)
        label = f"{path} [{group}]"
        # Identical data must pass.
        if compare(baseline, baseline, threshold, group):
            print(f"self-test FAILED: {label} does not compare clean against itself")
            return 1
        # A 1.3x slowdown injected into one gated kernel must be caught.
        perturbed = copy.deepcopy(baseline)
        perturbed["cases"][0][f"{group}.{GROUP_KERNELS[group][1]}"] *= 1.30
        if not compare(baseline, perturbed, threshold, group):
            print(f"self-test FAILED: injected 30% slowdown in {label} not flagged")
            return 1
        # A dropped case must be caught too.
        truncated = copy.deepcopy(baseline)
        truncated["cases"] = truncated["cases"][1:]
        if not compare(baseline, truncated, threshold, group):
            print(f"self-test FAILED: missing case in {label} was not flagged")
            return 1
        # A current run without the gated metric group must be caught (guards
        # against a sweep that silently stops measuring one engine).
        stripped = copy.deepcopy(baseline)
        for c in stripped["cases"]:
            for k in GROUP_KERNELS[group]:
                c.pop(f"{group}.{k}", None)
        if not compare(baseline, stripped, threshold, group):
            print(f"self-test FAILED: missing metric group in {label} not flagged")
            return 1
        print(f"self-test: {label} — clean pass, injected regression, missing "
              "case and missing metric group all flagged")
    print(f"self-test OK over {len(baseline_paths)} baseline(s) at threshold "
          f"{threshold:.0%}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", action="append", required=True,
                    help="committed baseline JSON (repeat to gate several)")
    ap.add_argument("--metric-group", action="append", default=[],
                    choices=list(GROUP_KERNELS),
                    help="dotted-key prefix gated for the matching --baseline "
                         "(default batched_ms)")
    ap.add_argument("--current", action="append",
                    help="freshly measured JSON (repeat for min-of-N)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed relative slowdown per kernel (default 0.15)")
    ap.add_argument("--update", action="store_true",
                    help="copy --current over --baseline instead of comparing")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate flags an injected regression")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.baseline, args.metric_group, args.threshold)
    if not args.current:
        ap.error("--current is required unless --self-test")
    runs = [load_report(path) for path in args.current]
    current = elementwise_min(runs)

    if args.update:
        if len(args.baseline) != 1 or len(args.metric_group) > 1:
            ap.error("--update takes exactly one --baseline and at most one --metric-group")
        if args.metric_group:
            group = args.metric_group[0]
            current["cases"] = [c for c in current["cases"]
                                if any(f"{group}.{k}" in c for k in GROUP_KERNELS[group])]
            if not current["cases"]:
                ap.error(f"no case in --current carries the {group} group")
        if len(runs) == 1 and not args.metric_group:
            shutil.copyfile(args.current[0], args.baseline[0])
        else:
            with open(args.baseline[0], "w") as f:
                json.dump(current, f, indent=2)
                f.write("\n")
        print(f"baseline updated from {len(runs)} run(s)")
        return 0

    groups = pair_groups(args.baseline, args.metric_group)
    failed = 0
    for path, group in zip(args.baseline, groups):
        baseline = load_report(path)
        failures = compare(baseline, current, args.threshold, group)
        if failures:
            failed += 1
            print(f"perf regression gate FAILED for {path} [{group}] "
                  f"({len(failures)} finding(s)):")
            for msg in failures:
                print(f"  - {msg}")
        else:
            print(f"perf gate OK for {path} [{group}]: "
                  f"{len(baseline['cases'])} baseline case(s) within "
                  f"{args.threshold:.0%}")
    if failed:
        print("\nIf the slowdown is intentional, re-baseline (see --help).")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
