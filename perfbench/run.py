#!/usr/bin/env python3
"""Whole-process solver benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serial_bluff --seed 1 --seconds 10 --trace 0

builds the driver (perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or
.bench_build), runs the workload and prints one JSON result as the last
line of stdout.  --trace 0 reports the end-to-end metrics of untraced
solves; --trace 1 runs the traced solve and the layer probes, reports the
per-layer metrics and writes a Chrome trace under .bench_out/.

    python3 perfbench/run.py --write-reference --seeds 1-10

regenerates perfbench/reference.json from the current code.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ledger  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
# A run must end within 180 s; the driver gets what remains after the build.
RUN_DEADLINE_S = 170.0
BUILD_DEADLINE_S = 850.0
# Untraced runs repeat whole solves: at least this many, so setup_s and
# solve_s are medians.
MIN_SOLVES = 2


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configures and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("src/ not found: run from the root of a full checkout", 2)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cfg += ["-G", "Ninja"]
            steps.append(cfg)
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", "4"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_DEADLINE_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench_driver")


def drive(driver, workload, seed, seconds, probe, trace_out=None, timeout=RUN_DEADLINE_S,
          min_solves=MIN_SOLVES):
    """Runs the driver once and returns its parsed JSON."""
    env = dict(os.environ)
    env["REPRO_THREADS"] = str(ledger.THREADS[workload])
    env.pop("REPRO_BACKEND", None)
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--min-solves", str(min_solves)]
    if probe:
        cmd += ["--probe", "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def load_reference():
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def summarize_checks(run, reference):
    checks = ledger.check_run(run, reference)
    failed = [c for c in checks if not c[2]]
    for i, name, _ in failed:
        print(f"check FAILED: solve {i} {name}")
    return len(checks), len(failed)


def bench(args, root):
    driver = build(root)
    reference = load_reference()
    if args.trace:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_out = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.trace.json")
        run = drive(driver, args.workload, args.seed, args.seconds, True, trace_out)
        attempted, failed = summarize_checks(run, reference)
        if not ledger.completed_solves(run, "untraced") or not ledger.completed_solves(run, "traced"):
            fail("no completed solve to measure")
        metrics, lines = ledger.per_layer(run)
        for line in lines + ledger.model_drift(run, reference):
            print(line)
        print(f"chrome trace: {os.path.relpath(trace_out, root)}")
        units = dict(ledger.PER_LAYER)
    else:
        run = drive(driver, args.workload, args.seed, args.seconds, False)
        attempted, failed = summarize_checks(run, reference)
        if not ledger.completed_solves(run, "untraced"):
            fail("no completed solve to measure")
        metrics, counts = ledger.end_to_end(run)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} (median of {counts[name]})")
        units = dict(ledger.END_TO_END)
    print(f"fail_rate = {failed}/{attempted} = {failed / attempted:.3g}")
    print(json.dumps(ledger.result_line(failed == 0, attempted, failed, metrics, units)))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def write_reference(args, root):
    driver = build(root)
    out = {"workloads": {}}
    for workload in ledger.THREADS:
        entry = None
        for seed in parse_seeds(args.seeds):
            run = drive(driver, workload, seed, 0, False, timeout=None, min_solves=1)
            s = ledger.completed_solves(run, "untraced")[0]
            if entry is None:
                entry = {"steady_steps": run["steady_steps"], "seeds": {}}
            entry["seeds"][str(seed)] = {"observables": s["observables"], "model": s["model"]}
            print(f"{workload} seed {seed}: {s['observables']}", file=sys.stderr)
        out["workloads"][workload] = entry
    with open(REFERENCE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(ledger.THREADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()
    root = os.getcwd()
    if args.write_reference:
        write_reference(args, root)
    elif args.workload:
        bench(args, root)
    else:
        p.error("--workload is required")


if __name__ == "__main__":
    main()
