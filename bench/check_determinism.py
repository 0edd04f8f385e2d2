#!/usr/bin/env python3
"""Byte-for-byte comparison of two repro run directories.

Companion to bench/repro.py: after regenerating the figure reports twice,

  check_determinism.py runA runB --normalize-host-times

asserts every file the two directories share is identical.  JSON reports
are compared either raw (--strict bytes) or, with --normalize-host-times,
after zeroing every host-measured duration — per-stage "host_seconds"
values and any metrics counter/gauge whose key names host_seconds —
mirroring perf::RunReport::to_canonical_json() on the C++ side.  Reports a
manifest.json (written by repro.py) marks non-deterministic are skipped
unless --strict.  Stdlib only.

Usage:
  check_determinism.py DIR_A DIR_B [--normalize-host-times] [--strict]
                       [--ignore GLOB]...
  check_determinism.py --self-test
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
import tempfile


def normalize_host_times(doc):
    """Zeroes host-measured durations in a parsed RunReport-shaped dict."""
    if isinstance(doc, dict):
        out = {}
        for k, v in doc.items():
            if k == "host_seconds" and isinstance(v, (int, float)):
                out[k] = 0
            elif k in ("counters", "gauges") and isinstance(v, dict):
                out[k] = {mk: (0 if "host_seconds" in mk and isinstance(mv, (int, float)) else
                               normalize_host_times(mv))
                          for mk, mv in v.items()}
            else:
                out[k] = normalize_host_times(v)
        return out
    if isinstance(doc, list):
        return [normalize_host_times(v) for v in doc]
    return doc


def first_difference(a, b, path=""):
    """The first JSON path at which two parsed documents differ, with both
    values, as (path, value_a, value_b); None when they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            sub = f"{path}.{k}" if path else k
            if k not in a or k not in b:
                return sub, a.get(k, "<absent>"), b.get(k, "<absent>")
            found = first_difference(a[k], b[k], sub)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{path} (length)", len(a), len(b)
        return None
    if a != b or type(a) is not type(b):
        return path, a, b
    return None


def describe_difference(path_a: str, path_b: str, normalize: bool) -> str:
    """Names the first differing JSON path of two report files and both
    values; plain 'differs' for files that do not parse as JSON."""
    try:
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            a, b = json.loads(fa.read()), json.loads(fb.read())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return "differs"
    if normalize:
        a, b = normalize_host_times(a), normalize_host_times(b)
    found = first_difference(a, b)
    if found is None:
        return "differs (same JSON values, different bytes)"
    where, va, vb = found
    return f"{where or '<root>'}: {json.dumps(va)} vs {json.dumps(vb)}"


def canonical_bytes(path: str, normalize: bool) -> bytes:
    with open(path, "rb") as f:
        raw = f.read()
    if not normalize or not path.endswith(".json"):
        return raw
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError:
        return raw
    return json.dumps(normalize_host_times(doc), sort_keys=True,
                      separators=(",", ":")).encode()


def load_manifest(d: str):
    p = os.path.join(d, "manifest.json")
    if not os.path.isfile(p):
        return None
    with open(p, "r", encoding="utf-8") as f:
        return json.load(f)


def listing(d: str, ignore: list[str]) -> set[str]:
    names = set()
    for root, _, files in os.walk(d):
        for f in files:
            rel = os.path.relpath(os.path.join(root, f), d)
            if not any(fnmatch.fnmatch(rel, pat) for pat in ignore):
                names.add(rel)
    return names


def compare(dir_a: str, dir_b: str, normalize: bool, strict: bool,
            ignore: list[str]) -> int:
    a_files = listing(dir_a, ignore)
    b_files = listing(dir_b, ignore)
    failures = []
    for only, where in ((a_files - b_files, dir_b), (b_files - a_files, dir_a)):
        for f in sorted(only):
            failures.append(f"{f}: missing from {where}")

    skip = set()
    if not strict:
        man_a, man_b = load_manifest(dir_a), load_manifest(dir_b)
        if man_a and man_b:
            for name, info in man_a.get("reports", {}).items():
                info_b = man_b.get("reports", {}).get(name, {})
                if not info.get("deterministic", True) or not info_b.get("deterministic", True):
                    skip.add(name)
                    print(f"[determinism] skipping {name} (marked non-deterministic)")

    for f in sorted(a_files & b_files):
        if f in skip:
            continue
        a = canonical_bytes(os.path.join(dir_a, f), normalize)
        b = canonical_bytes(os.path.join(dir_b, f), normalize)
        if a != b:
            what = describe_difference(os.path.join(dir_a, f), os.path.join(dir_b, f), normalize)
            failures.append(f"{f}: {what} ({dir_a} vs {dir_b})")

    for msg in failures:
        print(f"[determinism] FAIL: {msg}")
    if not failures:
        print(f"[determinism] OK: {len(a_files & b_files) - len(skip)} files byte-identical")
    return 1 if failures else 0


def self_test() -> int:
    """Builds pass/fail fixtures in a temp dir and checks both outcomes."""
    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        os.makedirs(a)
        os.makedirs(b)

        rep = {"bench": "x", "stages": [{"stage": 1, "host_seconds": 0.5}],
               "metrics": {"counters": {"stage.host_seconds": 1.25, "ops.flops": 10.0}}}
        rep2 = json.loads(json.dumps(rep))
        rep2["stages"][0]["host_seconds"] = 0.75       # host time differs...
        rep2["metrics"]["counters"]["stage.host_seconds"] = 2.0
        for d, r in ((a, rep), (b, rep2)):
            with open(os.path.join(d, "t.json"), "w", encoding="utf-8") as f:
                json.dump(r, f)

        if compare(a, b, normalize=False, strict=True, ignore=[]) == 0:
            print("[self-test] FAIL: raw comparison accepted differing host times")
            return 1
        if compare(a, b, normalize=True, strict=True, ignore=[]) != 0:
            print("[self-test] FAIL: normalization did not mask host times")
            return 1

        rep3 = json.loads(json.dumps(rep2))
        rep3["metrics"]["counters"]["ops.flops"] = 11.0  # a real divergence
        with open(os.path.join(b, "t.json"), "w", encoding="utf-8") as f:
            json.dump(rep3, f)
        if compare(a, b, normalize=True, strict=True, ignore=[]) == 0:
            print("[self-test] FAIL: a non-host difference slipped through")
            return 1
        named = describe_difference(os.path.join(a, "t.json"), os.path.join(b, "t.json"), True)
        if named != "metrics.counters.ops.flops: 10.0 vs 11.0":
            print(f"[self-test] FAIL: the differing path was not named (got {named!r})")
            return 1

        with open(os.path.join(a, "only_here.txt"), "w", encoding="utf-8") as f:
            f.write("x")
        if compare(a, b, normalize=True, strict=True, ignore=["t.json"]) == 0:
            print("[self-test] FAIL: a missing file slipped through")
            return 1

        # manifest-driven skip of a non-deterministic report
        man = {"reports": {"t.json": {"deterministic": False}}}
        for d in (a, b):
            with open(os.path.join(d, "manifest.json"), "w", encoding="utf-8") as f:
                json.dump(man, f)
        os.remove(os.path.join(a, "only_here.txt"))
        if compare(a, b, normalize=True, strict=False, ignore=[]) != 0:
            print("[self-test] FAIL: manifest skip did not apply")
            return 1

    print("[self-test] OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dirs", nargs="*", metavar="DIR")
    ap.add_argument("--normalize-host-times", action="store_true",
                    help="zero host-measured durations in *.json before comparing")
    ap.add_argument("--strict", action="store_true",
                    help="compare every file, ignoring manifest determinism flags")
    ap.add_argument("--ignore", action="append", default=[],
                    help="glob of relative paths to skip (repeatable)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if len(args.dirs) != 2:
        ap.error("exactly two directories required (or --self-test)")
    return compare(args.dirs[0], args.dirs[1], args.normalize_host_times,
                   args.strict, args.ignore)


if __name__ == "__main__":
    sys.exit(main())
