#!/usr/bin/env python3
"""Validate RunReport JSON files against bench/run_report_schema.json.

The CI container has no jsonschema package, so this implements the small
subset of JSON Schema the committed schema actually uses: type (including
type lists), required, properties, additionalProperties (false or a schema),
items, const, minimum, minLength.  Fail loudly on any schema keyword outside
that subset rather than silently skipping it.

Unknown keys (a key the schema's additionalProperties: false would reject)
are *warnings* by default and failures only under --strict: reports are an
additive contract, so a newer binary emitting an extra field must not break
an older checkout's gate, while CI — whose schema and binaries move together
— runs --strict and catches schema drift immediately.  Wrong types, missing
required keys and constraint violations are always failures.

Usage:
  validate_run_report.py --schema bench/run_report_schema.json report.json ...
  validate_run_report.py --schema bench/run_report_schema.json --strict ...
  validate_run_report.py --schema bench/run_report_schema.json --self-test
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

HANDLED = {"$schema", "title", "description", "type", "required", "properties",
           "additionalProperties", "items", "const", "minimum", "minLength"}

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def check_type(value, expected: str) -> bool:
    if expected == "number" and isinstance(value, bool):
        return False  # bool is an int subclass in Python; JSON says otherwise
    return isinstance(value, TYPES[expected])


def validate(value, schema: dict, path: str, errors: list[str],
             warnings: list[str] | None = None) -> None:
    """Appends constraint violations to `errors` and unknown keys to
    `warnings` (pass warnings=errors to make unknown keys fatal)."""
    if warnings is None:
        warnings = errors
    unknown = set(schema) - HANDLED
    if unknown:
        raise SystemExit(f"schema uses unsupported keywords at {path or '$'}: "
                         f"{sorted(unknown)} (extend validate_run_report.py)")

    if "type" in schema:
        expected = schema["type"]
        expected = expected if isinstance(expected, list) else [expected]
        if not any(check_type(value, t) for t in expected):
            errors.append(f"{path or '$'}: expected {' or '.join(expected)}, "
                          f"got {type(value).__name__}")
            return

    if "const" in schema and value != schema["const"]:
        errors.append(f"{path or '$'}: expected constant {schema['const']!r}, got {value!r}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path or '$'}: {value} below minimum {schema['minimum']}")
    if "minLength" in schema and isinstance(value, str) and len(value) < schema["minLength"]:
        errors.append(f"{path or '$'}: string shorter than {schema['minLength']}")

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path or '$'}: missing required key \"{key}\"")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                validate(sub, props[key], f"{path}.{key}", errors, warnings)
            elif extra is False:
                warnings.append(f"{path or '$'}: unknown key \"{key}\"")
            elif isinstance(extra, dict):
                validate(sub, extra, f"{path}.{key}", errors, warnings)

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors, warnings)


def case_identity(case: dict) -> tuple:
    """A case's identity: its string-valued entries (labels) plus its
    exact-integer numeric entries (sweep coordinates like nprocs or stage).
    Measured floats are excluded — they are results, not coordinates."""
    ident = []
    for key in sorted(case):
        value = case[key]
        if isinstance(value, str):
            ident.append((key, value))
        elif isinstance(value, (int, float)) and not isinstance(value, bool) \
                and float(value).is_integer():
            ident.append((key, int(value)))
    return tuple(ident)


def check_duplicate_cases(doc, warnings: list[str]) -> None:
    """Two cases with the same identity silently shadow each other in every
    consumer that keys cases by labels (ab.py --kernels refuses such a
    report) — warn, and fail under --strict."""
    cases = doc.get("cases") if isinstance(doc, dict) else None
    if not isinstance(cases, list):
        return
    seen: dict = {}
    for i, case in enumerate(cases):
        if not isinstance(case, dict):
            continue
        ident = case_identity(case)
        if not ident:
            continue
        if ident in seen:
            warnings.append(f".cases[{i}]: duplicate case (same labels and integer "
                            f"coordinates as .cases[{seen[ident]}]: {dict(ident)})")
        else:
            seen[ident] = i


def validate_file(path: str, schema: dict) -> tuple[list[str], list[str]]:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            return [f"not valid JSON: {e}"], []
    errors: list[str] = []
    warnings: list[str] = []
    validate(doc, schema, "", errors, warnings)
    check_duplicate_cases(doc, warnings)
    return errors, warnings


GOOD = {
    "schema_version": 2,
    "bench": "self_test",
    "backend": "dense+sumfact",
    "crossover_order": 8,
    "request": {"bench": "self_test", "fidelity": "model", "machine": "NCSA",
                "net": "NCSA", "ranks": 8, "schema": 1, "seed": 0, "smoke": False,
                "backend": "", "fault": "", "solver": "", "transpose": "",
                "dof_per_rank": 461000.0, "steps": 0},
    "cache": {"hit": False, "store_key": "00f1e2d3c4b5a697"},
    "meta": {"threads": "1", "smoke": "1", "trace": "0"},
    "steps": 2,
    "stages": [{"stage": 1, "name": "transform", "group": "a", "flops": 10.0,
                "bytes": 80.0, "calls": 1, "host_seconds": 0.01,
                "fault_seconds": 0.0, "overlap_seconds": 0.0, "retransmits": 0}],
    "metrics": {"counters": {"ops.flops": 10.0}, "gauges": {},
                "histograms": {"h": {"count": 1, "sum": 2.0, "min": 2.0,
                                     "max": 2.0, "buckets": {"1": 1}}}},
    "cases": [{"platform": "NCSA", "wall_s": 4.96}],
}


def self_test(schema: dict) -> int:
    errors: list[str] = []
    warnings: list[str] = []
    validate(GOOD, schema, "", errors, warnings)
    if errors or warnings:
        print("self-test FAILED: known-good report rejected:")
        for e in errors + warnings:
            print(f"  - {e}")
        return 1
    broken = [
        ("missing bench", lambda d: d.pop("bench")),
        ("wrong schema_version", lambda d: d.update(schema_version=99)),
        ("non-string backend", lambda d: d.update(backend=2)),
        ("negative crossover_order", lambda d: d.update(crossover_order=-1)),
        ("missing request block", lambda d: d.pop("request")),
        ("wrong request schema", lambda d: d["request"].update(schema=7)),
        ("missing cache block", lambda d: d.pop("cache")),
        ("non-boolean cache hit", lambda d: d["cache"].update(hit="yes")),
        ("non-string meta value", lambda d: d["meta"].update(threads=1)),
        ("negative stage seconds", lambda d: d["stages"][0].update(host_seconds=-1.0)),
        ("non-scalar case value", lambda d: d["cases"][0].update(bad=[1, 2])),
    ]
    for label, mutate in broken:
        doc = copy.deepcopy(GOOD)
        mutate(doc)
        errs: list[str] = []
        warns: list[str] = []
        validate(doc, schema, "", errs, warns)
        if not errs:
            print(f"self-test FAILED: mutation \"{label}\" was not flagged")
            return 1
    # Unknown keys: warning by default, error only when the caller folds
    # warnings into errors (--strict).
    extra = copy.deepcopy(GOOD)
    extra["future_field"] = "hello"
    errs, warns = [], []
    validate(extra, schema, "", errs, warns)
    if errs or not warns:
        print("self-test FAILED: unknown top-level key should warn, not error "
              f"(errors={errs}, warnings={warns})")
        return 1
    errs = []
    validate(extra, schema, "", errs, errs)  # --strict folds the lists
    if not errs:
        print("self-test FAILED: unknown key not fatal under strict mode")
        return 1
    # Duplicate cases: same labels + integer coordinates twice.  Warning by
    # default (the lists differ), fatal under --strict (they are folded).
    dup = copy.deepcopy(GOOD)
    dup["cases"] = [{"platform": "NCSA", "nprocs": 4, "wall_s": 4.96},
                    {"platform": "NCSA", "nprocs": 8, "wall_s": 5.10},
                    {"platform": "NCSA", "nprocs": 4, "wall_s": 9.99}]
    errs, warns = [], []
    validate(dup, schema, "", errs, warns)
    check_duplicate_cases(dup, warns)
    if errs or len(warns) != 1:
        print("self-test FAILED: duplicate case should warn exactly once "
              f"(errors={errs}, warnings={warns})")
        return 1
    distinct = copy.deepcopy(dup)
    distinct["cases"][2]["nprocs"] = 16
    warns = []
    check_duplicate_cases(distinct, warns)
    if warns:
        print(f"self-test FAILED: distinct cases flagged as duplicates: {warns}")
        return 1
    print(f"self-test OK: good report accepted, {len(broken)} mutations all "
          "flagged, unknown key warns by default and fails under --strict, "
          "duplicate cases detected")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--schema", required=True, help="path to run_report_schema.json")
    ap.add_argument("--strict", action="store_true",
                    help="treat unknown keys as failures (CI default)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the validator flags known-bad reports")
    ap.add_argument("reports", nargs="*", help="RunReport JSON files to validate")
    args = ap.parse_args()

    with open(args.schema) as f:
        schema = json.load(f)

    if args.self_test:
        return self_test(schema)
    if not args.reports:
        ap.error("no report files given (or use --self-test)")

    failed = 0
    for path in args.reports:
        errors, warnings = validate_file(path, schema)
        if args.strict:
            errors, warnings = errors + warnings, []
        if errors:
            failed += 1
            print(f"{path}: INVALID ({len(errors)} error(s))")
            for e in errors:
                print(f"  - {e}")
        else:
            print(f"{path}: OK" + (f" ({len(warnings)} warning(s))" if warnings else ""))
        for w in warnings:
            print(f"  warning: {w}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
