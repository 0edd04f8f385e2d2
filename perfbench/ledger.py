"""Metrics, statistics and correctness checks of the solver benchmark.

The C++ driver (perfbench/driver) prints raw measurements of whole solves
and layer probes; this module turns them into the metrics BENCHMARK.json
names, checks the solver outputs, and formats the per-layer report.
"""

import math
import re
import statistics

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_NAME = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Workload -> REPRO_THREADS.  fourier_wake_p8 parks 8 rank fibers on 4
# workers; the others run their ranks on one thread.
THREADS = {"serial_bluff": 1, "fourier_wake_p8": 4, "ale_flap_p4": 1}

# The paper's seven stages (Fig. 12), in pipeline order.
STAGES = ["transform", "nonlinear", "extrapolate", "p_rhs", "p_solve", "v_rhs", "v_solve"]

END_TO_END = [
    ("setup_s", "s"),
    ("step_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = (
    [
        ("process.cpu_s", "s"),
        ("process.sys_s", "s"),
        ("process.minor_faults", "count"),
        ("mesh.build_s", "s"),
        ("partition.build_s", "s"),
        ("disc.build_s", "s"),
        ("solver.ctor_s", "s"),
        ("solver.ramp_s", "s"),
        ("la.band_factor_s", "s"),
        ("la.band_factor_gflops", "GFLOP/s"),
        ("la.band_solve_s", "s"),
    ]
    + [
        (f"stage.{s}.{m}", unit)
        for s in STAGES
        for m, unit in [
            ("s", "s"),
            ("s.max", "s"),
            ("gflops", "GFLOP/s"),
            ("flop_per_byte", "flop/B"),
            ("roofline_frac", "ratio"),
        ]
    ]
    + [
        ("step_s.tail", "s"),
        ("pcg.iters_per_step", "count"),
        ("compute.to_quad_s.dense", "s"),
        ("compute.to_quad_s.sumfact", "s"),
        ("blaslite.flops_per_step", "count"),
        ("blaslite.bytes_per_step", "B"),
        ("blaslite.calls_per_step", "count"),
        ("host.dgemm_gflops", "GFLOP/s"),
        ("host.stream_gbs", "GB/s"),
        ("fft.z_s", "s"),
        ("simmpi.msgs_per_step", "count"),
        ("simmpi.bytes_per_step", "B"),
        ("simmpi.idle_virtual_s", "s"),
        ("simmpi.alltoall_us", "us"),
        ("simmpi.skew_s", "s"),
        ("gs.sum_us", "us"),
        ("parallel.cpu_util", "ratio"),
        ("parallel.speedup", "ratio"),
        ("obs.trace_overhead", "ratio"),
        ("model.cpu_s_per_step", "s"),
        ("model.wall_s_per_step", "s"),
        ("model.flops_per_step", "count"),
    ]
)

# Relative tolerance of the reference comparison.  The direct solvers are
# deterministic to the last bit; the ALE fields come from a CG solve with
# absolute residual tolerance 1e-8, so a change that reorders its sums may
# move them by that much, and its iteration counts by a few.
REFERENCE_RTOL = {"serial_bluff": 1e-10, "fourier_wake_p8": 1e-10, "ale_flap_p4": 1e-6}
PCG_ITERS_RTOL = 0.05

# A stage reaching less than this share of its roofline is overhead-bound.
OVERHEAD_FRACTION = 0.1


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With ten samples or fewer
    no such percentile exists and the maximum is returned as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n


def close(a, b, rtol):
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0) or a == b


def matches_reference(workload, observables, expected):
    """True when every expected observable is present and within tolerance."""
    rtol = REFERENCE_RTOL[workload]
    for name, want in expected.items():
        got = observables.get(name)
        if got is None:
            return False
        tol = PCG_ITERS_RTOL if name.startswith("pcg_iters_") else rtol
        if not close(got, want, tol):
            return False
    return True


def reference_for(reference, run):
    """The committed reference entry for this run's seed, or None."""
    entry = reference.get("workloads", {}).get(run["workload"])
    if not entry or entry.get("steady_steps") != run["steady_steps"]:
        return None
    return entry.get("seeds", {}).get(str(int(run["seed"])))


def check_run(run, reference):
    """Correctness checks of every solve in a driver run.

    Returns a list of (solve index, check name, passed).  Every solve is
    checked for completing, finite and bounded fields (and PCG convergence
    where the workload iterates), for repeating the first solve's outputs
    exactly, and, on a committed seed, for matching the reference.
    """
    results = []
    ref = reference_for(reference, run)
    first = None
    for i, s in enumerate(run["solves"]):
        completed = not s["error"]
        results.append((i, "completed", completed))
        if not completed:
            continue
        for name, ok in s["checks"].items():
            results.append((i, name, bool(ok)))
        outputs = (s["observables"], s["model"].get("stage_flops"))
        if first is None:
            first = outputs
        else:
            results.append((i, "repeatable", outputs == first))
        if ref is not None:
            results.append(
                (i, "reference", matches_reference(run["workload"], s["observables"], ref["observables"]))
            )
    return results


def completed_solves(run, kind):
    return [s for s in run["solves"] if s["kind"] == kind and not s["error"]]


def end_to_end(run):
    """The end-to-end metrics of an untraced run, plus sample counts."""
    solves = completed_solves(run, "untraced")
    steps = [t for s in solves for t in s["step_s"]]
    metrics = {
        "setup_s": median([s["setup_s"] for s in solves]),
        "step_s": median(steps),
        "solve_s": median([s["solve_s"] for s in solves]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    counts = {"setup_s": len(solves), "step_s": len(steps), "solve_s": len(solves), "peak_rss_mb": 1}
    return metrics, counts


def roofline_place(gflops, flop_per_byte, peak_gflops, stream_gbs):
    """(roofline fraction, placement) of a stage row on the host roofline."""
    bw_roof = stream_gbs * flop_per_byte
    roof = min(peak_gflops, bw_roof)
    if roof <= 0.0:
        return 0.0, "idle"
    frac = gflops / roof
    if frac < OVERHEAD_FRACTION:
        return frac, "overhead-bound"
    return frac, "compute-bound" if peak_gflops <= bw_roof else "bandwidth-bound"


def per_layer(run):
    """The per-layer metrics of a probe run, and the report lines that go
    with them (sample counts, roofline placement of each stage row)."""
    u = completed_solves(run, "untraced")[0]
    t = completed_solves(run, "traced")[0]
    one = completed_solves(run, "one_thread")
    layers = run["layers"]
    roof = run["roofline"]
    threads = run["threads"]
    lines = []
    m = {
        "process.cpu_s": u["usage"]["user_s"],
        "process.sys_s": u["usage"]["sys_s"],
        "process.minor_faults": u["usage"]["minor_faults"],
        "mesh.build_s": u["phases"]["mesh.build_s"],
        "partition.build_s": u["phases"]["partition.build_s"],
        "disc.build_s": layers.get("disc.build_s", u["phases"]["disc.build_s"]),
        "solver.ctor_s": u["phases"]["solver.ctor_s"],
        "solver.ramp_s": u["phases"]["solver.ramp_s"],
    }
    for k in ("la.band_factor_s", "la.band_factor_gflops", "la.band_solve_s", "fft.z_s",
              "simmpi.alltoall_us", "gs.sum_us"):
        m[k] = layers[k]
    flops = bytes_ = calls = 0.0
    for name, row in zip(STAGES, u["stages"]):
        gflops = row["flops"] / row["s"] * 1e-9 if row["s"] > 0 else 0.0
        intensity = row["flops"] / row["bytes"] if row["bytes"] > 0 else 0.0
        frac, place = roofline_place(gflops, intensity, roof["dgemm_gflops"], roof["stream_gbs"])
        m[f"stage.{name}.s"] = row["s"]
        m[f"stage.{name}.s.max"] = row["s_max"]
        m[f"stage.{name}.gflops"] = gflops
        m[f"stage.{name}.flop_per_byte"] = intensity
        m[f"stage.{name}.roofline_frac"] = frac
        lines.append(
            f"stage {name:<11} {row['s']:.6f} s/step (max over ranks {row['s_max']:.6f}), "
            f"{gflops:.3f} GFLOP/s at {intensity:.3f} flop/B: {100 * frac:.1f}% of roof, {place}"
        )
        flops += row["flops"]
        bytes_ += row["bytes"]
        calls += row["calls"]
    ph = u["phases"]
    parts = ph["mesh.build_s"] + ph["disc.build_s"] + ph["solver.ctor_s"] + ph["solver.ramp_s"]
    lines.append(
        f"setup accounting: mesh + disc + ctor + ramp = {parts:.4f} s of setup_s "
        f"{u['setup_s']:.4f} s ({100 * parts / u['setup_s']:.1f}%)"
    )
    value, pct, n = tail(u["step_s"])
    m["step_s.tail"] = value
    lines.append(f"step_s.tail = p{pct:.1f} of {n} untraced steady steps = {value:.6f} s")
    m["pcg.iters_per_step"] = sum(u["pcg_iters"]) / len(u["pcg_iters"]) if u["pcg_iters"] else 0.0
    m["compute.to_quad_s.dense"] = t["probes"]["compute.to_quad_s.dense"]
    m["compute.to_quad_s.sumfact"] = t["probes"]["compute.to_quad_s.sumfact"]
    m["blaslite.flops_per_step"] = flops
    m["blaslite.bytes_per_step"] = bytes_
    m["blaslite.calls_per_step"] = calls
    m["host.dgemm_gflops"] = roof["dgemm_gflops"]
    m["host.stream_gbs"] = roof["stream_gbs"]
    lines.append(
        f"host roofline: dgemm {roof['dgemm_gflops']:.2f} GFLOP/s (192^3, {threads} thread(s)), "
        f"dcopy {roof['stream_gbs']:.2f} GB/s on two {roof['array_bytes'] / 2**20:.0f} MiB arrays "
        f"(last-level cache {roof['llc_bytes'] / 2**20:.0f} MiB)"
    )
    m["simmpi.msgs_per_step"] = u["msgs_per_step"]
    m["simmpi.bytes_per_step"] = u["bytes_per_step"]
    m["simmpi.idle_virtual_s"] = median(u["idle_virtual_s"]) if u["idle_virtual_s"] else 0.0
    m["simmpi.skew_s"] = median(u["skew_s"]) if u["skew_s"] else 0.0
    step = median(u["step_s"])
    m["parallel.cpu_util"] = u["steady_cpu_s"] / (sum(u["step_s"]) * threads)
    m["parallel.speedup"] = median(one[0]["step_s"]) / step if one else 1.0
    m["obs.trace_overhead"] = median(t["step_s"]) / step - 1.0
    m["model.cpu_s_per_step"] = u["model"]["cpu_s_per_step"]
    m["model.wall_s_per_step"] = u["model"]["wall_s_per_step"]
    m["model.flops_per_step"] = u["model"]["flops_per_step"]
    return m, lines


def model_drift(run, reference):
    """Report lines comparing the run's priced 1999-platform seconds and
    exact per-stage op counts against the committed reference."""
    u = completed_solves(run, "untraced")[0]["model"]
    ref = reference_for(reference, run)
    if ref is None:
        return [f"model drift: no reference for seed {int(run['seed'])}"]
    want = ref["model"]
    lines = []
    for key in ("cpu_s_per_step", "wall_s_per_step"):
        moved = not close(u[key], want[key], 1e-12)
        lines.append(
            f"model drift on {u['platform']}: {key} {'MOVED' if moved else 'unmoved'} "
            f"({u[key]:.6g} vs reference {want[key]:.6g})"
        )
    for name, got, ref_flops in zip(STAGES, u["stage_flops"], want["stage_flops"]):
        moved = got != ref_flops
        lines.append(
            f"model drift: stage {name} flops {'MOVED' if moved else 'unmoved'} "
            f"({got:.0f} vs reference {ref_flops:.0f})"
        )
    return lines


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's last output line."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
