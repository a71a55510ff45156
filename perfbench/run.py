"""mimobp benchmark: BER/convergence curves timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep4-bpsk --seed 1 --seconds 40 --trace 0

With --trace 0 it reports the end-to-end metrics; with --trace 1 it also
runs traced curves and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. See perfbench/README.md for every metric and workload.

Other modes: --workload all (every workload, one after the other), --table
(per-batch time of the draw and each detector at three sizes) and
--write-golden (regenerate perfbench/golden.json).
"""
from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools to one thread before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

SETUP_PROBES = 15
# The canary curve is also run on a pool of this many workers, untimed:
# batches are keyed by (seed, SNR, batch index), so it must give the serial rows.
POOL_WORKERS = 2

DETECTORS = ("ML", "SBP", "RBP-1-0", "RBP-0-0", "RBP-2-0", "MMSE-RBP-0-0",
             "MMSE-RBP-1-0", "MMSE-SIC")
BP_DETECTORS = DETECTORS[1:7]
COUNTED_DETECTORS = DETECTORS[:7]   # complexity_counts has no MMSE-SIC form

END_TO_END = {"vec_per_s": "1/s", "curve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "channel.draw_ms": "ms", "channel.draw_share": "ratio",
    **{f"simulator.engine_ms.{d}": "ms" for d in DETECTORS},
    **{f"simulator.bp_iter_ms.{d}": "ms" for d in BP_DETECTORS},
    "simulator.edge_sets_ms": "ms", "simulator.mmse_prior_ms": "ms",
    "detectors.bit_gains_ms": "ms",
    "metrics.tally_ms": "ms", "metrics.ami_ms": "ms",
    "simulator.loop_overhead_ms": "ms", "simulator.csv_write_ms": "ms",
    "cli.import_ms": "ms", "cli.config_ms": "ms",
    "simulator.batches": "count",
    **{f"metrics.ops_per_vec.{d}": "op" for d in COUNTED_DETECTORS},
    **{f"simulator.mops_per_s.{d}": "Mop/s" for d in COUNTED_DETECTORS},
    "trace.overhead": "x",
}


def _load():
    """Put this checkout's src/ first on the path; exit 2 when it is missing."""
    if not (SRC / "mimobp" / "__init__.py").is_file():
        print(f"perfbench: no mimobp package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# ---------------- set-up ----------------


def _setup_probe(workload: str, seed: int) -> int:
    """Child process: import the package, resolve the workload, print timings."""
    start = time.perf_counter()
    import mimobp  # noqa: F401  (the import is what is timed)
    import workloads
    imported = time.perf_counter()
    workloads.resolve(workloads.WORKLOADS[workload], seed)
    print(json.dumps({"ready": time.monotonic(),
                      "import_ms": (imported - start) * 1e3,
                      "config_ms": (time.perf_counter() - imported) * 1e3}))
    return 0


def _probe_setup(workload: str, seed: int) -> dict:
    """Start a fresh process and time it up to the first simulator call."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=60)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["setup_s"] = probe["ready"] - spawned
    return probe


# ---------------- measurement ----------------


def _spread(values) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "min": values[0], "q1": q[0], "median": q[1],
            "q3": q[2], "max": values[-1]}


def _measure(plan, seed: int, seconds: float, trace: bool):
    """Warm-up, then timed curves (each followed by a traced one) for `seconds`.

    Set-up probes are spread over the same interval, so that the curves and
    the probes see the same states of the machine. No step starts that the
    last one says would end past `seconds`, so a run keeps to its time.
    """
    import tracer as tr
    import workloads
    from mimobp import simulator

    OUT_DIR.mkdir(exist_ok=True)
    csv_path = OUT_DIR / f"{plan.workload.name}.csv"
    # The warm-up curve's rows are the reference every later curve must
    # reproduce.
    reference = workloads.run_curve(plan, csv_path)
    timed, traced, probes = [], [], []
    tracer = tr.Tracer()
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        timed.append(workloads.run_curve(plan, csv_path))
        if trace:
            with tr.patched(simulator, tracer, tr.BATCH_NAMES):
                traced.append(workloads.run_curve(plan, csv_path))
        if len(timed) == 1:
            _probe_setup(plan.workload.name, seed)  # warm-up, not counted
        elapsed = time.perf_counter() - start
        if len(probes) < SETUP_PROBES and elapsed >= len(probes) * seconds / SETUP_PROBES:
            probes.append(_probe_setup(plan.workload.name, seed))
        now = time.perf_counter()
        if (now - start) + (now - step_start) >= seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(_probe_setup(plan.workload.name, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return reference, timed, traced, tracer, probes, peak_rss_mb


def _vec_per_s(curves) -> list:
    return [c.trials / c.point_s for c in curves]


def _best(curves) -> tuple:
    """(point_s, curve_s) of the fastest curve the repeats compose.

    Every repeat runs the same points on the same inputs, so the best time
    of each point over the repeats measures that point on the quietest
    machine the run saw, and their sum times the curve. The rest of a curve
    (the code between points and the CSV write) takes its best repeat.
    """
    point_s = sum(min(times) for times in zip(*(c.point_times for c in curves)))
    return point_s, point_s + min(c.curve_s - c.point_s for c in curves)


def _layer_metrics(plan, traced, tracer, probes, untraced_vps: float) -> dict:
    from mimobp.metrics import complexity_counts
    from mimobp.simulator import BATCH_TRIALS
    from tracer import detector_name

    def per_call_ms(name):
        st = tracer.totals(name)
        return st.total_s / st.calls * 1e3 if st.calls else 0.0

    m = {name: 0.0 for name in PER_LAYER}
    point_s = sum(c.point_s for c in traced)
    m["channel.draw_ms"] = per_call_ms("_draw_batch")
    m["channel.draw_share"] = tracer.totals("_draw_batch").total_s / point_s
    m["simulator.edge_sets_ms"] = per_call_ms("_engine_edge_sets")
    m["simulator.mmse_prior_ms"] = per_call_ms("_engine_mmse_prior")
    m["detectors.bit_gains_ms"] = per_call_ms("bit_gains")
    m["metrics.ami_ms"] = per_call_ms("_ami_sum")
    batch = [tracer.totals(n) for n in ("_run_batch", "_run_batch_multi_l")]
    if sum(st.calls for st in batch):
        m["metrics.tally_ms"] = (sum(st.self_s for st in batch)
                                 / sum(st.calls for st in batch) * 1e3)
    m["simulator.loop_overhead_ms"] = (
        (point_s - tracer.root_s) / sum(c.points for c in traced) * 1e3)
    m["simulator.csv_write_ms"] = statistics.median(c.csv_s for c in traced) * 1e3
    m["cli.import_ms"] = statistics.median(p["import_ms"] for p in probes)
    m["cli.config_ms"] = statistics.median(p["config_ms"] for p in probes)
    m["simulator.batches"] = traced[0].batches
    dims = plan.cfg.dims
    for spec in plan.cfg.detectors:
        det = detector_name(spec)
        engine = tracer.stats.get(("_engine_soft", det))
        if engine is not None and engine.calls:
            m[f"simulator.engine_ms.{det}"] = engine.total_s / engine.calls * 1e3
        bp = tracer.stats.get(("_engine_bp", det))
        if bp is not None and bp.iterations:
            m[f"simulator.bp_iter_ms.{det}"] = bp.self_s / bp.iterations * 1e3
        if det in COUNTED_DETECTORS:
            # a convergence curve runs every detector at its deepest L
            depth = max(plan.l_values) if plan.l_values else max(spec.iterations, 1)
            ops = complexity_counts(spec.kind, dims.n_tx, dims.n_rx,
                                    dims.bits_per_symbol, depth, spec.rd1, spec.rd2)
            per_vec = ops.multiplications + ops.additions + ops.comparisons
            m[f"metrics.ops_per_vec.{det}"] = per_vec
            engine_ms = m[f"simulator.engine_ms.{det}"]
            if engine_ms:
                m[f"simulator.mops_per_s.{det}"] = per_vec * BATCH_TRIALS / engine_ms / 1e3
    m["trace.overhead"] = untraced_vps * _best(traced)[0] / traced[0].trials
    return m


# ---------------- correctness ----------------


def _check(plan, seed: int, reference, curves, canary, pooled, tracer,
           n_traced: int) -> tuple:
    """(checks attempted, checks failed, problems) over every curve of the run.

    A check is one CSV row of one curve, or one batch count. The serial
    reference curve is checked against the golden rows; every other curve
    must reproduce it row for row. The canary curve must equal its golden
    rows, and the pooled canary curve must equal them too. Batch counts must
    equal the golden count and, in a traced run, the count of traced batches.
    """
    import workloads

    golden = json.loads(GOLDEN.read_text())
    expected, failed, first = workloads.count_failures(plan, reference.rows, golden, seed)
    attempted = expected * (1 + len(curves))
    problems = [first] if first else []
    golden_canary = golden[plan.workload.name]["canary"]["rows"]
    for name, curve in (("canary", canary), (f"{POOL_WORKERS}-worker canary", pooled)):
        diff = sum(a != b for a, b in itertools.zip_longest(curve.rows, golden_canary))
        attempted += len(golden_canary)
        failed += diff
        if diff:
            problems.append(f"{diff} {name} rows differ from the golden canary rows")
    exact = golden[plan.workload.name].get(str(seed))
    if exact:
        attempted += 1
        if exact["batches"] != reference.batches:
            problems.append(f"batches {reference.batches} != golden {exact['batches']}")
            failed += 1
    for curve in curves:
        diff = sum(a != b for a, b in itertools.zip_longest(curve.rows, reference.rows))
        if diff:
            problems.append(f"{diff} rows differ from the serial reference curve")
        failed += diff
    if n_traced:
        attempted += 1
        counted = tracer.totals("_run_batch").calls + tracer.totals("_run_batch_multi_l").calls
        if counted != reference.batches * n_traced:
            problems.append(f"traced {counted} batches, rows imply "
                            f"{reference.batches * n_traced}")
            failed += 1
    return attempted, failed, problems


# ---------------- run ----------------


def _environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} {blas.get('openblas configuration', '')}"
    except (KeyError, TypeError):
        blas = "unknown"
    rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            rev = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _run(args) -> int:
    import workloads

    plan = workloads.resolve(workloads.WORKLOADS[args.workload], args.seed)
    reference, timed, traced, tracer, probes, peak_rss = _measure(
        plan, args.seed, args.seconds, bool(args.trace))
    canary_plan = workloads.canary(plan)
    canary = workloads.run_curve(canary_plan, OUT_DIR / "canary.csv")
    pooled = workloads.run_curve(dataclasses.replace(canary_plan, workers=POOL_WORKERS),
                                 OUT_DIR / "canary.csv")
    attempted, failed, problems = _check(plan, args.seed, reference, timed + traced, canary,
                                         pooled, tracer, len(traced))

    # Each timing is built from the best of its repeats. On a shared host
    # the same code runs up to 1.5x slower for stretches of seconds to
    # minutes, and whole curves rarely fall in a quiet stretch; single
    # points, repeated through the run, do.
    vps = _vec_per_s(timed)
    point_s, curve_s = _best(timed)
    e2e = {
        "vec_per_s": timed[0].trials / point_s,
        "curve_s": curve_s,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": peak_rss,
    }
    if args.trace:
        values, units = _layer_metrics(plan, traced, tracer, probes, e2e["vec_per_s"]), PER_LAYER
    else:
        values, units = e2e, END_TO_END
    info = {
        "env": _environment(args),
        "row_fail_ratio": failed / attempted,
        "problems": problems[:5],
        "spread": {"vec_per_s": _spread(vps),
                   "curve_s": _spread([c.curve_s for c in timed]),
                   "setup_s": _spread([p["setup_s"] for p in probes])},
        "end_to_end": e2e,
    }
    print("# perfbench " + json.dumps(info))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process; a summary table, then one combined result."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        info = json.loads(lines[-2].removeprefix("# perfbench "))
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} row_fail_ratio={info['row_fail_ratio']:g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


# ---------------- maintenance modes ----------------


def _write_golden() -> int:
    """Rows and batch counts at the default and held-out seeds, and the canary rows."""
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    golden = {}
    for wl in workloads.WORKLOADS.values():
        golden[wl.name] = {}
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            plan = workloads.resolve(wl, seed)
            curve = workloads.run_curve(plan, OUT_DIR / "golden.csv")
            golden[wl.name][str(seed)] = {"batches": curve.batches, "rows": curve.rows}
        curve = workloads.run_curve(workloads.canary(plan), OUT_DIR / "golden.csv")
        golden[wl.name]["canary"] = {"batches": curve.batches, "rows": curve.rows}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def _table() -> int:
    """Best-of-3 ms per 512-trial batch for the draw and each detector, L=5 at 8 dB."""
    import tracer as tr
    from mimobp import simulator
    from mimobp.channel import SystemDims
    from mimobp.detectors import DetectorSpec

    specs = (DetectorSpec.ml(), DetectorSpec.mmse(), DetectorSpec.mmse_sic(),
             DetectorSpec.sbp(5), DetectorSpec.rbp(0, 0, 5), DetectorSpec.rbp(1, 0, 5),
             DetectorSpec.rbp(2, 0, 5), DetectorSpec.mmse_rbp(0, 0, 5),
             DetectorSpec.mmse_rbp(1, 0, 5))
    table = {}
    for n_tx, n_rx, m in ((4, 4, 1), (4, 4, 2), (8, 8, 1)):
        dims = SystemDims(n_tx, n_rx, m)
        cfg = simulator.SweepConfig(dims, (8.0,), specs, errors_target=1,
                                    trials_min=3 * simulator.BATCH_TRIALS,
                                    bits_max=3 * simulator.BATCH_TRIALS * dims.n_bits)
        tracer = tr.Tracer()
        with tr.patched(simulator, tracer, tr.BATCH_NAMES):
            for spec in specs:
                simulator.run_point(cfg, spec, 8.0)
        row = {"draw": tracer.totals("_draw_batch").best_s * 1e3}
        for spec in specs:
            name = tr.detector_name(spec)
            row[name] = tracer.stats[("_engine_soft", name)].best_s * 1e3
        table[f"{n_tx}x{n_rx} {'BPSK' if m == 1 else 'QPSK'}"] = row
    cols = list(next(iter(table.values())))
    print("| dims | " + " | ".join(cols) + " |")
    print("| --- " * (len(cols) + 1) + "|")
    for dims, row in table.items():
        print(f"| {dims} | " + " | ".join(f"{row[c]:.1f}" for c in cols) + " |")
    print(json.dumps(table))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="sweep4-bpsk")
    parser.add_argument("--seed", type=int, help="default: the golden default seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--table", action="store_true", help=_table.__doc__)
    mode.add_argument("--write-golden", action="store_true", help=_write_golden.__doc__)
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _load()
    if args.setup_probe:  # before anything imports mimobp: the import is timed
        return _setup_probe(args.workload, args.seed)
    import workloads
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.table:
        return _table()
    if args.write_golden:
        return _write_golden()
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
