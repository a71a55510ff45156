"""Benchmark workloads, how one curve of each is run, and how its rows are checked.

Each workload is written as the command line a user would give ``mimobp``
and resolved through the CLI's own settings code, so the configuration the
benchmark runs is the one a user of that command gets. The seed is the
only input that varies between runs.

Budgets: cheap low-SNR points stop on the errors target, while the costly
high-SNR points stop on the bit budget (or, for the convergence study, on a
fixed trial count). The work in one curve therefore barely depends on the
seed, which keeps timings comparable across seeds.
"""
from __future__ import annotations

import csv
import dataclasses
import math
import time
from dataclasses import dataclass

from mimobp import cli
from mimobp.simulator import BATCH_TRIALS, run_convergence, run_sweep, write_csv

DEFAULT_SEED = 12345
HELD_OUT_SEED = 20111


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple          # mimobp command line, without --seed

    @property
    def mode(self) -> str:
        return self.argv[0]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep4-bpsk",
            ("ami-sweep", "--nt", "4", "--nr", "4", "--m", "1", "--l", "5",
             "--detectors", "ML,SBP,RBP(1,0),RBP(0,0),MMSE-RBP(0,0),MMSE-SIC",
             "--snr-min", "0", "--snr-max", "10", "--snr-step", "2",
             "--errors-target", "200", "--bits-max", str(16 * BATCH_TRIALS * 4),
             "--workers", "1"),
        ),
        Workload(
            "conv4-qpsk",
            ("convergence", "--nt", "4", "--nr", "4", "--m", "2",
             "--detectors", "SBP,RBP(2,0)", "--snr", "12", "--l-max", "6",
             "--errors-target", "1", "--trials-min", str(4 * BATCH_TRIALS),
             "--bits-max", str(4 * BATCH_TRIALS * 8), "--workers", "1"),
        ),
        Workload(
            "relax8-bpsk",
            ("ber-sweep", "--nt", "8", "--nr", "8", "--m", "1", "--l", "5",
             "--detectors", "RBP(1,0),RBP(0,0),MMSE-RBP(1,0),MMSE-RBP(0,0)",
             "--snr-min", "4", "--snr-max", "10", "--snr-step", "2",
             "--errors-target", "200", "--bits-max", str(8 * BATCH_TRIALS * 8),
             "--workers", "1"),
        ),
    )
}


@dataclass
class Plan:
    """A resolved workload: what one curve runs."""

    workload: Workload
    cfg: object          # mimobp.simulator.SweepConfig
    workers: int
    snr: float | None    # convergence SNR
    l_values: tuple | None

    @property
    def n_bits(self) -> int:
        return self.cfg.dims.n_bits


def resolve(workload: Workload, seed: int) -> Plan:
    """Settings resolution as the mimobp command does it, for one seed."""
    argv = list(workload.argv) + ["--seed", str(seed)]
    args = cli.build_parser().parse_args(argv)
    if workload.mode == "convergence":
        settings = cli._resolve(args, "convergence")
        settings["snr_points"] = [settings["snr"]]
        cfg = cli._build_sweep_config(settings, record_ami=False)
        return Plan(workload, cfg, settings["workers"], settings["snr"],
                    tuple(range(1, settings["l_max"] + 1)))
    record_ami = workload.mode == "ami-sweep"
    settings = cli._resolve(args, "ami" if record_ami else "ber")
    return Plan(workload, cli._build_sweep_config(settings, record_ami),
                settings["workers"], snr=None, l_values=None)


def canary(plan: Plan) -> Plan:
    """The plan cut to one batch per point at the default seed.

    Its rows are golden whatever seed the run uses, so every run checks each
    detector at each point exactly, at the cost of one batch per point.
    """
    cfg = dataclasses.replace(plan.cfg, master_seed=DEFAULT_SEED,
                              bits_max=BATCH_TRIALS * plan.n_bits)
    return dataclasses.replace(plan, cfg=cfg)


@dataclass
class Curve:
    """One curve: its CSV rows without wall_seconds, and its timings."""

    rows: list
    trials: int
    batches: int
    points: int
    point_s: float       # summed run_point / run_convergence wall time
    curve_s: float       # from the run call until the CSV is written
    csv_s: float
    point_times: tuple   # wall time of each point, in run order


def run_curve(plan: Plan, out_path) -> Curve:
    start = time.perf_counter()
    if plan.snr is None:
        records = run_sweep(plan.cfg, workers=plan.workers)
        points = records
    else:
        records = []
        points = []
        for spec in plan.cfg.detectors:
            recs = run_convergence(plan.cfg, spec, plan.snr, plan.l_values,
                                   workers=plan.workers)
            records.extend(recs)
            points.append(recs[0])  # the depths of one call share its trials
    csv_start = time.perf_counter()
    write_csv(records, out_path)
    end = time.perf_counter()
    trials = sum(rec.bits for rec in points) // plan.n_bits
    return Curve(rows=read_rows(out_path), trials=trials,
                 batches=trials // BATCH_TRIALS, points=len(points),
                 point_s=sum(rec.wall_seconds for rec in points),
                 curve_s=end - start, csv_s=end - csv_start,
                 point_times=tuple(rec.wall_seconds for rec in points))


def read_rows(path) -> list:
    """CSV data rows as text with the wall_seconds column removed."""
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    drop = table[0].index("wall_seconds")
    return [",".join(v for i, v in enumerate(row) if i != drop) for row in table[1:]]


# ---------------- correctness ----------------

# Columns of a row once wall_seconds is removed.
_COLS = ("detector", "rd1", "rd2", "iterations", "snr_db", "bits", "errors",
         "ber", "ber_ci_low", "ber_ci_high", "ami")
# Bit errors cluster within a channel realization: the variance of a BER
# estimate is up to about twice the binomial one at these points. With 3 and
# a limit of 5 standard errors a correct row fails about once in 1e9 checks.
_DESIGN_EFFECT = 3.0
_Z_LIMIT = 5.0


def _fields(row: str) -> dict:
    return dict(zip(_COLS, row.split(",")))


def row_problem(plan: Plan, row: str, reference: str | None) -> str | None:
    """Why `row` is wrong, or None.

    A row must be internally consistent, obey the stopping rule, and sit
    within _Z_LIMIT clustered standard errors of `reference`, the same
    point's row at another seed. The key columns must match the reference.
    """
    if reference is None:
        return "unexpected row"
    if len(row.split(",")) != len(_COLS):
        return "wrong column count"
    got, ref = _fields(row), _fields(reference)
    keys = ("detector", "rd1", "rd2", "iterations", "snr_db")
    if any(got[k] != ref[k] for k in keys):
        return "row keys differ from the reference"
    cfg = plan.cfg
    try:
        bits, errors = int(got["bits"]), int(got["errors"])
        ber, lo, hi = float(got["ber"]), float(got["ber_ci_low"]), float(got["ber_ci_high"])
        ami = float(got["ami"]) if got["ami"] else None
    except ValueError:
        return "unparseable number"
    if bits <= 0 or bits % (BATCH_TRIALS * plan.n_bits) or not 0 <= errors <= bits:
        return "bits/errors out of range"
    if not math.isclose(ber, errors / bits, rel_tol=1e-5, abs_tol=1e-12):
        return "ber != errors / bits"
    if not lo <= ber <= hi:
        return "interval does not bracket ber"
    met = errors >= cfg.errors_target and bits // plan.n_bits >= cfg.trials_min
    if not (met or bits >= cfg.bits_max):
        return "stopped before the errors target or bit budget"
    if ami is not None and not (math.isfinite(ami) and ami <= 1.0):
        return "ami out of range"
    rb, re_ = int(ref["bits"]), int(ref["errors"])
    pooled = (errors + re_) / (bits + rb)
    var = _DESIGN_EFFECT * pooled * (1.0 - pooled) * (1.0 / bits + 1.0 / rb)
    if var > 0 and abs(errors / bits - re_ / rb) / math.sqrt(var) > _Z_LIMIT:
        return "ber implausible against the reference seed"
    return None


def count_failures(plan: Plan, rows: list, golden: dict, seed: int) -> tuple:
    """(rows expected, rows missing or wrong, first problem) for one curve.

    At a seed with golden rows, each row must equal its golden row. At any
    other seed each row is checked by row_problem against the default seed.
    """
    entry = golden[plan.workload.name]
    exact = entry.get(str(seed))
    expected = exact["rows"] if exact else entry[str(DEFAULT_SEED)]["rows"]
    failed = 0
    first = None
    for pos in range(max(len(rows), len(expected))):
        got = rows[pos] if pos < len(rows) else None
        ref = expected[pos] if pos < len(expected) else None
        if got is None:
            problem = "missing row"
        elif exact:
            problem = None if got == ref else "differs from the golden row"
        else:
            problem = row_problem(plan, got, ref)
        if problem:
            failed += 1
            first = first or f"row {pos}: {problem}: {got!r}"
    return len(expected), failed, first
