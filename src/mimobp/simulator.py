"""Monte Carlo BER/AMI harness: the trial draw (_draw_batch), the batched
engine, the only implementation of every detector (_engine_soft), the batch
worker (_run_batch), the batch-major loop behind points, sweeps and
convergence runs (_run_lanes_at, _run_lanes), and CSV I/O.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import ctypes
import dataclasses
import itertools
import os
import sys
import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import SystemDims, modulate, demodulate, snr_to_noise_variance
from .detectors import (
    LLR_CLAMP,
    DetectorSpec,
    _ascending_sum,
    _hard_decisions,
    _lump,
    _lump_mean,
    _lump_variance,
    _mmse_estimate,
    _mmse_llrs,
    _relaxed_step,
    _residual_power_blocks,
    _sbp_step,
    _spec_bytes,
    alpha_update,
    bit_gains,
)
from .errors import IoFailure
from .metrics import BerAccumulator

# names of this module that a traced run wraps; the engine calls them by these names
from .detectors import build_edge_sets as _engine_edge_sets
from .metrics import ami_sum as _ami_sum

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

# Trials per batch; fixed so batch boundaries (and therefore stopping points
# and RNG streams) do not depend on worker count.
BATCH_TRIALS = 512

CSV_FIELDS = (
    "detector", "rd1", "rd2", "iterations", "snr_db", "bits", "errors",
    "ber", "ber_ci_low", "ber_ci_high", "ami", "wall_seconds",
)


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """One experiment: dimensions, SNR grid, detectors, stopping budgets."""

    dims: SystemDims
    snr_points_db: tuple
    detectors: tuple
    errors_target: int = 500
    bits_max: int = 100_000_000
    trials_min: int = 1
    master_seed: int = 12345
    record_ami: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr_points_db", tuple(float(v) for v in self.snr_points_db))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        if not self.snr_points_db:
            raise ValueError("need at least one SNR point")
        for snr_db in self.snr_points_db:
            try:
                usable = 0.0 < snr_to_noise_variance(snr_db, self.dims) < np.inf
            except ArithmeticError:  # 10^(snr/10) overflows or underflows to 0
                usable = False
            if not usable:
                raise ValueError(f"SNR points must be finite and give a noise variance in "
                                 f"(0, inf), got {snr_db}")
        if not self.detectors:
            raise ValueError("need at least one detector")
        if self.errors_target < 1 or self.bits_max < 1 or self.trials_min < 1:
            raise ValueError("stopping budgets must be >= 1")
        dims = self.dims
        for spec in self.detectors:  # fail at the start, not once per SNR point
            _spec_bytes(spec, dims.n_tx, dims.n_rx, dims.bits_per_symbol, BATCH_TRIALS)


@dataclasses.dataclass
class SweepRecord:
    """One (detector, SNR) measurement; maps 1:1 onto a CSV row."""

    detector: str
    rd1: int | None
    rd2: int | None
    iterations: int
    snr_db: float
    bits: int
    errors: int
    ber: float
    ber_ci_low: float
    ber_ci_high: float
    ami: float | None
    wall_seconds: float
    budget_exhausted: bool = False  # metadata only, not a CSV column


# ---------------- deterministic trial generation ----------------


def _snr_key(snr_db: float) -> int:
    return int(round(snr_db * 1000.0)) & 0xFFFFFFFF


def _batch_rng(master_seed: int, snr_db: float, batch_index: int) -> np.random.Generator:
    """The batch's own Philox stream, keyed by (master seed, SNR in milli-dB,
    batch index): results are reproducible bit for bit for any worker count
    or schedule, and every detector sees the same trials at a given (seed,
    SNR), so detectors can be compared trial by trial."""
    seq = np.random.SeedSequence(
        [int(master_seed) & 0xFFFFFFFFFFFFFFFF, _snr_key(snr_db), int(batch_index)]
    )
    return np.random.Generator(np.random.Philox(seq))


def _draw_batch(dims: SystemDims, sigma2: float, rng: np.random.Generator,
                count: int):
    """(bits, H, y) for `count` trials; draw order is part of the contract."""
    m = dims.bits_per_symbol
    bits = rng.integers(0, 2, size=(count, dims.n_bits)) * 2 - 1
    shape = (count, dims.n_rx, dims.n_tx)
    h = np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal((count, dims.n_rx)) + 1j * rng.standard_normal((count, dims.n_rx))
    )
    s = modulate(bits, m)
    y = np.einsum("bjk,bk->bj", h, s) + noise
    return bits, h, y


# ---------------- batched detection kernels ----------------


def _ml_metric(h, y, m):
    """|y - H s|^2 for every configuration s, shape (C, B), the antennas summed
    in order: each _residual_power_blocks block is summed as it is built, so
    no (C, B, Nr) table is held."""
    metric = np.empty((1 << m * h.shape[2], h.shape[0]))
    for start, power in _residual_power_blocks(h, y, m):
        metric[start:start + len(power)] = _ascending_sum(power, -1)
    return metric


def _engine_ml(h, y, m):
    """+-LLR_CLAMP per bit of the best configuration: bit t of its index set is x_t = -1."""
    best = np.argmin(_ml_metric(h, y, m), axis=0)
    return np.where((best[:, None] >> np.arange(m * h.shape[2])) & 1, -LLR_CLAMP, LLR_CLAMP)


def _mmse_front(h, y, sigma2, front: dict):
    """The batch's shared MMSE estimate, (s_hat, error variances) (B, Nt)."""
    return _shared(front, "mmse", lambda: _mmse_estimate(h, y, sigma2))


def _engine_mmse_prior(h, y, sigma2, m, front: dict):
    """Per-bit MMSE pseudo-LLRs for a batch, shape (B, Nbits). Unclamped."""
    return _mmse_llrs(*_mmse_front(h, y, sigma2, front), m)


def _engine_mmse_sic(h, y, sigma2, m, front: dict):
    """Ordered successive cancellation: best post-MMSE stream first,
    hard-decision re-encode, subtract, re-filter the remainder. Each stream's
    soft output is _mmse_llrs of its estimate at the stage that decided it."""
    b, n_rx, n_tx = h.shape
    rows = np.arange(b)
    active = np.tile(np.arange(n_tx), (b, 1))
    y_res = y
    s_dec, mse_dec = np.empty((b, n_tx), dtype=np.complex128), np.empty((b, n_tx))
    for stage in range(n_tx):
        n_rem = n_tx - stage
        if stage:
            h_act = np.take_along_axis(h, active[:, None, :], axis=2)
            s_hat, mse = _mmse_estimate(h_act, y_res, sigma2)
        else:  # the whole H: the estimate the batch's MMSE detectors share
            s_hat, mse = _mmse_front(h, y, sigma2, front)
        p = np.argmin(mse, axis=1)
        sym = active[rows, p]
        est = s_hat[rows, p]
        s_dec[rows, sym], mse_dec[rows, sym] = est, mse[rows, p]
        sliced = modulate(demodulate(est[:, None], m), m)[:, 0]
        h_sym = np.take_along_axis(h, sym[:, None, None], axis=2)[:, :, 0]
        y_res = y_res - h_sym * sliced[:, None]
        keep = np.ones((b, n_rem), dtype=bool)
        keep[rows, p] = False
        active = active[keep].reshape(b, n_rem - 1)
    return _mmse_llrs(s_dec, mse_dec, m)


def _bp_prior(spec: DetectorSpec, h, y, sigma2, m, front: dict):
    """The fixed per-bit prior (B, Nbits) of a BP kind's alphas: the cascade's
    MMSE pseudo-LLRs clamped like alpha; None for SBP and RBP."""
    if spec.kind != "MMSE_RBP":
        return None
    return np.clip(_engine_mmse_prior(h, y, sigma2, m, front), -LLR_CLAMP, LLR_CLAMP)


def _relaxed_front(h, spec: DetectorSpec, m: int):
    """(gains, edge sets, lump) of a relaxed spec's batch."""
    sets = _engine_edge_sets(h, spec, m)
    return bit_gains(h, m), sets, _lump(sets)


def _bp_messages(spec: DetectorSpec, h, y, sigma2, m, front: dict):
    """The flooding iterations of SBP, RBP or MMSE-RBP over a batch.

    Yields (beta, total) after each iteration, beta (B, Nr, Nbits) and its
    column sum over the factors (B, Nbits), _ascending_sum's floats, which
    is the soft output; both are fresh arrays every time. The alpha that the
    next iteration reads is alpha_update(beta, _bp_prior(...), total),
    formed after the yield and only when a next iteration runs, so no run
    forms the last iteration's alpha. The cascade's prior seeds the alphas,
    stays an additive intrinsic term in every alpha update, and shrinks the
    lump variances once up front. Where alpha starts at +0 (SBP, RBP), the
    first iteration takes it as +0 (fresh).
    """
    if not spec.iterations:
        return
    b, n_rx, n_tx = h.shape
    n_bits = m * n_tx
    prior = _bp_prior(spec, h, y, sigma2, m, front)
    if spec.exhaustive(n_tx, m):
        step = _sbp_step(h, y, sigma2, m)
    else:
        gains, sets, lump = _shared(front, ("edges", spec.rd1, spec.rd2),
                                    lambda: _relaxed_front(h, spec, m))
        relaxed = _relaxed_step(gains, sets, _lump_variance(lump, gains, sigma2, prior), y)

        def step(alpha, fresh):  # u is passed unnamed, so the step frees it once read
            return relaxed(alpha, 0.0 if fresh else _lump_mean(lump, gains, alpha), fresh)

    alpha = (np.zeros((b, n_bits, n_rx)) if prior is None
             else np.repeat(prior[:, :, None], n_rx, axis=2))
    for it in range(spec.iterations):
        if it:
            alpha = alpha_update(beta, prior, total)
        beta = step(alpha, fresh=it == 0 and prior is None)
        total = _ascending_sum(beta, -2)
        yield beta, total


def _engine_bp(spec: DetectorSpec, h, y, sigma2, m, depths, front: dict):
    """Soft outputs (B, Nbits) of the BP family over a batch, one per depth in
    depths, from one _bp_messages run. Depth l equals a run with iterations
    = l; depth 0 is the initial belief, +0 or the cascade's prior. Each is
    bit-identical to tests/test_sbp_kernel.py's and test_rbp_kernel.py's
    plain formulation."""
    outs = [total for it, (_, total) in enumerate(_bp_messages(spec, h, y, sigma2, m, front), 1)
            if it in depths]
    if 0 in depths:
        prior = _bp_prior(spec, h, y, sigma2, m, front)
        outs.insert(0, np.zeros((h.shape[0], m * h.shape[2])) if prior is None else prior)
    return outs


def _engine_soft(spec: DetectorSpec, h, y, sigma2, m, depths, front: dict):
    """spec's soft outputs (B, Nbits) over a batch: one per depth for the BP
    kinds (_engine_bp), the one output of the others."""
    if spec.kind == "ML":
        return [_engine_ml(h, y, m)]
    if spec.kind == "MMSE":
        return [_engine_mmse_prior(h, y, sigma2, m, front)]
    if spec.kind == "MMSE_SIC":
        return [_engine_mmse_sic(h, y, sigma2, m, front)]
    return _engine_bp(spec, h, y, sigma2, m, depths, front)


# ---------------- batch workers ----------------


def _shared(front: dict, key, build):
    """front[key], built by the first lane to ask, with front one batch's dict:
    "mmse" holds the MMSE estimate, ("edges", rd1, rd2) the relaxed front end."""
    if key not in front:
        front[key] = build()
    return front[key]


def _count_errors(soft: np.ndarray, bits: np.ndarray) -> int:
    """Bit errors of the hard decisions (ties toward +1); non-finite LLRs raise."""
    if not np.isfinite(soft).all():
        raise FloatingPointError(
            f"{np.count_nonzero(~np.isfinite(soft))} non-finite LLRs in a batch")
    return int(np.count_nonzero(_hard_decisions(soft) != bits))


def _run_batch(spec: DetectorSpec, bits, h, y, sigma2: float, m: int, want_ami: bool,
               depths: tuple, front: dict):
    """(bits, errors per depth, ami sum per depth) of spec on one drawn batch:
    each depth's soft output (_engine_soft) scored against the sent bits."""
    outputs = _engine_soft(spec, h, y, sigma2, m, depths, front)
    errors = [_count_errors(soft, bits) for soft in outputs]
    amis = [_ami_sum(soft, bits) if want_ami else 0.0 for soft in outputs]
    return bits.size, errors, amis


# perfbench's tracer resolves this name; every batch runs through _run_batch.
_run_batch_multi_l = _run_batch

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3    # mallopt parameters, <malloc.h>
_heap_kept = False


def _keep_freed_heap() -> None:
    """Set glibc's mmap and trim thresholds to 32 and 64 MiB, the ceilings
    its dynamic rule reaches on 64-bit hosts, once per process. That rule
    sizes both from the largest block freed so far, 0.25-1 MiB at 4x4 and
    8x8 BPSK, and would hand each lane's freed arrays back to the kernel for
    the next lane or batch to page-fault in. Process-wide; does nothing off
    glibc; changes no result. Both are set: a trim threshold alone pins the
    mmap threshold at 128 KiB."""
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr, name or mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _run_lanes_on_batch(dims: SystemDims, snr_db: float, sigma2: float, master_seed: int,
                        batch_index: int, want_ami: bool, lanes: list):
    """Draw one batch and run _run_batch on it for every lane (spec, depths).

    Returns, per lane, _run_batch's result or the exception it raised, and
    its own _run_batch time in seconds. The lanes share one dict (_shared);
    a pool worker runs this task, so it sets the heap policy first."""
    _keep_freed_heap()
    bits, h, y = _draw_batch(dims, sigma2, _batch_rng(master_seed, snr_db, batch_index),
                             BATCH_TRIALS)
    front: dict = {}
    outcomes, costs = [], []
    for spec, depths in lanes:
        start = time.perf_counter()
        try:
            outcomes.append(_run_batch(spec, bits, h, y, sigma2, dims.bits_per_symbol,
                                       want_ami, depths, front))
        except Exception as exc:  # one detector's failure leaves the others running
            outcomes.append(exc)
        costs.append(time.perf_counter() - start)
    return outcomes, costs


# ---------------- points, sweeps, convergence ----------------


@dataclasses.dataclass
class _Lane:
    """A lane: spec run to spec.iterations, its last depth, and scored after
    each iteration count in depths. Keeps its tallies per depth, in batch
    order, and whether and why it stopped."""

    spec: DetectorSpec
    depths: tuple
    bits: int = 0
    wall: float = 0.0
    running: bool = True
    exhausted: bool = False      # stopped on bits_max before the stop rule was met
    failure: Exception | None = None
    errors: list = dataclasses.field(init=False)
    amis: list = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        self.errors = [0] * len(self.depths)
        self.amis = [0.0] * len(self.depths)

    def add(self, outcome, cfg: SweepConfig) -> None:
        """Tally one batch's _run_batch outcome; stop once every depth has
        errors_target errors and trials_min trials have run, or bits_max bits."""
        if isinstance(outcome, Exception):
            self.failure, self.running = outcome, False
            return
        bits, errors, amis = outcome
        self.bits += bits
        self.errors = [a + b for a, b in zip(self.errors, errors)]
        self.amis = [a + b for a, b in zip(self.amis, amis)]
        met = (min(self.errors) >= cfg.errors_target
               and self.bits // cfg.dims.n_bits >= cfg.trials_min)
        if met or self.bits >= cfg.bits_max:
            self.running, self.exhausted = False, not met

    def records(self, cfg: SweepConfig, snr_db: float) -> list[SweepRecord]:
        spec = self.spec
        rd1, rd2 = (spec.rd1, spec.rd2) if spec.relaxed else (None, None)
        records = []
        for depth, err, ami in zip(self.depths, self.errors, self.amis):
            acc = BerAccumulator(self.bits, err)
            lo, hi = acc.wilson_interval()
            records.append(SweepRecord(
                detector=spec.label, rd1=rd1, rd2=rd2, iterations=depth,
                snr_db=float(snr_db), bits=self.bits, errors=err, ber=acc.ber,
                ber_ci_low=lo, ber_ci_high=hi, wall_seconds=self.wall,
                ami=(ami / self.bits) if cfg.record_ami else None,
                budget_exhausted=self.exhausted))
        return records


def _pool(workers: int):
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return contextlib.nullcontext()
    # imported here: concurrent.futures.process pulls in multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def _run_lanes_at(cfg: SweepConfig, snr_db: float, lanes: list, workers: int = 1,
                  pool: ProcessPoolExecutor | None = None) -> list:
    """Every lane (spec, depths) at one SNR point, batch-major: per lane, its
    records (one per depth) or the exception that ended it.

    Batch i is drawn once and runs every lane still running (_Lane.add stops
    a lane). With a pool, up to 2 x workers batches run ahead, each for the
    lanes running when it was submitted, and are tallied in batch order, so
    every lane sees exactly the serial results. A lane's wall_seconds is its
    share of the loop's time, draw included, in proportion to its own
    _run_batch time in the batches it used; the shares sum to the loop's time.
    """
    sigma2 = snr_to_noise_variance(snr_db, cfg.dims)
    tally = [_Lane(spec, depths) for spec, depths in lanes]

    def submit(index: int):
        running = [lane for lane in tally if lane.running]
        args = (cfg.dims, snr_db, sigma2, cfg.master_seed, index, cfg.record_ami,
                [(lane.spec, lane.depths) for lane in running])
        return running, (pool.submit(_run_lanes_on_batch, *args) if pool
                         else _run_lanes_on_batch(*args))

    pending: collections.deque = collections.deque()
    indices = itertools.count()
    last = time.perf_counter()
    try:
        while any(lane.running for lane in tally):
            while len(pending) < (2 * workers if pool else 1):
                pending.append(submit(next(indices)))
            running, result = pending.popleft()
            outcomes, costs = result.result() if pool else result
            # lanes that stopped at an earlier batch skip this one
            live = [k for k, lane in enumerate(running) if lane.running]
            now = time.perf_counter()
            scale = (now - last) / sum(costs[k] for k in live)
            last = now
            for k in live:
                running[k].wall += costs[k] * scale
                running[k].add(outcomes[k], cfg)
    finally:  # batches run ahead for lanes that have stopped since
        for _, future in pending:
            future.cancel()
    return [lane.failure or lane.records(cfg, snr_db) for lane in tally]


def _run_lanes(cfg: SweepConfig, lanes: list, workers: int = 1,
               progress: bool = False) -> tuple[list[SweepRecord], list[Exception]]:
    """Every lane (spec, depths) at every SNR point: (records by (lane, snr,
    depth), the failures of the failed (lane, snr) points, in run order).

    The SNR points run in ascending order, each as one batch-major loop over
    every lane (_run_lanes_at), all on one worker pool. A failing point is
    reported on stderr and skipped; the rest still runs. Progress lines
    arrive SNR point by SNR point.
    """
    rows: list[list[SweepRecord]] = [[] for _ in lanes]
    failed = []
    with _pool(workers) as pool:
        for snr_db in sorted(cfg.snr_points_db):
            try:
                outcomes = _run_lanes_at(cfg, snr_db, lanes, workers, pool)
            except Exception as exc:  # outside any detector (a broken pool): all failed
                outcomes = [exc] * len(lanes)
            for (detector, _), row, outcome in zip(lanes, rows, outcomes):
                if isinstance(outcome, Exception):  # keep going; a run is many points
                    print(f"[mimobp] point failed: {detector.name} @ {snr_db} dB: {outcome}",
                          file=sys.stderr)
                    failed.append(outcome)
                    continue
                row.extend(outcome)
                if progress:
                    for rec in outcome:
                        print(f"[mimobp] {detector.name} L={rec.iterations} "
                              f"snr={rec.snr_db:g} dB  ber={rec.ber:.3e}  errors={rec.errors}  "
                              f"bits={rec.bits}", file=sys.stderr)
    return [rec for row in rows for rec in row], failed


def _convergence_lane(detector: DetectorSpec, l_values: Sequence[int]) -> tuple:
    """(detector at the deepest L, the sorted distinct depths): a convergence lane."""
    if not detector.iterative:
        raise ValueError("convergence sweeps need an iterative detector")
    depths = tuple(sorted(set(int(v) for v in l_values)))
    if not depths or depths[0] < 1:
        raise ValueError("iteration counts must be >= 1")
    return dataclasses.replace(detector, iterations=depths[-1]), depths


def _run_alone(cfg: SweepConfig, spec: DetectorSpec, depths: tuple, snr_db: float,
               workers: int) -> list[SweepRecord]:
    """One lane's records at snr_db, run on a one-point copy of cfg that
    SweepConfig checks as it checks every run; the lane's failure raises."""
    cfg = dataclasses.replace(cfg, snr_points_db=(snr_db,), detectors=(spec,))
    with _pool(workers) as pool:
        [outcome] = _run_lanes_at(cfg, cfg.snr_points_db[0], [(spec, depths)], workers, pool)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_point(cfg: SweepConfig, detector: DetectorSpec, snr_db: float,
              workers: int = 1) -> SweepRecord:
    """Monte Carlo BER (and optional AMI) for one detector at one SNR.

    Runs whole batches until at least errors_target bit errors have been
    seen (and trials_min trials run), or the bits_max budget is exhausted.
    Deterministic given (master_seed, detector, snr_db) for any worker
    count.
    """
    return _run_alone(cfg, detector, (detector.iterations,), snr_db, workers)[0]


def run_convergence(cfg: SweepConfig, detector: DetectorSpec, snr_db: float,
                    l_values: Sequence[int], workers: int = 1) -> list[SweepRecord]:
    """BER after each iteration count in l_values, on shared trials.

    One message-passing run per trial (at max(l_values) iterations) scores
    every requested depth, so the estimates are paired. Runs until every
    depth has errors_target errors or the bit budget is out.
    """
    return _run_alone(cfg, *_convergence_lane(detector, l_values), snr_db, workers)


def run_sweep(cfg: SweepConfig, workers: int = 1, progress: bool = False) -> list[SweepRecord]:
    """Every detector at every SNR point (_run_lanes); records sorted by (detector, snr). A
    failed point is skipped; RuntimeError, chained from the first failure, if all failed."""
    records, failed = _run_lanes(cfg, [(spec, (spec.iterations,)) for spec in cfg.detectors],
                                 workers, progress)
    if failed and not records:
        raise RuntimeError(f"every point of the sweep failed ({len(failed)} points)") from failed[0]
    return records


# ---------------- CSV ----------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def write_csv(records: Sequence[SweepRecord], path) -> None:
    """Write records with the fixed header; floats carry 6 significant digits.

    Writes a temporary file beside `path` and renames it over `path`, so a
    failed write leaves an older file intact.
    """
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_FIELDS)
            for rec in records:
                writer.writerow([_fmt(getattr(rec, name)) for name in CSV_FIELDS])
        os.replace(tmp, path)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):  # already gone once renamed
            os.remove(tmp)


def read_csv(path) -> list[SweepRecord]:
    """Parse a results file back into records (floats at file precision)."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != list(CSV_FIELDS):
                raise IoFailure(f"unexpected header in {path}: {reader.fieldnames}")
            records = []
            for row in reader:
                records.append(SweepRecord(
                    detector=row["detector"],
                    rd1=int(row["rd1"]) if row["rd1"] else None,
                    rd2=int(row["rd2"]) if row["rd2"] else None,
                    iterations=int(row["iterations"]),
                    snr_db=float(row["snr_db"]),
                    bits=int(row["bits"]),
                    errors=int(row["errors"]),
                    ber=float(row["ber"]),
                    ber_ci_low=float(row["ber_ci_low"]),
                    ber_ci_high=float(row["ber_ci_high"]),
                    ami=float(row["ami"]) if row["ami"] else None,
                    wall_seconds=float(row["wall_seconds"]),
                ))
            return records
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
