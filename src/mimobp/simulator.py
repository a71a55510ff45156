"""Monte Carlo BER/AMI harness.

Trials are organized in fixed-size batches. Each batch draws its data from
its own counter-based Philox stream keyed by (master seed, SNR in milli-dB,
batch index), so results are reproducible bit-for-bit regardless of worker
count or scheduling, and every detector sees the same channel/noise
realizations at a given (seed, SNR) - useful for paired comparisons.

The engine here is the only implementation of every detector;
detectors.detect() and message_history() run it on a batch of one, and a
row's result does not depend on the batch around it. The BP kinds share one
flooding loop, _bp_messages, over the batch steps of mimobp.detectors:
standard BP, and relaxed BP that lumps nothing, is config-major, (C, B, Nr)
over the C = 2^Nbits joint configurations; the rest of relaxed BP is
hypothesis-major, (H, B, Nr, Nbits) over the H = 2^R_D edge hypotheses.
Product tables come from one doubling helper, detectors._config_products,
which returns einsum's floats bit for bit without einsum; ML and SBP take
|y - Hs|^2 per antenna from it (detectors._residual_power). The SBP and
relaxed prior sums come from detectors._prior_sums: doubling tables over
the even and the odd bits, each added from the highest bit down, and one
broadcast add. The relaxed step builds its hypothesis-only score tables
once per batch and one prior-sum table per iteration. The lump sums come
from detectors._lump, in ascending bit order, and the MMSE kinds share one
inverse, detectors._mmse_estimate.

Sweeps are batch-major. One loop, _run_taps, runs "lanes", each a
(detector, taps) pair, at one SNR point: batch i is drawn once (in the pool
worker when workers > 1) and one worker, _run_batch, scores every lane still
running on it (taps: see there). Within a batch, the MMSE estimate (MMSE,
MMSE-SIC's first stage, the cascade prior) and the relaxed gains, edge sets
and lump (relaxed detectors of one (rd1, rd2)) are built by the first lane
that asks and kept in the batch's dict (_shared). Each lane tallies its
batches in batch order and stops at a batch boundary, which keeps its
stopping point deterministic too. run_point is one lane, run_convergence
one lane with taps, and run_sweep one loop per SNR point on one worker
pool. A record's wall_seconds is its lane's share of the loop's time, in
proportion to its own _run_batch time (the first user pays for a shared
build), so the records of a serial sweep sum to its detection time.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import dataclasses
import itertools
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

import numpy as np

from .channel import SystemDims, modulate, demodulate, snr_to_noise_variance
from .detectors import (
    LLR_CLAMP,
    DetectorSpec,
    _config_table,
    _lump,
    _mmse_estimate,
    _mmse_llrs,
    _relaxed_step,
    _residual_power,
    _sbp_step,
    _spec_bytes,
    alpha_update,
    bit_gains,
    build_edge_sets,
)
from .errors import IoFailure
from .metrics import BerAccumulator, ami_sum

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


def _ml_metric(h, y, symbols):
    """|y - H s|^2 for every configuration s in symbols, shape (C, B)."""
    sq = _residual_power(h, y, symbols)                       # (C, B, Nr)
    metric = sq[..., 0].copy()  # antennas summed in order, as a middle-axis sum does
    for j in range(1, h.shape[1]):
        metric += sq[..., j]
    return metric


def _engine_ml(h, y, m):
    tbl = _config_table(m, h.shape[2])
    best = np.argmin(_ml_metric(h, y, tbl.symbols), axis=0)
    hard = tbl.bits[best].astype(np.float64)
    return hard * LLR_CLAMP


def _mmse_front(h, y, sigma2, front=None):
    """(s_hat, error variances), both (B, Nt), of a batch's MMSE estimate: the
    batch's shared one when front (its dict, see _shared) is given."""
    def build():
        s_hat, k = _mmse_estimate(h, y, sigma2)
        return s_hat, np.diagonal(k, axis1=1, axis2=2).real.copy()

    return _shared(front, "mmse", build)


def _engine_mmse_prior(h, y, sigma2, m, front=None):
    """Per-bit MMSE pseudo-LLRs for a batch, shape (B, Nbits). Unclamped."""
    return _mmse_llrs(*_mmse_front(h, y, sigma2, front), m)


def _engine_mmse_sic(h, y, sigma2, m, front=None):
    """Ordered successive cancellation: best post-MMSE stream first,
    hard-decision re-encode, subtract, re-filter the remainder."""
    b, n_rx, n_tx = h.shape
    n_bits = m * n_tx
    rows = np.arange(b)
    active = np.tile(np.arange(n_tx), (b, 1))
    y_res = y
    soft = np.empty((b, n_bits))
    for stage in range(n_tx):
        n_rem = n_tx - stage
        if stage:
            h_act = np.take_along_axis(h, active[:, None, :], axis=2)
            s_hat, mse = _mmse_front(h_act, y_res, sigma2)
        else:  # the whole H: the estimate the batch's MMSE detectors share
            s_hat, mse = _mmse_front(h, y, sigma2, front)
        p = np.argmin(mse, axis=1)
        sym = active[rows, p]
        est = s_hat[rows, p]
        mse_p = mse[rows, p]
        scale = 2.0 * np.sqrt(m) / mse_p
        soft[rows, sym * m] = scale * est.real
        if m == 2:
            soft[rows, sym * m + 1] = scale * est.imag
        sliced = modulate(demodulate(est[:, None], m), m)[:, 0]
        h_sym = np.take_along_axis(h, sym[:, None, None], axis=2)[:, :, 0]
        y_res = y_res - h_sym * sliced[:, None]
        keep = np.ones((b, n_rem), dtype=bool)
        keep[rows, p] = False
        active = active[keep].reshape(b, n_rem - 1)
    return soft


def _engine_edge_sets(h, spec: DetectorSpec, m: int) -> np.ndarray:
    """build_edge_sets for a batch, shape (B, Nr, Nbits, R_D)."""
    return build_edge_sets(h, spec, m)


def _cascade_prior(h, y, sigma2, m, front=None):
    """The MMSE cascade's fixed per-bit prior (B, Nbits), clamped like alpha."""
    return np.clip(_engine_mmse_prior(h, y, sigma2, m, front), -LLR_CLAMP, LLR_CLAMP)


def _relaxed_front(h, spec: DetectorSpec, m: int):
    """(gains, edge sets, lump) of a relaxed spec's batch; see _bp_messages."""
    sets = _engine_edge_sets(h, spec, m)
    return bit_gains(h, m), sets, _lump(sets)


def _bp_messages(spec: DetectorSpec, h, y, sigma2, m, front=None):
    """The flooding iterations of SBP, RBP or MMSE-RBP over a batch.

    Yields (alpha, beta) after each iteration, alpha (B, Nbits, Nr) and beta
    (B, Nr, Nbits), both fresh arrays every time. The edge sets, not the
    kind, pick the step: SBP's, config-major (C, B, Nr), where nothing is
    lumped (spec.exhaustive), else the relaxed one, hypothesis-major (H, B,
    Nr, Nbits) with H = 2^R_D. Tables and score buffers are built once per
    batch and refilled every iteration. The cascade's pseudo-LLRs act as a
    fixed per-bit prior factor: they seed the alphas, remain an additive
    intrinsic term in every alpha update, and shrink the lump variances once
    up front. Where alpha starts at +0 (SBP, RBP), the first iteration takes
    the alpha sums and the lump mean as +0 instead of computing them. With
    front (the batch's dict, see _shared), the cascade's MMSE estimate and
    the relaxed gains, edge sets and lump are the batch's shared ones.
    """
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be > 0 for message passing")
    if not spec.iterations:
        return
    b, n_rx, n_tx = h.shape
    n_bits = m * n_tx
    prior = _cascade_prior(h, y, sigma2, m, front) if spec.kind == "MMSE_RBP" else None
    if spec.exhaustive(n_tx, m):
        step = _sbp_step(h, y, sigma2, m)
    else:
        gains, sets, lump = _shared(front, ("edges", spec.rd1, spec.rd2),
                                    lambda: _relaxed_front(h, spec, m))
        # a bit's prior variance: 1 - tanh^2 of half its LLR, 1 without a cascade
        bit_var = 1.0 if prior is None else (1.0 - np.tanh(prior / 2.0) ** 2)[:, None, :]
        sigma2_z = np.maximum(lump(np.abs(gains) ** 2 * bit_var), 0.0) + sigma2
        relaxed = _relaxed_step(gains, sets, sigma2_z, y)
        del sets, sigma2_z  # the steps keep what they use; free the rest

        def step(alpha, fresh):
            # without a cascade, alpha starts at +0: u and the priors are +0
            u = 0.0 if fresh else lump(gains * np.swapaxes(np.tanh(alpha / 2.0), -1, -2))
            return relaxed(alpha, u, fresh)

    alpha = (np.zeros((b, n_bits, n_rx)) if prior is None
             else np.repeat(prior[:, :, None], n_rx, axis=2))
    for it in range(spec.iterations):
        beta = step(alpha, fresh=it == 0 and prior is None)
        alpha = alpha_update(beta, prior)
        yield alpha, beta


def _engine_bp(spec: DetectorSpec, h, y, sigma2, m, want_iters=False, front=None):
    """Soft outputs for the BP family over a batch, from _bp_messages.

    Returns the final (B, Nbits) soft matrix, or the per-iteration list when
    want_iters is set (entry l-1 matches a run with iterations=l). With no
    iteration the soft output is the initial belief: +0, or the cascade's
    prior. Every result is bit-identical to the plain formulation
    (tests/test_sbp_kernel.py, tests/test_rbp_kernel.py).
    """
    iters, beta = [], None
    for _, beta in _bp_messages(spec, h, y, sigma2, m, front):
        if want_iters:
            iters.append(beta.sum(axis=-2))
    if want_iters:
        return iters
    if beta is not None:
        return beta.sum(axis=-2)
    if spec.kind == "MMSE_RBP":
        return _cascade_prior(h, y, sigma2, m, front)
    return np.zeros((h.shape[0], m * h.shape[2]))


def _engine_soft(spec: DetectorSpec, h, y, sigma2, m, want_iters=False, front=None):
    if spec.kind == "ML":
        return _engine_ml(h, y, m)
    if spec.kind == "MMSE":
        return _engine_mmse_prior(h, y, sigma2, m, front)
    if spec.kind == "MMSE_SIC":
        return _engine_mmse_sic(h, y, sigma2, m, front)
    return _engine_bp(spec, h, y, sigma2, m, want_iters=want_iters, front=front)


# ---------------- batch workers ----------------


def _shared(front: dict | None, key, build):
    """build(), or front[key], built by the first lane to ask, with front one batch's
    dict: "mmse" holds the MMSE estimate, ("edges", rd1, rd2) the relaxed front end."""
    if front is None:
        return build()
    if key not in front:
        front[key] = build()
    return front[key]


def _ami_sum(soft: np.ndarray, bits: np.ndarray) -> float:
    return ami_sum(soft, bits)  # a name of its own, so a traced run can time it


def _count_errors(soft: np.ndarray, bits: np.ndarray) -> int:
    """Bit errors of the hard decisions (ties toward +1); non-finite LLRs raise."""
    if not np.isfinite(soft).all():
        raise FloatingPointError(
            f"{np.count_nonzero(~np.isfinite(soft))} non-finite LLRs in a batch")
    return int(np.count_nonzero(np.where(soft >= 0.0, 1, -1) != bits))


def _run_batch(spec: DetectorSpec, bits, h, y, sigma2: float, m: int, want_ami: bool,
               taps: tuple, front: dict | None = None):
    """(bits, errors per tap, ami sum per tap) of spec on one drawn batch.

    A tap is a point of the detector's output that gets scored. The empty
    tuple () is the single tap of a plain point: the detector's own soft
    output. A convergence run passes its sorted iteration depths, and depth
    l scores entry l-1 of one want_iters engine call, which equals a run
    with iterations = l.
    """
    if taps:
        iters = _engine_soft(spec, h, y, sigma2, m, want_iters=True, front=front)
        outputs = [iters[l - 1] for l in taps]
    else:
        outputs = [_engine_soft(spec, h, y, sigma2, m, front=front)]
    errors = [_count_errors(soft, bits) for soft in outputs]
    amis = [_ami_sum(soft, bits) if want_ami else 0.0 for soft in outputs]
    return bits.size, errors, amis


# perfbench's tracer resolves this name; every batch runs through _run_batch.
_run_batch_multi_l = _run_batch


def _run_lanes_on_batch(dims: SystemDims, snr_db: float, sigma2: float, master_seed: int,
                        batch_index: int, want_ami: bool, lanes: list):
    """Draw one batch and run _run_batch on it for every lane (spec, taps).

    Returns, per lane, _run_batch's result or the exception it raised, and
    its own _run_batch time in seconds. The lanes share one dict of front-end
    values (_shared), dropped with the batch. This is the task a pool
    worker runs.
    """
    bits, h, y = _draw_batch(dims, sigma2, _batch_rng(master_seed, snr_db, batch_index),
                             BATCH_TRIALS)
    front: dict = {}
    outcomes, costs = [], []
    for spec, taps in lanes:
        start = time.perf_counter()
        try:
            outcomes.append(_run_batch(spec, bits, h, y, sigma2, dims.bits_per_symbol,
                                       want_ami, taps, front))
        except Exception as exc:  # one detector's failure leaves the others running
            outcomes.append(exc)
        costs.append(time.perf_counter() - start)
    return outcomes, costs


# ---------------- points, sweeps, convergence ----------------


@dataclasses.dataclass
class _Lane:
    """One (spec, taps) point of the batch-major loop: its tallies, in batch
    order, and whether and why it stopped."""

    spec: DetectorSpec
    taps: tuple
    bits: int = 0
    wall: float = 0.0
    running: bool = True
    exhausted: bool = False      # stopped on bits_max before the stop rule was met
    failure: Exception | None = None
    depths: tuple = dataclasses.field(init=False)
    errors: list = dataclasses.field(init=False)
    amis: list = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        self.depths = self.taps or (self.spec.iterations,)
        self.errors = [0] * len(self.depths)
        self.amis = [0.0] * len(self.depths)

    def add(self, outcome, cfg: SweepConfig) -> None:
        """Tally one batch's _run_batch outcome and apply the stop rule."""
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
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()


def _run_taps(cfg: SweepConfig, snr_db: float, lanes: list, workers: int = 1,
              pool: ProcessPoolExecutor | None = None) -> list:
    """Every lane (spec, taps) at one SNR point, batch-major: per lane, its
    records (one per tap, see _run_batch) or the exception that ended it.

    Batch i is drawn once and runs every lane still running; each lane
    stops at the first batch boundary where every tap has errors_target
    errors and trials_min trials have run, or where bits_max bits have.
    With a pool, up to 2 x workers batches run ahead, each for the lanes
    running when it was submitted, and are tallied in batch order, so every
    lane sees exactly the serial results. A lane's wall_seconds is its share
    of the loop's time, draw included, in proportion to its own _run_batch
    time in the batches it used; the lanes' shares sum to the loop's time.
    """
    sigma2 = snr_to_noise_variance(snr_db, cfg.dims)
    tally = [_Lane(spec, taps) for spec, taps in lanes]

    def submit(index: int):
        running = [lane for lane in tally if lane.running]
        args = (cfg.dims, snr_db, sigma2, cfg.master_seed, index, cfg.record_ami,
                [(lane.spec, lane.taps) for lane in running])
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


def _run_alone(cfg: SweepConfig, spec: DetectorSpec, snr_db: float, taps: tuple,
               workers: int) -> list[SweepRecord]:
    with _pool(workers) as pool:
        [outcome] = _run_taps(cfg, snr_db, [(spec, taps)], workers, pool)
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
    return _run_alone(cfg, detector, snr_db, (), workers)[0]


def run_convergence(cfg: SweepConfig, detector: DetectorSpec, snr_db: float,
                    l_values: Sequence[int], workers: int = 1) -> list[SweepRecord]:
    """BER after each iteration count in l_values, on shared trials.

    One message-passing run per trial (at max(l_values) iterations) scores
    every requested depth, so the estimates are paired. Runs until every
    depth has errors_target errors or the bit budget is out.
    """
    if not detector.iterative:
        raise ValueError("convergence sweeps need an iterative detector")
    l_values = tuple(sorted(set(int(v) for v in l_values)))
    if not l_values or l_values[0] < 1:
        raise ValueError("iteration counts must be >= 1")
    deep = dataclasses.replace(detector, iterations=max(l_values))
    return _run_alone(cfg, deep, snr_db, l_values, workers)


def run_sweep(cfg: SweepConfig, workers: int = 1, progress: bool = False) -> list[SweepRecord]:
    """Every detector at every SNR point; records sorted by (detector, snr).

    The SNR points run in ascending order, each as one batch-major loop over
    every detector (_run_taps), all on one worker pool. A failing point is
    reported on stderr and skipped; the rest of the sweep still runs.
    Progress lines arrive SNR point by SNR point.
    """
    lanes = [(spec, ()) for spec in cfg.detectors]
    rows: list[list[SweepRecord]] = [[] for _ in lanes]
    with _pool(workers) as pool:
        for snr_db in sorted(cfg.snr_points_db):
            try:
                outcomes = _run_taps(cfg, snr_db, lanes, workers, pool)
            except Exception as exc:  # outside any detector (a broken pool): all failed
                outcomes = [exc] * len(lanes)
            for (detector, _), row, outcome in zip(lanes, rows, outcomes):
                if isinstance(outcome, Exception):  # keep going; a sweep is many points
                    print(f"[mimobp] point failed: {detector.name} @ {snr_db} dB: {outcome}",
                          file=sys.stderr)
                    continue
                rec = outcome[0]
                row.append(rec)
                if progress:
                    print(f"[mimobp] {detector.name} L={rec.iterations} snr={rec.snr_db:g} dB  "
                          f"ber={rec.ber:.3e}  errors={rec.errors}  bits={rec.bits}",
                          file=sys.stderr)
    return [rec for row in rows for rec in row]


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
