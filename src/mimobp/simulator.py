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

Every batch runs through one worker, _run_batch, which scores iteration
"taps" on one set of trials (see there). One runner, _run_taps, behind
run_point and run_convergence, tallies the batches in batch order and stops
at a batch boundary, which keeps the stopping point deterministic too.
"""
from __future__ import annotations

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
    alpha_update,
    bit_gains,
    build_edge_sets,
)
from .errors import DimensionTooLargeError, IoFailure
from .metrics import BerAccumulator, ami_sum

# Trials per batch; fixed so batch boundaries (and therefore stopping points
# and RNG streams) do not depend on worker count.
BATCH_TRIALS = 512

# Largest working set one batch may allocate; SweepConfig sizes each spec's.
MAX_BATCH_BYTES = 1 << 30

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
        for spec in self.detectors:  # fail at the start, not once per SNR point
            if spec.relaxed and not 0 <= spec.rd1 < self.dims.n_tx:
                raise ValueError(f"{spec.name}: rd1 must be in 0..{self.dims.n_tx - 1}")
            need, table = _batch_bytes(spec, self.dims)
            if need > MAX_BATCH_BYTES:
                raise DimensionTooLargeError(f"{spec.name}: {table}, {need / 2**30:.1f} GiB per "
                                             f"batch; at most {MAX_BATCH_BYTES >> 30} GiB")


def _batch_bytes(spec: DetectorSpec, dims: SystemDims) -> tuple[int, str]:
    """(bytes, table) of one batch: an upper bound on its allocation peak, and
    the table it enumerates, (2^Nbits, B, Nr) where nothing is lumped, else
    (2^R_D, B, Nr, Nbits). Fitted to tracemalloc peaks: 24 bytes per entry
    of SBP's table, 32 of the relaxed one, 128 + 48 R_D per message (B, Nr,
    Nbits) and 1 MiB. The MMSE kinds build no table and are not sized (0)."""
    n_tx, n_rx, m = dims.n_tx, dims.n_rx, dims.bits_per_symbol
    messages = BATCH_TRIALS * n_rx * m * n_tx
    if spec.exhaustive(n_tx, m):
        power, entry, edges, what = m * n_tx, 24 * BATCH_TRIALS * n_rx, 0, "configurations"
    elif spec.relaxed:
        edges = spec.relax_degree(m)
        power, entry, what = edges, 32 * messages, "explicit-edge hypotheses"
    else:
        return 0, ""
    need = (entry << power) + messages * (128 + 48 * edges) + (1 << 20)
    return need, f"2^{power} {what}"


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


def _engine_mmse_prior(h, y, sigma2, m):
    """Per-bit MMSE pseudo-LLRs for a batch, shape (B, Nbits). Unclamped."""
    s_hat, k = _mmse_estimate(h, y, sigma2)
    return _mmse_llrs(s_hat, np.diagonal(k, axis1=1, axis2=2).real, m)


def _engine_mmse_sic(h, y, sigma2, m):
    """Ordered successive cancellation: best post-MMSE stream first,
    hard-decision re-encode, subtract, re-filter the remainder."""
    b, n_rx, n_tx = h.shape
    n_bits = m * n_tx
    rows = np.arange(b)
    active = np.tile(np.arange(n_tx), (b, 1))
    y_res = y.copy()
    soft = np.empty((b, n_bits))
    for stage in range(n_tx):
        n_rem = n_tx - stage
        h_act = np.take_along_axis(h, active[:, None, :], axis=2)
        s_hat, k = _mmse_estimate(h_act, y_res, sigma2)
        mse = np.diagonal(k, axis1=1, axis2=2).real
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


def _cascade_prior(h, y, sigma2, m):
    """The MMSE cascade's fixed per-bit prior (B, Nbits), clamped like alpha."""
    return np.clip(_engine_mmse_prior(h, y, sigma2, m), -LLR_CLAMP, LLR_CLAMP)


def _bp_messages(spec: DetectorSpec, h, y, sigma2, m):
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
    the alpha sums and the lump mean as +0 instead of computing them.
    """
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be > 0 for message passing")
    if not spec.iterations:
        return
    b, n_rx, n_tx = h.shape
    n_bits = m * n_tx
    prior = _cascade_prior(h, y, sigma2, m) if spec.kind == "MMSE_RBP" else None
    if spec.exhaustive(n_tx, m):
        step = _sbp_step(h, y, sigma2, m)
    else:
        gains = bit_gains(h, m)
        sets = _engine_edge_sets(h, spec, m)
        lump = _lump(sets)
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


def _engine_bp(spec: DetectorSpec, h, y, sigma2, m, want_iters=False):
    """Soft outputs for the BP family over a batch, from _bp_messages.

    Returns the final (B, Nbits) soft matrix, or the per-iteration list when
    want_iters is set (entry l-1 matches a run with iterations=l). With no
    iteration the soft output is the initial belief: +0, or the cascade's
    prior. Every result is bit-identical to the plain formulation
    (tests/test_sbp_kernel.py, tests/test_rbp_kernel.py).
    """
    iters, beta = [], None
    for _, beta in _bp_messages(spec, h, y, sigma2, m):
        if want_iters:
            iters.append(beta.sum(axis=-2))
    if want_iters:
        return iters
    if beta is not None:
        return beta.sum(axis=-2)
    if spec.kind == "MMSE_RBP":
        return _cascade_prior(h, y, sigma2, m)
    return np.zeros((h.shape[0], m * h.shape[2]))


def _engine_soft(spec: DetectorSpec, h, y, sigma2, m, want_iters=False):
    if spec.kind == "ML":
        return _engine_ml(h, y, m)
    if spec.kind == "MMSE":
        return _engine_mmse_prior(h, y, sigma2, m)
    if spec.kind == "MMSE_SIC":
        return _engine_mmse_sic(h, y, sigma2, m)
    return _engine_bp(spec, h, y, sigma2, m, want_iters=want_iters)


# ---------------- batch workers ----------------


def _ami_sum(soft: np.ndarray, bits: np.ndarray) -> float:
    return ami_sum(soft, bits)  # a name of its own, so a traced run can time it


def _count_errors(soft: np.ndarray, bits: np.ndarray) -> int:
    """Bit errors of the hard decisions (ties toward +1); non-finite LLRs raise."""
    if not np.isfinite(soft).all():
        raise FloatingPointError(
            f"{np.count_nonzero(~np.isfinite(soft))} non-finite LLRs in a batch")
    return int(np.count_nonzero(np.where(soft >= 0.0, 1, -1) != bits))


def _run_batch(dims: SystemDims, spec: DetectorSpec, snr_db: float, sigma2: float,
               master_seed: int, batch_index: int, count: int, want_ami: bool,
               taps: tuple):
    """(bits, errors per tap, ami sum per tap) over one batch of trials.

    A tap is a point of the detector's output that gets scored. The empty
    tuple () is the single tap of a plain point: the detector's own soft
    output. A convergence run passes its sorted iteration depths, and depth
    l scores entry l-1 of one want_iters engine call, which equals a run
    with iterations = l.
    """
    rng = _batch_rng(master_seed, snr_db, batch_index)
    bits, h, y = _draw_batch(dims, sigma2, rng, count)
    m = dims.bits_per_symbol
    if taps:
        iters = _engine_soft(spec, h, y, sigma2, m, want_iters=True)
        outputs = [iters[l - 1] for l in taps]
    else:
        outputs = [_engine_soft(spec, h, y, sigma2, m)]
    errors = [_count_errors(soft, bits) for soft in outputs]
    amis = [_ami_sum(soft, bits) if want_ami else 0.0 for soft in outputs]
    return bits.size, errors, amis


# perfbench's tracer resolves this name; every batch runs through _run_batch.
_run_batch_multi_l = _run_batch


# ---------------- points, sweeps, convergence ----------------


def _batch_results(task_args, workers: int):
    """Yield _run_batch(*task_args(i)) for batches i = 0, 1, 2, ... in order.

    With workers > 1, up to 2 x workers batches run speculatively in a
    process pool but are still yielded in batch order, so the consumer sees
    exactly the serial results. Closing the generator cancels the batches
    still pending.
    """
    indices = itertools.count()
    if workers <= 1:
        for index in indices:
            yield _run_batch(*task_args(index))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = []
        try:
            while True:
                while len(pending) < 2 * workers:
                    pending.append(pool.submit(_run_batch, *task_args(next(indices))))
                yield pending.pop(0).result()
        finally:
            for fut in pending:
                fut.cancel()


def _run_taps(cfg: SweepConfig, spec: DetectorSpec, snr_db: float, taps: tuple,
              workers: int) -> list[SweepRecord]:
    """One record per tap (see _run_batch), all scored on shared trials.

    Stops at the first batch boundary where every tap has errors_target
    errors and trials_min trials have run, or where bits_max bits have.
    """
    dims = cfg.dims
    sigma2 = snr_to_noise_variance(snr_db, dims)
    depths = taps or (spec.iterations,)
    bits = trials = 0
    errors = [0] * len(depths)
    amis = [0.0] * len(depths)

    def task_args(index: int):
        return (dims, spec, snr_db, sigma2, cfg.master_seed, index,
                BATCH_TRIALS, cfg.record_ami, taps)

    start = time.perf_counter()
    with contextlib.closing(_batch_results(task_args, workers)) as batches:
        for total, batch_errors, batch_amis in batches:
            bits += total
            trials += total // dims.n_bits
            errors = [a + b for a, b in zip(errors, batch_errors)]
            amis = [a + b for a, b in zip(amis, batch_amis)]
            hit_target = min(errors) >= cfg.errors_target and trials >= cfg.trials_min
            if hit_target or bits >= cfg.bits_max:
                break
    wall = time.perf_counter() - start

    rd1, rd2 = (spec.rd1, spec.rd2) if spec.relaxed else (None, None)
    records = []
    for depth, err, ami in zip(depths, errors, amis):
        acc = BerAccumulator(bits, err)
        lo, hi = acc.wilson_interval()
        records.append(SweepRecord(
            detector=spec.label, rd1=rd1, rd2=rd2, iterations=depth,
            snr_db=float(snr_db), bits=bits, errors=err, ber=acc.ber,
            ber_ci_low=lo, ber_ci_high=hi, wall_seconds=wall,
            ami=(ami / bits) if cfg.record_ami else None,
            budget_exhausted=err < cfg.errors_target))
    return records


def run_point(cfg: SweepConfig, detector: DetectorSpec, snr_db: float,
              workers: int = 1) -> SweepRecord:
    """Monte Carlo BER (and optional AMI) for one detector at one SNR.

    Runs whole batches until at least errors_target bit errors have been
    seen (and trials_min trials run), or the bits_max budget is exhausted.
    Deterministic given (master_seed, detector, snr_db) for any worker
    count.
    """
    return _run_taps(cfg, detector, snr_db, (), workers)[0]


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
    return _run_taps(cfg, deep, snr_db, l_values, workers)


def run_sweep(cfg: SweepConfig, workers: int = 1, progress: bool = False) -> list[SweepRecord]:
    """Every detector at every SNR point; records sorted by (detector, snr).

    A failing point is reported on stderr and skipped; the rest of the sweep
    still runs.
    """
    records: list[SweepRecord] = []
    for detector in cfg.detectors:
        for snr_db in sorted(cfg.snr_points_db):
            try:
                rec = run_point(cfg, detector, snr_db, workers=workers)
            except Exception as exc:  # keep going; a sweep is many points
                print(f"[mimobp] point failed: {detector.name} @ {snr_db} dB: {exc}",
                      file=sys.stderr)
                continue
            records.append(rec)
            if progress:
                print(f"[mimobp] {detector.name} L={rec.iterations} snr={rec.snr_db:g} dB  "
                      f"ber={rec.ber:.3e}  errors={rec.errors}  bits={rec.bits}",
                      file=sys.stderr)
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
