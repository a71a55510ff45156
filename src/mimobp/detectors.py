"""MIMO detectors on the fully-connected bit/observation factor graph.

Graph and message conventions:
  * one variable node per transmitted bit x_t (t = 0..M*Nt-1), one factor
    node per receive antenna y_j (j = 0..Nr-1)
  * alpha[t, j] is the bit-to-factor LLR of x_t heading to factor j
  * beta[j, i] is the factor-to-bit LLR from factor j about bit x_i
  * a flooding iteration updates every beta from the previous alpha, then
    every alpha from the fresh beta; alpha entries are clamped to +-30
  * factor metrics use the complex-distance log likelihood
    D_j(s) = -|y_j - h_j s|^2 / (2 sigma^2) under the max-log approximation

The MMSE cascade's prior (simulator._bp_messages) shrinks the lump
variances, as informative priors mean less residual interference power: the
cascade then tracks MMSE-SIC instead of relaxing back to the uninformed
fixed point. Its soft output stays the plain column sum of beta: re-adding
the prior would double-count what the cancellation already fed back.

This module holds the batch steps and the Gaussian lump (_lump, _lump_mean,
_lump_variance) that the engine in mimobp.simulator runs, their per-message
views, and detect().
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLargeError, LengthMismatchError

# Hard clamp on bit-to-factor LLRs, the cascade's prior and ML's outputs.
LLR_CLAMP = 30.0

# Largest working set one detector call may allocate; _table_bytes applies it.
MAX_BATCH_BYTES = 1 << 30

_KINDS = ("ML", "MMSE", "MMSE_SIC", "SBP", "RBP", "MMSE_RBP")


@dataclass(frozen=True)
class DetectorSpec:
    """What to run: algorithm kind, iteration count, relaxation coefficients.

    rd1 counts interferer symbols kept explicit per message; rd2 (0 or 1)
    keeps the other bits of the message's own symbol explicit (only
    meaningful for M = 2). Both are ignored by the non-relaxed kinds.
    """

    kind: str
    iterations: int = 0
    rd1: int = 0
    rd2: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.rd1 < 0:
            raise ValueError("rd1 must be >= 0")
        if self.rd2 not in (0, 1):
            raise ValueError("rd2 must be 0 or 1")
        if not self.iterative:  # ML, MMSE and MMSE-SIC run no iterations
            object.__setattr__(self, "iterations", 0)

    @property
    def relaxed(self) -> bool:
        return self.kind in ("RBP", "MMSE_RBP")

    @property
    def iterative(self) -> bool:
        return self.kind in ("SBP", "RBP", "MMSE_RBP")

    @property
    def label(self) -> str:
        return self.kind.replace("_", "-")

    @property
    def name(self) -> str:
        """The detector as --detectors spells it: RBP(1,0), MMSE-RBP(0,0), MMSE."""
        return f"{self.label}({self.rd1},{self.rd2})" if self.relaxed else self.label

    def relax_degree(self, m: int) -> int:
        """Explicit edges per message: rd1*M + rd2*(M-1)."""
        return self.rd1 * m + self.rd2 * (m - 1)

    def exhaustive(self, n_tx: int, m: int) -> bool:
        """Every bit enumerated jointly: ML, SBP, relaxed BP with R_D = Nbits - 1."""
        return self.kind in ("ML", "SBP") or self.relaxed and self.relax_degree(m) == m * n_tx - 1

    @classmethod
    def ml(cls) -> "DetectorSpec":
        return cls("ML")

    @classmethod
    def mmse(cls) -> "DetectorSpec":
        return cls("MMSE")

    @classmethod
    def mmse_sic(cls) -> "DetectorSpec":
        return cls("MMSE_SIC")

    @classmethod
    def sbp(cls, iterations: int = 5) -> "DetectorSpec":
        return cls("SBP", iterations=iterations)

    @classmethod
    def rbp(cls, rd1: int = 0, rd2: int = 0, iterations: int = 5) -> "DetectorSpec":
        return cls("RBP", iterations=iterations, rd1=rd1, rd2=rd2)

    @classmethod
    def mmse_rbp(cls, rd1: int = 0, rd2: int = 0, iterations: int = 5) -> "DetectorSpec":
        return cls("MMSE_RBP", iterations=iterations, rd1=rd1, rd2=rd2)


@dataclass
class MessageState:
    """Messages after one flooding iteration: alpha (Nbits, Nr), beta (Nr, Nbits)."""

    alpha: np.ndarray
    beta: np.ndarray


@dataclass
class DetectionResult:
    hard_bits: np.ndarray
    soft_llrs: np.ndarray
    iterations_run: int
    per_iteration_soft: list | None = None


def _table_bytes(name: str, power: int, rest: tuple) -> int:
    """Bytes of one call that enumerates a (2^power, *rest) table, checked
    before anything is built: DimensionTooLargeError past MAX_BATCH_BYTES.

    rest is (B, Nr) where every bit is enumerated jointly (power = Nbits),
    else (B, Nr, Nbits) with power = R_D. A fitted upper bound on the call's
    tracemalloc peak: the joint term is a whole complex H s and its power,
    and 26 power bytes per configuration are a margin that dominates at
    B = 1. Both table terms are loose: SBP holds D and blocks, and a relaxed
    batch peaks at two float tables, plus and the set-up's I_h planes.
    """
    relaxed = len(rest) == 3
    row = (32 if relaxed else 24) * math.prod(rest) + 26 * power   # per configuration
    messages = rest[0] * rest[1] * (rest[2] if relaxed else power)
    need = (row << power) + messages * (128 + 48 * power * relaxed) + (1 << 20)
    if need > MAX_BATCH_BYTES:
        raise DimensionTooLargeError(
            f"{name}: 2^{power} {'explicit-edge hypotheses' if relaxed else 'configurations'}, "
            f"{need / 2**30:.1f} GiB per call; at most {MAX_BATCH_BYTES >> 30} GiB")
    return need


def _spec_bytes(spec: DetectorSpec, n_tx: int, n_rx: int, m: int, trials: int) -> int:
    """_table_bytes of spec on a batch of trials, after checking rd1: SBP's
    table where nothing is lumped (spec.exhaustive), else the relaxed one.
    The MMSE kinds enumerate nothing and are not sized (0)."""
    if spec.relaxed and not 0 <= spec.rd1 < n_tx:
        raise ValueError(f"{spec.name}: rd1 must be in 0..{n_tx - 1}")
    if spec.exhaustive(n_tx, m):
        return _table_bytes(spec.name, m * n_tx, (trials, n_rx))
    if spec.relaxed:
        return _table_bytes(spec.name, spec.relax_degree(m), (trials, n_rx, m * n_tx))
    return 0


def _doubling_sums(out: np.ndarray, steps) -> np.ndarray:
    """Every signed sum of an enumeration, written to out (C, ...) and returned:
    out[c] sums steps[k][digit k of c] over the steps k, from +0 in step
    order. Digit 0 is the lowest and value 0 means "bit clear", x = +1. A
    step of q values widens the filled block q times; block 0, the others'
    base, is filled last. A sum from +0 is never -0, so a -0 term adds as +0
    does. steps may be a generator; it is read one step at a time."""
    out[0] = 0.0
    size = 1
    for values in steps:
        for v in range(len(values) - 1, -1, -1):
            np.add(out[:size], values[v], out=out[v * size:(v + 1) * size])
        size *= len(values)
    return out


def _symbol_values(h: np.ndarray, k: int, m: int) -> np.ndarray:
    """Symbol k's 2^m values h_k s_k, (2^m, ...): a _doubling_sums over its
    bits' gains +-g_t."""
    bits = np.moveaxis(bit_gains(h[..., k:k + 1], m), -1, 0)
    return _doubling_sums(np.empty((1 << m,) + h.shape[:-1], dtype=np.complex128),
                          ((g, -g) for g in bits))


def _channel_sums(h: np.ndarray, m: int) -> np.ndarray:
    """H s for every configuration s, (C, B, Nr), np.einsum's product floats: a
    _doubling_sums whose step k, built when read, is _symbol_values(h, k, m),
    so each symbol's sum is first. Made after the table, the values leave no
    freed hole below it."""
    return _doubling_sums(np.empty((1 << m * h.shape[-1],) + h.shape[:-1], dtype=np.complex128),
                          (_symbol_values(h, k, m) for k in range(h.shape[-1])))


# A table with at most this much complex H s is one block: cutting 4x4 BPSK's
# (0.5 MiB at 512 trials) in quarters cost sweep4-bpsk 2.3% vec/s.
_WHOLE_TABLE_BYTES = 1 << 20


def _residual_power_blocks(h: np.ndarray, y: np.ndarray, m: int, out: np.ndarray | None = None):
    """|y_j - (H s)_j|^2 per antenna for every configuration s, block by block:
    yields (start, power), power (rows, B, Nr) the configurations start..;
    C/4 rows (C/2 at one BPSK symbol), or all C where the complex H s takes
    at most _WHOLE_TABLE_BYTES. power is out[start:start + rows] if out
    (C, B, Nr) is given, else one buffer that the next block overwrites.

    The base table is _channel_sums over every symbol but the top ceil(2/M)
    (over all of them for one block). A loop enumerates those depth-first in
    _doubling_sums's order, each node built once as its parent plus the
    symbol's value, the add _doubling_sums makes, so every float is the
    whole table's. Value 0 comes last, in place in its parent's buffer; the
    others use one buffer per level. Each leaf's y - Hs is written in place,
    so past one block a call holds the base table and one buffer per level,
    C/4 complex rows each, and no (C, B, Nr) complex table."""
    n_tx = h.shape[-1]
    whole = 16 * h[..., 0].size << m * n_tx <= _WHOLE_TABLE_BYTES
    low = n_tx if whole else max(n_tx + (-2 // m), 0)     # the base table's symbols
    base = _channel_sums(h[..., :low], m)
    tops = [_symbol_values(h, k, m) for k in range(low, n_tx)]
    nodes = np.empty((len(tops),) + base.shape, dtype=np.complex128)
    q, power = 1 << m, None
    for n in range(q ** len(tops)):
        start, parent = 0, base
        for level, values in enumerate(tops):
            below = q ** (len(tops) - 1 - level)      # leaves under one node of this level
            v = q - 1 - n // below % q
            node = parent if v == 0 else nodes[level]
            if n % below == 0:                        # a new node here and at every level under it
                np.add(parent, values[v], out=node)
            start, parent = start + (v << m * (low + level)), node
        resid = np.subtract(y, parent, out=parent)
        power = np.abs(resid, out=power if out is None else out[start:start + len(resid)])
        yield start, np.square(power, out=power)


def _residual_power(h: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """|y_j - (H s)_j|^2 per antenna for every configuration s, (C, B, Nr),
    allocated before the block buffers and filled block by block: a call
    holds 16 bytes per entry at QPSK (the power, the base table and one
    level), at most 20 at BPSK (two levels), and 24 for one block."""
    power = np.empty((1 << m * h.shape[-1],) + y.shape)
    for _ in _residual_power_blocks(h, y, m, power):
        pass
    return power


# Bytes per block of a score table (_block_rows): 1 MiB kept more memory and ran slower.
_BLOCK_BYTES = 256 << 10


def _block_rows(table: np.ndarray) -> int:
    """Rows per block of table (C, ...), C a power of two: the most rows, a
    power of two and at least 1, that fit in _BLOCK_BYTES; all C if they fit."""
    fit = max(_BLOCK_BYTES // table[0].nbytes, 1)
    return min(1 << fit.bit_length() - 1, len(table))


def _prior_sum_blocks(terms: np.ndarray, rows: int, out: np.ndarray | None = None,
                      work: np.ndarray | None = None):
    """Sums of terms (n, ...) over the clear bits of every config index, block
    by block: yields (start, sums), sums (rows, ...) the configurations
    start.., where row c sums terms[t] over the bits t clear in c (x_t = +1,
    as in _doubling_sums). rows is a power of two, at most 2^n; sums is out
    if given, else one buffer that the next block overwrites. The even and
    the odd bits each get one _doubling_sums table, steps (terms[t], 0.0)
    from the highest t down, written to work if it has room (out's size does,
    past n = 1). A block fixes the bits from log2(rows) up: one broadcast
    add, even + odd, the whole table's floats. At n <= 4 and n = 8, every
    width perfbench runs, these equal np.einsum's two-lane reduction, in
    which perfbench's golden rows were recorded."""
    n, rest = terms.shape[0], terms.shape[1:]
    width, low = math.prod(rest), rows.bit_length() - 1    # bits 0..low-1 vary in a block
    need = ((1 << (n + 1) // 2) + (1 << n // 2)) * width
    free = work.reshape(-1) if work is not None and work.size >= need else np.empty(need)
    tables = []
    for parity in (0, 1):
        bits = range(parity, n, 2)[::-1]
        k = len(bits)
        tbl, free = free[:width << k].reshape((1 << k,) + rest), free[width << k:]
        _doubling_sums(tbl, ((terms[t], 0.0) for t in bits))
        # axis t is bit t of the config index: size 2 on this parity's bits, 1 on the other's
        tables.append(tbl.reshape(tuple(2 if t % 2 == parity else 1 for t in range(n)) + rest))
    del terms                       # the blocks read only the tables: a caller may free terms
    out = np.empty((rows,) + rest) if out is None else out
    by_bit = out.reshape((2,) * low + rest)           # axis t of this view of out is bit t
    by_bit = by_bit.transpose((*range(low - 1, -1, -1), *range(low, by_bit.ndim)))
    for start in range(0, 1 << n, rows):
        np.add(*(tbl[(slice(None),) * low + tuple((start >> t) & (tbl.shape[t] - 1)
                                                  for t in range(low, n))]
                 for tbl in tables), out=by_bit)
        yield start, out


def _prior_sums(terms: np.ndarray, out: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """_prior_sum_blocks in one block: the whole (2^n, ...) table, in out."""
    return next(_prior_sum_blocks(terms, len(out), out, work))[1]


def bit_gains(h: np.ndarray, m: int = 1) -> np.ndarray:
    """Per-bit complex gain g[j, t] with y_j = sum_t g[j, t] x_t + n_j.

    For M = 1 this is H itself; for M = 2 each column of H contributes a
    real-axis and an imaginary-axis gain scaled by 1/sqrt(2) (unit-energy
    mapping). Works on the last two axes, so batched H is fine.
    """
    h = np.asarray(h, dtype=np.complex128)
    if m == 1:
        return h
    n_tx = h.shape[-1]
    axis = np.tile(np.array([1.0, 1.0j]), n_tx) / np.sqrt(m)
    return np.repeat(h, m, axis=-1) * axis


def _sbp_max_marginals(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-bit max of t over configs with x_i = +1 and x_i = -1: (pos, neg).

    t has the config axis first, (C, ...), in _doubling_sums order, so bit i
    is the top bit of the block left once bits i+1.. are maxed out: its first
    half holds x_i = +1, its second x_i = -1. Outputs are (..., n_bits).
    Each fold writes its maxima over the first half in place: t is
    overwritten."""
    n_bits = t.shape[0].bit_length() - 1
    pos = np.empty(t.shape[1:] + (n_bits,))
    neg = np.empty_like(pos)
    for i in range(n_bits - 1, -1, -1):
        half = 1 << i
        lo, hi = t[:half], t[half:2 * half]
        pos[..., i] = lo.max(axis=0)
        neg[..., i] = hi.max(axis=0)
        if i:
            np.maximum(lo, hi, out=lo)
    return pos, neg


def _sbp_step(h: np.ndarray, y: np.ndarray, sigma2: float, m: int):
    """The standard-BP beta update of a batch (h (B, Nr, Nt), y (B, Nr)),
    as step(alpha (B, Nbits, Nr), fresh=False) -> beta (B, Nr, Nbits).

    beta[j, i] = max over configs with x_i = +1 of {D_j(s) + sum of alpha[t, j]
    over t != i with x_t = +1} minus the analogous max with x_i = -1. D
    (C, B, Nr), built once, has the roundings of -|y - Hs|^2 / (2 sigma^2):
    rounding is sign-symmetric, so dividing by -(2 sigma^2) equals negating
    first. A step forms t = prior sums + D (D's rows + 0.0 if fresh: alpha
    is +0) in blocks of _block_rows(D) rows (_prior_sum_blocks, whose floats
    do not depend on alpha's layout). Past one block, each block's row
    maximum goes into tops and the block is folded into a running maximum:
    a step holds D and two blocks. _sbp_max_marginals of the running maximum
    gives the low bits' maxima, and of tops the high bits'.
    """
    d = _residual_power(h, y, m)
    d /= -(2.0 * sigma2)
    rows = _block_rows(d)
    whole = rows == len(d)
    run, tops = np.empty_like(d[:rows]), np.empty((len(d) // rows,) + d.shape[1:])

    def step(alpha, fresh=False):
        blocks = (((start, None) for start in range(0, len(d), rows)) if fresh else
                  _prior_sum_blocks(alpha.transpose(1, 0, 2), rows, run if whole else None))
        for start, sums in blocks:       # + is commutative: sums + D's floats
            block = np.add(d[start:start + rows], 0.0 if fresh else sums,
                           out=run if start == 0 else sums)
            if not whole:
                block.max(axis=0, out=tops[start // rows])
                np.maximum(run, block, out=run)         # the first block is run itself
        beta, neg = _sbp_max_marginals(run)
        if not whole:
            high_pos, high_neg = _sbp_max_marginals(tops)
            beta, neg = np.concatenate((beta, high_pos), -1), np.concatenate((neg, high_neg), -1)
        # the x_i = +1 branch double-counts alpha[i, :]; subtract it back out
        beta -= alpha.transpose(0, 2, 1)
        beta -= neg
        return beta

    return step


def sbp_beta_update(alpha: np.ndarray, h: np.ndarray, y: np.ndarray,
                    sigma2: float, m: int = 1) -> np.ndarray:
    """One standard-BP factor-to-bit update by exhaustive enumeration: alpha
    (Nbits, Nr), beta (Nr, Nbits); _sbp_step on a batch of one."""
    step = _sbp_step(*_one_trial(DetectorSpec.sbp(), h, y, sigma2, m), sigma2, m)
    return step(np.asarray(alpha, dtype=np.float64)[None])[0]


def _ascending_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """a summed over axis: +0 plus its entries in ascending order. Over the
    factors of beta (..., Nr, Nbits) these are beta.sum(axis=-2)'s floats at
    about half its cost, except at Nbits = 1 and Nr >= 8, where numpy adds
    pairwise."""
    parts = np.moveaxis(a, axis, 0)
    total = parts[0] + 0.0               # +0 first: a column of -0 sums to +0
    for part in parts[1:]:
        total += part
    return total


def alpha_update(beta: np.ndarray, prior: np.ndarray | None = None,
                 total: np.ndarray | None = None) -> np.ndarray:
    """alpha[i, j] = sum of beta[t, i] over factors t != j, clamped to +-30.

    A per-bit prior, when given, stays as an additive intrinsic term in
    every outgoing alpha (the bit node's own degree-one factor). Leading
    batch axes of beta (..., Nr, Nbits) and prior (..., Nbits) carry through.
    total, beta's column sum _ascending_sum(beta, -2), may be passed in.
    """
    if total is None:
        total = _ascending_sum(beta, -2)
    alpha = np.subtract(total[..., :, None], np.swapaxes(beta, -1, -2))
    if prior is not None:
        alpha += prior[..., :, None]
    return np.clip(alpha, -LLR_CLAMP, LLR_CLAMP, out=alpha)


# ---------------- relaxation: edge selection and the Gaussian lump ----------------


def build_edge_sets(h: np.ndarray, spec: DetectorSpec, m: int = 1) -> np.ndarray:
    """Explicit-edge sets Psi of every message (j, i), shape (..., Nr, Nbits, R_D).

    Psi holds 0-based bit indices: the rd1 interferer symbols with the
    largest |h_{j,k}|, k != k(i) (ties toward the smaller symbol index),
    expanded to bits, and, when rd2 = 1, the other M-1 bits of bit i's own
    symbol. The sets are fixed per channel realization. Leading batch axes
    of h (..., Nr, Nt) carry through; rd1 = 0 sorts nothing.
    """
    h = np.asarray(h)
    lead, n_tx = h.shape[:-1], h.shape[-1]
    if not 0 <= spec.rd1 <= n_tx - 1:
        raise ValueError(f"rd1 must be in 0..{n_tx - 1}")
    rd1 = spec.rd1
    sets = np.empty(lead + (m * n_tx, spec.relax_degree(m)), dtype=np.intp)
    if rd1:
        # top[p]: row n's p-th largest |h_{j,k}|, first of ties first, by
        # rd1 + 1 argmax passes that each mark their pick below every |h|
        mag = np.abs(h).reshape(-1, n_tx)
        rows = np.arange(len(mag))
        top = np.empty((rd1 + 1, len(mag)), dtype=np.intp)
        for p in range(rd1 + 1):
            top[p] = pick = mag.argmax(axis=-1)
            mag[rows, pick] = -1.0
        # symbol k0 skips itself: its position p is top[p + 1] once k0 is
        # among top[:p + 1], else top[p] (seen: logical_or accumulated over p)
        view = sets.reshape((len(mag), n_tx, m, -1))
        seen = np.zeros((n_tx, len(mag)), dtype=bool)
        for p in range(rd1):
            seen |= top[p] == np.arange(n_tx)[:, None]
            chosen = np.where(seen, top[p + 1], top[p]) * m    # (Nt, rows): k0-major
            for o in range(m):   # bit o of the chosen symbol, for each bit of k0
                view[..., p * m + o] = (chosen.T + o)[:, :, None]
    if spec.rd2:
        sets[..., rd1 * m:] = [[t for t in range(i - i % m, i - i % m + m) if t != i]
                               for i in range(m * n_tx)]
    return sets


def _lump(edge_sets: np.ndarray):
    """The Gaussian lump's sums for explicit edges edge_sets (..., Nr, Nbits,
    R_D), as lump(terms (..., Nr, Nbits)) -> (..., Nr, Nbits). Entry (j, i)
    sums terms[j, t] over the bits t != i outside Psi_{j,i}: the factor's
    total minus the sum over the kept bits, i and Psi_{j,i}. Both add in
    ascending t, the total from +0 (_ascending_sum) and the kept sum from its
    lowest bit, so where nothing is lumped the two are equal and the lump is
    exactly +0. A call costs O(Nr Nbits R_D). At R_D = 0 the kept sum is
    terms itself, and at R_D = 1 it is one gather plus terms: a two-term sum
    is the same float in either order."""
    factors, n_bits, rd = edge_sets.shape[:-2], edge_sets.shape[-2], edge_sets.shape[-1]
    base = np.arange(math.prod(factors)).reshape(factors + (1,)) * n_bits
    if rd >= 2:
        own = np.broadcast_to(np.arange(n_bits)[:, None], edge_sets.shape[:-1] + (1,))
        kept = np.moveaxis(np.concatenate([own, edge_sets], axis=-1), -1, 0).copy()
        for p in range(len(kept)):  # odd-even transposition sort, kept-major
            lo, hi = kept[p % 2:-1:2], kept[p % 2 + 1::2]
            lo[...], hi[...] = np.minimum(lo, hi), np.maximum(lo, hi)
        flat = base + kept
    else:                           # bit i's own term needs no gather: the edge alone
        flat = base + np.moveaxis(edge_sets, -1, 0)

    def lump(terms):
        total = _ascending_sum(terms, -1)[..., None]
        if rd == 0:
            return total - terms
        kept_sum = np.take(terms, flat[0])
        for pos in flat[1:]:
            kept_sum += np.take(terms, pos)
        if rd == 1:
            kept_sum += terms
        return np.subtract(total, kept_sum, out=kept_sum)

    return lump


def _lump_mean(lump, gains: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The lump mean u (..., Nr, Nbits), soft cancellation: the lumped gains
    times tanh(alpha/2), alpha (..., Nbits, Nr) the bit-to-factor LLRs."""
    soft = np.multiply(alpha, 0.5)               # alpha / 2, exactly
    np.tanh(soft, out=soft)
    return lump(gains * np.swapaxes(soft, -1, -2))


def _lump_variance(lump, gains: np.ndarray, sigma2: float,
                   prior: np.ndarray | None = None) -> np.ndarray:
    """The lump variance sigma2_z (..., Nr, Nbits): the lumped |g|^2 times each
    bit's prior variance, 1 - tanh^2(prior/2) for a prior (..., Nbits) and 1
    without, clamped at 0, plus sigma^2. Never updated from the feedback."""
    bit_var = 1.0 if prior is None else (1.0 - np.tanh(prior / 2.0) ** 2)[..., None, :]
    return np.maximum(lump(np.abs(gains) ** 2 * bit_var), 0.0) + sigma2


def _message_lump(psi, h_row: np.ndarray, i: int, m: int):
    """(_lump, gains (1, 1, Nbits)) of one factor in which every message keeps
    psi, for message i; ValueError unless i is a bit and psi distinct bits
    other than i."""
    gains = bit_gains(h_row, m)[None, None]
    n_bits, psi = gains.shape[-1], np.asarray(psi, dtype=np.intp).reshape(-1)
    if not (0 <= i < n_bits and np.all((psi >= 0) & (psi < n_bits) & (psi != i))
            and len(np.unique(psi)) == len(psi)):
        raise ValueError(f"message {i} of {n_bits} bits cannot keep edges {psi.tolist()}")
    return _lump(np.broadcast_to(psi, (1, 1, n_bits, len(psi)))), gains


def interference_mean(alpha_col: np.ndarray, psi: np.ndarray, h_row: np.ndarray,
                      i: int, m: int = 1) -> complex:
    """Soft-cancellation mean of the lumped interferers for one message.

    u = sum over t not in Psi, t != i of g[t] * tanh(alpha[t]/2), where
    alpha_col holds the bit-to-factor LLRs heading to this factor. _lump_mean
    on a batch of one.
    """
    lump, gains = _message_lump(psi, h_row, i, m)
    alpha = np.asarray(alpha_col, dtype=np.float64)[None, :, None]
    return complex(_lump_mean(lump, gains, alpha)[0, 0, i])


def interference_variance(psi: np.ndarray, h_row: np.ndarray, i: int,
                          sigma2: float, m: int = 1) -> float:
    """Variance of the Gaussian lump: prior unit bit variance plus noise.

    sigma2_z = sum over t not in Psi, t != i of |g[t]|^2 + sigma^2, the lumped
    power clamped at 0 so that sigma2_z >= sigma^2. _lump_variance on a batch
    of one.
    """
    _check_noise(sigma2)
    lump, gains = _message_lump(psi, h_row, i, m)
    return float(_lump_variance(lump, gains, sigma2)[0, 0, i])


def _relaxed_step(gains: np.ndarray, edge_sets: np.ndarray, sigma2_z: np.ndarray,
                  y: np.ndarray):
    """The relaxed beta update of a batch (gains, sigma2_z (B, Nr, Nbits),
    edge_sets (B, Nr, Nbits, R_D), y (B, Nr)), as step(alpha (B, Nbits, Nr),
    u (B, Nr, Nbits), fresh=False) -> beta (B, Nr, Nbits).

    Bit i is enumerated jointly with its explicit edges r; the lump enters
    through u and sigma2_z. With c = y - u, half = 2 sigma2_z and I_h = sum_r
    x_r g_r (x_r = +1 where bit r of h is clear), hypothesis h scores its
    prior minus |c - I_h -+ g_i|^2 / half. Expanded, beta = (2/sigma2_z)
    Re(conj(g_i) c) + max_h(S_h - (Q_h + W_h)) - max_h(S_h - (Q_h - W_h)).
    Q_h = |I_h|^2 / half and W_h = Re(conj(I_h) g_i) 2 / half depend on no
    message. Flipping every edge turns h into H-1-h and negates I_h exactly
    (rounding is sign-symmetric), so Q_{H-1-h} = Q_h and W_{H-1-h} = -W_h.
    One table, plus = Q + W, is thus built once per batch from the H/2
    hypotheses with x_last = +1: I_h on real planes, a _doubling_sums with
    steps (g_r, -g_r) for r < R_D - 1 and a last step (g_last,), then
    plus[:H/2] = Q + W, plus[H/2:] reversed = Q - W, and minus is the view
    plus[::-1]. S is _prior_sums (H, B, Nr, Nbits) over e_r = alpha_r +
    (2/sigma2_z) Re(conj(c) g_r), in blocks of _block_rows(plus) rows; each
    block's S - plus and S - minus go into (score, sums) and are folded into
    two running maxima, maxed over their rows at the end: a batch holds plus
    and four blocks. At R_D = 1, S is (e_0 + 0.0, +0) and plus is stored as
    0.0 - plus, never -0, so e_0 + plus_0 is (e_0 + 0.0) - plus_0 bit for
    bit. fresh says alpha is +0.
    """
    b, n_rx, n_bits, rd = edge_sets.shape
    y, scale, half = y[:, :, None], 2.0 / sigma2_z, 2.0 * sigma2_z
    if rd:
        # edge-major (R_D, B, Nr, Nbits) positions of (b, j, sets) in (B, Nr, Nbits)
        flat = np.moveaxis(np.arange(b * n_rx).reshape(b, n_rx, 1, 1) * n_bits + edge_sets,
                           -1, 0).copy()
        g_re, g_im = np.take(gains.real, flat), np.take(gains.imag, flat)
        mid = 1 << (rd - 1)
        i_re, i_im = [_doubling_sums(np.empty((mid,) + half.shape), [*zip(g, -g[:-1]), g[-1:]])
                      for g in (g_re, g_im)]
        plus = np.empty((2 * mid,) + half.shape)
        q, spare = plus[:mid], plus[mid:]
        np.multiply(i_re, i_re, out=q)
        q += np.multiply(i_im, i_im, out=spare)
        q /= half                                                        # Q
        g2 = gains * (2.0 / half)
        w = np.multiply(i_re, g2.real, out=i_re)
        w += np.multiply(i_im, g2.imag, out=i_im)                        # W
        np.subtract(q, w, out=spare[::-1])
        q += w
        minus = plus[::-1]
        del i_re, i_im, w
        g_re *= scale
        g_im *= scale
        if rd == 1:
            np.subtract(0.0, plus, out=plus)
        else:
            rows = _block_rows(plus)
            pair = np.empty((2, rows) + plus.shape[1:])            # (score, sums)
            run = pair if rows == len(plus) else np.empty_like(pair)

    def step(alpha, u, fresh=False):
        c = y - u
        del u  # a mean made for this call alone is freed before the step's peak
        beta = scale * (gains.conj() * c).real
        if not rd:
            return beta
        terms = c.real * g_re
        terms += c.imag * g_im
        if not fresh:
            terms += np.take(alpha.transpose(0, 2, 1), flat)
        # the best with x_i = +1 minus the best with x_i = -1, over slabs
        if rd == 1:
            best = np.add(terms[0], plus[0])
            beta += np.maximum(best, plus[1], out=best)
            beta -= np.maximum(np.add(terms[0], plus[1], out=best), plus[0], out=best)
            return beta
        blocks = _prior_sum_blocks(terms, rows, pair[1], pair[0] if run is pair else None)
        del c, terms
        for start, s in blocks:
            dst = pair if start else run                  # the first block starts the maxima
            np.subtract(s, plus[start:start + rows], out=dst[0])
            np.subtract(s, minus[start:start + rows], out=dst[1])
            if start:
                np.maximum(run, pair, out=run)
        beta += run[0].max(axis=0)
        beta -= run[1].max(axis=0)
        return beta

    return step


def rbp_beta_update(alpha: np.ndarray, gains: np.ndarray, edge_sets: np.ndarray,
                    u: np.ndarray, sigma2_z: np.ndarray, y: np.ndarray,
                    use_closed_form: bool = True) -> np.ndarray:
    """One relaxed factor-to-bit update for every message: alpha (Nbits, Nr),
    gains, u, sigma2_z (Nr, Nbits), edge_sets (Nr, Nbits, R_D), beta (Nr, Nbits).

    _relaxed_step on a batch of one. Without explicit edges the enumeration
    is the matched filter, so use_closed_form changes nothing.
    """
    n_rx, n_bits, rd = edge_sets.shape
    _check_length(y, n_rx)
    _check_noise(sigma2_z)
    _table_bytes("RBP", rd, (1, n_rx, n_bits))
    step = _relaxed_step(gains[None], edge_sets[None], sigma2_z[None], y[None])
    return step(alpha[None], u[None])[0]


# ---------------- linear front ends ----------------


def _mmse_estimate(h: np.ndarray, y: np.ndarray, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """MMSE estimates of a batch and their error variances, both (B, Nt):
    s_hat = K (H^H y) and the real diagonal of K = A^-1, with A = H^H H +
    sigma^2 I. One inverse serves both."""
    hh = np.swapaxes(h.conj(), 1, 2)
    k = np.linalg.inv(hh @ h + sigma2 * np.eye(h.shape[2]))
    return (k @ (hh @ y[:, :, None]))[:, :, 0], np.diagonal(k, axis1=1, axis2=2).real.copy()


def _mmse_llrs(s_hat: np.ndarray, mse: np.ndarray, m: int) -> np.ndarray:
    """Per-bit pseudo-LLRs (..., Nbits) from estimates and error variances (..., Nt).

    2 Re(s_hat_k)/K_kk at M = 1. At M = 2 the first bit of a symbol reads the
    real part and the second the imaginary part, both scaled by sqrt(2) for
    the unit-energy mapping.
    """
    if m == 1:
        return 2.0 * s_hat.real / mse
    out = np.empty(s_hat.shape[:-1] + (m * s_hat.shape[-1],))
    out[..., 0::2] = 2.0 * np.sqrt(2.0) * s_hat.real / mse
    out[..., 1::2] = 2.0 * np.sqrt(2.0) * s_hat.imag / mse
    return out


# ---------------- whole-vector detection ----------------


def _check_length(y, n_rx: int) -> None:
    if np.shape(y) != (n_rx,):
        raise LengthMismatchError(f"y has shape {np.shape(y)}, expected ({n_rx},)")


def _check_noise(sigma2) -> None:
    """Every detector divides by its noise variances: refuse any not finite and > 0."""
    if not np.all(np.isfinite(sigma2) & (np.asarray(sigma2) > 0.0)):
        raise ValueError("sigma2 must be > 0 and finite")


def _hard_decisions(soft: np.ndarray) -> np.ndarray:
    """The +-1 decision on each soft LLR: its sign, ties (0) toward +1."""
    return np.where(soft >= 0.0, 1, -1)


def _one_trial(spec: DetectorSpec, h, y, sigma2, m: int) -> tuple[np.ndarray, np.ndarray]:
    """h (Nr, Nt) and y (Nr,) as a complex batch of one, (1, Nr, Nt) and (1, Nr),
    after checking y's length and sigma2 and sizing spec at one trial (_spec_bytes)."""
    h = np.asarray(h, dtype=np.complex128)
    _check_length(y, h.shape[0])
    _check_noise(sigma2)
    _spec_bytes(spec, h.shape[1], h.shape[0], m, 1)
    return h[None], np.asarray(y, dtype=np.complex128)[None]


def message_history(spec: DetectorSpec, h: np.ndarray, y: np.ndarray,
                    sigma2: float, m: int = 1) -> list[MessageState]:
    """Alpha/beta after each flooding iteration of an iterative spec (for
    analysis and tests); ValueError for the others, which pass no messages.
    Each alpha is the one the engine forms from its beta for the next
    iteration, the last one included."""
    from .simulator import _bp_messages, _bp_prior  # the simulator imports this module

    if not spec.iterative:
        raise ValueError(f"{spec.name} passes no messages")
    batch, front = _one_trial(spec, h, y, sigma2, m), {}
    messages = list(_bp_messages(spec, *batch, sigma2, m, front))
    prior = _bp_prior(spec, *batch, sigma2, m, front)
    return [MessageState(alpha_update(beta, prior, total)[0], beta[0])
            for beta, total in messages]


def detect(spec: DetectorSpec, h: np.ndarray, y: np.ndarray, sigma2: float,
           m: int = 1, record_iterations: bool = False) -> DetectionResult:
    """Run one detector on one received vector: the batched engine on a batch of one.

    h is (Nr, Nt) complex, y is (Nr,), sigma2 the complex noise variance, m
    the bits per symbol. With record_iterations=True the BP kinds also
    report the soft output after every iteration (entry l equals what a run
    with iterations=l+1 would return). BP kinds at iterations=0 fall back to
    their initial beliefs: zero LLRs for SBP/RBP, the MMSE pseudo-LLRs for
    MMSE-RBP.
    """
    from .simulator import _engine_soft  # the simulator imports this module

    record = record_iterations and spec.iterative
    depths = tuple(range(spec.iterations + 1)) if record else (spec.iterations,)
    outs = [soft[0] for soft in _engine_soft(spec, *_one_trial(spec, h, y, sigma2, m), sigma2, m,
                                             depths, {})]
    return DetectionResult(_hard_decisions(outs[-1]), outs[-1], spec.iterations,
                           outs[1:] if record else None)
