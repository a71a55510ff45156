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

Relaxed BP keeps, per message (j, i), only a small set Psi of interferer
bits explicit (the rd1 strongest-gain symbols plus, optionally, the bit's
own-symbol partners); everything else is lumped into a Gaussian whose mean
is rebuilt each iteration from the previous alphas (soft interference
cancellation) and whose variance is fixed at the priors. With rd1 = Nt-1,
rd2 = 1 nothing is lumped: the scheme is standard BP and runs SBP's step
(DetectorSpec.exhaustive); with rd1 = rd2 = 0 the beta update collapses to
a matched filter against the cancelled observation. The MMSE-cascaded
variant turns per-stream MMSE pseudo-LLRs into a fixed per-bit prior: it
seeds the alphas, stays as an additive intrinsic term in every alpha
update, and shrinks the lump variances (informative priors mean less
residual interference power), which lets the cascade track the MMSE-SIC
baseline instead of relaxing back to the uninformed fixed point. The soft
output remains the plain column sum of beta; re-adding the prior there
would double-count information already fed back through the cancellation.

Each detector has one implementation, the batched engine in
mimobp.simulator, built from the batch steps here. detect() and
message_history() run it on a batch of one; the per-message helpers
(sbp_beta_update, rbp_beta_update, interference_mean, ...) return the same
floats. The relaxed beta is a matched filter plus two maxima of one
prior-sum table per iteration against tables that depend only on the
hypothesis, built once per batch (_relaxed_step). Every order is the
code's own: the prior sums add a fold over the even bits, highest bit
first, to one over the odd bits, the lump sums add in ascending bit order
and the MMSE estimates take one inverse. Only the draw's H s calls einsum.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import DimensionTooLargeError, LengthMismatchError

# Hard clamp applied to bit-to-factor LLRs (and to exponent arguments wherever
# an LLR is converted to a probability-domain quantity).
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


class _ConfigTable(NamedTuple):
    """Every joint configuration; x_t = +1 exactly when bit t of the index is 0."""

    bits: np.ndarray       # (C, n_bits) int8, +1/-1
    symbols: np.ndarray    # (C, n_tx) complex128


@lru_cache(maxsize=8)
def _config_table(m: int, n_tx: int) -> _ConfigTable:
    from .channel import modulate

    n_bits = m * n_tx
    count = 1 << n_bits
    cc = np.arange(count, dtype=np.int64)[:, None]
    tt = np.arange(n_bits, dtype=np.int64)[None, :]
    bits = (1 - 2 * ((cc >> tt) & 1)).astype(np.int8)
    symbols = modulate(bits.astype(np.float64), m)
    return _ConfigTable(bits, symbols)


def _table_bytes(name: str, power: int, rest: tuple) -> int:
    """Bytes of one call that enumerates a (2^power, *rest) table, checked
    before anything is built: DimensionTooLargeError past MAX_BATCH_BYTES.

    rest is (B, Nr) where every bit is enumerated jointly (power = Nbits),
    else (B, Nr, Nbits) with power = R_D. An upper bound on the call's
    tracemalloc peak, fitted: 24 bytes per entry of the joint table, 32 of
    the relaxed one, 26 power bytes per row of its _config_table (which
    dominates at B = 1), 128 + 48 R_D per message (B, Nr, Nbits) and 1 MiB.
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


def _config_products(g: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """np.einsum("...k,ck->c...", g, symbols), bit for bit, shape (C, ...).

    symbols is a _config_table symbol table, whose symbol k is digit k of
    the config index, symbol 0 lowest. Doubling over symbols: the block for
    symbols 0..k holds the block for 0..k-1 plus g[..., k] v for each value
    v of symbol k. As in einsum, each product takes the plain real formula
    (numpy's complex g * v may fuse a multiply-add and round differently)
    and each sum starts from +0 and adds the terms in ascending k.
    """
    count, n_sym = symbols.shape
    q = 1 << ((count.bit_length() - 1) // max(n_sym, 1))   # values per symbol
    out = np.empty((count,) + g.shape[:-1], dtype=np.complex128)
    out[0] = 0.0
    prod = np.empty(g.shape[:-1], dtype=np.complex128)
    size = 1
    for k in range(n_sym):
        gr, gi = g[..., k].real, g[..., k].imag
        for v in range(q - 1, -1, -1):  # block 0 is the others' base, so it goes last
            sr, si = symbols[v * size, k].real, symbols[v * size, k].imag
            np.subtract(gr * sr, gi * si, out=prod.real)
            np.add(gr * si, gi * sr, out=prod.imag)
            np.add(out[:size], prod, out=out[v * size:(v + 1) * size])
        size *= q
    return out


def _residual_power(h: np.ndarray, y: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """|y_j - (H s)_j|^2 per antenna for every configuration s in symbols,
    shape (C, B, Nr), from one _config_products table."""
    resid = _config_products(h, symbols)
    np.subtract(y, resid, out=resid)
    power = np.abs(resid)
    return np.square(power, out=power)


def _prior_sums(terms: np.ndarray, out: np.ndarray,
                work: np.ndarray | None = None) -> np.ndarray:
    """Sums of terms over the clear bits of every config index, written to out.

    terms is (n, ...) and out (2^n, ...): out[c] sums terms[t] over the bits
    t clear in c (x_t = +1 in _config_table order). The even and the odd bits
    each get one doubling table that starts from +0 and adds from the highest
    t down (no odd bit: +0), and one broadcast add, even + odd, fills out. At
    n <= 4 and n = 8, every width perfbench runs, these are the floats of the
    two-lane einsum reduction this replaced. work, a float buffer of out's
    size, if given, holds the two tables and is overwritten. At n = 1 those
    sums are terms[0] + 0.0 (-0 becomes +0) and +0, written directly.
    """
    n, rest = terms.shape[0], terms.shape[1:]
    if n == 1:
        np.add(terms[0], 0.0, out=out[0])
        out[1] = 0.0
        return out
    width = math.prod(rest)
    if work is None:
        work = np.empty(((1 << (n + 1) // 2) + (1 << n // 2)) * width)
    free = work.reshape(-1)
    tables = []
    for parity in (0, 1):
        bits = range(parity, n, 2)[::-1]
        k = len(bits)
        if not k:                                     # no odd bit: +0
            tables.append(0.0)
            continue
        tbl, free = free[:width << k].reshape((1 << k,) + rest), free[width << k:]
        tbl[0] = 0.0
        for s, t in enumerate(bits):                  # bit t becomes table bit s
            size = 1 << s
            tbl[size:2 * size] = tbl[:size]
            tbl[:size] += terms[t]                    # bit t clear: x_t = +1
        # table axis a is this parity's a-th lowest bit; size 1 on the other's
        tables.append(tbl.reshape(tuple(2 if t % 2 == parity else 1 for t in range(n)) + rest))
    # axis t of this view of out is bit t of the config index
    by_bit = out.reshape((2,) * n + rest)
    by_bit = by_bit.transpose((*range(n - 1, -1, -1), *range(n, by_bit.ndim)))
    np.add(tables[0], tables[1], out=by_bit)
    return out


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


def _sbp_max_marginals(t: np.ndarray,
                       scratch: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-bit max of t over configs with x_i = +1 and x_i = -1: (pos, neg).

    t has the config axis first, (C, ...), in _config_table order, so bit i
    is the top bit of the block left once bits i+1.. are maxed out: its first
    half holds x_i = +1, its second x_i = -1. Outputs are (..., n_bits).
    scratch, (C/2, ...), if given, takes the folded blocks; t is never written.
    """
    n_bits = t.shape[0].bit_length() - 1
    pos = np.empty(t.shape[1:] + (n_bits,))
    neg = np.empty_like(pos)
    cur = t
    for i in range(n_bits - 1, -1, -1):
        half = cur.shape[0] // 2
        lo, hi = cur[:half], cur[half:]
        pos[..., i] = lo.max(axis=0)
        neg[..., i] = hi.max(axis=0)
        if i:
            cur = np.maximum(lo, hi, out=None if scratch is None else scratch[:half])
    return pos, neg


def _sbp_step(h: np.ndarray, y: np.ndarray, sigma2: float, m: int):
    """The standard-BP beta update of a batch (h (B, Nr, Nt), y (B, Nr)),
    as step(alpha (B, Nbits, Nr), fresh=False) -> beta (B, Nr, Nbits).

    beta[j, i] = max over configs with x_i = +1 of {D_j(s) + sum of alpha[t, j]
    over t != i with x_t = +1} minus the analogous max with x_i = -1. D
    (C, B, Nr) is built once in _residual_power's buffer, with the
    roundings of -|y - Hs|^2 / (2 sigma^2) (rounding is sign-symmetric, so
    dividing by -(2 sigma^2) equals negating first); the score buffers are
    reused. The priors (C, B, Nr) come from _prior_sums, whose floats do not
    depend on alpha's layout. fresh says alpha is +0: the priors are +0, not
    computed.
    """
    d = _residual_power(h, y, _config_table(m, h.shape[-1]).symbols)
    d /= -(2.0 * sigma2)
    t = np.empty_like(d)
    scratch = np.empty((d.shape[0] // 2,) + d.shape[1:])

    def step(alpha, fresh=False):
        if fresh:
            np.add(d, 0.0, out=t)
        else:
            _prior_sums(alpha.transpose(1, 0, 2), t)
            np.add(t, d, out=t)
        beta, neg = _sbp_max_marginals(t, scratch)
        # the x_i = +1 branch double-counts alpha[i, :]; subtract it back out
        beta -= alpha.transpose(0, 2, 1)
        beta -= neg
        return beta

    return step


def sbp_beta_update(alpha: np.ndarray, h: np.ndarray, y: np.ndarray,
                    sigma2: float, m: int = 1) -> np.ndarray:
    """One standard-BP factor-to-bit update by exhaustive enumeration.

    alpha is (Nbits, Nr), beta (Nr, Nbits); _sbp_step on a batch of one.
    """
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be > 0")
    n_rx, n_tx = np.shape(h)
    _table_bytes("SBP", m * n_tx, (1, n_rx))
    step = _sbp_step(np.asarray(h, dtype=np.complex128)[None],
                     np.asarray(y, dtype=np.complex128)[None], sigma2, m)
    return step(np.asarray(alpha, dtype=np.float64)[None])[0]


def alpha_update(beta: np.ndarray, prior: np.ndarray | None = None) -> np.ndarray:
    """alpha[i, j] = sum of beta[t, i] over factors t != j, clamped to +-30.

    A per-bit prior, when given, stays as an additive intrinsic term in
    every outgoing alpha (the bit node's own degree-one factor). Leading
    batch axes of beta (..., Nr, Nbits) and prior (..., Nbits) carry through.
    """
    total = beta.sum(axis=-2)
    alpha = total[..., :, None] - np.swapaxes(beta, -1, -2)
    if prior is not None:
        alpha = prior[..., :, None] + alpha
    return np.clip(alpha, -LLR_CLAMP, LLR_CLAMP)


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
        order = np.argsort(-np.abs(h), axis=-1, kind="stable")
        offs = np.arange(m, dtype=np.intp)
        for k0 in range(n_tx):
            chosen = order[order != k0].reshape(lead + (n_tx - 1,))[..., :rd1]
            bits = chosen[..., None] * m + offs
            sets[..., k0 * m:(k0 + 1) * m, :rd1 * m] = bits.reshape(lead + (1, rd1 * m))
    if spec.rd2:
        sets[..., rd1 * m:] = [[t for t in range(i - i % m, i - i % m + m) if t != i]
                               for i in range(m * n_tx)]
    return sets


def _lump(edge_sets: np.ndarray):
    """The Gaussian lump's sums for explicit edges edge_sets (..., Nr, Nbits,
    R_D), as lump(terms (..., Nr, Nbits)) -> (..., Nr, Nbits). Entry (j, i)
    sums terms[j, t] over the bits t != i outside Psi_{j,i}: the factor's
    total minus the sum over the kept bits, i and Psi_{j,i}. Each sum starts
    from its lowest bit and adds the rest in ascending t, so where nothing is
    lumped the two are the same floats and the lump is exactly 0. A call
    costs O(Nr Nbits R_D); the kept bits are sorted once."""
    factors, n_bits = edge_sets.shape[:-2], edge_sets.shape[-2]   # factors: (..., Nr)
    own = np.broadcast_to(np.arange(n_bits)[:, None], edge_sets.shape[:-1] + (1,))
    kept = np.moveaxis(np.concatenate([own, edge_sets], axis=-1), -1, 0).copy()
    for p in range(len(kept)):  # odd-even transposition sort, kept-major
        lo, hi = kept[p % 2:-1:2], kept[p % 2 + 1::2]
        lo[...], hi[...] = np.minimum(lo, hi), np.maximum(lo, hi)
    flat = np.arange(math.prod(factors)).reshape(factors + (1,)) * n_bits + kept

    def lump(terms):
        total = terms[..., 0].copy()
        for t in range(1, n_bits):
            total += terms[..., t]
        kept_sum = np.take(terms, flat[0])
        for pos in flat[1:]:
            kept_sum += np.take(terms, pos)
        return np.subtract(total[..., None], kept_sum, out=kept_sum)

    return lump


def _lump_one(terms: np.ndarray, psi, i: int):
    """Entry i of _lump over one factor's terms (Nbits,), with the same sums:
    the total minus the kept bits' sum, each added in ascending bit order."""
    kept = [terms[t] for t in sorted([i, *psi])]
    return reduce(operator.add, terms) - reduce(operator.add, kept)


def interference_mean(alpha_col: np.ndarray, psi: np.ndarray, h_row: np.ndarray,
                      i: int, m: int = 1) -> complex:
    """Soft-cancellation mean of the lumped interferers for one message.

    u = sum over t not in Psi, t != i of g[t] * tanh(alpha[t]/2), where
    alpha_col holds the bit-to-factor LLRs heading to this factor. _lump's sums.
    """
    terms = bit_gains(h_row, m) * np.tanh(np.asarray(alpha_col, dtype=np.float64) / 2.0)
    return complex(_lump_one(terms, psi, i))


def interference_variance(psi: np.ndarray, h_row: np.ndarray, i: int,
                          sigma2: float, m: int = 1) -> float:
    """Variance of the Gaussian lump: prior unit bit variance plus noise.

    sigma2_z = sum over t not in Psi, t != i of |g[t]|^2 + sigma^2, the lumped
    power clamped at 0 so that sigma2_z >= sigma^2. Computed once per channel
    realization; never updated from the feedback. _lump's sums.
    """
    power = np.abs(bit_gains(h_row, m)) ** 2
    return float(np.maximum(_lump_one(power, psi, i), 0.0) + sigma2)


def _relaxed_step(gains: np.ndarray, edge_sets: np.ndarray, sigma2_z: np.ndarray,
                  y: np.ndarray):
    """The relaxed beta update of a batch (gains, sigma2_z (B, Nr, Nbits),
    edge_sets (B, Nr, Nbits, R_D), y (B, Nr)), as step(alpha (B, Nbits, Nr),
    u (B, Nr, Nbits), fresh=False) -> beta (B, Nr, Nbits).

    Bit i is enumerated jointly with its explicit edges r; the lump enters
    through u and sigma2_z. With c = y - u, half = 2 sigma2_z and I_h = sum_r
    x_r g_r, hypothesis h scores its prior minus |c - I_h -+ g_i|^2 / half.
    Expanded, beta = (2/sigma2_z) Re(conj(g_i) c) + max_h(S_h - (Q_h + W_h))
    - max_h(S_h - (Q_h - W_h)). Q_h = |I_h|^2 / half and W_h = Re(conj(I_h)
    g_i) 2 / half depend on no message: Q +- W are built once per batch. S is
    _prior_sums (H, B, Nr, Nbits) over e_r = alpha_r + (2/sigma2_z) Re(conj(c)
    g_r), its two tables held in the score buffer. Without explicit edges
    there is no hypothesis term. fresh says alpha is +0, not gathered.
    """
    b, n_rx, n_bits, rd = edge_sets.shape
    y, scale, half = y[:, :, None], 2.0 / sigma2_z, 2.0 * sigma2_z
    if rd:
        # edge-major (R_D, B, Nr, Nbits) positions of (b, j, sets) in (B, Nr, Nbits)
        flat = np.moveaxis(np.arange(b * n_rx).reshape(b, n_rx, 1, 1) * n_bits + edge_sets,
                           -1, 0).copy()
        interf = _config_products(np.moveaxis(np.take(gains, flat), 0, -1),
                                  _config_table(1, rd).symbols)
        g_re, g_im = np.take(gains.real, flat) * scale, np.take(gains.imag, flat) * scale
        g2 = gains * (2.0 / half)
        plus, minus = interf.real * interf.real, interf.imag * interf.imag
        plus += minus
        plus /= half                                                     # Q
        w = np.multiply(interf.real, g2.real, out=interf.real)
        w += np.multiply(interf.imag, g2.imag, out=interf.imag)          # W
        np.subtract(plus, w, out=minus)
        plus += w
        del interf, w
        sums, score = np.empty(plus.shape), np.empty(plus.shape)

    def step(alpha, u, fresh=False):
        c = y - u
        beta = scale * (gains.conj() * c).real
        if not rd:
            return beta
        terms = c.real * g_re
        terms += c.imag * g_im
        if not fresh:
            terms += np.take(alpha.transpose(0, 2, 1), flat)
        _prior_sums(terms, sums, work=score)
        # the best with x_i = +1 minus the best with x_i = -1, over slabs
        beta += np.subtract(sums, plus, out=score).max(axis=0)
        beta -= np.subtract(sums, minus, out=sums).max(axis=0)
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
    _table_bytes("RBP", rd, (1, n_rx, n_bits))
    step = _relaxed_step(gains[None], edge_sets[None], sigma2_z[None], y[None])
    return step(alpha[None], u[None])[0]


# ---------------- linear front ends ----------------


def _mmse_estimate(h: np.ndarray, y: np.ndarray, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """MMSE estimates of a batch: K = A^-1 (B, Nt, Nt), with A = H^H H +
    sigma^2 I, and s_hat = K (H^H y) (B, Nt). One inverse serves both."""
    hh = np.swapaxes(h.conj(), 1, 2)
    k = np.linalg.inv(hh @ h + sigma2 * np.eye(h.shape[2]))
    return (k @ (hh @ y[:, :, None]))[:, :, 0], k


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


def message_history(spec: DetectorSpec, h: np.ndarray, y: np.ndarray,
                    sigma2: float, m: int = 1) -> list[MessageState]:
    """Alpha/beta after each flooding iteration (for analysis and tests)."""
    from .simulator import _bp_messages  # the simulator imports this module

    h = np.asarray(h, dtype=np.complex128)[None]
    y = np.asarray(y, dtype=np.complex128)[None]
    _spec_bytes(spec, h.shape[2], h.shape[1], m, 1)
    return [MessageState(alpha[0], beta[0])
            for alpha, beta in _bp_messages(spec, h, y, sigma2, m)]


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

    h = np.asarray(h, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (h.shape[0],):
        raise LengthMismatchError(
            f"y has shape {y.shape}, expected ({h.shape[0]},)")
    _spec_bytes(spec, h.shape[1], h.shape[0], m, 1)
    one = (spec, h[None], y[None], sigma2, m)
    per = None
    if record_iterations and spec.iterative:
        per = [soft[0] for soft in _engine_soft(*one, want_iters=True)]
    soft = per[-1] if per else _engine_soft(*one)[0]
    return DetectionResult(np.where(soft >= 0.0, 1, -1), soft,
                           spec.iterations if spec.iterative else 0, per)
