"""Error-rate bookkeeping, soft-output mutual information, and operation counts."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError

# two-sided 95% normal quantile used by the Wilson score interval
Z95 = 1.959963984540054

# exponent clamp used when converting LLRs to information values
AMI_EXP_CLAMP = 30.0


@dataclass
class BerAccumulator:
    """A bit-error tally: the error rate and its Wilson interval."""

    bits_total: int = 0
    bit_errors: int = 0

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_total if self.bits_total else 0.0

    def wilson_interval(self, z: float = Z95) -> tuple[float, float]:
        """95% Wilson score interval for the error probability.

        Always brackets the point estimate; (0, 1) when empty.
        """
        n = self.bits_total
        if n == 0:
            return 0.0, 1.0
        p = self.ber
        denom = 1.0 + z * z / n
        center = (p + z * z / (2.0 * n)) / denom
        half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
        return max(0.0, center - half), min(1.0, center + half)


def ami(soft_llrs: np.ndarray, true_bits: np.ndarray) -> float:
    """Average mutual information of soft outputs against the sent bits.

    Mean over bits of 1 - log2(1 + exp(-b * L)), with the exponent argument
    clamped to +-30. The mean itself is reported unclamped, so confidently
    wrong outputs push it negative.
    """
    soft_llrs = np.asarray(soft_llrs, dtype=np.float64)
    true_bits = np.asarray(true_bits, dtype=np.float64)
    if soft_llrs.shape != true_bits.shape:
        raise LengthMismatchError(
            f"LLR shape {soft_llrs.shape} != bit shape {true_bits.shape}"
        )
    return ami_sum(soft_llrs, true_bits) / soft_llrs.size


def ami_sum(soft_llrs: np.ndarray, true_bits: np.ndarray) -> float:
    """Sum over bits of 1 - log2(1 + exp(-b * L)), exponent clamped to +-30."""
    arg = np.clip(-true_bits * soft_llrs, -AMI_EXP_CLAMP, AMI_EXP_CLAMP)
    return float((1.0 - np.log2(1.0 + np.exp(arg))).sum())


@dataclass(frozen=True)
class OpCounts:
    """Real multiplications, additions, and comparisons per detected vector."""

    multiplications: int
    additions: int
    comparisons: int


_COUNT_KINDS = ("ML", "SBP", "RBP", "MMSE_RBP", "RBP00", "EB")


def complexity_counts(kind: str, n_tx: int, n_rx: int, m: int, l: int,
                      rd1: int = 0, rd2: int = 0) -> OpCounts:
    """Closed-form operation counts for one detected vector.

    Exact integer evaluation of the published per-vector counts. Kinds:
    ML, SBP, RBP (general relax coefficients), MMSE_RBP (RBP plus an
    Nt^3-cost filter and Nt(Nt-1)/2 ordering comparisons), RBP00 (the
    most-simplified scheme counted on its own form), and EB (edge-based
    reference scheme, counted only; not implemented as a detector). The
    published EB counts are RBP's with rd2 = 1, whatever rd2 is given.
    """
    if kind not in _COUNT_KINDS:
        raise ValueError(f"unknown complexity kind {kind!r}")
    if min(n_tx, n_rx, m, l) < 1:
        raise ValueError("dimensions and iteration count must be >= 1")
    if not 0 <= rd1 <= n_tx - 1:
        raise ValueError(f"rd1 must be in 0..{n_tx - 1}")
    if rd2 not in (0, 1):
        raise ValueError("rd2 must be 0 or 1")

    if kind == "EB":
        kind, rd2 = "RBP", 1
    mn = m * n_tx
    if kind == "ML":
        mult = 2**mn * n_rx * n_tx + mn
        add = 2**mn * n_rx * n_tx + 2**mn * mn
        return OpCounts(mult, add, 0)

    if kind == "SBP":
        mult = 2**mn * n_rx * n_tx
        add = (2**mn + (2 ** (mn - 1) + 3) * m * l) * n_rx * n_tx
        comp = (2**mn - 2) * m * n_tx * n_rx * l
        return OpCounts(mult, add, comp)

    if kind == "RBP00":
        mult = 2 * n_rx + 2**m * (n_tx - 1) * n_rx
        add = mult + (2 ** (m - 1) + 3 * n_tx + 2) * m * l * n_tx * n_rx
        return OpCounts(mult, add, 0)

    # RBP and MMSE_RBP
    rd = rd1 * m + rd2 * (m - 1)
    mult = 2 ** (rd + 1) * (rd1 + 1) * n_rx + 2**m * (n_tx - rd1 - 1) * n_rx
    add = mult + (2**rd * (rd1 + 1) + 2 ** (m - 1) + 3 * n_tx) * m * l * n_rx
    comp = (2 ** (rd + 1) - 2) * m * l * n_tx * n_rx
    if kind == "MMSE_RBP":
        mult += n_tx**3
        add += n_tx**3
        comp += n_tx * (n_tx - 1) // 2
    return OpCounts(mult, add, comp)
