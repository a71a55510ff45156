"""Link dimensions, bit/symbol mapping and the SNR convention.

Conventions:
  * bits are +1/-1 integers; M bits per symbol with M in {1, 2}
  * M=1 maps a bit straight to a real BPSK symbol
  * M=2 Gray-maps a bit pair (x1, x2) to the unit-energy point (x1 + i x2)/sqrt(2)
  * channel entries and noise are circularly-symmetric complex Gaussian; the
    one Rayleigh draw, y = H s + n, is simulator._draw_batch
  * SNR gamma (dB) fixes the noise variance as sigma^2 = Nt / 10^(gamma/10),
    i.e. total received signal power over per-antenna noise power
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SystemDims:
    """Antenna counts and modulation order of one link."""

    n_tx: int
    n_rx: int
    bits_per_symbol: int = 1

    def __post_init__(self) -> None:
        if self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("antenna counts must be >= 1")
        if self.bits_per_symbol not in (1, 2):
            raise ValueError("bits_per_symbol must be 1 (BPSK) or 2 (4-QAM)")

    @property
    def n_bits(self) -> int:
        return self.bits_per_symbol * self.n_tx


def modulate(bits: np.ndarray, m: int) -> np.ndarray:
    """Map +1/-1 bits to unit-energy symbols; works on the last axis."""
    bits = np.asarray(bits)
    if bits.shape[-1] % m != 0:
        raise ValueError("bit count must be a multiple of bits_per_symbol")
    if m == 1:
        return bits.astype(np.complex128)
    if m == 2:
        return (bits[..., 0::2] + 1j * bits[..., 1::2]) / np.sqrt(2.0)
    raise ValueError("bits_per_symbol must be 1 or 2")


def demodulate(symbols: np.ndarray, m: int) -> np.ndarray:
    """Hard-demap symbols back to +1/-1 bits (sign per axis, sign(0) = +1)."""
    symbols = np.asarray(symbols)
    re = np.where(symbols.real >= 0.0, 1, -1)
    if m == 1:
        return re
    if m == 2:
        im = np.where(symbols.imag >= 0.0, 1, -1)
        out = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=int)
        out[..., 0::2] = re
        out[..., 1::2] = im
        return out
    raise ValueError("bits_per_symbol must be 1 or 2")


def snr_to_noise_variance(snr_db: float, dims: SystemDims) -> float:
    """sigma^2 = Nt / 10^(snr_db/10) under unit-energy symbols and CN(0,1) gains."""
    return dims.n_tx / 10.0 ** (snr_db / 10.0)
