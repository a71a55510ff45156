"""Canned experiment setups at desk scale.

Each preset fixes antennas, modulation, iteration depth, detector list, SNR
grid and stopping budgets; seeds and budgets can still be overridden on the
command line. The convergence preset runs at its first SNR point for
L = 1 .. its deepest detector's iteration count.
"""
from __future__ import annotations

from dataclasses import dataclass

from .channel import SystemDims
from .detectors import DetectorSpec
from .simulator import SweepConfig

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class Preset:
    name: str
    mode: str                      # "ber" | "ami" | "convergence"
    cfg: SweepConfig


def snr_grid(lo: float, hi: float, step: float) -> list:
    """lo, lo + step, ... up to hi (inclusive, 1e-9 slack), rounded to 6 places."""
    if step <= 0:
        raise ValueError("snr step must be > 0")
    out = []
    v = lo
    while v <= hi + 1e-9:
        out.append(round(v, 6))
        v += step
    return out


_BUDGETS = {"errors_target": 500, "bits_max": 20_000_000}
_FIG6_FIG7 = (DetectorSpec.sbp(5), DetectorSpec.rbp(1, 0), DetectorSpec.rbp(0, 0),
              DetectorSpec.mmse_rbp(1, 0), DetectorSpec.mmse_rbp(0, 0))

# name: (mode, (Nt, Nr, M), SNR grid (lo, hi, step) in dB, detectors, budgets
# that differ from _BUDGETS)
_PRESETS = {
    "fig3": ("ber", (4, 4, 1), (0, 14, 2), (DetectorSpec.ml(), DetectorSpec.sbp(5)), {}),
    "fig5": ("ber", (4, 4, 1), (0, 16, 2), (
        DetectorSpec.sbp(7), DetectorSpec.rbp(2, 0, 7), DetectorSpec.rbp(1, 0, 7),
        DetectorSpec.rbp(0, 0, 7), DetectorSpec.mmse_rbp(1, 0, 7),
        DetectorSpec.mmse_rbp(0, 0, 7), DetectorSpec.mmse_sic()), {}),
    "fig6": ("ber", (8, 8, 1), (0, 16, 2), _FIG6_FIG7, {"bits_max": 8_000_000}),
    # a fixed 20,000 trials of 4 bits each, whatever the error count
    "fig7": ("ami", (4, 4, 1), (0, 12, 2), _FIG6_FIG7,
             {"errors_target": 1, "trials_min": 20_000, "bits_max": 20_000 * 4}),
    "fig8": ("convergence", (4, 4, 1), (12, 12, 1), (
        DetectorSpec.sbp(10), DetectorSpec.rbp(1, 0, 10), DetectorSpec.rbp(0, 0, 10),
        DetectorSpec.mmse_rbp(0, 0, 10)), {}),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def get_preset(name: str, master_seed: int = DEFAULT_SEED) -> Preset:
    try:
        mode, dims, grid, detectors, budgets = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}") from None
    cfg = SweepConfig(SystemDims(*dims), snr_grid(*grid), detectors, master_seed=master_seed,
                      record_ami=mode == "ami", **{**_BUDGETS, **budgets})
    return Preset(name, mode, cfg)
