"""Canned experiment setups at desk scale.

Each preset fixes antennas, modulation, iteration depth, detector list, SNR
grid and stopping budgets; seeds and budgets can still be overridden on the
command line.
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
    convergence_snr_db: float | None = None
    l_values: tuple | None = None


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


def _fig3(seed: int) -> Preset:
    cfg = SweepConfig(
        dims=SystemDims(4, 4, 1),
        snr_points_db=snr_grid(0, 14, 2),
        detectors=(DetectorSpec.ml(), DetectorSpec.sbp(iterations=5)),
        errors_target=500,
        bits_max=20_000_000,
        master_seed=seed,
    )
    return Preset("fig3", "ber", cfg)


def _fig5(seed: int) -> Preset:
    cfg = SweepConfig(
        dims=SystemDims(4, 4, 1),
        snr_points_db=snr_grid(0, 16, 2),
        detectors=(
            DetectorSpec.sbp(iterations=7),
            DetectorSpec.rbp(2, 0, iterations=7),
            DetectorSpec.rbp(1, 0, iterations=7),
            DetectorSpec.rbp(0, 0, iterations=7),
            DetectorSpec.mmse_rbp(1, 0, iterations=7),
            DetectorSpec.mmse_rbp(0, 0, iterations=7),
            DetectorSpec.mmse_sic(),
        ),
        errors_target=500,
        bits_max=20_000_000,
        master_seed=seed,
    )
    return Preset("fig5", "ber", cfg)


def _fig6(seed: int) -> Preset:
    cfg = SweepConfig(
        dims=SystemDims(8, 8, 1),
        snr_points_db=snr_grid(0, 16, 2),
        detectors=(
            DetectorSpec.sbp(iterations=5),
            DetectorSpec.rbp(1, 0, iterations=5),
            DetectorSpec.rbp(0, 0, iterations=5),
            DetectorSpec.mmse_rbp(1, 0, iterations=5),
            DetectorSpec.mmse_rbp(0, 0, iterations=5),
        ),
        errors_target=500,
        bits_max=8_000_000,
        master_seed=seed,
    )
    return Preset("fig6", "ber", cfg)


def _fig7(seed: int) -> Preset:
    trials = 20_000
    dims = SystemDims(4, 4, 1)
    cfg = SweepConfig(
        dims=dims,
        snr_points_db=snr_grid(0, 12, 2),
        detectors=(
            DetectorSpec.sbp(iterations=5),
            DetectorSpec.rbp(1, 0, iterations=5),
            DetectorSpec.rbp(0, 0, iterations=5),
            DetectorSpec.mmse_rbp(1, 0, iterations=5),
            DetectorSpec.mmse_rbp(0, 0, iterations=5),
        ),
        errors_target=1,
        trials_min=trials,
        bits_max=trials * dims.n_bits,
        master_seed=seed,
        record_ami=True,
    )
    return Preset("fig7", "ami", cfg)


def _fig8(seed: int) -> Preset:
    cfg = SweepConfig(
        dims=SystemDims(4, 4, 1),
        snr_points_db=(12.0,),
        detectors=(
            DetectorSpec.sbp(iterations=10),
            DetectorSpec.rbp(1, 0, iterations=10),
            DetectorSpec.rbp(0, 0, iterations=10),
            DetectorSpec.mmse_rbp(0, 0, iterations=10),
        ),
        errors_target=500,
        bits_max=20_000_000,
        master_seed=seed,
    )
    return Preset("fig8", "convergence", cfg, convergence_snr_db=12.0,
                  l_values=tuple(range(1, 11)))


_BUILDERS = {
    "fig3": _fig3,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
}

PRESET_NAMES = tuple(sorted(_BUILDERS))


def get_preset(name: str, master_seed: int = DEFAULT_SEED) -> Preset:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}") from None
    return builder(master_seed)
