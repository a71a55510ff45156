"""Belief-propagation MIMO detection with relaxed factor-graph degree.

Detectors: exhaustive ML, MMSE, ordered MMSE-SIC, standard max-log BP, and
relaxed BP (configurable number of explicit interferer edges per message,
optionally seeded by MMSE pseudo-priors), plus a reproducible Monte Carlo
BER/AMI harness and closed-form operation counts.
"""
from .channel import SystemDims, demodulate, modulate, snr_to_noise_variance
from .detectors import (
    DetectionResult,
    DetectorSpec,
    MessageState,
    alpha_update,
    bit_gains,
    build_edge_sets,
    detect,
    interference_mean,
    interference_variance,
    message_history,
    rbp_beta_update,
    sbp_beta_update,
)
from .errors import (
    DimensionTooLargeError,
    IoFailure,
    LengthMismatchError,
)
from .metrics import BerAccumulator, OpCounts, ami, complexity_counts
from .presets import Preset, get_preset
from .simulator import (
    SweepConfig,
    SweepRecord,
    read_csv,
    run_convergence,
    run_point,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "SystemDims", "demodulate", "modulate", "snr_to_noise_variance",
    "DetectionResult", "DetectorSpec", "MessageState", "alpha_update",
    "bit_gains", "build_edge_sets", "detect", "interference_mean",
    "interference_variance", "message_history", "rbp_beta_update",
    "sbp_beta_update",
    "DimensionTooLargeError", "IoFailure", "LengthMismatchError",
    "BerAccumulator", "OpCounts", "ami", "complexity_counts",
    "Preset", "get_preset",
    "SweepConfig", "SweepRecord", "read_csv", "run_convergence", "run_point",
    "run_sweep", "write_csv",
]
