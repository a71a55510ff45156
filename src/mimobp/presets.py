"""The paper's figure experiments at desk scale, each kept as the ``mimobp``
command line that runs it. ``--preset NAME`` applies the line's flags over the
defaults and below ``--config`` and the command's own flags, so a later ``--l``
or ``[run] l`` sets the depth of every detector of the preset. Budgets a line
leaves out keep the command's defaults.
"""
from __future__ import annotations

import shlex
from dataclasses import dataclass

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


_FIG6_FIG7 = "'SBP,RBP(1,0),RBP(0,0),MMSE-RBP(1,0),MMSE-RBP(0,0)'"
_LINES = {
    # 4x4 ML vs standard BP
    "fig3": "ber-sweep --nt 4 --nr 4 --m 1 --l 5 --detectors ML,SBP "
            "--snr-min 0 --snr-max 14 --snr-step 2",
    # 4x4 relaxation degrees, plain and MMSE-cascaded, against SBP and MMSE-SIC
    "fig5": "ber-sweep --nt 4 --nr 4 --m 1 --l 7 --detectors "
            "'SBP,RBP(2,0),RBP(1,0),RBP(0,0),MMSE-RBP(1,0),MMSE-RBP(0,0),MMSE-SIC' "
            "--snr-min 0 --snr-max 16 --snr-step 2",
    # 8x8: the MMSE-cascaded relaxed detector against SBP
    "fig6": f"ber-sweep --nt 8 --nr 8 --m 1 --l 5 --detectors {_FIG6_FIG7} "
            "--snr-min 0 --snr-max 16 --snr-step 2 --bits-max 8000000",
    # mutual information over a fixed 20,000 trials of 4 bits, whatever the error count
    "fig7": f"ami-sweep --nt 4 --nr 4 --m 1 --l 5 --detectors {_FIG6_FIG7} "
            "--snr-min 0 --snr-max 12 --snr-step 2 "
            "--errors-target 1 --trials-min 20000 --bits-max 80000",
    # BER after L = 1 .. 10 iterations at 12 dB
    "fig8": "convergence --nt 4 --nr 4 --m 1 --l 10 "
            "--detectors 'SBP,RBP(1,0),RBP(0,0),MMSE-RBP(0,0)' --snr 12 --l-max 10",
}
PRESETS = {name: tuple(shlex.split(line)) for name, line in _LINES.items()}  # argv of each
PRESET_NAMES = tuple(sorted(PRESETS))


def get_preset(name: str, master_seed: int = DEFAULT_SEED) -> Preset:
    """The preset as ``mimobp <its command> --preset NAME --seed SEED`` resolves it."""
    from .cli import _build_sweep_config, _resolve, build_parser  # the CLI imports this module

    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    # a SweepConfig holds no worker count: name one, so the environment's is not read
    args = build_parser().parse_args([PRESETS[name][0], "--preset", name,
                                      "--seed", str(master_seed), "--workers", "1"])
    return Preset(name, args.mode, _build_sweep_config(_resolve(args, args.mode),
                                                       args.mode == "ami"))
