"""Command-line front end.

Subcommands: ber-sweep, ami-sweep, convergence, complexity, selftest.
Settings resolve in order defaults < preset < config file < flags, and every
run echoes the fully resolved configuration to stderr in a form that can be
fed back via --config. Exit codes: 0 success, 1 runtime failure, 2 usage
error.
"""
from __future__ import annotations

import argparse
import configparser
import io
import os
import re
import sys

from .channel import SystemDims
from .detectors import DetectorSpec
from .metrics import complexity_counts
from .presets import DEFAULT_SEED, PRESET_NAMES, PRESETS, snr_grid
from .selfcheck import run_selftest
from .simulator import SweepConfig, _convergence_lane, _run_lanes, write_csv

WORKERS_ENV = "MIMOBP_WORKERS"

_DETECTOR_RE = re.compile(r"^(ML|MMSE|MMSE-SIC|SBP|RBP|MMSE-RBP)(?:\((\d+),(\d+)\))?$")
# split a comma list on the commas between entries, not the ones inside (..)
_DETECTOR_SEP = re.compile(r",(?![^(]*\))")


def _parse_detector_label(text: str) -> dict:
    match = _DETECTOR_RE.match(text.strip())
    if not match:
        raise ValueError(
            f"cannot parse detector {text!r}; expected e.g. SBP, ML, RBP(1,0), MMSE-RBP(0,0)"
        )
    out = {"kind": match.group(1).replace("-", "_"), "rd1": 0, "rd2": 0, "l": None}
    if match.group(2) is not None:
        out["rd1"] = int(match.group(2))
        out["rd2"] = int(match.group(3))
    return out


def _floats(text: str) -> list:
    return [float(v) for v in text.split(",")]


# Every [run] key: the type that parses its INI text, and its default as INI
# text. A flag of the same name overrides it.
_RUN_KEYS = {
    "nt": (int, "4"), "nr": (int, "4"), "m": (int, "1"), "l": (int, "5"),
    "seed": (int, str(DEFAULT_SEED)), "workers": (int, "1"),
    "errors_target": (int, "500"), "bits_max": (int, "20_000_000"), "trials_min": (int, "1"),
    "snr_points": (_floats, "0, 2, 4, 6, 8, 10, 12, 14"), "out": (str, "results.csv"),
    "snr": (float, "12.0"), "l_max": (int, "10"),
}
_CONVERGENCE_KEYS = ("snr", "l_max")  # echoed by convergence runs only
_GRID_KEYS = ("snr_min", "snr_max", "snr_step")
_DETECTOR_KEYS = ("kind", "rd1", "rd2", "l")


def _defaults(mode: str) -> dict:
    """Every key at its default, but workers: None until a layer sets it."""
    settings = {key: cast(text) for key, (cast, text) in _RUN_KEYS.items()}
    return {"mode": mode, **settings, "workers": None, "detectors": []}


def _apply_grid(settings: dict, lo, hi, step) -> None:
    """snr_points from the grid bounds; a bound given as None keeps the current one."""
    if lo is None and hi is None and step is None:
        return
    points = settings["snr_points"]
    settings["snr_points"] = snr_grid(min(points) if lo is None else lo,
                                      max(points) if hi is None else hi,
                                      2.0 if step is None else step)


def _check_keys(section: str, keys, allowed) -> None:
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise ValueError(f"[{section}]: unknown key(s) {', '.join(unknown)}")


def _apply_config_file(settings: dict, path: str) -> None:
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    detectors = []
    for section in parser.sections():
        sec = parser[section]
        if section == "run":
            _check_keys(section, sec, ("mode", *_RUN_KEYS, *_GRID_KEYS))
            for key, (cast, _) in _RUN_KEYS.items():
                if key in sec:
                    settings[key] = cast(sec[key])
            if "snr_points" not in sec:
                _apply_grid(settings, *(float(sec[k]) if k in sec else None
                                        for k in _GRID_KEYS))
        elif section.startswith("detector:"):
            _check_keys(section, sec, _DETECTOR_KEYS)
            if "kind" not in sec:
                raise ValueError(f"[{section}] needs a 'kind' key")
            entry = _parse_detector_label(sec["kind"])
            entry.update({k: int(sec[k]) for k in _DETECTOR_KEYS[1:] if k in sec})
            detectors.append(entry)
        else:
            raise ValueError(f"unknown section [{section}]; expected [run] or [detector:N]")
    if detectors:
        settings["detectors"] = detectors


def _apply_flags(settings: dict, args: argparse.Namespace) -> None:
    for key in _RUN_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    _apply_grid(settings, *(getattr(args, k, None) for k in _GRID_KEYS))
    if hasattr(args, "snr"):  # flags of a convergence run: its one SNR point
        settings["snr_points"] = [settings["snr"]]
    if getattr(args, "detectors", None):
        settings["detectors"] = [
            _parse_detector_label(part) for part in _DETECTOR_SEP.split(args.detectors)
        ]
    for key in ("rd1", "rd2"):
        if getattr(args, key, None) is not None:
            for entry in settings["detectors"]:
                if DetectorSpec(entry["kind"]).relaxed:
                    entry[key] = getattr(args, key)


def _resolve(args: argparse.Namespace, mode: str) -> dict:
    settings = _defaults(mode)
    if getattr(args, "preset", None):  # a preset is the flags of its command line
        _apply_flags(settings, build_parser().parse_args(PRESETS[args.preset]))
    if getattr(args, "config", None):
        _apply_config_file(settings, args.config)
    _apply_flags(settings, args)
    if not settings["detectors"]:
        settings["detectors"] = [{"kind": "SBP", "rd1": 0, "rd2": 0, "l": None}]
    for entry in settings["detectors"]:
        if entry["l"] is None:
            entry["l"] = settings["l"]
        if (entry["rd1"] or entry["rd2"]) and not DetectorSpec(entry["kind"]).relaxed:
            raise ValueError(f"{DetectorSpec(entry['kind']).label} has no relax degrees, "
                             f"got ({entry['rd1']},{entry['rd2']})")
    # no layer set it: the environment, else the default; the complexity table runs no pool
    if settings["workers"] is None and mode != "complexity":
        settings["workers"] = int(os.environ.get(WORKERS_ENV, _RUN_KEYS["workers"][1]))
    return settings


def _build_sweep_config(settings: dict, record_ami: bool) -> SweepConfig:
    detectors = [DetectorSpec(entry["kind"], entry["l"], entry["rd1"], entry["rd2"])
                 for entry in settings["detectors"]]
    return SweepConfig(
        dims=SystemDims(settings["nt"], settings["nr"], settings["m"]),
        snr_points_db=tuple(settings["snr_points"]),
        detectors=tuple(detectors),
        errors_target=settings["errors_target"],
        bits_max=settings["bits_max"],
        trials_min=settings["trials_min"],
        master_seed=settings["seed"],
        record_ami=record_ami,
    )


def _ini_text(value) -> str:
    # str of a float is its shortest exact repr, so the echo reads back bit for bit
    return ", ".join(map(str, value)) if isinstance(value, list) else str(value)


def echo_config(settings: dict, stream=None) -> str:
    """Emit the resolved configuration as INI text (also returned)."""
    parser = configparser.ConfigParser()
    keys = [k for k in _RUN_KEYS
            if settings["mode"] == "convergence" or k not in _CONVERGENCE_KEYS]
    parser["run"] = {"mode": settings["mode"], **{k: _ini_text(settings[k]) for k in keys}}
    for pos, entry in enumerate(settings["detectors"], start=1):
        parser[f"detector:{pos}"] = {**{k: str(entry[k]) for k in _DETECTOR_KEYS},
                                     "kind": DetectorSpec(entry["kind"]).label}
    buf = io.StringIO()
    parser.write(buf)
    text = buf.getvalue()
    print(text, file=stream or sys.stderr, end="")
    return text


def _cmd_run(args: argparse.Namespace) -> int:
    """ber-sweep and ami-sweep (mode "ber", "ami"): every detector at every SNR
    point; convergence: every iterative detector at depths 1..l_max at one SNR."""
    settings = _resolve(args, args.mode)
    echo_config(settings)
    cfg = _build_sweep_config(settings, record_ami=args.mode == "ami")
    if args.mode != "convergence":
        lanes = [(spec, (spec.iterations,)) for spec in cfg.detectors]
    elif not any(spec.iterative for spec in cfg.detectors):
        raise ValueError("convergence needs an iterative detector (SBP, RBP or MMSE-RBP)")
    else:
        lanes = []
        for spec in cfg.detectors:
            if spec.iterative:
                lanes.append(_convergence_lane(spec, range(1, settings["l_max"] + 1)))
            else:
                print(f"[mimobp] skipping {spec.label}: not iterative", file=sys.stderr)
    records, failed = _run_lanes(cfg, lanes, workers=settings["workers"], progress=True)
    write_csv(records, settings["out"])
    print(f"[mimobp] wrote {settings['out']} ({len(records)} records)", file=sys.stderr)
    if failed:
        points = len(lanes) * len(cfg.snr_points_db)
        print(f"[mimobp] error: {len(failed)} of {points} points failed", file=sys.stderr)
        return 1
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    settings = _resolve(args, "complexity")
    nt, nr, m, l = settings["nt"], settings["nr"], settings["m"], settings["l"]
    rd1 = args.rd1 if args.rd1 is not None else min(1, nt - 1)
    rd2 = args.rd2 if args.rd2 is not None else 0
    rows = [  # every row before any output: a refused rd1 prints nothing
        ("ML", complexity_counts("ML", nt, nr, m, l)),
        ("SBP", complexity_counts("SBP", nt, nr, m, l)),
        (f"RBP({rd1},{rd2})", complexity_counts("RBP", nt, nr, m, l, rd1, rd2)),
        (f"MMSE-RBP({rd1},{rd2})", complexity_counts("MMSE_RBP", nt, nr, m, l, rd1, rd2)),
        ("RBP00", complexity_counts("RBP00", nt, nr, m, l)),
        (f"EB({rd1})", complexity_counts("EB", nt, nr, m, l, rd1, rd2)),
    ]
    width = max(len(name) for name, _ in rows)
    print(f"# per-vector operation counts at Nt={nt} Nr={nr} M={m} L={l}")
    print(f"{'detector':<{width}}  {'multiplications':>15}  {'additions':>12}  {'comparisons':>12}")
    for name, counts in rows:
        print(f"{name:<{width}}  {counts.multiplications:>15}  "
              f"{counts.additions:>12}  {counts.comparisons:>12}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    del args
    return 0 if run_selftest(verbose=True) else 1


def _add_link(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--nt", type=int, help="transmit antennas")
    parser.add_argument("--nr", type=int, help="receive antennas")
    parser.add_argument("--m", type=int, choices=(1, 2), help="bits per symbol")
    parser.add_argument("--l", type=int, help="message-passing iterations")
    parser.add_argument("--rd1", type=int, help="relaxation: explicit interferer symbols")
    parser.add_argument("--rd2", type=int, choices=(0, 1),
                        help="relaxation: keep own-symbol partner bits")


def _add_common(parser: argparse.ArgumentParser, with_grid: bool = True) -> None:
    _add_link(parser)
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--workers", type=int, help=f"worker processes (or ${WORKERS_ENV})")
    parser.add_argument("--out", help="output CSV path")
    for key in _GRID_KEYS if with_grid else ():
        parser.add_argument("--" + key.replace("_", "-"), type=float, help="SNR grid (dB)")
    parser.add_argument("--errors-target", type=int, dest="errors_target",
                        help="stop a point after this many bit errors")
    parser.add_argument("--bits-max", type=int, dest="bits_max",
                        help="hard per-point bit budget")
    parser.add_argument("--trials-min", type=int, dest="trials_min",
                        help="minimum trials per point")
    parser.add_argument("--detectors",
                        help="comma list, e.g. 'ML,SBP,RBP(1,0),MMSE-RBP(0,0),MMSE-SIC'")
    parser.add_argument("--preset", choices=PRESET_NAMES,
                        help="start from a canned experiment")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimobp",
        description="Belief-propagation MIMO detection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ber-sweep", help="BER vs SNR sweep")
    _add_common(p)
    p.set_defaults(func=_cmd_run, mode="ber")

    p = sub.add_parser("ami-sweep", help="BER+AMI vs SNR sweep")
    _add_common(p)
    p.set_defaults(func=_cmd_run, mode="ami")

    p = sub.add_parser("convergence", help="BER vs iteration count at one SNR")
    _add_common(p, with_grid=False)
    p.add_argument("--snr", type=float, help="fixed SNR (dB)")
    p.add_argument("--l-max", type=int, dest="l_max", help="sweep L = 1..l_max")
    p.set_defaults(func=_cmd_run, mode="convergence")

    p = sub.add_parser("complexity", help="print the per-vector operation counts")
    _add_link(p)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("selftest", help="run the built-in oracle checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 1
    except Exception as exc:
        print(f"[mimobp] error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
