"""Built-in oracle checks behind the `selftest` subcommand.

Naive oracles (scalar loops, itertools enumeration) share no code with the
engine and are checked against its own batch steps, so every check
exercises the production kernel. Kept inside the package so an installed
copy can vouch for itself without the test suite.
"""
from __future__ import annotations

import itertools

import numpy as np

from .channel import SystemDims, modulate, snr_to_noise_variance
from .detectors import (
    DetectorSpec,
    sbp_beta_update,
    alpha_update,
    build_edge_sets,
    _lump,
    _lump_mean,
    _lump_variance,
    _relaxed_step,
    _sbp_step,
)
from .metrics import OpCounts, complexity_counts
from .simulator import _draw_batch


def _naive_sbp_beta(alpha, h, y, sigma2, m=1):
    n_rx, n_tx = h.shape
    n_bits = m * n_tx
    beta = np.zeros((n_rx, n_bits))
    for j in range(n_rx):
        for i in range(n_bits):
            best = {1: -np.inf, -1: -np.inf}
            for bits in itertools.product((1, -1), repeat=n_bits):
                s = modulate(np.asarray(bits, dtype=float), m)
                d = -abs(y[j] - np.dot(h[j], s)) ** 2 / (2.0 * sigma2)
                prior = sum(alpha[t, j] for t in range(n_bits)
                            if t != i and bits[t] == 1)
                score = d + prior
                if score > best[bits[i]]:
                    best[bits[i]] = score
            beta[j, i] = best[1] - best[-1]
    return beta


def _trials(rng, n: int, count: int):
    """(h, y, sigma2) of count n x n BPSK trials at 10 dB, drawn as the
    engine draws its batches."""
    dims = SystemDims(n, n, 1)
    sigma2 = snr_to_noise_variance(10.0, dims)
    _, h, y = _draw_batch(dims, sigma2, rng, count)
    return h, y, sigma2


def _check_sbp_oracle(rng) -> tuple[bool, str]:
    worst = 0.0
    for trial in range(40):
        n = 2 + trial % 2
        (h,), (y,), sigma2 = _trials(rng, n, 1)
        alpha = rng.uniform(-4, 4, size=(n, n))
        got = sbp_beta_update(alpha, h, y, sigma2)
        want = _naive_sbp_beta(alpha, h, y, sigma2)
        worst = max(worst, float(np.max(np.abs(got - want) / (np.abs(want) + 1e-30))))
    return worst < 1e-9, f"max rel err {worst:.2e}"


def _relaxed_trials(rng, spec: DetectorSpec, count: int):
    """(h, y, sigma2, edge sets, lump, lump variances) of count 4x4 BPSK
    trials, built as the engine builds relaxed BP; at BPSK the gains are H."""
    h, y, sigma2 = _trials(rng, 4, count)
    sets = build_edge_sets(h, spec)
    lump = _lump(sets)
    return h, y, sigma2, sets, lump, _lump_variance(lump, h, sigma2)


def _check_full_relaxation_is_sbp(rng) -> tuple[bool, str]:
    """The relaxed step with full edge sets, where nothing is lumped, against
    SBP's step, both fed SBP's alphas of 5 iterations on 20 trials."""
    h, y, sigma2, sets, lump, sigma2_z = _relaxed_trials(rng, DetectorSpec.rbp(3, 1), 20)
    relaxed, sbp = _relaxed_step(h, sets, sigma2_z, y), _sbp_step(h, y, sigma2, 1)
    alpha, worst = np.zeros((20, 4, 4)), 0.0
    for _ in range(5):
        want = sbp(alpha)
        got = relaxed(alpha, _lump_mean(lump, h, alpha))
        worst = max(worst, float(np.max(np.abs(got - want) / (np.abs(want) + 1e-12))))
        alpha = alpha_update(want)
    return worst < 1e-9, f"max rel beta gap {worst:.2e}"


def _check_closed_form(rng) -> tuple[bool, str]:
    """The relaxed step without explicit edges against the matched filter
    (2/sigma2_z) Re(conj(g) (y - u)) written out, 200 trials: equal floats."""
    h, y, _, sets, lump, sigma2_z = _relaxed_trials(rng, DetectorSpec.rbp(0, 0), 200)
    alpha = rng.uniform(-8, 8, size=(200, 4, 4))
    u = _lump_mean(lump, h, alpha)
    got = _relaxed_step(h, sets, sigma2_z, y)(alpha, u)
    want = (2.0 / sigma2_z) * (h.conj() * (y[:, :, None] - u)).real
    return bool(np.array_equal(got, want)), f"max gap {float(np.abs(got - want).max()):.2e}"


def _check_complexity() -> tuple[bool, str]:
    expected = {
        ("ML", 0, 0): OpCounts(260, 320, 0),
        ("SBP", 0, 0): OpCounts(256, 1136, 1120),
        ("RBP", 1, 0): OpCounts(48, 388, 160),
        ("MMSE_RBP", 1, 0): OpCounts(112, 452, 166),
        ("RBP00", 0, 0): OpCounts(32, 1232, 0),
        ("EB", 1, 0): OpCounts(48, 388, 160),
    }
    for (kind, rd1, rd2), want in expected.items():
        got = complexity_counts(kind, 4, 4, 1, 5, rd1, rd2)
        if got != want:
            return False, f"{kind}({rd1},{rd2}) gave {got}, expected {want}"
    return True, "all rows match"


def run_selftest(verbose: bool = True, stream=None) -> bool:
    import sys

    stream = stream or sys.stderr
    rng = np.random.default_rng(20240)
    checks = [
        ("standard-BP beta vs naive enumeration", lambda: _check_sbp_oracle(rng)),
        ("full relaxation reproduces standard BP", lambda: _check_full_relaxation_is_sbp(rng)),
        ("degree-0 step is the matched filter", lambda: _check_closed_form(rng)),
        ("operation-count table", _check_complexity),
    ]
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        all_ok = all_ok and ok
        if verbose:
            print(f"[selftest] {'PASS' if ok else 'FAIL'}  {name}  ({detail})",
                  file=stream)
    return all_ok
