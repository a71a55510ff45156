"""Built-in oracle checks behind the `selftest` subcommand.

Deliberately naive implementations (scalar loops, itertools enumeration)
recompute what the production kernels vectorize; the two must agree. The
oracles share no code with the engine, and the helpers they are checked
against (sbp_beta_update, rbp_beta_update, message_history) run the batched
engine's own steps, so every check exercises the production kernel. Kept
inside the package so an installed copy can vouch for itself without the
test suite.
"""
from __future__ import annotations

import itertools

import numpy as np

from .channel import SystemDims, modulate, snr_to_noise_variance
from .detectors import (
    DetectorSpec,
    message_history,
    sbp_beta_update,
    rbp_beta_update,
    bit_gains,
    build_edge_sets,
    _exclusion_mask,
    _interference_means,
    _interference_variances,
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


def _random_instance(rng, n_tx, n_rx, m=1, snr_db=10.0):
    """(h, y, sigma2) of one trial, drawn as the engine draws its batches."""
    dims = SystemDims(n_tx, n_rx, m)
    sigma2 = snr_to_noise_variance(snr_db, dims)
    _, h, y = _draw_batch(dims, sigma2, rng, 1)
    return h[0], y[0], sigma2


def _check_sbp_oracle(rng) -> tuple[bool, str]:
    worst = 0.0
    for trial in range(40):
        n = 2 + trial % 2
        h, y, sigma2 = _random_instance(rng, n, n)
        alpha = rng.uniform(-4, 4, size=(n, n))
        got = sbp_beta_update(alpha, h, y, sigma2)
        want = _naive_sbp_beta(alpha, h, y, sigma2)
        worst = max(worst, float(np.max(np.abs(got - want) / (np.abs(want) + 1e-30))))
    return worst < 1e-9, f"max rel err {worst:.2e}"


def _check_full_relaxation_is_sbp(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        h, y, sigma2 = _random_instance(rng, 4, 4)
        sbp = message_history(DetectorSpec.sbp(5), h, y, sigma2)
        rbp = message_history(DetectorSpec.rbp(3, 1, 5), h, y, sigma2)
        for a, b in zip(sbp, rbp):
            scale = np.abs(b.beta) + 1e-12
            worst = max(worst, float(np.max(np.abs(a.beta - b.beta) / scale)))
            scale = np.abs(b.alpha) + 1e-12
            worst = max(worst, float(np.max(np.abs(a.alpha - b.alpha) / scale)))
    return worst < 1e-9, f"max rel message gap {worst:.2e}"


def _check_closed_form(rng) -> tuple[bool, str]:
    spec = DetectorSpec.rbp(0, 0, 1)
    worst = 0.0
    for _ in range(200):
        h, y, sigma2 = _random_instance(rng, 4, 4)
        gains = bit_gains(h, 1)
        sets = build_edge_sets(h, spec, 1)
        lump = _exclusion_mask(sets, 4)
        sigma2_z = _interference_variances(gains, lump, sigma2)
        alpha = np.clip(rng.uniform(-8, 8, size=(4, 4)), -30, 30)
        u = _interference_means(alpha, gains, lump)
        closed = rbp_beta_update(alpha, gains, sets, u, sigma2_z, y)
        general = rbp_beta_update(alpha, gains, sets, u, sigma2_z, y,
                                  use_closed_form=False)
        # allclose semantics: the general path subtracts two squared norms,
        # so a purely relative bar is unreachable where beta crosses zero
        gap = np.abs(closed - general) - 1e-12 * np.abs(general)
        worst = max(worst, float(gap.max()))
    return worst < 1e-12, f"max allclose excess {worst:.2e}"


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
        ("degree-0 closed form vs general path", lambda: _check_closed_form(rng)),
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
