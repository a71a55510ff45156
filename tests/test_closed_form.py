"""BER curves against a closed form: maximal-ratio combining at Nt = 1, and
the soft outputs' scale against the exact LLR there (README's "LLR scale").

With one transmit antenna, every exact detector reduces to maximal-ratio
combining (MRC) over Nr Rayleigh branches: ML, SBP (the symbol's bits do
not interact in |y - h s|^2, so max-log BP is exact), MMSE and MMSE-SIC
(the sign of Re(h^H y) scaled per axis), and RBP(0,0) at BPSK, where R_D = 0
= Nbits - 1 enumerates everything. Under channel.py's SNR convention
(sigma^2 = Nt / 10^(snr/10), unit-energy symbols) each bit sees the branch
SNR g = 10^(snr/10) / M, and the BER is

    ((1 - mu) / 2)^L  sum_{k < L} C(L - 1 + k, k) ((1 + mu) / 2)^k,
    mu = sqrt(g / (1 + g)),  L = Nr.

The shapes, SNRs, seed and budget were fixed before the test was first run;
each point was chosen to sit near a BER of 3.7e-3 (>= 1e-3). A point
counts errors over a fixed 2^17 bits, so its BER estimate has variance
deff p (1 - p) / bits, with deff = 1 at BPSK (one bit per trial) and 2 at
QPSK, where both bits of a trial share one channel gain. The bound is 4 of
those standard deviations: about 20 checks at a two-sided 6e-5 each.

Not asserted: RBP(0,0) at QPSK lumps the symbol's other bit as a circular
Gaussian, which it is not, and misses MRC. With this seed and budget it read
4.43e-3 at 1x2 QPSK, 11 dB (MRC 3.70e-3: +20%, z = +3.1) and 4.68e-3 at 1x4
QPSK, 5 dB (MRC 3.72e-3: +26%, z = +4.0); the exact detectors stayed within
|z| <= 1.6 at every point.
"""
import math

import numpy as np
import pytest

from mimobp.channel import SystemDims, snr_to_noise_variance
from mimobp.detectors import DetectorSpec, detect
from mimobp.simulator import SweepConfig, _batch_rng, _draw_batch, run_sweep

SEED = 31
BITS = 1 << 17
Z_BOUND = 4.0

# (Nr, bits per symbol, SNR in dB), each near a BER of 3.7e-3
POINTS = [(2, 1, 8.0), (4, 1, 2.0), (2, 2, 11.0), (4, 2, 5.0)]


def mrc_ber(snr_db: float, n_rx: int, m: int) -> float:
    """Rayleigh MRC BER over n_rx branches at branch SNR 10^(snr_db/10) / m."""
    g = 10.0 ** (snr_db / 10.0) / m
    mu = math.sqrt(g / (1.0 + g))
    return ((1.0 - mu) / 2.0) ** n_rx * sum(
        math.comb(n_rx - 1 + k, k) * ((1.0 + mu) / 2.0) ** k for k in range(n_rx))


def test_mrc_ber_at_one_branch_is_the_rayleigh_bpsk_formula():
    """L = 1 is (1 - mu) / 2, which at 10 dB is 0.0232."""
    assert mrc_ber(10.0, 1, 1) == pytest.approx((1.0 - math.sqrt(10.0 / 11.0)) / 2.0)
    assert mrc_ber(10.0, 1, 1) == pytest.approx(0.02327, abs=1e-5)


# (detector, soft output / exact LLR as a function of sigma^2): README's "LLR scale"
LLR_SCALES = [(DetectorSpec.sbp(), lambda sigma2: 0.5),
              (DetectorSpec.rbp(0, 0), lambda sigma2: 0.5),
              (DetectorSpec.mmse_rbp(0, 0), lambda sigma2: 0.5),
              (DetectorSpec.mmse(), lambda sigma2: sigma2 / 2.0),
              (DetectorSpec.mmse_sic(), lambda sigma2: sigma2 / 2.0)]


@pytest.mark.parametrize("n_rx", [1, 2, 4], ids=lambda n: f"1x{n}-BPSK")
@pytest.mark.parametrize("spec,scale", LLR_SCALES, ids=[s.name for s, _ in LLR_SCALES])
def test_soft_output_is_a_fixed_multiple_of_the_exact_llr(n_rx, spec, scale):
    """At one BPSK transmitter the exact LLR of the simulated model, noise
    CN(0, sigma^2), is 4 Re(h^H y) / sigma^2. detect()'s soft output is half
    of it for the BP kinds and sigma^2/2 of it for MMSE and MMSE-SIC, to
    rounding, at every SNR; draws with |exact| < 1e-3 are skipped."""
    dims = SystemDims(1, n_rx, 1)
    checked = 0
    for snr_db in (0.0, 6.0, 12.0):
        sigma2 = snr_to_noise_variance(snr_db, dims)
        _, h, y = _draw_batch(dims, sigma2, _batch_rng(27, snr_db, 0), 40)
        for hb, yb in zip(h, y):
            exact = 4.0 * (hb[:, 0].conj() @ yb).real / sigma2
            if abs(exact) < 1e-3:
                continue
            soft = detect(spec, hb, yb, sigma2).soft_llrs
            assert soft.shape == (1,)
            assert soft[0] / exact == pytest.approx(scale(sigma2), rel=1e-12), (snr_db, exact)
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("n_rx,m,snr_db", POINTS, ids=[
    f"1x{n}-{'BPSK' if m == 1 else 'QPSK'}-{s:g}dB" for n, m, s in POINTS])
def test_exact_detectors_meet_mrc(n_rx, m, snr_db):
    specs = [DetectorSpec.ml(), DetectorSpec.sbp(), DetectorSpec.mmse(), DetectorSpec.mmse_sic()]
    if m == 1:
        specs.append(DetectorSpec.rbp(0, 0))
    cfg = SweepConfig(dims=SystemDims(1, n_rx, m), snr_points_db=(snr_db,), detectors=specs,
                      errors_target=10**9, bits_max=BITS, master_seed=SEED)
    want = mrc_ber(snr_db, n_rx, m)
    assert want >= 1e-3
    for rec in run_sweep(cfg):
        sd = math.sqrt((1 if m == 1 else 2) * want * (1.0 - want) / rec.bits)
        z = (rec.ber - want) / sd
        assert abs(z) <= Z_BOUND, f"{rec.detector}: BER {rec.ber:.3e}, MRC {want:.3e}, z {z:+.1f}"
