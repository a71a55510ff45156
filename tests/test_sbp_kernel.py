"""The config-major SBP kernel against the boolean-mask formulation, bit for bit.

The batched engine computes every bit's two max-marginals by halving the
joint-configuration axis. Max is exact, so its soft outputs must equal the
per-bit mask gathers of reference_impl.batched_sbp_mask_oracle exactly, on
every iteration, not just to a tolerance. The oracle's earlier prior order,
np.einsum's, must agree to 1e-9.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mimobp.channel import SystemDims, snr_to_noise_variance
from mimobp.detectors import DetectorSpec, _sbp_max_marginals
from mimobp.simulator import _batch_rng, _draw_batch, _engine_bp
from reference_impl import batched_sbp_mask_oracle, config_table_oracle


def _assert_bit_identical(n_tx, n_rx, m, sigma2, iterations, count, batch_index=0):
    dims = SystemDims(n_tx, n_rx, m)
    _, h, y = _draw_batch(dims, sigma2, _batch_rng(2011, 8.0, batch_index), count)
    got = _engine_bp(DetectorSpec.sbp(iterations), h, y, sigma2, m,
                     tuple(range(1, iterations + 1)), {})
    want = batched_sbp_mask_oracle(h, y, sigma2, m, iterations)
    older = batched_sbp_mask_oracle(h, y, sigma2, m, iterations, einsum=True)
    assert len(got) == len(want) == len(older) == iterations
    for depth, (g, w, o) in enumerate(zip(got, want, older), start=1):
        assert np.array_equal(g, w), f"iteration {depth}: max diff {np.abs(g - w).max()}"
        np.testing.assert_allclose(g, o, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n_tx,n_rx,m", [
    (4, 4, 1), (3, 3, 2), (4, 4, 2), (2, 5, 1), (5, 3, 1),
], ids=lambda v: str(v))
@pytest.mark.parametrize("snr_db", [0.0, 12.0])
def test_engine_equals_mask_oracle_on_every_iteration(n_tx, n_rx, m, snr_db):
    sigma2 = snr_to_noise_variance(snr_db, SystemDims(n_tx, n_rx, m))
    for batch_index in range(2):
        _assert_bit_identical(n_tx, n_rx, m, sigma2, 6, 128, batch_index)


@pytest.mark.parametrize("snr_db", [0.0, 12.0])
def test_engine_equals_mask_oracle_at_ten_bits(snr_db):
    """5x5 QPSK: 10 bits, so each prior sum folds 5 even and 5 odd bits."""
    sigma2 = snr_to_noise_variance(snr_db, SystemDims(5, 5, 2))
    _assert_bit_identical(5, 5, 2, sigma2, 4, 32)


@given(
    n_tx=st.integers(1, 4),
    n_rx=st.integers(1, 6),
    m=st.sampled_from([1, 2]),
    sigma2=st.one_of(st.just(1e-6), st.floats(1e-4, 10.0)),
    iterations=st.integers(1, 4),
)
def test_engine_equals_mask_oracle_property(n_tx, n_rx, m, sigma2, iterations):
    _assert_bit_identical(n_tx, n_rx, m, sigma2, iterations, 16)


@pytest.mark.parametrize("n_bits", range(1, 8))
def test_max_marginals_equal_direct_masked_max(n_bits):
    """The fold runs in place in t: it allocates nothing the size of a half
    of t, and leaves bit 0's two maxima in t[0] and t[1]."""
    bits, _ = config_table_oracle(1, n_bits)
    drawn = np.random.default_rng(n_bits).standard_normal((1 << n_bits, 64, 2))
    t = drawn.copy()
    tracemalloc.start()
    try:
        pos, neg = _sbp_max_marginals(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pos.shape == neg.shape == (64, 2, n_bits)
    assert peak < 2 * pos.nbytes + drawn[0].nbytes + 4096       # pos, neg, one row's max
    for i in range(n_bits):
        assert np.array_equal(pos[..., i], drawn[bits[:, i] > 0].max(axis=0))
        assert np.array_equal(neg[..., i], drawn[bits[:, i] < 0].max(axis=0))
    assert np.array_equal(t[0], pos[..., 0]) and np.array_equal(t[1], neg[..., 0])
