"""The enumerated sum tables against np.einsum, bit for bit.

detectors._doubling_sums builds every signed-sum table: H s for every joint
configuration (SBP, ML; detectors._channel_sums) and relaxed BP's
interference I_h over the hypotheses with x_last = +1. The kernels pinned
elsewhere are exact only if these tables hold the very floats einsum
returns, so these tests compare int64 views, which also tell +0 from -0.
The configurations come from reference_impl.config_table_oracle.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from mimobp.channel import SystemDims, snr_to_noise_variance
from mimobp import detectors
from mimobp.detectors import LLR_CLAMP, _channel_sums, _doubling_sums, _residual_power
from mimobp.simulator import _batch_rng, _draw_batch, _engine_ml, _ml_metric
from reference_impl import config_table_oracle


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _residual_einsum(h, y, symbols):
    power = np.abs(y - np.einsum("...k,ck->c...", h, symbols))
    return np.square(power, out=power)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n_tx", range(1, 7))
@pytest.mark.parametrize("count", [1, 7, 512])
def test_channel_products_equal_einsum(m, n_tx, count):
    _, symbols = config_table_oracle(m, n_tx)
    h = _gaussian(np.random.default_rng(n_tx * 10 + m), (count, 2, n_tx))
    _assert_same_bits(_channel_sums(h, m), np.einsum("bjk,ck->cbj", h, symbols))


@pytest.mark.parametrize("rd", range(1, 9))
def test_relaxed_half_table_equals_einsum(rd):
    """I_h on real planes as the relaxed step builds it: steps (g_r, -g_r)
    for r < R_D - 1, then the one-value step (g_last,), over the H/2
    hypotheses with x_last = +1, the first half in config order."""
    bits, _ = config_table_oracle(1, rd)
    xh = bits[:len(bits) // 2].astype(np.float64)    # the real +-1 patterns, as einsum sees them
    g_sel = _gaussian(np.random.default_rng(rd), (16, 3, 4, rd))
    want = np.einsum("bjir,hr->hbji", g_sel, xh)
    for g, part in ((np.moveaxis(g_sel.real, -1, 0), want.real),
                    (np.moveaxis(g_sel.imag, -1, 0), want.imag)):   # edge-major, as gathered
        steps = ((g[r], -g[r]) if r < rd - 1 else (g[r],) for r in range(rd))
        _assert_same_bits(_doubling_sums(np.empty(part.shape), steps), part)


_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-1e150, 1e150, allow_nan=False))


@given(
    m=st.sampled_from([1, 2]),
    n_tx=st.integers(1, 4),
    re=arrays(np.float64, (3, 2, 4), elements=_PARTS),
    im=arrays(np.float64, (3, 2, 4), elements=_PARTS),
)
def test_products_equal_einsum_property(m, n_tx, re, im):
    g = np.empty(re.shape, dtype=np.complex128)
    g.real, g.imag = re, im                   # re + 1j * im would lose signs of zero
    g = g[..., :n_tx]
    _, symbols = config_table_oracle(m, n_tx)
    _assert_same_bits(_channel_sums(g, m), np.einsum("...k,ck->c...", g, symbols))


@given(
    m=st.sampled_from([1, 2]),
    n_tx=st.integers(1, 4),
    re=arrays(np.float64, (3, 2, 5), elements=_PARTS),
    im=arrays(np.float64, (3, 2, 5), elements=_PARTS),
)
def test_residuals_equal_einsum_property(m, n_tx, re, im):
    """|y - H s|^2 with the same parts, y in the last column, as one block
    and cut in blocks (forced on these small tables): written into the
    power table, and in ML's one reused block buffer, summed over the two
    antennas."""
    parts = np.empty(re.shape, dtype=np.complex128)
    parts.real, parts.imag = re, im
    h, y = parts[..., :n_tx], parts[..., -1]
    _, symbols = config_table_oracle(m, n_tx)
    want = _residual_einsum(h, y, symbols)
    for whole in (1 << 20, 0):
        with mock.patch.object(detectors, "_WHOLE_TABLE_BYTES", whole):
            _assert_same_bits(_residual_power(h, y, m), want)
            _assert_same_bits(_ml_metric(h, y, m), want[..., 0] + want[..., 1])


# At 64 trials, (4, 4, 2) is 1 MiB of complex H s, one block; (8, 8, 1), (5, 5, 2)
# and (4, 5, 2) are past it, cut in blocks of one top symbol (QPSK) or two (BPSK).
# The larger counts cut tables whose base has one row (Nt <= ceil(2/M)).
_ML_SHAPES = [(4, 4, 1), (4, 4, 2), (8, 8, 1), (3, 5, 1), (3, 5, 2), (5, 3, 1), (5, 3, 2),
              (6, 6, 1), (5, 5, 2), (4, 5, 2)]


@pytest.mark.parametrize("n_tx,n_rx,m,count", [
    *((n_tx, n_rx, m, 64) for n_tx, n_rx, m in _ML_SHAPES),
    (1, 1, 1, 40000), (1, 3, 2, 20000), (2, 2, 1, 20000), (3, 1, 1, 10000),
], ids=lambda v: str(v))
def test_residual_power_equals_the_einsum_form(n_tx, n_rx, m, count):
    """One block, or blocks over a base table of one row or many, one level or two."""
    dims = SystemDims(n_tx, n_rx, m)
    sigma2 = snr_to_noise_variance(10.0, dims)
    _, h, y = _draw_batch(dims, sigma2, _batch_rng(11, 10.0, 0), count)
    _, symbols = config_table_oracle(m, n_tx)
    _assert_same_bits(_residual_power(h, y, m), _residual_einsum(h, y[None], symbols))


@pytest.mark.parametrize("n_tx,n_rx,m", _ML_SHAPES, ids=lambda v: str(v))
@pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0])
def test_ml_metric_and_decisions_equal_the_einsum_form(n_tx, n_rx, m, snr_db):
    dims = SystemDims(n_tx, n_rx, m)
    sigma2 = snr_to_noise_variance(snr_db, dims)
    _, h, y = _draw_batch(dims, sigma2, _batch_rng(7, snr_db, 0), 64)
    bits, symbols = config_table_oracle(m, n_tx)
    hs = np.einsum("bjk,ck->bjc", h, symbols)
    want = (np.abs(y[:, :, None] - hs) ** 2).sum(axis=1)              # (B, C)
    assert np.array_equal(_ml_metric(h, y, m), want.T)
    hard = bits[np.argmin(want, axis=1)].astype(np.float64) * LLR_CLAMP
    assert np.array_equal(_engine_ml(h, y, m), hard)
