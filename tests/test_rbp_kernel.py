"""The hypothesis-major relaxed kernel against the trial-major loop, bit for bit.

The batched engine lays the relaxed scores out hypothesis-first and takes
both max-marginals over contiguous slabs. Max is exact and every other
operation keeps its operands and order, so RBP and MMSE-RBP soft outputs
must equal reference_impl.batched_rbp_trial_major_oracle exactly, on every
iteration, not just to a tolerance.
"""
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from mimobp.channel import SystemDims, snr_to_noise_variance
from mimobp.detectors import DetectorSpec, build_edge_sets
from mimobp.simulator import _batch_rng, _draw_batch, _engine_bp
from reference_impl import batched_rbp_trial_major_oracle, naive_edge_set

KINDS = ("RBP", "MMSE_RBP")


def _assert_bit_identical(kind, n_tx, n_rx, m, rd1, rd2, sigma2, iterations, count,
                          batch_index=0):
    dims = SystemDims(n_tx, n_rx, m)
    _, h, y = _draw_batch(dims, sigma2, _batch_rng(2011, 8.0, batch_index), count)
    spec = DetectorSpec(kind, iterations=iterations, rd1=rd1, rd2=rd2)
    got = _engine_bp(spec, h, y, sigma2, m, want_iters=True)
    want = batched_rbp_trial_major_oracle(h, y, sigma2, m, rd1, rd2, iterations,
                                          cascaded=kind == "MMSE_RBP")
    assert len(got) == len(want) == iterations
    for depth, (g, w) in enumerate(zip(got, want), start=1):
        assert np.array_equal(g, w), f"iteration {depth}: max diff {np.abs(g - w).max()}"


CASES = (
    [(n, n, 1, rd1, 0) for n in (4, 8) for rd1 in (0, 1, 2, n - 1)]
    + [(4, 4, 2, rd1, rd2) for rd1, rd2 in ((0, 1), (1, 0), (2, 0), (1, 1), (3, 1))]
    + [(2, 5, 1, rd1, 0) for rd1 in (0, 1)]
    + [(5, 3, 1, rd1, 0) for rd1 in (0, 1, 4)]
)


@pytest.mark.parametrize("n_tx,n_rx,m,rd1,rd2", CASES, ids=lambda v: str(v))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("snr_db", [0.0, 12.0])
def test_engine_equals_trial_major_oracle_on_every_iteration(kind, n_tx, n_rx, m, rd1, rd2,
                                                             snr_db):
    sigma2 = snr_to_noise_variance(snr_db, SystemDims(n_tx, n_rx, m))
    for batch_index in range(2):
        _assert_bit_identical(kind, n_tx, n_rx, m, rd1, rd2, sigma2, 5, 64, batch_index)


@pytest.mark.parametrize("kind,rd1,rd2", [("RBP", 4, 0), ("MMSE_RBP", 4, 1)])
@pytest.mark.parametrize("snr_db", [0.0, 12.0])
def test_engine_equals_trial_major_oracle_with_eight_or_more_edges(kind, rd1, rd2, snr_db):
    """5x5 QPSK, R_D = 8 and 9: the prior sums run a block of 8 (and a tail)."""
    sigma2 = snr_to_noise_variance(snr_db, SystemDims(5, 5, 2))
    _assert_bit_identical(kind, 5, 5, 2, rd1, rd2, sigma2, 4, 32)


@given(
    kind=st.sampled_from(KINDS),
    n_tx=st.integers(1, 5),
    n_rx=st.integers(1, 6),
    m=st.sampled_from([1, 2]),
    rd1=st.integers(0, 4),
    rd2=st.integers(0, 1),
    sigma2=st.one_of(st.just(1e-6), st.floats(1e-4, 10.0)),
    iterations=st.integers(1, 4),
)
def test_engine_equals_trial_major_oracle_property(kind, n_tx, n_rx, m, rd1, rd2, sigma2,
                                                   iterations):
    assume(rd1 < n_tx and rd1 * m + rd2 * (m - 1) <= 6)
    _assert_bit_identical(kind, n_tx, n_rx, m, rd1, rd2, sigma2, iterations, 16)


@pytest.mark.parametrize("m", [1, 2])
def test_batched_edge_sets_follow_the_per_message_rule(m):
    rng = np.random.default_rng(41)
    h = rng.standard_normal((3, 2, 4, 5)) + 1j * rng.standard_normal((3, 2, 4, 5))
    for rd1 in range(5):
        for rd2 in range(2):
            sets = build_edge_sets(h, DetectorSpec.rbp(rd1, rd2, 1), m)
            assert sets.shape == (3, 2, 4, 5 * m, rd1 * m + rd2 * (m - 1))
            for idx in np.ndindex(3, 2, 4):
                for i in range(5 * m):
                    assert list(sets[idx][i]) == naive_edge_set(h[idx], i, rd1, rd2, m)
