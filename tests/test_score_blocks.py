"""Score tables cut in blocks give the one-block floats.

detectors._prior_sum_blocks yields _prior_sums's table block by block, and
the SBP and relaxed steps take their maxima over those blocks, with the rows
per block chosen from the slab size (detectors._BLOCK_BYTES). Max is exact,
so no block size may change a beta. These small batches are one block by
default; the tests force 1-row and 2-row blocks by patching the constant,
as tests/test_config_products.py patches _WHOLE_TABLE_BYTES. Where +0 and -0
tie, a block-wise maximum may keep the other zero, so the betas are compared
with np.array_equal; the prior sums, one add per float, bit for bit.
"""
from unittest import mock

import numpy as np
import pytest

from mimobp import detectors
from mimobp.channel import SystemDims, snr_to_noise_variance
from mimobp.detectors import (
    DetectorSpec,
    _block_rows,
    _edge_positions,
    _lump,
    _lump_mean,
    _lump_variance,
    _prior_sum_blocks,
    _prior_sums,
    _relaxed_step,
    _sbp_step,
    alpha_update,
    bit_gains,
    build_edge_sets,
)
from mimobp.simulator import _batch_rng, _draw_batch

TRIALS = 8


def _alphas(shape, seed, count=3):
    """count clamped alphas with about a quarter of their entries +0 or -0."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        alpha = np.clip(rng.uniform(-40.0, 40.0, shape), -30.0, 30.0)
        pick = rng.random(shape) < 0.25
        alpha[pick] = np.where(rng.random(pick.sum()) < 0.5, 0.0, -0.0)
        out.append(alpha)
    return out


def _blocks_of(rows, slab_bytes):
    """A patch of _BLOCK_BYTES under which a table of slab_bytes rows is cut in
    blocks of rows rows (rows = None: one block, whatever its size)."""
    size = 1 << 40 if rows is None else rows * slab_bytes
    return mock.patch.object(detectors, "_BLOCK_BYTES", size)


@pytest.mark.parametrize("n", range(1, 11))
def test_joined_blocks_are_the_whole_table(n):
    """Every power-of-two block size yields the starts in order, and the
    joined blocks are _prior_sums's table, int64 views equal (+0 and -0
    told apart), with and without a caller's block buffer."""
    terms = _alphas((3, n, 2), n, count=1)[0].transpose(1, 0, 2)   # as the SBP step passes it
    whole = _prior_sums(terms, np.empty((1 << n, 3, 2)))
    for low in range(n + 1):
        rows = 1 << low
        for out in (None, np.full((rows, 3, 2), np.nan)):
            blocks = [(start, sums.copy()) for start, sums in _prior_sum_blocks(terms, rows, out)]
            assert [start for start, _ in blocks] == list(range(0, 1 << n, rows))
            joined = np.concatenate([sums for _, sums in blocks])
            assert np.array_equal(joined.view(np.int64), whole.view(np.int64))


@pytest.mark.parametrize("rows,slab", [(1, 64), (2, 64), (2, 100), (4, 64)])
def test_block_rows_follow_the_patched_size(rows, slab):
    table = np.empty((16, slab // 8))
    with _blocks_of(rows, table[0].nbytes):
        assert _block_rows(table) == rows
    with _blocks_of(None, table[0].nbytes):
        assert _block_rows(table) == 16


@pytest.mark.parametrize("m", [1, 2], ids=["4x4-BPSK", "4x4-QPSK"])
def test_sbp_blocks_give_the_one_block_betas(m):
    """The fresh step and 3 steps with random alphas, in 1-row and 2-row
    blocks, against one block."""
    dims = SystemDims(4, 4, m)
    sigma2 = snr_to_noise_variance(8.0, dims)
    _, h, y = _draw_batch(dims, sigma2, _batch_rng(7, 8.0, 0), TRIALS)
    alphas = _alphas((TRIALS, dims.n_bits, 4), 11 + m)

    def betas(rows):
        with _blocks_of(rows, TRIALS * 4 * 8):
            step = _sbp_step(h, y, sigma2, m)
            return [step(np.zeros_like(alphas[0]), fresh=True)] + [step(a) for a in alphas]

    want = betas(None)
    for rows in (1, 2):
        for got, w in zip(betas(rows), want, strict=True):
            assert np.array_equal(got, w)


@pytest.mark.parametrize("n_tx,m,rd1,rd2", [(4, 1, 1, 0), (4, 2, 1, 0), (4, 2, 2, 0), (5, 2, 3, 1)],
                         ids=["4x4-BPSK-RBP(1,0)", "4x4-QPSK-RBP(1,0)", "4x4-QPSK-RBP(2,0)",
                              "5x5-QPSK-RBP(3,1)"])
def test_relaxed_blocks_give_the_one_block_betas(n_tx, m, rd1, rd2):
    """R_D = 1 (no prior-sum table), 2, 4 and 7: the fresh step and 3 steps
    with random alphas and their soft-cancellation means, in 1-row and 2-row
    blocks, against one block."""
    dims = SystemDims(n_tx, n_tx, m)
    sigma2 = snr_to_noise_variance(8.0, dims)
    _, h, y = _draw_batch(dims, sigma2, _batch_rng(7, 8.0, 0), TRIALS)
    gains = bit_gains(h, m)
    positions = _edge_positions(build_edge_sets(h, DetectorSpec.rbp(rd1, rd2), m))
    lump = _lump(positions)
    sigma2_z = _lump_variance(lump, gains, sigma2)
    alphas = _alphas((TRIALS, dims.n_bits, n_tx), 23 + rd1)

    def betas(rows):
        with _blocks_of(rows, gains.real.nbytes):
            step = _relaxed_step(gains, positions, sigma2_z, y)
            return ([step(np.zeros_like(alphas[0]), 0.0, fresh=True)]
                    + [step(a, _lump_mean(lump, gains, a)) for a in alphas])

    want = betas(None)
    for rows in (1, 2):
        for got, w in zip(betas(rows), want, strict=True):
            assert np.array_equal(got, w)
