"""Bit mapping, constellation, fading, and noise conventions.

The Rayleigh draw is the engine's own batch draw, simulator._draw_batch.
"""
import numpy as np
import pytest

from mimobp.channel import SystemDims, demodulate, modulate, snr_to_noise_variance
from mimobp.detectors import _hard_decisions
from mimobp.simulator import _draw_batch
from reference_impl import naive_modulate


class TestSystemDims:
    def test_bit_count(self):
        assert SystemDims(4, 4, 1).n_bits == 4
        assert SystemDims(4, 6, 2).n_bits == 8

    def test_rejects_bad_antenna_counts(self):
        with pytest.raises(ValueError):
            SystemDims(0, 4, 1)
        with pytest.raises(ValueError):
            SystemDims(4, -1, 1)

    def test_rejects_unsupported_modulation(self):
        with pytest.raises(ValueError):
            SystemDims(4, 4, 3)

    def test_frozen(self):
        dims = SystemDims(2, 2, 1)
        with pytest.raises(AttributeError):
            dims.n_tx = 3


class TestModulation:
    def test_bpsk_is_identity_embedding(self):
        bits = np.array([1, -1, -1, 1])
        np.testing.assert_array_equal(modulate(bits, 1), bits.astype(complex))

    def test_qpsk_points_have_unit_energy(self):
        bits = np.array([1, 1, 1, -1, -1, 1, -1, -1])
        s = modulate(bits, 2)
        np.testing.assert_allclose(np.abs(s), 1.0, rtol=0, atol=1e-15)

    def test_matches_naive_mapper(self):
        rng = np.random.default_rng(11)
        for m in (1, 2):
            bits = rng.integers(0, 2, size=12 * m) * 2 - 1
            np.testing.assert_array_equal(modulate(bits, m), naive_modulate(bits, m))

    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(12)
        for m in (1, 2):
            bits = rng.integers(0, 2, size=40 * m) * 2 - 1
            np.testing.assert_array_equal(demodulate(modulate(bits, m), m), bits)

    def test_operates_on_last_axis(self):
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, size=(5, 8)) * 2 - 1
        s = modulate(bits, 2)
        assert s.shape == (5, 4)
        np.testing.assert_array_equal(demodulate(s, 2), bits)

    def test_rejects_ragged_block(self):
        with pytest.raises(ValueError):
            modulate(np.array([1, -1, 1]), 2)

    def test_demap_zero_breaks_to_plus_one(self):
        np.testing.assert_array_equal(demodulate(np.array([0.0 + 0.0j]), 1), [1])

    def test_demap_and_llr_decisions_share_one_tie_rule(self):
        """MMSE-SIC's slicer and the LLR decisions give +1 at +0.0 and -0.0
        and agree on random values, a quarter of them signed zeros."""
        zeros = np.array([0.0, -0.0])
        np.testing.assert_array_equal(_hard_decisions(zeros), [1, 1])
        corners = np.array([complex(a, b) for a in zeros for b in zeros])
        np.testing.assert_array_equal(demodulate(corners, 1), [1, 1, 1, 1])
        np.testing.assert_array_equal(demodulate(corners, 2), np.ones((8,)))
        rng = np.random.default_rng(66)
        x = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        x.real[rng.uniform(size=x.shape) < 0.25] = -0.0
        x.imag[rng.uniform(size=x.shape) < 0.25] = 0.0
        np.testing.assert_array_equal(demodulate(x, 1), _hard_decisions(x.real))
        both = demodulate(x, 2)
        np.testing.assert_array_equal(both[:, 0::2], _hard_decisions(x.real))
        np.testing.assert_array_equal(both[:, 1::2], _hard_decisions(x.imag))


class TestDrawBatch:
    def test_bits_are_balanced_signs(self):
        bits, _, _ = _draw_batch(SystemDims(4, 4, 1), 0.5, np.random.default_rng(14), 25_000)
        assert bits.shape == (25_000, 4)
        assert set(np.unique(bits)) == {-1, 1}
        assert abs(bits.mean()) < 0.02

    def test_seeded_determinism(self):
        dims = SystemDims(3, 4, 2)
        a = _draw_batch(dims, 0.5, np.random.default_rng(15), 8)
        b = _draw_batch(dims, 0.5, np.random.default_rng(15), 8)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_channel_shape_and_moments(self):
        _, h, y = _draw_batch(SystemDims(4, 6, 1), 0.5, np.random.default_rng(17), 2000)
        assert h.shape == (2000, 6, 4)
        assert y.shape == (2000, 6)
        assert abs(h.mean()) < 0.01
        np.testing.assert_allclose(np.mean(np.abs(h) ** 2), 1.0, rtol=0.03)

    @pytest.mark.parametrize("m", [1, 2])
    def test_noiseless_draw_is_exact_product(self, m):
        bits, h, y = _draw_batch(SystemDims(3, 3, m), 0.0, np.random.default_rng(18), 16)
        np.testing.assert_array_equal(y, np.einsum("bjk,bk->bj", h, modulate(bits, m)))

    def test_noise_draw_happens_even_at_zero_variance(self):
        """Generator state advances identically for every noise level."""
        dims = SystemDims(3, 3, 1)
        rng_a = np.random.default_rng(19)
        rng_b = np.random.default_rng(19)
        bits_a, h_a, _ = _draw_batch(dims, 0.0, rng_a, 4)
        bits_b, h_b, _ = _draw_batch(dims, 2.0, rng_b, 4)
        np.testing.assert_array_equal(bits_a, bits_b)
        np.testing.assert_array_equal(h_a, h_b)
        np.testing.assert_array_equal(
            rng_a.standard_normal(8), rng_b.standard_normal(8)
        )

    def test_noise_power_matches_variance(self):
        bits, h, y = _draw_batch(SystemDims(2, 2, 1), 3.0, np.random.default_rng(21), 20000)
        noise = y - np.einsum("bjk,bk->bj", h, modulate(bits, 1))
        np.testing.assert_allclose(np.mean(np.abs(noise) ** 2), 3.0, rtol=0.05)


class TestSnrConversion:
    def test_reference_points(self):
        dims = SystemDims(4, 4, 1)
        assert snr_to_noise_variance(0.0, dims) == pytest.approx(4.0)
        assert snr_to_noise_variance(10.0, dims) == pytest.approx(0.4)
        assert snr_to_noise_variance(60.0, dims) == pytest.approx(4e-6)

    def test_scales_with_transmit_antennas(self):
        v2 = snr_to_noise_variance(6.0, SystemDims(2, 4, 1))
        v8 = snr_to_noise_variance(6.0, SystemDims(8, 4, 1))
        assert v8 == pytest.approx(4.0 * v2)
