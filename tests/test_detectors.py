"""Message updates, edge selection, linear front ends, and whole-vector detection."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from mimobp.channel import SystemDims, modulate
from mimobp.detectors import (
    LLR_CLAMP,
    DetectorSpec,
    _mmse_estimate,
    alpha_update,
    bit_gains,
    build_edge_sets,
    detect,
    interference_mean,
    interference_variance,
    message_history,
    rbp_beta_update,
    sbp_beta_update,
)
from mimobp.errors import DimensionTooLargeError, LengthMismatchError
from mimobp.simulator import _draw_batch
from reference_impl import (
    naive_edge_set,
    naive_lump_mean,
    naive_lump_variance,
    naive_mmse,
    naive_rbp_beta,
    naive_sbp_beta,
)

ALL_KINDS = [
    DetectorSpec.ml(),
    DetectorSpec.mmse(),
    DetectorSpec.mmse_sic(),
    DetectorSpec.sbp(5),
    DetectorSpec.rbp(0, 0, 5),
    DetectorSpec.rbp(2, 0, 5),
    DetectorSpec.mmse_rbp(0, 0, 5),
    DetectorSpec.mmse_rbp(1, 0, 5),
]


def _instance(rng, n_tx, n_rx, m=1, sigma2=0.5):
    """Random channel use, one trial of the engine's draw: returns (bits, h, y)."""
    bits, h, y = _draw_batch(SystemDims(n_tx, n_rx, m), sigma2, rng, 1)
    return bits[0], h[0], y[0]


def _random_alpha(rng, n_bits, n_rx, scale=3.0):
    return rng.uniform(-scale, scale, size=(n_bits, n_rx))


class TestDetectorSpec:
    def test_factories_and_labels(self):
        assert DetectorSpec.ml().label == "ML"
        assert DetectorSpec.mmse_sic().label == "MMSE-SIC"
        assert DetectorSpec.mmse_rbp(1, 0, 7).label == "MMSE-RBP"
        assert DetectorSpec.rbp(2, 1, 5).rd1 == 2

    def test_relaxed_property(self):
        assert DetectorSpec.rbp(0, 0, 1).relaxed
        assert DetectorSpec.mmse_rbp(0, 0, 1).relaxed
        assert not DetectorSpec.sbp(1).relaxed
        assert not DetectorSpec.ml().relaxed

    def test_relax_degree(self):
        assert DetectorSpec.rbp(2, 0).relax_degree(1) == 2
        assert DetectorSpec.rbp(2, 1).relax_degree(2) == 5
        assert DetectorSpec.rbp(0, 0).relax_degree(2) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorSpec("ZF")
        with pytest.raises(ValueError):
            DetectorSpec("SBP", iterations=-1)
        with pytest.raises(ValueError):
            DetectorSpec("RBP", rd1=-1)
        with pytest.raises(ValueError):
            DetectorSpec("RBP", rd2=2)


class TestSbpBetaUpdate:
    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 4))
            bits, h, y = _instance(rng, n, n)
            alpha = _random_alpha(rng, n, n)
            got = sbp_beta_update(alpha, h, y, 0.5)
            want = naive_sbp_beta(alpha, h, y, 0.5)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_matches_naive_enumeration_two_bits_per_symbol(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            bits, h, y = _instance(rng, 2, 3, m=2)
            alpha = _random_alpha(rng, 4, 3)
            got = sbp_beta_update(alpha, h, y, 0.7, m=2)
            want = naive_sbp_beta(alpha, h, y, 0.7, m=2)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_sign_symmetry_under_zero_priors(self):
        """Negating y negates every message when the priors are flat."""
        rng = np.random.default_rng(33)
        bits, h, y = _instance(rng, 3, 4)
        alpha = np.zeros((3, 4))
        plus = sbp_beta_update(alpha, h, y, 0.4)
        minus = sbp_beta_update(alpha, h, -y, 0.4)
        np.testing.assert_allclose(minus, -plus, rtol=0, atol=1e-11)

    def test_rejects_nonpositive_noise(self):
        """D_j(s) divides by 2 sigma^2: both the helper and detect() refuse 0."""
        h = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="sigma2 must be > 0"):
            sbp_beta_update(np.zeros((2, 2)), h, np.ones(2, dtype=complex), 0.0)
        with pytest.raises(ValueError, match="sigma2 must be > 0"):
            detect(DetectorSpec.sbp(1), h, np.ones(2, dtype=complex), 0.0)

    def test_enumeration_guard(self):
        n = 25
        h = np.eye(n, dtype=complex)
        with pytest.raises(DimensionTooLargeError):
            sbp_beta_update(np.zeros((n, n)), h, np.zeros(n, dtype=complex), 1.0)


class TestAlphaUpdate:
    def test_sum_minus_self(self):
        rng = np.random.default_rng(34)
        beta = rng.uniform(-2, 2, size=(5, 3))
        alpha = alpha_update(beta)
        for i in range(3):
            for j in range(5):
                want = beta[:, i].sum() - beta[j, i]
                assert alpha[i, j] == pytest.approx(want, rel=1e-12)

    def test_clamps_to_llr_limit(self):
        beta = np.full((4, 2), 20.0)
        alpha = alpha_update(beta)
        assert np.all(alpha == LLR_CLAMP)
        assert np.all(alpha_update(-beta) == -LLR_CLAMP)

    def test_prior_term_is_added_before_clamping(self):
        beta = np.array([[1.0, -1.0], [2.0, 0.5]])
        prior = np.array([0.25, -0.75])
        with_prior = alpha_update(beta, prior)
        np.testing.assert_allclose(
            with_prior, alpha_update(beta) + prior[:, None], rtol=0, atol=1e-12
        )


class TestEdgeSelection:
    def test_strongest_interferers_chosen(self):
        h_row = np.array([0.1, 3.0, 2.0, 0.5])
        sets = build_edge_sets(h_row[None], DetectorSpec.rbp(2, 0, 1))[0]
        np.testing.assert_array_equal(sets[0], [1, 2])
        # for a bit on the strongest symbol, the next two strongest remain
        np.testing.assert_array_equal(sets[1], [2, 3])

    def test_ties_break_toward_smaller_index(self):
        h_row = np.array([1.0, 2.0, 2.0, 2.0])
        sets = build_edge_sets(h_row[None], DetectorSpec.rbp(2, 0, 1))[0]
        np.testing.assert_array_equal(sets[0], [1, 2])

    def test_own_symbol_partner_bits(self):
        h_row = np.array([1.0, 5.0])
        sets = build_edge_sets(h_row[None], DetectorSpec.rbp(0, 1, 1), m=2)[0]
        np.testing.assert_array_equal(sets[0], [1])
        np.testing.assert_array_equal(sets[3], [2])

    def test_full_selection_covers_everything_but_self(self):
        rng = np.random.default_rng(35)
        h_row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for m in (1, 2):
            sets = build_edge_sets(h_row[None], DetectorSpec.rbp(3, 1, 1), m=m)[0]
            for i in range(4 * m):
                assert sorted(sets[i]) == [t for t in range(4 * m) if t != i]

    def test_matches_naive_rule(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            h_row = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            for m in (1, 2):
                for rd1 in range(5):
                    for rd2 in range(2):
                        spec = DetectorSpec.rbp(rd1, rd2, 1)
                        sets = build_edge_sets(h_row[None], spec, m=m)[0]
                        for i in range(5 * m):
                            np.testing.assert_array_equal(
                                sets[i], naive_edge_set(h_row, i, rd1, rd2, m))

    def test_build_edge_sets_agrees_with_per_message_rule(self):
        rng = np.random.default_rng(37)
        h = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        sets = build_edge_sets(h, DetectorSpec.rbp(2, 1, 1), m=2)
        assert sets.shape == (2, 3, 8, 5)
        for b in range(2):
            for j in range(3):
                for i in range(8):
                    np.testing.assert_array_equal(
                        sets[b, j, i], naive_edge_set(h[b, j], i, 2, 1, 2)
                    )

    def test_rd1_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_edge_sets(np.ones((1, 4)), DetectorSpec.rbp(4, 0, 1))


class TestInterferenceLump:
    def test_mean_matches_naive(self):
        rng = np.random.default_rng(38)
        for m in (1, 2):
            h_row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            alpha_col = rng.uniform(-4, 4, size=4 * m)
            for i in (0, 2 * m - 1):
                psi = naive_edge_set(h_row, i, 1, 0, m)
                got = interference_mean(alpha_col, np.array(psi, dtype=int), h_row, i, m)
                want = naive_lump_mean(alpha_col, psi, h_row, i, m)
                assert got == pytest.approx(want, rel=1e-12)

    def test_variance_matches_naive(self):
        rng = np.random.default_rng(39)
        for m in (1, 2):
            h_row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            for i in (0, 3):
                psi = naive_edge_set(h_row, i, 2, 0, m)
                got = interference_variance(np.array(psi, dtype=int), h_row, i, 0.7, m)
                want = naive_lump_variance(psi, h_row, i, 0.7, m)
                assert got == pytest.approx(want, rel=1e-12)

    def test_hand_value(self):
        """Two excluded gains with |h|^2 = 0.25 and 0.16 plus unit noise."""
        h_row = np.array([0.5, 0.4, 7.0])
        psi = np.array([2])
        assert interference_variance(psi, h_row, 0, 1.0) == pytest.approx(1.16)
        assert interference_variance(np.array([1, 2]), h_row, 0, 1.0) == 1.0

    def test_zero_priors_give_zero_mean(self):
        h_row = np.array([1.0 + 1j, 2.0, 3.0])
        u = interference_mean(np.zeros(3), np.array([], dtype=int), h_row, 1)
        assert u == 0.0

    def test_full_selection_lump_is_exactly_noise(self):
        """Nothing lumped: mean identically zero, variance identically sigma^2."""
        rng = np.random.default_rng(40)
        h_row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = np.array([t for t in range(4) if t != 2])
        alpha_col = rng.uniform(-30, 30, size=4)
        assert interference_mean(alpha_col, psi, h_row, 2) == 0.0
        assert interference_variance(psi, h_row, 2, 0.3) == 0.3


class TestRbpBetaUpdate:
    def _messages(self, rng, n, m, rd1, rd2, sigma2=0.6, n_rx=None):
        n_rx = n if n_rx is None else n_rx
        bits, h, y = _instance(rng, n, n_rx, m=m, sigma2=sigma2)
        spec = DetectorSpec.rbp(rd1, rd2, 1)
        alpha = _random_alpha(rng, n * m, n_rx)
        gains = bit_gains(h, m)
        sets = build_edge_sets(h, spec, m)
        n_bits = n * m
        u = np.empty((n_rx, n_bits), dtype=complex)
        s2z = np.empty((n_rx, n_bits))
        for j in range(n_rx):
            for i in range(n_bits):
                u[j, i] = interference_mean(alpha[:, j], sets[j, i], h[j], i, m)
                s2z[j, i] = interference_variance(sets[j, i], h[j], i, sigma2, m)
        return alpha, h, y, sigma2, gains, sets, u, s2z

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(41)
        for m, rd1, rd2 in ((1, 1, 0), (1, 2, 0), (2, 1, 1), (2, 0, 1)):
            alpha, h, y, sigma2, gains, sets, u, s2z = self._messages(rng, 4, m, rd1, rd2)
            got = rbp_beta_update(alpha, gains, sets, u, s2z, y)
            want = naive_rbp_beta(alpha, h, y, sigma2, rd1, rd2, m)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    @given(n_tx=st.integers(1, 4), n_rx=st.integers(1, 4), m=st.sampled_from([1, 2]),
           rd1=st.integers(0, 3), rd2=st.integers(0, 1),
           sigma2=st.one_of(st.just(1e-6), st.floats(1e-6, 10.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_naive_enumeration_property(self, n_tx, n_rx, m, rd1, rd2, sigma2, seed):
        """The expanded score (matched filter plus prior-sum maxima) against
        direct enumeration of |c - I_h -+ g_i|^2, down to sigma^2 = 1e-6."""
        assume(rd1 < n_tx)
        rng = np.random.default_rng(seed)
        alpha, h, y, sigma2, gains, sets, u, s2z = self._messages(
            rng, n_tx, m, rd1, rd2, sigma2, n_rx)
        got = rbp_beta_update(alpha, gains, sets, u, s2z, y)
        want = naive_rbp_beta(alpha, h, y, sigma2, rd1, rd2, m)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_closed_form_agrees_with_general_path(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            alpha, h, y, sigma2, gains, sets, u, s2z = self._messages(rng, 4, 1, 0, 0)
            closed = rbp_beta_update(alpha, gains, sets, u, s2z, y)
            general = rbp_beta_update(alpha, gains, sets, u, s2z, y,
                                      use_closed_form=False)
            assert np.array_equal(closed, general)

    def test_edge_budget_guard(self):
        n_rx, n_bits = 2, 22
        sets = np.zeros((n_rx, n_bits, 21), dtype=np.intp)
        with pytest.raises(DimensionTooLargeError):
            rbp_beta_update(
                np.zeros((n_bits, n_rx)),
                np.ones((n_rx, n_bits), dtype=complex),
                sets,
                np.zeros((n_rx, n_bits), dtype=complex),
                np.ones((n_rx, n_bits)),
                np.zeros(n_rx, dtype=complex),
            )


class TestFullSelectionEquivalence:
    def test_messages_identical_to_standard_bp(self):
        """Keeping every edge explicit reproduces the exhaustive update."""
        rng = np.random.default_rng(43)
        for _ in range(10):
            bits, h, y = _instance(rng, 4, 4, sigma2=0.4)
            sbp = message_history(DetectorSpec.sbp(4), h, y, 0.4)
            rbp = message_history(DetectorSpec.rbp(3, 1, 4), h, y, 0.4)
            for s, r in zip(sbp, rbp):
                np.testing.assert_allclose(r.beta, s.beta, rtol=1e-9, atol=1e-9)
                np.testing.assert_allclose(r.alpha, s.alpha, rtol=1e-9, atol=1e-9)

    def test_two_bits_per_symbol_needs_own_partner_edges(self):
        rng = np.random.default_rng(44)
        bits, h, y = _instance(rng, 3, 3, m=2, sigma2=0.5)
        sbp = detect(DetectorSpec.sbp(3), h, y, 0.5, m=2)
        full = detect(DetectorSpec.rbp(2, 1, 3), h, y, 0.5, m=2)
        np.testing.assert_allclose(full.soft_llrs, sbp.soft_llrs, rtol=1e-9, atol=1e-9)


class TestMmseFrontEnd:
    def test_identity_channel_halves_the_observation(self):
        h = np.eye(2, dtype=complex)
        y = np.array([2.0 + 0j, 0.0 + 0j])
        s_hat, k = _mmse_estimate(h[None], y[None], 1.0)
        np.testing.assert_allclose(s_hat[0], [1.0, 0.0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(k[0], np.eye(2) / 2.0, rtol=0, atol=1e-14)

    def test_pseudo_llr_reference_value(self):
        h = np.eye(2, dtype=complex)
        soft = detect(DetectorSpec.mmse(), h, np.array([2.0 + 0j, 0.0 + 0j]), 1.0).soft_llrs
        assert soft == pytest.approx([4.0, 0.0])

    def test_matches_plain_inverse(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            bits, h, y = _instance(rng, 4, 5, sigma2=0.3)
            s_hat, k = _mmse_estimate(h[None], y[None], 0.3)
            want_s, want_k = naive_mmse(h, y, 0.3)
            np.testing.assert_allclose(s_hat[0], want_s, rtol=0, atol=1e-10)
            np.testing.assert_allclose(k[0], want_k, rtol=0, atol=1e-10)

    def test_vanishing_noise_approaches_zero_forcing(self):
        rng = np.random.default_rng(46)
        h = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        h += 4.0 * np.eye(4)  # keep the system well conditioned
        y = h @ np.array([1, -1, 1, 1], dtype=complex)
        s_hat, _ = _mmse_estimate(h[None], y[None], 1e-12)
        np.testing.assert_allclose(s_hat[0], [1, -1, 1, 1], rtol=0, atol=1e-6)

    def test_two_bits_per_symbol_scaling(self):
        """Both bits of one symbol read their axis scaled by sqrt(2)/mse.

        With h = 1 and sigma^2 = 3, K = 1/4 and s_hat = y/4 = 0.3 + 0.5i.
        """
        h = np.ones((1, 1), dtype=complex)
        soft = detect(DetectorSpec.mmse(), h, np.array([1.2 + 2.0j]), 3.0, m=2).soft_llrs
        want = [2 * np.sqrt(2) * 0.3 / 0.25, 2 * np.sqrt(2) * 0.5 / 0.25]
        assert soft == pytest.approx(want)


class TestDetect:
    def test_noiseless_recovery_exact_kinds(self):
        """Tiny noise: every non-lossy detector recovers the sent bits."""
        rng = np.random.default_rng(47)
        kinds = [
            DetectorSpec.ml(),
            DetectorSpec.mmse(),
            DetectorSpec.mmse_sic(),
            DetectorSpec.sbp(5),
            DetectorSpec.rbp(3, 1, 5),
            DetectorSpec.mmse_rbp(3, 1, 5),
        ]
        for m in (1, 2):
            for _ in range(10):
                bits, h, y = _instance(rng, 4, 4, m=m, sigma2=1e-12)
                for spec in kinds:
                    got = detect(spec, h, y, 1e-12, m=m)
                    np.testing.assert_array_equal(got.hard_bits, bits)

    def test_result_shapes_and_finiteness(self):
        rng = np.random.default_rng(48)
        for m in (1, 2):
            bits, h, y = _instance(rng, 4, 4, m=m, sigma2=0.8)
            for spec in ALL_KINDS:
                res = detect(spec, h, y, 0.8, m=m)
                assert res.hard_bits.shape == (4 * m,)
                assert res.soft_llrs.shape == (4 * m,)
                assert np.all(np.isfinite(res.soft_llrs))
                assert set(np.unique(res.hard_bits)) <= {-1, 1}
                np.testing.assert_array_equal(
                    res.hard_bits, np.where(res.soft_llrs >= 0, 1, -1)
                )

    def test_soft_sign_symmetry(self):
        """Flipping the observation flips every soft output."""
        rng = np.random.default_rng(49)
        bits, h, y = _instance(rng, 4, 4, sigma2=0.6)
        for spec in ALL_KINDS:
            plus = detect(spec, h, y, 0.6).soft_llrs
            minus = detect(spec, h, -y, 0.6).soft_llrs
            np.testing.assert_allclose(minus, -plus, rtol=0, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(50)
        bits, h, y = _instance(rng, 4, 4, sigma2=0.5)
        for spec in ALL_KINDS:
            a = detect(spec, h, y, 0.5)
            b = detect(spec, h, y, 0.5)
            np.testing.assert_array_equal(a.soft_llrs, b.soft_llrs)

    def test_per_iteration_soft_matches_shorter_runs(self):
        """Entry l of the trace equals an independent run with l+1 iterations."""
        rng = np.random.default_rng(51)
        bits, h, y = _instance(rng, 4, 4, sigma2=0.5)
        for make in (DetectorSpec.sbp,
                     lambda l: DetectorSpec.rbp(1, 0, l),
                     lambda l: DetectorSpec.mmse_rbp(0, 0, l)):
            deep = detect(make(4), h, y, 0.5, record_iterations=True)
            assert len(deep.per_iteration_soft) == 4
            for l in range(1, 5):
                shallow = detect(make(l), h, y, 0.5)
                np.testing.assert_allclose(
                    deep.per_iteration_soft[l - 1], shallow.soft_llrs,
                    rtol=1e-12, atol=1e-12,
                )

    def test_zero_iterations_fall_back_to_initial_beliefs(self):
        rng = np.random.default_rng(52)
        bits, h, y = _instance(rng, 4, 4, sigma2=0.5)
        flat = detect(DetectorSpec.rbp(1, 0, 0), h, y, 0.5)
        np.testing.assert_array_equal(flat.soft_llrs, np.zeros(4))
        np.testing.assert_array_equal(flat.hard_bits, np.ones(4, dtype=int))

        seeded = detect(DetectorSpec.mmse_rbp(1, 0, 0), h, y, 0.5)
        want = np.clip(detect(DetectorSpec.mmse(), h, y, 0.5).soft_llrs, -LLR_CLAMP, LLR_CLAMP)
        np.testing.assert_allclose(seeded.soft_llrs, want, rtol=1e-12, atol=1e-15)

    def test_cascade_lump_variance_uses_prior_confidence(self):
        """The cascade shrinks the lump by the per-bit prior variances."""
        rng = np.random.default_rng(53)
        bits, h, y = _instance(rng, 4, 4, sigma2=0.5)
        prior = np.clip(detect(DetectorSpec.mmse(), h, y, 0.5).soft_llrs, -LLR_CLAMP, LLR_CLAMP)
        bit_var = 1.0 - np.tanh(prior / 2.0) ** 2
        alpha = np.tile(prior[:, None], (1, 4))
        want = naive_rbp_beta(alpha, h, y, 0.5, 1, 0, 1, bit_var=bit_var)
        got = message_history(DetectorSpec.mmse_rbp(1, 0, 1), h, y, 0.5)[0].beta
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_cascade_prior_persists_in_alpha_updates(self):
        rng = np.random.default_rng(54)
        bits, h, y = _instance(rng, 4, 4, sigma2=0.5)
        prior = np.clip(detect(DetectorSpec.mmse(), h, y, 0.5).soft_llrs, -LLR_CLAMP, LLR_CLAMP)
        state = message_history(DetectorSpec.mmse_rbp(0, 0, 3), h, y, 0.5)
        for st in state:
            want = alpha_update(st.beta, np.asarray(prior))
            np.testing.assert_allclose(st.alpha, want, rtol=1e-12, atol=1e-12)

    def test_observation_length_checked(self):
        h = np.eye(3, dtype=complex)
        with pytest.raises(LengthMismatchError):
            detect(DetectorSpec.ml(), h, np.zeros(4, dtype=complex), 1.0)

    def test_enumeration_guard_on_wide_systems(self):
        n = 13  # 26 bits at two per symbol
        h = np.eye(n, dtype=complex)
        y = np.zeros(n, dtype=complex)
        with pytest.raises(DimensionTooLargeError):
            detect(DetectorSpec.sbp(1), h, y, 1.0, m=2)

    def test_size_rule_counts_the_configuration_table(self):
        """At one trial the table of 2^24 configurations of 24 bits dominates:
        about 10 GiB to build, so the size rule refuses before building it."""
        tracemalloc.start()
        try:
            with pytest.raises(DimensionTooLargeError, match=r"2\^24 configurations"):
                detect(DetectorSpec.ml(), np.ones((1, 24)), np.ones(1), 1.0)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20   # nothing was built
        finally:
            tracemalloc.stop()

    def test_sic_orders_by_error_variance(self):
        """A much cleaner stream is sliced first and cancelled exactly."""
        rng = np.random.default_rng(55)
        h = np.array([[10.0, 0.7], [0.0, 0.9]], dtype=complex)
        bits = np.array([1, -1])
        y = h @ modulate(bits, 1)
        res = detect(DetectorSpec.mmse_sic(), h, y, 0.2)
        np.testing.assert_array_equal(res.hard_bits, bits)
        # the strong stream's pseudo-LLR reflects its tiny error variance
        assert abs(res.soft_llrs[0]) > abs(res.soft_llrs[1])

    def test_message_history_lengths_and_clamp(self):
        rng = np.random.default_rng(56)
        bits, h, y = _instance(rng, 4, 4, sigma2=0.4)
        hist = message_history(DetectorSpec.sbp(6), h, y, 0.4)
        assert len(hist) == 6
        for st in hist:
            assert st.alpha.shape == (4, 4)
            assert st.beta.shape == (4, 4)
            assert np.all(np.abs(st.alpha) <= LLR_CLAMP)
            assert np.all(np.isfinite(st.beta))


class TestNumericalRobustness:
    def test_message_update_fuzz_stays_finite(self):
        """A million randomized message entries never go non-finite."""
        rng = np.random.default_rng(57)
        beta = rng.uniform(-1e6, 1e6, size=(125, 100, 80))
        for block in beta:
            assert np.all(np.isfinite(alpha_update(block)))

    def test_detection_fuzz_extreme_noise_levels(self):
        rng = np.random.default_rng(58)
        sigmas = [1e-12, 1e-6, 1e-2, 1.0, 1e3]
        specs = [
            DetectorSpec.ml(),
            DetectorSpec.mmse(),
            DetectorSpec.mmse_sic(),
            DetectorSpec.sbp(3),
            DetectorSpec.rbp(0, 0, 3),
            DetectorSpec.rbp(2, 1, 3),
            DetectorSpec.mmse_rbp(1, 0, 3),
        ]
        for sigma2 in sigmas:
            for m in (1, 2):
                for _ in range(12):
                    bits, h, y = _instance(rng, 3, 3, m=m, sigma2=sigma2)
                    for spec in specs:
                        res = detect(spec, h, y, sigma2, m=m)
                        assert np.all(np.isfinite(res.soft_llrs)), (spec, sigma2)
