"""Error-rate bookkeeping, soft-output information measure, operation counts."""
import numpy as np
import pytest

from mimobp.errors import LengthMismatchError
from mimobp.metrics import (
    Z95,
    BerAccumulator,
    OpCounts,
    ami,
    complexity_counts,
)
from reference_impl import naive_ami, naive_wilson

# mean of 1 - log2(1 + e^{-b L}) over b*L = (+30, -30), frozen before the
# vectorized implementation existed
MIXED_CERTAINTY_VALUE = -20.640425613334585


class TestBerAccumulator:
    def test_counts_mismatches(self):
        assert BerAccumulator(4, 2).ber == 0.5

    def test_empty_rate_is_zero(self):
        assert BerAccumulator().ber == 0.0


class TestWilsonInterval:
    def test_empty_is_vacuous(self):
        assert BerAccumulator().wilson_interval() == (0.0, 1.0)

    def test_matches_direct_formula(self):
        for errors, total in ((0, 100), (1, 100), (50, 100), (500, 12345)):
            got = BerAccumulator(total, errors).wilson_interval()
            want = naive_wilson(errors, total)
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            assert got[1] == pytest.approx(want[1], rel=1e-12)

    def test_brackets_point_estimate_and_stays_in_unit_interval(self):
        rng = np.random.default_rng(60)
        for _ in range(200):
            total = int(rng.integers(1, 10_000))
            errors = int(rng.integers(0, total + 1))
            acc = BerAccumulator(total, errors)
            lo, hi = acc.wilson_interval()
            assert 0.0 <= lo <= acc.ber <= hi <= 1.0

    def test_shrinks_with_sample_size(self):
        narrow = BerAccumulator(100_000, 1000).wilson_interval()
        wide = BerAccumulator(1_000, 10).wilson_interval()
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_z_constant(self):
        assert Z95 == pytest.approx(1.959963984540054, abs=0)


class TestAmi:
    def test_uninformative_is_exactly_zero(self):
        assert ami(np.zeros(8), np.ones(8)) == 0.0

    def test_perfect_knowledge_approaches_one(self):
        llrs = np.full(16, 30.0)
        bits = np.ones(16)
        assert ami(llrs, bits) == pytest.approx(1.0, abs=1e-8)

    def test_mixed_certainty_frozen_value(self):
        got = ami(np.array([30.0, -30.0]), np.array([1, 1]))
        assert got == pytest.approx(MIXED_CERTAINTY_VALUE, abs=1e-12)

    def test_exponent_clamp_bounds_the_penalty(self):
        extreme = ami(np.array([-1e9]), np.array([1]))
        assert extreme == pytest.approx(1.0 - np.log2(1.0 + np.exp(30.0)), abs=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(61)
        soft = rng.uniform(-50, 50, size=400)
        bits = rng.choice([-1, 1], size=400)
        assert ami(soft, bits) == pytest.approx(naive_ami(soft, bits), rel=1e-12)

    def test_flipping_bits_mirrors_the_argument(self):
        rng = np.random.default_rng(62)
        soft = rng.uniform(-10, 10, size=100)
        bits = rng.choice([-1, 1], size=100)
        assert ami(soft, -bits) == pytest.approx(ami(-soft, bits), rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            ami(np.ones(3), np.ones(2))


class TestComplexityCounts:
    def test_frozen_reference_row_values(self):
        """Hand-evaluated per-vector counts at Nt = Nr = 4, M = 1, L = 5."""
        expect = {
            ("ML", 0, 0): OpCounts(260, 320, 0),
            ("SBP", 0, 0): OpCounts(256, 1136, 1120),
            ("RBP", 1, 0): OpCounts(48, 388, 160),
            ("MMSE_RBP", 1, 0): OpCounts(112, 452, 166),
            ("RBP00", 0, 0): OpCounts(32, 1232, 0),
            ("EB", 1, 0): OpCounts(48, 388, 160),
        }
        for (kind, rd1, rd2), want in expect.items():
            assert complexity_counts(kind, 4, 4, 1, 5, rd1, rd2) == want, kind

    def test_eb_counts_are_the_published_eb_formulas(self):
        """EB runs RBP's branch at rd2 = 1: the published EB closed forms,
        which ignore rd2, over Nt, Nr = 1..8, M = 1, 2, L = 1, 3, 5, every rd1."""
        for n_tx in range(1, 9):
            for n_rx in range(1, 9):
                for m in (1, 2):
                    for l in (1, 3, 5):
                        for rd1 in range(n_tx):
                            mult = (2 ** (m * rd1 + m) * (rd1 + 1) * n_rx
                                    + 2**m * (n_tx - rd1 - 1) * n_rx)
                            add = mult + (2 ** (m * rd1 + m - 1) * (rd1 + 1) + 2 ** (m - 1)
                                          + 3 * n_tx) * m * l * n_rx
                            comp = (2 ** (m * rd1 + m) - 2) * m * l * n_tx * n_rx
                            for rd2 in (0, 1):
                                got = complexity_counts("EB", n_tx, n_rx, m, l, rd1, rd2)
                                assert got == OpCounts(mult, add, comp)

    def test_published_headline_multiplications(self):
        assert complexity_counts("SBP", 4, 4, 1, 5).multiplications == 256
        assert complexity_counts("ML", 4, 4, 1, 5).multiplications == 260
        assert complexity_counts("RBP", 4, 4, 1, 5, 0, 0).multiplications == 32

    def test_full_selection_collapses_mult_and_comparisons(self):
        """Keeping all edges matches the exhaustive scheme's mult/comp counts."""
        for n_tx in range(1, 9):
            for n_rx in range(1, 9):
                for m in (1, 2):
                    for l in (1, 5):
                        sbp = complexity_counts("SBP", n_tx, n_rx, m, l)
                        rbp = complexity_counts("RBP", n_tx, n_rx, m, l,
                                                n_tx - 1, 1)
                        assert rbp.multiplications == sbp.multiplications
                        assert rbp.comparisons == sbp.comparisons

    def test_full_selection_addition_gap_is_structural(self):
        """The relaxed adder count differs by exactly 2^(M-1) * M * L * Nr."""
        for n_tx in (2, 4, 8):
            for n_rx in (2, 5, 8):
                for m in (1, 2):
                    for l in (1, 5):
                        sbp = complexity_counts("SBP", n_tx, n_rx, m, l)
                        rbp = complexity_counts("RBP", n_tx, n_rx, m, l,
                                                n_tx - 1, 1)
                        gap = rbp.additions - sbp.additions
                        assert gap == 2 ** (m - 1) * m * l * n_rx

    def test_cascade_adds_filter_and_ordering_costs(self):
        base = complexity_counts("RBP", 6, 5, 2, 3, 2, 1)
        plus = complexity_counts("MMSE_RBP", 6, 5, 2, 3, 2, 1)
        assert plus.multiplications == base.multiplications + 6**3
        assert plus.additions == base.additions + 6**3
        assert plus.comparisons == base.comparisons + 6 * 5 // 2

    def test_counts_scale_linearly_with_iterations(self):
        one = complexity_counts("RBP", 4, 4, 1, 1, 1, 0)
        five = complexity_counts("RBP", 4, 4, 1, 5, 1, 0)
        assert five.comparisons == 5 * one.comparisons
        per_iter = five.additions - one.additions
        assert per_iter == 4 * (one.additions - one.multiplications)

    def test_validation(self):
        with pytest.raises(ValueError):
            complexity_counts("ZF", 4, 4, 1, 5)
        with pytest.raises(ValueError):
            complexity_counts("RBP", 4, 4, 1, 5, rd1=4)
        with pytest.raises(ValueError):
            complexity_counts("RBP", 4, 4, 1, 5, rd2=3)
        with pytest.raises(ValueError):
            complexity_counts("SBP", 4, 4, 1, 0)
