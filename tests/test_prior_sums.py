"""The prior-sum helper against its oracle, bit for bit, and near np.einsum.

detectors._prior_sums builds the SBP priors (sum of alpha[t] over the bits
t with x_t = +1, for every joint configuration) and the relaxed priors (the
same over the explicit edges of every hypothesis) from one doubling table
over the even bits and one over the odd bits. The kernels pinned
elsewhere are exact only if it returns reference_impl.prior_sums_oracle's
floats on the layouts the kernels pass, so these tests compare int64 views,
which also tell +0 from -0. n = 1..18 runs an empty odd table (n = 1),
equal tables and an even table one bit longer. The einsum the helper
replaced sums 8 or more terms in another order, so it must agree to within
rounding only.
"""
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from mimobp.detectors import _prior_sums, alpha_update
from reference_impl import config_table_oracle, prior_sums_oracle


def _xpos(n):
    return (config_table_oracle(1, n)[0] > 0).astype(np.float64)


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _assert_within_rounding(got, want, terms, axis):
    """|got - want| <= 1e-12 sum of |terms|: terms of mixed sign cancel, so a
    bound relative to the sum itself breaks down near 0."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(terms).sum(axis=axis))


def _signed_zeros(alpha, rng):
    """alpha with about a quarter of its entries set to +0 or -0, in place."""
    pick = rng.random(alpha.shape) < 0.25
    alpha[pick] = np.where(rng.random(pick.sum()) < 0.5, 0.0, -0.0)
    return alpha


def _relaxed_layout(alpha, sets):
    """a_sel (B, Nr, Nbits, R) as the relaxed step gets it: from np.take."""
    b, n_bits, n_rx = alpha.shape
    flat = np.arange(b * n_rx).reshape(b, n_rx, 1, 1) * n_bits + sets
    return np.take(alpha.transpose(0, 2, 1), flat)


def _sbp_sums(alpha):
    out = np.empty((1 << alpha.shape[1], alpha.shape[0], alpha.shape[2]))
    return _prior_sums(alpha.transpose(1, 0, 2), out)


def _relaxed_sums(a_sel):
    """As the relaxed step calls it: the tables live in a stale work buffer."""
    out = np.empty((1 << a_sel.shape[-1],) + a_sel.shape[:-1])
    return _prior_sums(np.moveaxis(a_sel, -1, 0), out, work=np.full(out.shape, np.nan))


def _sbp_oracle(alpha):
    return np.moveaxis(prior_sums_oracle(alpha.transpose(0, 2, 1)), -1, 0)


def _relaxed_oracle(a_sel):
    return np.moveaxis(prior_sums_oracle(a_sel), -1, 0)


def _sbp_alpha(n):
    rng = np.random.default_rng(n)
    alpha = alpha_update(rng.uniform(-20.0, 20.0, (2, 3, n)))  # as the SBP step gets it
    assert n == 1 or alpha.strides[1] == alpha.itemsize       # t contiguous
    return _signed_zeros(alpha, rng)


def _relaxed_terms(n):
    rng = np.random.default_rng(100 + n)
    alpha = _signed_zeros(alpha_update(rng.uniform(-20.0, 20.0, (2, 2, 5))), rng)
    return _relaxed_layout(alpha, rng.integers(0, 5, (2, 2, 3, n)))


@pytest.mark.parametrize("n", range(1, 19))
def test_sbp_priors_equal_the_oracle(n):
    alpha = _sbp_alpha(n)
    _assert_same_bits(_sbp_sums(alpha), _sbp_oracle(alpha))


@pytest.mark.parametrize("n", range(1, 19))
def test_relaxed_priors_equal_the_oracle(n):
    a_sel = _relaxed_terms(n)
    _assert_same_bits(_relaxed_sums(a_sel), _relaxed_oracle(a_sel))


@pytest.mark.parametrize("n", range(1, 19))
def test_priors_are_within_rounding_of_einsum(n):
    alpha = _sbp_alpha(n)
    _assert_within_rounding(_sbp_sums(alpha), np.einsum("ct,btj->cbj", _xpos(n), alpha),
                            alpha, axis=1)
    a_sel = _relaxed_terms(n)
    _assert_within_rounding(_relaxed_sums(a_sel), np.einsum("bjir,hr->hbji", a_sel, _xpos(n)),
                            a_sel, axis=-1)


_TERMS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-1e150, 1e150, allow_nan=False))


@given(n=st.integers(1, 18), data=st.data())
def test_priors_equal_the_oracle_property(n, data):
    beta = data.draw(arrays(np.float64, (2, 2, n), elements=_TERMS))
    alpha = beta.transpose(0, 2, 1)                      # t contiguous, unclamped
    _assert_same_bits(_sbp_sums(alpha), _sbp_oracle(alpha))
    a_sel = beta[:, :, None, :]                          # r contiguous
    _assert_same_bits(_relaxed_sums(a_sel), _relaxed_oracle(a_sel))


@pytest.mark.parametrize("n", [3, 10, 17])
def test_result_does_not_depend_on_the_terms_layout(n):
    terms = alpha_update(np.random.default_rng(n).standard_normal((3, 2, n))).transpose(1, 0, 2)
    dense = np.ascontiguousarray(terms)
    assert dense.strides != terms.strides
    _assert_same_bits(_prior_sums(dense, np.empty((1 << n, 3, 2))),
                      _prior_sums(terms, np.empty((1 << n, 3, 2))))
