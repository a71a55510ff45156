"""The hypothesis-major relaxed kernel against the trial-major loop, bit for bit,
and full relaxation against standard BP.

The batched engine lays the relaxed scores out hypothesis-first and takes
both max-marginals over contiguous slabs. Max is exact and every other
operation keeps its operands and order, so wherever something is lumped, RBP
and MMSE-RBP soft outputs must equal
reference_impl.batched_rbp_trial_major_oracle exactly, on every iteration,
not just to a tolerance. The oracle's two older arithmetics, both with
np.einsum's prior sums, must agree to 1e-9: per-hypothesis A +- C scores,
and the einsum era's dense lump mask, unexpanded scores and solve-based
cascade prior.
Where nothing is lumped (R_D = Nbits - 1) the engine runs SBP's step, so RBP
must equal SBP exactly and MMSE-RBP the SBP mask oracle with the cascade
prior. The relaxed kernel is still driven directly at that limit: it must
equal the trial-major oracle exactly and SBP to 1e-9.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from mimobp import simulator
from mimobp.channel import SystemDims, snr_to_noise_variance
from mimobp.detectors import (
    DetectorSpec,
    _ascending_sum,
    _lump,
    _lump_mean,
    _lump_variance,
    _relaxed_step,
    alpha_update,
    bit_gains,
    build_edge_sets,
    interference_mean,
    interference_variance,
    message_history,
)
from mimobp.simulator import (
    BATCH_TRIALS,
    _batch_rng,
    _bp_prior,
    _draw_batch,
    _engine_bp,
    _run_batch,
)
from reference_impl import (
    batched_rbp_trial_major_oracle,
    batched_sbp_mask_oracle,
    cascade_prior_oracle,
    lump_sums_oracle,
    naive_edge_set,
    naive_lump_mean,
    naive_lump_variance,
)

KINDS = ("RBP", "MMSE_RBP")

# the engine's earlier arithmetics, kept in the oracle as 1e-9 checks
OLDER_ARITHMETIC = ("a_pm_c", "einsum")


def _draw(n_tx, n_rx, m, sigma2, count, batch_index=0):
    _, h, y = _draw_batch(SystemDims(n_tx, n_rx, m), sigma2,
                          _batch_rng(2011, 8.0, batch_index), count)
    return h, y


def _assert_equal_every_iteration(got, want, iterations):
    assert len(got) == len(want) == iterations
    for depth, (g, w) in enumerate(zip(got, want), start=1):
        assert np.array_equal(g, w), f"iteration {depth}: max diff {np.abs(g - w).max()}"


def _assert_close_every_iteration(got, want, iterations):
    assert len(got) == len(want) == iterations
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-9)


def _assert_bit_identical(kind, n_tx, n_rx, m, rd1, rd2, sigma2, iterations, count,
                          batch_index=0, degrade=None):
    h, y = _draw(n_tx, n_rx, m, sigma2, count, batch_index)
    if degrade is not None:
        h = degrade(h.copy())
    spec = DetectorSpec(kind, iterations=iterations, rd1=rd1, rd2=rd2)
    assert not spec.exhaustive(n_tx, m)
    got = _engine_bp(spec, h, y, sigma2, m, tuple(range(1, iterations + 1)), {})
    oracle = (h, y, sigma2, m, rd1, rd2, iterations, kind == "MMSE_RBP")
    _assert_equal_every_iteration(got, batched_rbp_trial_major_oracle(*oracle), iterations)
    for older in OLDER_ARITHMETIC:
        _assert_close_every_iteration(got, batched_rbp_trial_major_oracle(
            *oracle, arithmetic=older), iterations)


def _assert_full_relaxation_is_sbp(kind, n_tx, n_rx, m, rd2, sigma2, iterations, count,
                                   batch_index=0):
    """RBP(Nt-1,rd2) equals the SBP engine; MMSE-RBP(Nt-1,rd2) equals the SBP
    mask oracle seeded and fed by the cascade prior. Both bit for bit."""
    h, y = _draw(n_tx, n_rx, m, sigma2, count, batch_index)
    spec = DetectorSpec(kind, iterations=iterations, rd1=n_tx - 1, rd2=rd2)
    assert spec.exhaustive(n_tx, m)
    got = _engine_bp(spec, h, y, sigma2, m, tuple(range(1, iterations + 1)), {})
    if kind == "RBP":
        want = _engine_bp(DetectorSpec.sbp(iterations), h, y, sigma2, m,
                          tuple(range(1, iterations + 1)), {})
    else:
        want = batched_sbp_mask_oracle(h, y, sigma2, m, iterations,
                                       prior=cascade_prior_oracle(h, y, sigma2, m))
        solved = batched_sbp_mask_oracle(h, y, sigma2, m, iterations,
                                         prior=cascade_prior_oracle(h, y, sigma2, m, solve=True))
        _assert_close_every_iteration(got, solved, iterations)
    _assert_equal_every_iteration(got, want, iterations)


# shapes whose relaxed specs lump something (R_D < Nbits - 1)
CASES = (
    [(n, n, 1, rd1, 0) for n in (4, 8) for rd1 in (0, 1, 2)]
    + [(4, 4, 2, rd1, rd2) for rd1, rd2 in ((0, 1), (1, 0), (2, 0), (1, 1), (2, 1))]
    + [(2, 5, 1, 0, 0)]
    + [(5, 3, 1, rd1, 0) for rd1 in (0, 1)]
)

# full relaxation, (n_tx, n_rx, m, rd2) with rd1 = Nt-1: at BPSK rd2 adds no
# edge, so RBP(Nt-1,0) lumps nothing too
FULL = [(n_tx, n_rx, m, rd2)
        for n_tx, n_rx, m in ((4, 4, 1), (8, 8, 1), (4, 4, 2), (2, 5, 1), (5, 3, 1))
        for rd2 in ((0, 1) if m == 1 else (1,))]


@pytest.mark.parametrize("n_tx,n_rx,m,rd1,rd2", CASES, ids=lambda v: str(v))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("snr_db", [0.0, 12.0])
def test_engine_equals_trial_major_oracle_on_every_iteration(kind, n_tx, n_rx, m, rd1, rd2,
                                                             snr_db):
    sigma2 = snr_to_noise_variance(snr_db, SystemDims(n_tx, n_rx, m))
    for batch_index in range(2):
        _assert_bit_identical(kind, n_tx, n_rx, m, rd1, rd2, sigma2, 5, 64, batch_index)


@pytest.mark.parametrize("n,kind,rd1,rd2", [(5, "RBP", 4, 0), (6, "MMSE_RBP", 4, 1)],
                         ids=["5x5-RBP(4,0)", "6x6-MMSE_RBP(4,1)"])
@pytest.mark.parametrize("snr_db", [0.0, 12.0])
def test_engine_equals_trial_major_oracle_with_eight_or_more_edges(n, kind, rd1, rd2, snr_db):
    """QPSK, R_D = 8 and 9: the prior sums fold 4 even and 4 odd bits, and 5 and 4."""
    sigma2 = snr_to_noise_variance(snr_db, SystemDims(n, n, 2))
    _assert_bit_identical(kind, n, n, 2, rd1, rd2, sigma2, 4, 32)


def _duplicate_column(h):
    h[:, :, 1] = h[:, :, 0]
    return h


def _zero_column(h):
    h[:, :, 0] = 0.0
    return h


def _zero_row(h):
    h[:, 0, :] = 0.0
    return h


@pytest.mark.parametrize("degrade", [_duplicate_column, _zero_column, _zero_row],
                         ids=["duplicate-column", "zero-column", "zero-row"])
@pytest.mark.parametrize("n_tx,n_rx,m,rd1,rd2",
                         [(4, 4, 1, 2, 0), (5, 5, 1, 3, 0), (4, 4, 2, 1, 1), (4, 4, 2, 2, 1)],
                         ids=lambda v: str(v))
@pytest.mark.parametrize("kind", KINDS)
def test_engine_equals_trial_major_oracle_on_degenerate_channels(kind, n_tx, n_rx, m, rd1, rd2,
                                                                 degrade):
    """R_D >= 2 where hypotheses' interference sums cancel to exactly 0 (two
    equal gains), hold zero gains (a silent transmit antenna, whose own-symbol
    partner edges the QPSK cases keep) or are all 0 (a silent receive
    antenna): the set-up builds half the hypotheses and reads the rest
    backwards, which must hold at these zeros too."""
    sigma2 = snr_to_noise_variance(12.0, SystemDims(n_tx, n_rx, m))
    _assert_bit_identical(kind, n_tx, n_rx, m, rd1, rd2, sigma2, 5, 64, degrade=degrade)


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
    assume(rd1 < n_tx and rd1 * m + rd2 * (m - 1) <= min(6, n_tx * m - 2))
    _assert_bit_identical(kind, n_tx, n_rx, m, rd1, rd2, sigma2, iterations, 16)


@pytest.mark.parametrize("n_tx,n_rx,m,rd2", FULL, ids=lambda v: str(v))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("snr_db", [0.0, 12.0, None], ids=["0dB", "12dB", "sigma2=1e-12"])
def test_full_relaxation_equals_sbp(kind, n_tx, n_rx, m, rd2, snr_db):
    """The RBP(Nt-1,1) = SBP guard rail, on every iteration and at vanishing noise."""
    dims = SystemDims(n_tx, n_rx, m)
    sigma2 = 1e-12 if snr_db is None else snr_to_noise_variance(snr_db, dims)
    for batch_index in range(2):
        _assert_full_relaxation_is_sbp(kind, n_tx, n_rx, m, rd2, sigma2, 5, 64, batch_index)


@given(
    kind=st.sampled_from(KINDS),
    n_tx=st.integers(1, 4),
    n_rx=st.integers(1, 6),
    m=st.sampled_from([1, 2]),
    rd2=st.integers(0, 1),
    sigma2=st.one_of(st.just(1e-6), st.floats(1e-4, 10.0)),
    iterations=st.integers(1, 4),
)
def test_full_relaxation_equals_sbp_property(kind, n_tx, n_rx, m, rd2, sigma2, iterations):
    rd2 = 1 if m == 2 else rd2
    _assert_full_relaxation_is_sbp(kind, n_tx, n_rx, m, rd2, sigma2, iterations, 16)


def _relaxed_kernel_softs(spec, h, y, sigma2, m):
    """Soft outputs of _relaxed_step's own flooding loop: edge sets, lump
    variances, soft cancellation and alpha updates, all computed."""
    n_rx = h.shape[1]
    prior = _bp_prior(spec, h, y, sigma2, m, {})
    gains = bit_gains(h, m)
    sets = build_edge_sets(h, spec, m)
    lump = _lump(sets)
    power = np.abs(gains) ** 2
    if prior is not None:
        power = power * (1.0 - np.tanh(prior / 2.0) ** 2)[:, None, :]
    step = _relaxed_step(gains, sets, np.maximum(lump(power), 0.0) + sigma2, y)
    alpha = (np.zeros((h.shape[0], gains.shape[-1], n_rx)) if prior is None
             else np.repeat(prior[:, :, None], n_rx, axis=2))
    softs = []
    for _ in range(spec.iterations):
        beta = step(alpha, lump(gains * np.tanh(alpha / 2.0).transpose(0, 2, 1)))
        alpha = alpha_update(beta, prior)
        softs.append(beta.sum(axis=-2))
    return softs


@pytest.mark.parametrize("n_tx,n_rx,m,rd2", FULL, ids=lambda v: str(v))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("snr_db", [0.0, 12.0])
def test_relaxed_kernel_at_full_relaxation(kind, n_tx, n_rx, m, rd2, snr_db):
    """The engine takes SBP's step here, so drive _relaxed_step itself with the
    full edge sets: bit for bit the trial-major oracle, within 1e-9 of its
    older arithmetics, and within 1e-9 of the engine's SBP-step soft outputs
    on every iteration."""
    sigma2 = snr_to_noise_variance(snr_db, SystemDims(n_tx, n_rx, m))
    h, y = _draw(n_tx, n_rx, m, sigma2, 64)
    spec = DetectorSpec(kind, iterations=5, rd1=n_tx - 1, rd2=rd2)
    got = _relaxed_kernel_softs(spec, h, y, sigma2, m)
    oracle = (h, y, sigma2, m, n_tx - 1, rd2, 5, kind == "MMSE_RBP")
    _assert_equal_every_iteration(got, batched_rbp_trial_major_oracle(*oracle), 5)
    for older in OLDER_ARITHMETIC:
        _assert_close_every_iteration(got, batched_rbp_trial_major_oracle(
            *oracle, arithmetic=older), 5)
    _assert_close_every_iteration(got, _engine_bp(spec, h, y, sigma2, m, (1, 2, 3, 4, 5), {}), 5)


@pytest.mark.parametrize("n,m,rd1,rd2", [(16, 1, 2, 0), (32, 1, 1, 0), (16, 2, 1, 1)],
                         ids=["16x16-BPSK-(2,0)", "32x32-BPSK-(1,0)", "16x16-QPSK-(1,1)"])
def test_lump_matches_naive_sums_in_large_mimo(n, m, rd1, rd2):
    """The total-minus-kept lump against the per-message sums over the lumped
    bits, mean and variance, with and without a cascade's bit variances."""
    sigma2 = snr_to_noise_variance(6.0, SystemDims(n, n, m))
    h, _ = _draw(n, n, m, sigma2, 2)
    rng = np.random.default_rng(47)
    alpha = rng.uniform(-8.0, 8.0, size=(2, n * m, n))
    bit_var = rng.uniform(0.0, 1.0, size=(2, n * m))
    gains = bit_gains(h, m)
    sets = build_edge_sets(h, DetectorSpec.rbp(rd1, rd2), m)
    lump = _lump(sets)
    u = lump(gains * np.tanh(alpha / 2.0).transpose(0, 2, 1))
    power = np.abs(gains) ** 2
    plain = np.maximum(lump(power), 0.0) + sigma2
    informed = np.maximum(lump(power * bit_var[:, None, :]), 0.0) + sigma2
    for b in range(2):
        for j in range(n):
            for i in range(n * m):
                psi = list(sets[b, j, i])
                assert u[b, j, i] == pytest.approx(
                    naive_lump_mean(alpha[b, :, j], psi, h[b, j], i, m), rel=1e-12, abs=1e-12)
                assert plain[b, j, i] == pytest.approx(
                    naive_lump_variance(psi, h[b, j], i, sigma2, m), rel=1e-12)
                assert informed[b, j, i] == pytest.approx(
                    naive_lump_variance(psi, h[b, j], i, sigma2, m, bit_var[b]), rel=1e-12)


# (n, m, rd1, rd2, R_D): every path of _lump, R_D = 0, 1 and >= 2, at BPSK and QPSK
LUMP_PATHS = pytest.mark.parametrize(
    "n,m,rd1,rd2,rd", [(4, 1, 0, 0, 0), (3, 2, 0, 0, 0), (4, 1, 1, 0, 1),
                       (3, 2, 0, 1, 1), (4, 1, 2, 0, 2), (3, 2, 1, 0, 2)],
    ids=["BPSK-(0,0)", "QPSK-(0,0)", "BPSK-(1,0)", "QPSK-(0,1)", "BPSK-(2,0)", "QPSK-(1,0)"])


@LUMP_PATHS
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_lump_is_the_oracle_bit_for_bit(n, m, rd1, rd2, rd, dtype):
    """Every path of _lump, R_D = 0 (no gather), R_D = 1 (one gather plus
    the bit's own term) and R_D >= 2 (the sorted chain), gives the oracle's
    floats, signed zeros included: a quarter of the terms are +0 or -0."""
    h, _ = _draw(n, n, m, 0.5, 32)
    sets = build_edge_sets(h, DetectorSpec.rbp(rd1, rd2), m)
    assert sets.shape[-1] == rd
    rng = np.random.default_rng(61)
    terms = rng.standard_normal(sets.shape[:-1])
    if dtype is np.complex128:
        terms = terms + 1j * rng.standard_normal(sets.shape[:-1])
    zeros = rng.uniform(size=terms.shape) < 0.25
    terms[zeros] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zeros)))
    if dtype is np.complex128:
        terms.imag[rng.uniform(size=terms.shape) < 0.25] = -0.0
    got, want = _lump(sets)(terms), lump_sums_oracle(terms, sets)
    assert got.tobytes() == want.tobytes()   # np.array_equal, and the sign of every zero


@LUMP_PATHS
def test_message_views_are_the_batch_lump_bit_for_bit(n, m, rd1, rd2, rd):
    """interference_mean and interference_variance, each a batch of one,
    give the floats of the entries of _lump_mean and _lump_variance over a
    whole batch, signed zeros included: a quarter of the alphas are +0 or
    -0, and one gain of every trial is 0."""
    trials, sigma2 = 8, 0.5
    h, _ = _draw(n, n, m, sigma2, trials)
    h[np.arange(trials), np.arange(trials) % n, np.arange(trials) % n] = 0.0
    rng = np.random.default_rng(63)
    alpha = rng.uniform(-8.0, 8.0, size=(trials, n * m, n))
    zeros = rng.uniform(size=alpha.shape) < 0.25
    alpha[zeros] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zeros)))
    gains, sets = bit_gains(h, m), build_edge_sets(h, DetectorSpec.rbp(rd1, rd2), m)
    assert sets.shape[-1] == rd
    lump = _lump(sets)
    u, s2z = _lump_mean(lump, gains, alpha), _lump_variance(lump, gains, sigma2)
    for b, j, i in np.ndindex(sets.shape[:-1]):
        got_u = np.complex128(interference_mean(alpha[b, :, j], sets[b, j, i], h[b, j], i, m))
        got_v = np.float64(interference_variance(sets[b, j, i], h[b, j], i, sigma2, m))
        assert got_u.tobytes() == u[b, j, i].tobytes()
        assert got_v.tobytes() == s2z[b, j, i].tobytes()


@pytest.mark.parametrize("trials", [1, 512])
def test_column_sums_follow_the_factor_order_bit_for_bit(trials):
    """_ascending_sum over the factors is beta.sum(axis=-2), signed zeros
    included (a factor column of -0 sums to +0), wherever numpy adds the
    factors in order: every shape but Nbits = 1 with Nr >= 8."""
    rng = np.random.default_rng(62)
    shapes = [(n_rx, 1) for n_rx in range(1, 8)] + [
        (n_rx, n_bits) for n_rx in (1, 2, 4, 8, 9, 16, 32) for n_bits in (2, 3, 8, 16, 64)]
    for n_rx, n_bits in shapes:
        beta = rng.standard_normal((trials, n_rx, n_bits))
        beta *= 10.0 ** rng.integers(-8, 8, (trials, 1, 1))
        beta[rng.uniform(size=beta.shape) < 0.3] = -0.0
        assert _ascending_sum(beta, -2).tobytes() == beta.sum(axis=-2).tobytes(), (n_rx, n_bits)


def test_last_iteration_forms_no_alpha(monkeypatch):
    """A 5-iteration RBP(1,0) lane forms the 4 alphas its later iterations
    read, not a fifth; every depth's soft output is the column sum of
    message_history's beta at that depth."""
    spec = DetectorSpec.rbp(1, 0, iterations=5)
    sigma2 = snr_to_noise_variance(4.0, SystemDims(4, 4, 1))
    h, y = _draw(4, 4, 1, sigma2, 8)
    formed = []

    def counted(*args, **kwargs):
        formed.append(1)
        return alpha_update(*args, **kwargs)

    monkeypatch.setattr(simulator, "alpha_update", counted)
    bits = np.ones((8, 4), dtype=np.int64)
    _run_batch(spec, bits, h, y, sigma2, 1, False, (spec.iterations,), {})
    assert len(formed) == 4
    softs = _engine_bp(spec, h, y, sigma2, 1, (1, 2, 3, 4, 5), {})
    for b in range(8):
        history = message_history(spec, h[b], y[b], sigma2)
        for soft, state in zip(softs, history, strict=True):
            assert np.array_equal(soft[b], state.beta.sum(axis=-2))


def _one_batch_peak(dims, spec, seed):
    """tracemalloc's allocation peak over one batch of spec at 8 dB."""
    tracemalloc.start()
    try:
        sigma2 = snr_to_noise_variance(8.0, dims)
        bits, h, y = _draw_batch(dims, sigma2, _batch_rng(seed, 8.0, 0), BATCH_TRIALS)
        _run_batch(spec, bits, h, y, sigma2, dims.bits_per_symbol, False, (spec.iterations,), {})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_relaxed_batch_builds_no_dense_lump_mask():
    """32x32 BPSK RBP(1,0): one batch's allocation peak stays below the size
    of one (B, Nr, Nbits, Nbits) float array, the dense lump mask of old."""
    mask_bytes = BATCH_TRIALS * 32 * 32 * 32 * 8
    peak = _one_batch_peak(SystemDims(32, 32, 1), DetectorSpec.rbp(1, 0, iterations=5), 2011)
    assert peak < mask_bytes, f"peak {peak / 2**20:.0f} MiB"


def test_relaxed_batch_holds_one_hypothesis_table():
    """6x6 QPSK RBP(3,1), R_D = 7: a (128, B, Nr, Nbits) float table takes
    36 MiB. The steps hold one, plus, and take the prior sums in blocks; the
    set-up adds its I_h planes, two half tables. So one batch's allocation
    peak stays below 108 MiB, three such tables, which is what the batch held
    when the prior sums and the scores were whole tables."""
    peak = _one_batch_peak(SystemDims(6, 6, 2), DetectorSpec.rbp(3, 1), 99)
    assert peak < 108 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_relaxed_batch_peaks_no_higher_than_sbp():
    """On one 4x4 QPSK draw, RBP(2,0) (a 2 MiB hypothesis table) peaks no
    higher than SBP, whose residual build and 4 MiB table D set its peak.
    Each is the lower of two runs: a process's first draw imports a module,
    about 0.7 MiB that would count against whichever ran first."""
    dims = SystemDims(4, 4, 2)
    rbp, sbp = (min(_one_batch_peak(dims, spec, 99) for _ in range(2))
                for spec in (DetectorSpec.rbp(2, 0), DetectorSpec.sbp()))
    assert rbp <= sbp, f"RBP(2,0) {rbp / 2**20:.2f} MiB, SBP {sbp / 2**20:.2f} MiB"


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
