"""Monte Carlo harness: determinism, pairing, stopping, CSV round-trips."""
import collections
import dataclasses
import gc
import os
import time
import tracemalloc

import numpy as np
import pytest

from mimobp import detectors, simulator
from mimobp.channel import SystemDims, snr_to_noise_variance
from mimobp.detectors import (
    MAX_BATCH_BYTES,
    DetectorSpec,
    _spec_bytes,
    detect,
    sbp_beta_update,
)
from mimobp.errors import DimensionTooLargeError, IoFailure
from mimobp.metrics import ami
from mimobp.simulator import (
    BATCH_TRIALS,
    CSV_FIELDS,
    SweepConfig,
    SweepRecord,
    _batch_rng,
    _draw_batch,
    _engine_soft,
    _run_batch,
    read_csv,
    run_convergence,
    run_point,
    run_sweep,
    write_csv,
)


def _cfg(n_tx=2, n_rx=2, m=1, detectors=(DetectorSpec.ml(),), **kw):
    defaults = dict(snr_points_db=(4.0,), errors_target=30, master_seed=99)
    defaults.update(kw)
    return SweepConfig(dims=SystemDims(n_tx, n_rx, m), detectors=tuple(detectors),
                       **defaults)


class TestConfigValidation:
    def test_requires_snr_points(self):
        with pytest.raises(ValueError):
            _cfg(snr_points_db=())

    def test_requires_detectors(self):
        with pytest.raises(ValueError):
            _cfg(detectors=())

    def test_requires_positive_budgets(self):
        with pytest.raises(ValueError):
            _cfg(errors_target=0)
        with pytest.raises(ValueError):
            _cfg(bits_max=0)
        with pytest.raises(ValueError):
            _cfg(trials_min=0)

    def test_snr_points_coerced_to_floats(self):
        cfg = _cfg(snr_points_db=(4, 8))
        assert cfg.snr_points_db == (4.0, 8.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_snr_points(self, bad):
        with pytest.raises(ValueError, match="SNR points must be finite"):
            _cfg(snr_points_db=(bad, 4.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 4000.0, -4000.0],
                             ids=["nan", "inf", "-inf", "4000", "-4000"])
    def test_lone_points_refuse_the_snr_points_a_sweep_refuses(self, bad):
        """10^(snr/10) overflows at 4000 dB and underflows to 0 at -4000 dB."""
        cfg = _cfg()
        with pytest.raises(ValueError, match="SNR points must be finite"):
            _cfg(snr_points_db=(bad,))
        with pytest.raises(ValueError, match="SNR points must be finite"):
            run_point(cfg, DetectorSpec.sbp(2), bad)
        with pytest.raises(ValueError, match="SNR points must be finite"):
            run_convergence(cfg, DetectorSpec.sbp(2), bad, [1, 2])

    @pytest.mark.parametrize("spec", [DetectorSpec.rbp(4, 0), DetectorSpec.mmse_rbp(5, 0)],
                             ids=lambda s: f"{s.label}({s.rd1},{s.rd2})")
    def test_rejects_rd1_past_the_interferer_count(self, spec):
        with pytest.raises(ValueError, match="rd1 must be in 0..3"):
            _cfg(n_tx=4, n_rx=4, detectors=(spec,))

    def test_accepts_full_relaxation_and_ignores_rd1_of_exhaustive_kinds(self):
        _cfg(n_tx=4, n_rx=4, m=2, detectors=(DetectorSpec.rbp(3, 1),
                                             DetectorSpec("SBP", 5, rd1=9)))

    def test_rejects_more_explicit_edges_than_supported(self):
        """A relaxed batch holds 32 bytes per entry of its (2^R_D, 512, Nr,
        Nbits) table: at 8x8 QPSK, RBP(4,0) (R_D = 8) needs 0.53 GiB and
        RBP(5,0) (R_D = 10) 2.0 GiB. RBP(10,1) at 11x11 QPSK keeps all 21
        other bits explicit, so it is sized as SBP's (2^22, 512, 11) table."""
        _cfg(n_tx=8, n_rx=8, m=2, detectors=(DetectorSpec.rbp(4, 0),))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="explicit-edge hypotheses"):
                _cfg(n_tx=8, n_rx=8, m=2, detectors=(DetectorSpec.rbp(5, 0),))
            with pytest.raises(ValueError, match=r"2\^22 configurations"):
                _cfg(n_tx=11, n_rx=11, m=2, detectors=(DetectorSpec.rbp(10, 1),))
            assert tracemalloc.get_traced_memory()[1] < 1 << 20   # no table was built
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n_tx,n_rx,m,spec", [
        (16, 16, 1, DetectorSpec.sbp(5)),   # 12 GiB per batch
        (8, 8, 2, DetectorSpec.ml()),       # 6 GiB per batch
        (7, 9, 2, DetectorSpec.sbp(5)),     # 1.7 GiB per batch
        (13, 13, 2, DetectorSpec.ml()),     # 26 bits: 2^26 configurations, 9.8 TiB
        (12, 12, 1, DetectorSpec.rbp(10, 0)),       # (2^10, 512, 12, 12): 2.3 GiB
        (16, 16, 1, DetectorSpec.rbp(14, 0)),       # (2^14, 512, 16, 16): 64 GiB
        (11, 11, 2, DetectorSpec.rbp(10, 0)),       # (2^20, 512, 11, 22): 3.8 TiB
        (8, 8, 2, DetectorSpec.rbp(7, 1)),          # nothing lumped: SBP's 6 GiB
        (16, 16, 1, DetectorSpec.mmse_rbp(15, 0)),  # nothing lumped: SBP's 12 GiB
    ], ids=["16x16-BPSK-SBP", "8x8-QPSK-ML", "7x9-QPSK-SBP", "13x13-QPSK-ML",
            "12x12-BPSK-RBP(10,0)", "16x16-BPSK-RBP(14,0)", "11x11-QPSK-RBP(10,0)",
            "8x8-QPSK-RBP(7,1)", "16x16-BPSK-MMSE-RBP(15,0)"])
    def test_rejects_oversized_enumeration_at_start(self, n_tx, n_rx, m, spec):
        tracemalloc.start()
        try:
            with pytest.raises(DimensionTooLargeError):
                _cfg(n_tx=n_tx, n_rx=n_rx, m=m, detectors=(spec,))
            assert tracemalloc.get_traced_memory()[1] < 1 << 20   # no table was built
        finally:
            tracemalloc.stop()

    def test_admits_by_the_batch_working_set(self):
        """An exhaustive batch holds 24 bytes per entry of its (2^Nbits, 512, Nr)
        table: 2^14 configurations fit at 7x5 QPSK (0.94 GiB), not at 7x6
        (1.13 GiB), nor at 7x8, whose complex table alone is exactly 1 GiB.
        RBP(6,1) lumps nothing, so it runs SBP's step and is sized as SBP."""
        full = (DetectorSpec.ml(), DetectorSpec.sbp(5), DetectorSpec.rbp(6, 1),
                DetectorSpec.mmse_rbp(6, 1))
        assert _spec_bytes(DetectorSpec.sbp(5), 7, 5, 2, BATCH_TRIALS) <= MAX_BATCH_BYTES
        _cfg(n_tx=7, n_rx=5, m=2, detectors=full)
        for n_rx in (6, 8):
            for spec in full:
                with pytest.raises(DimensionTooLargeError, match=r"2\^14 configurations"):
                    _cfg(n_tx=7, n_rx=n_rx, m=2, detectors=(spec,))

    @pytest.mark.parametrize("n_tx,n_rx,m,spec", [
        (8, 8, 1, DetectorSpec.sbp(5)),
        (4, 4, 2, DetectorSpec.rbp(2, 0)),
        (5, 5, 2, DetectorSpec.rbp(3, 0)),
        (6, 6, 2, DetectorSpec.rbp(3, 1)),
        (16, 16, 1, DetectorSpec.mmse_rbp(1, 0)),
    ], ids=["8x8-BPSK-SBP", "4x4-QPSK-RBP(2,0)", "5x5-QPSK-RBP(3,0)", "6x6-QPSK-RBP(3,1)",
            "16x16-BPSK-MMSE-RBP(1,0)"])
    def test_one_batch_stays_within_its_admitted_bytes(self, n_tx, n_rx, m, spec):
        dims = SystemDims(n_tx, n_rx, m)
        admitted = _spec_bytes(spec, n_tx, n_rx, m, BATCH_TRIALS)
        tracemalloc.start()
        try:
            sigma2 = snr_to_noise_variance(8.0, dims)
            bits, h, y = _draw_batch(dims, sigma2, _batch_rng(99, 8.0, 0), BATCH_TRIALS)
            _run_batch(spec, bits, h, y, sigma2, m, False, (spec.iterations,), {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= admitted, f"peak {peak / 2**20:.1f} MiB, admitted {admitted / 2**20:.1f}"

    @pytest.mark.parametrize("n_tx,n_rx,m,spec", [
        (16, 1, 1, DetectorSpec.ml()),
        (8, 8, 2, DetectorSpec.sbp(2)),
        (8, 8, 2, DetectorSpec.rbp(6, 1, 2)),
    ], ids=["1x16-BPSK-ML", "8x8-QPSK-SBP", "8x8-QPSK-RBP(6,1)"])
    def test_one_vector_stays_within_its_admitted_bytes(self, n_tx, n_rx, m, spec):
        """At one trial the configuration table, built afresh, dominates."""
        admitted = _spec_bytes(spec, n_tx, n_rx, m, 1)
        rng = np.random.default_rng(3)
        h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
        tracemalloc.start()
        try:
            detect(spec, h, h.sum(axis=1), 0.5, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= admitted, f"peak {peak / 2**20:.1f} MiB, admitted {admitted / 2**20:.1f}"

    # Bytes per (C, B, Nr) entry of the buffers a batch holds at its peak. While
    # the blocks are built: the base table and one level, C/4 complex rows each
    # (4 + 4). SBP adds its power table D (8), and its score t (8) replaces the
    # block buffers; ML adds one block of power, C/4 float rows (2), and its
    # (C, B) metric (8 / Nr).
    @pytest.mark.parametrize("spec,per_entry", [
        (DetectorSpec.sbp(6), 8 + max(4 + 4, 8)),
        (DetectorSpec.ml(), 4 + 4 + 2 + 8 / 4),
    ], ids=["SBP", "ML"])
    def test_exhaustive_batch_holds_no_complex_table(self, spec, per_entry):
        """A 4x4 QPSK batch enumerates a (256, 512, 4) table; its complex H s
        alone would take 16 bytes per entry, and H s with the power 24."""
        dims = SystemDims(4, 4, 2)
        sigma2 = snr_to_noise_variance(12.0, dims)
        bits, h, y = _draw_batch(dims, sigma2, _batch_rng(5, 12.0, 0), BATCH_TRIALS)
        tracemalloc.start()
        try:
            _run_batch(spec, bits, h, y, sigma2, 2, False, (spec.iterations,), {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = int(per_entry * 256 * BATCH_TRIALS * 4) + (1 << 20)
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f}"

    def test_one_vector_keeps_no_table_after_it_returns(self):
        """A 16-bit ML detect builds a 2^16-row configuration table and drops it."""
        rng = np.random.default_rng(3)
        h = rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16))
        tracemalloc.start()
        try:
            detect(DetectorSpec.ml(), h, h.sum(axis=1), 0.5)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20, f"kept {kept / 2**20:.1f} MiB"

    def test_lone_points_apply_the_size_rule_to_their_own_detector(self, monkeypatch):
        """The config's MMSE needs no table; the SBP(2) run alone needs 12 MiB a batch."""
        monkeypatch.setattr(detectors, "MAX_BATCH_BYTES", 4 << 20)
        cfg = _cfg(n_tx=4, n_rx=4, m=2, detectors=(DetectorSpec.mmse(),))
        with pytest.raises(DimensionTooLargeError):
            run_point(cfg, DetectorSpec.sbp(2), 8.0)
        with pytest.raises(DimensionTooLargeError):
            run_convergence(cfg, DetectorSpec.sbp(2), 8.0, [1, 2])


class TestBatchStreams:
    def test_stream_depends_on_all_key_parts(self):
        base = _batch_rng(1, 4.0, 0).integers(0, 1 << 30, size=4)
        for seed, snr, idx in ((2, 4.0, 0), (1, 4.001, 0), (1, 4.0, 1)):
            other = _batch_rng(seed, snr, idx).integers(0, 1 << 30, size=4)
            assert not np.array_equal(base, other)

    def test_stream_is_reproducible(self):
        a = _batch_rng(7, 10.0, 3).integers(0, 1 << 30, size=8)
        b = _batch_rng(7, 10.0, 3).integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_draw_shapes_and_bit_alphabet(self):
        dims = SystemDims(4, 4, 2)
        bits, h, y = _draw_batch(dims, 0.5, _batch_rng(5, 6.0, 0), 17)
        assert bits.shape == (17, 8)
        assert h.shape == (17, 4, 4)
        assert y.shape == (17, 4)
        assert set(np.unique(bits)) <= {-1, 1}


class TestEngineMatchesPerTrialDetector:
    """detect() is the engine on a batch of one: every trial's soft output is
    the batched row, bit for bit, at ordinary and at vanishing noise."""

    @pytest.mark.parametrize("spec", [
        DetectorSpec.ml(),
        DetectorSpec.mmse(),
        DetectorSpec.mmse_sic(),
        DetectorSpec.sbp(4),
        DetectorSpec.rbp(0, 0, 4),
        DetectorSpec.rbp(2, 0, 4),
        DetectorSpec.mmse_rbp(0, 0, 4),
        DetectorSpec.mmse_rbp(1, 0, 4),
    ], ids=lambda s: f"{s.label}{(s.rd1, s.rd2) if s.relaxed else ''}")
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("sigma2", [0.4, 1e-12])
    def test_soft_outputs_match(self, spec, m, sigma2):
        dims = SystemDims(3, 3, m)
        rbp_like = spec.relaxed
        if rbp_like and m == 2 and spec.rd2 == 0 and spec.rd1 == 0:
            spec = DetectorSpec(spec.kind, spec.iterations, 0, 1)
        bits, h, y = _draw_batch(dims, sigma2, _batch_rng(11, 8.0, 0), 32)
        [batched] = _engine_soft(spec, h, y, sigma2, m, (spec.iterations,), {})
        for b in range(32):
            single = detect(spec, h[b], y[b], sigma2, m=m)
            assert np.array_equal(batched[b], single.soft_llrs), \
                f"trial {b}: max diff {np.abs(batched[b] - single.soft_llrs).max()}"

    @pytest.mark.parametrize("n_tx,n_rx,m", [(4, 4, 1), (4, 4, 2), (3, 5, 1), (5, 3, 1)],
                             ids=lambda v: str(v))
    @pytest.mark.parametrize("sigma2", [0.4, 1e-12])
    def test_sbp_beta_update_is_the_engine_step(self, n_tx, n_rx, m, sigma2):
        """Every iteration's engine beta is sbp_beta_update of the alpha before it."""
        _, h, y = _draw_batch(SystemDims(n_tx, n_rx, m), sigma2, _batch_rng(13, 8.0, 0), 16)
        alpha = np.zeros((16, m * n_tx, n_rx))  # the engine starts from +0
        for beta, total in simulator._bp_messages(DetectorSpec.sbp(4), h, y, sigma2, m, {}):
            for b in range(16):
                single = sbp_beta_update(alpha[b], h[b], y[b], sigma2, m)
                assert np.array_equal(beta[b], single), \
                    f"trial {b}: max diff {np.abs(beta[b] - single).max()}"
            alpha = detectors.alpha_update(beta, None, total)  # as the engine forms it

    @pytest.mark.parametrize("spec", [
        DetectorSpec.ml(),
        DetectorSpec.mmse(),
        DetectorSpec.mmse_sic(),
        DetectorSpec.sbp(3),
        DetectorSpec.rbp(0, 0, 3),
        DetectorSpec.rbp(1, 1, 3),
        DetectorSpec.mmse_rbp(0, 0, 3),
        DetectorSpec.mmse_rbp(1, 1, 3),
    ], ids=lambda s: f"{s.label}{(s.rd1, s.rd2) if s.relaxed else ''}")
    @pytest.mark.parametrize("m", [1, 2])
    def test_kernels_leave_h_and_y_untouched(self, spec, m):
        """The kernels work in buffers of their own; the caller's arrays stay as drawn."""
        _, h, y = _draw_batch(SystemDims(3, 4, m), 0.4, _batch_rng(12, 8.0, 0), 16)
        h_bytes, y_bytes = h.tobytes(), y.tobytes()
        _engine_soft(spec, h, y, 0.4, m, (spec.iterations,), {})
        assert h.tobytes() == h_bytes and y.tobytes() == y_bytes


class TestRunPoint:
    def test_deterministic_across_repeats(self):
        cfg = _cfg()
        a = run_point(cfg, cfg.detectors[0], 4.0)
        b = run_point(cfg, cfg.detectors[0], 4.0)
        assert (a.bits, a.errors, a.ber, a.ber_ci_low, a.ber_ci_high) == \
               (b.bits, b.errors, b.ber, b.ber_ci_low, b.ber_ci_high)

    def test_worker_count_does_not_change_results(self):
        cfg = _cfg()
        serial = run_point(cfg, cfg.detectors[0], 4.0, workers=1)
        pooled = run_point(cfg, cfg.detectors[0], 4.0, workers=2)
        assert (serial.bits, serial.errors) == (pooled.bits, pooled.errors)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_are_refused_before_any_batch(self, monkeypatch, workers):
        draws = []
        monkeypatch.setattr(simulator, "_draw_batch", lambda *args: draws.append(args))
        cfg = _cfg()
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_point(cfg, cfg.detectors[0], 4.0, workers=workers)
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_sweep(cfg, workers=workers)
        assert not draws

    def test_stops_on_bit_budget_and_flags_it(self):
        """At very high SNR the exhaustive detector never errs."""
        budget = 2 * BATCH_TRIALS * 2  # two batches of 2x2 single-bit symbols
        cfg = _cfg(snr_points_db=(60.0,), errors_target=500, bits_max=budget)
        rec = run_point(cfg, cfg.detectors[0], 60.0)
        assert rec.errors == 0
        assert rec.ber == 0.0
        assert rec.bits == budget
        assert rec.budget_exhausted

    def test_budget_flag_follows_the_stop_rule_not_the_error_count(self):
        """The errors target is met in the first batch, but trials_min lies past
        the bit budget: the point stops on bits_max before its rule is met."""
        budget = 2 * BATCH_TRIALS * 2
        cfg = _cfg(errors_target=1, trials_min=10 * BATCH_TRIALS, bits_max=budget)
        rec = run_point(cfg, cfg.detectors[0], 4.0)
        assert rec.errors >= cfg.errors_target
        assert rec.bits == budget
        assert rec.budget_exhausted
        met = run_point(dataclasses.replace(cfg, trials_min=2 * BATCH_TRIALS),
                        cfg.detectors[0], 4.0)
        assert met.bits == budget
        assert not met.budget_exhausted
        conv = run_convergence(dataclasses.replace(cfg, detectors=(DetectorSpec.sbp(),)),
                               DetectorSpec.sbp(), 4.0, [1, 2])
        assert all(r.budget_exhausted and r.errors >= 1 for r in conv)

    def test_trials_min_forces_extra_batches(self):
        cfg_fast = _cfg(errors_target=1, trials_min=1)
        cfg_long = _cfg(errors_target=1, trials_min=3 * BATCH_TRIALS)
        fast = run_point(cfg_fast, cfg_fast.detectors[0], 4.0)
        long = run_point(cfg_long, cfg_long.detectors[0], 4.0)
        assert fast.bits == BATCH_TRIALS * 2
        assert long.bits == 3 * BATCH_TRIALS * 2

    def test_paired_streams_make_equivalent_detectors_identical(self):
        """Full edge selection reproduces the exhaustive scheme's errors."""
        cfg = _cfg(n_tx=4, n_rx=4,
                   detectors=(DetectorSpec.sbp(5), DetectorSpec.rbp(3, 1, 5)),
                   snr_points_db=(8.0,), errors_target=50, master_seed=21)
        sbp = run_point(cfg, cfg.detectors[0], 8.0)
        rbp = run_point(cfg, cfg.detectors[1], 8.0)
        assert sbp.bits == rbp.bits
        assert sbp.errors == rbp.errors

    def test_ami_recorded_when_requested(self):
        cfg = _cfg(record_ami=True, errors_target=1)
        rec = run_point(cfg, cfg.detectors[0], 4.0)
        assert rec.ami is not None
        assert rec.ami <= 1.0

    def test_ami_near_one_when_detection_is_clean(self):
        cfg = _cfg(snr_points_db=(60.0,), errors_target=1, bits_max=BATCH_TRIALS * 2,
                   record_ami=True)
        rec = run_point(cfg, cfg.detectors[0], 60.0)
        assert rec.ami == pytest.approx(1.0, abs=1e-8)

    def test_ami_matches_direct_average(self):
        """The running AMI sum equals the metric applied to pooled outputs."""
        dims = SystemDims(2, 2)
        cfg = SweepConfig(dims=dims, snr_points_db=(4.0,),
                          detectors=(DetectorSpec.mmse(),), errors_target=10 ** 9,
                          bits_max=2 * BATCH_TRIALS * 2, record_ami=True,
                          master_seed=31)
        rec = run_point(cfg, cfg.detectors[0], 4.0)
        sigma2 = snr_to_noise_variance(4.0, dims)
        soft_all, bits_all = [], []
        for index in range(2):
            bits, h, y = _draw_batch(dims, sigma2, _batch_rng(31, 4.0, index),
                                     BATCH_TRIALS)
            [soft] = _engine_soft(DetectorSpec.mmse(), h, y, sigma2, 1, (0,), {})
            soft_all.append(soft.ravel())
            bits_all.append(bits.ravel())
        want = ami(np.concatenate(soft_all), np.concatenate(bits_all))
        assert rec.ami == pytest.approx(want, rel=1e-12)

    def test_rd_columns_only_for_relaxed_detectors(self):
        cfg = _cfg(detectors=(DetectorSpec.ml(), DetectorSpec.rbp(1, 0, 5)),
                   errors_target=1)
        ml = run_point(cfg, cfg.detectors[0], 4.0)
        rbp = run_point(cfg, cfg.detectors[1], 4.0)
        assert (ml.rd1, ml.rd2) == (None, None)
        assert (rbp.rd1, rbp.rd2) == (1, 0)


class TestErrorCount:
    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    def test_zero_llr_decides_plus_one(self, zero):
        """sign(0) = +1: an all-zero soft output counts exactly the -1 bits."""
        bits = np.array([[1, -1, -1, 1], [-1, 1, 1, 1]])
        assert simulator._count_errors(np.full(bits.shape, zero), bits) == 3


class TestNonFiniteOutputs:
    """A NaN or infinite LLR fails its batch instead of counting as a -1."""

    @pytest.fixture(params=[np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def broken_engine(self, request, monkeypatch):
        real = simulator._engine_soft

        def engine(spec, h, y, sigma2, m, depths, front=None):
            out = real(spec, h, y, sigma2, m, depths, front)
            out[-1][3, 0] = request.param
            return out

        monkeypatch.setattr(simulator, "_engine_soft", engine)

    def test_run_point_raises(self, broken_engine):
        cfg = _cfg(detectors=(DetectorSpec.sbp(2),))
        with pytest.raises(FloatingPointError, match="1 non-finite"):
            run_point(cfg, cfg.detectors[0], 4.0)

    def test_run_convergence_raises(self, broken_engine):
        cfg = _cfg(detectors=(DetectorSpec.sbp(),))
        with pytest.raises(FloatingPointError):
            run_convergence(cfg, DetectorSpec.sbp(), 4.0, [1, 2])

    def test_run_sweep_reports_the_point_as_failed(self, broken_engine, capsys):
        """Each failed point is reported on stderr; with none left, the sweep raises."""
        cfg = _cfg(detectors=(DetectorSpec.mmse(),), snr_points_db=(0.0, 4.0))
        with pytest.raises(RuntimeError, match=r"\(2 points\)") as raised:
            run_sweep(cfg)
        assert isinstance(raised.value.__cause__, FloatingPointError)
        err = capsys.readouterr().err
        assert err.count("point failed") == 2
        assert "non-finite LLR" in err


class TestRunSweep:
    def test_cardinality_and_ordering(self):
        cfg = _cfg(detectors=(DetectorSpec.ml(), DetectorSpec.mmse()),
                   snr_points_db=(8.0, 0.0, 4.0), errors_target=5)
        records = run_sweep(cfg)
        assert len(records) == 6
        assert [r.detector for r in records] == ["ML"] * 3 + ["MMSE"] * 3
        assert [r.snr_db for r in records] == [0.0, 4.0, 8.0] * 2

    def test_error_rate_falls_with_snr_up_to_ci_overlap(self):
        cfg = _cfg(n_tx=4, n_rx=4, snr_points_db=(2.0, 6.0, 10.0),
                   errors_target=200, master_seed=17)
        records = run_sweep(cfg)
        for prev, cur in zip(records, records[1:]):
            ok = cur.ber <= prev.ber or cur.ber_ci_low <= prev.ber_ci_high
            assert ok, (prev.snr_db, cur.snr_db)

    def test_failing_point_is_skipped_not_fatal(self, capsys, monkeypatch):
        """A point whose detector raises drops out with a note; the rest still run."""
        real = simulator._engine_soft

        def engine(spec, *args, **kwargs):
            if spec.kind == "ML":
                raise MemoryError("no room for the ML table")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(simulator, "_engine_soft", engine)
        cfg = SweepConfig(dims=SystemDims(4, 4, 2), snr_points_db=(0.0,),
                          detectors=(DetectorSpec.ml(), DetectorSpec.mmse()),
                          errors_target=1, master_seed=3)
        records = run_sweep(cfg)
        assert [r.detector for r in records] == ["MMSE"]
        assert "point failed" in capsys.readouterr().err


def _lane_cfg(**kw):
    """Detectors that share the MMSE estimate (MMSE, MMSE-SIC, MMSE-RBP) and
    the edge sets (RBP(1,0), MMSE-RBP(1,0)), with an errors target some
    points meet in one batch and others never do before the bit budget."""
    specs = (DetectorSpec.ml(), DetectorSpec.mmse(), DetectorSpec.mmse_sic(),
             DetectorSpec.rbp(1, 0, 2), DetectorSpec.mmse_rbp(1, 0, 2),
             DetectorSpec.mmse_rbp(0, 0, 2))
    defaults = dict(snr_points_db=(8.0, 0.0), errors_target=150,
                    bits_max=5 * BATCH_TRIALS * 4, master_seed=29, record_ami=True)
    defaults.update(kw)
    return _cfg(n_tx=4, n_rx=4, detectors=specs, **defaults)


def _row(rec):
    return rec.detector, rec.rd1, rec.rd2, rec.snr_db, rec.bits, rec.errors, rec.ami


class TestBatchMajorSweep:
    """run_sweep draws each (SNR, batch) once and runs every detector on it;
    each row is still the row its detector gives alone."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_points_run_alone(self, workers):
        cfg = _lane_cfg()
        start = time.perf_counter()
        records = run_sweep(cfg, workers=workers)
        elapsed = time.perf_counter() - start
        alone = [run_point(cfg, spec, snr) for spec in cfg.detectors
                 for snr in sorted(cfg.snr_points_db)]
        assert [_row(r) for r in records] == [_row(r) for r in alone]
        assert [r.budget_exhausted for r in records] == [r.budget_exhausted for r in alone]
        at_8db = [r for r in records if r.snr_db == 8.0]
        assert len({r.bits for r in at_8db}) > 1                 # lanes stop at different batches
        assert any(r.budget_exhausted for r in at_8db)
        assert not all(r.budget_exhausted for r in at_8db)
        assert all(r.wall_seconds > 0.0 for r in records)
        assert sum(r.wall_seconds for r in records) <= elapsed

    def test_qpsk_rows_equal_points_run_alone(self):
        """At QPSK the shared relaxed gains are an array of their own, not H."""
        cfg = dataclasses.replace(_lane_cfg(), dims=SystemDims(4, 4, 2))
        alone = [run_point(cfg, spec, snr) for spec in cfg.detectors
                 for snr in sorted(cfg.snr_points_db)]
        assert [_row(r) for r in run_sweep(cfg)] == [_row(r) for r in alone]

    def test_a_detector_failing_mid_point_leaves_the_other_rows(self, monkeypatch, capsys):
        cfg = _lane_cfg(trials_min=2 * BATCH_TRIALS)   # every point runs at least 2 batches
        alone = [run_point(cfg, spec, snr) for spec in cfg.detectors
                 for snr in sorted(cfg.snr_points_db)]
        real = simulator._engine_soft
        calls = []

        def engine(spec, *args, **kwargs):
            if spec.kind == "MMSE_SIC":
                calls.append(spec)
                if len(calls) == 2:   # its second batch at 0 dB
                    raise MemoryError("no room")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(simulator, "_engine_soft", engine)
        records = run_sweep(cfg, progress=True)
        want = [r for r in alone if not (r.detector == "MMSE-SIC" and r.snr_db == 0.0)]
        assert [_row(r) for r in records] == [_row(r) for r in want]
        err = capsys.readouterr().err
        assert "[mimobp] point failed: MMSE-SIC @ 0.0 dB: no room" in err
        assert "[mimobp] MMSE-SIC L=0 snr=8 dB" in err

    def test_each_batch_builds_a_shared_value_once(self, monkeypatch):
        """MMSE, MMSE-SIC's first stage and MMSE-RBP share one MMSE estimate
        per batch, on top of MMSE-SIC's Nt - 1 deflation stages; the relaxed
        detectors of one (rd1, rd2) share one build of its edge sets."""
        cfg = _lane_cfg()
        calls = collections.Counter()
        real_mmse, real_edges = simulator._mmse_estimate, simulator._engine_edge_sets

        def mmse(*args):
            calls["mmse"] += 1
            return real_mmse(*args)

        def edges(h, spec, m):
            calls[spec.rd1, spec.rd2] += 1
            return real_edges(h, spec, m)

        monkeypatch.setattr(simulator, "_mmse_estimate", mmse)
        monkeypatch.setattr(simulator, "_engine_edge_sets", edges)
        records = run_sweep(cfg)
        want = collections.Counter()
        for snr in cfg.snr_points_db:   # lane (detector, rd1) ran batches 0 .. n - 1
            n = {(r.detector, r.rd1): r.bits // (BATCH_TRIALS * cfg.dims.n_bits)
                 for r in records if r.snr_db == snr}
            want["mmse"] += (max(n["MMSE", None], n["MMSE-SIC", None], n["MMSE-RBP", 1],
                                 n["MMSE-RBP", 0])
                             + (cfg.dims.n_tx - 1) * n["MMSE-SIC", None])
            want[1, 0] += max(n["RBP", 1], n["MMSE-RBP", 1])
            want[0, 0] += n["MMSE-RBP", 0]
        assert calls == want

    def test_one_trial_call_builds_the_mmse_estimate_once(self, monkeypatch):
        """detect() runs a sweep lane's calls: MMSE-RBP's depth-0 output and its
        message passing read one MMSE estimate from the call's dict."""
        calls = []
        real = simulator._mmse_estimate

        def mmse(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(simulator, "_mmse_estimate", mmse)
        rng = np.random.default_rng(58)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        detect(DetectorSpec.mmse_rbp(1, 0, 3), h, y, 0.5, record_iterations=True)
        assert len(calls) == 1

    def test_record_times_sum_to_the_sweep_time(self):
        """A serial sweep's rows share out its detection time."""
        cfg = _lane_cfg(snr_points_db=(0.0,), bits_max=3 * BATCH_TRIALS * 4)
        start = time.perf_counter()
        records = run_sweep(cfg)
        elapsed = time.perf_counter() - start
        total = sum(r.wall_seconds for r in records)
        assert 0.9 * elapsed < total <= elapsed


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


class TestFreedHeapStaysMapped:
    """Freed batch arrays stay mapped, so a repeated run takes no page faults."""

    @pytest.mark.skipif(not _on_glibc(), reason="sets glibc's heap thresholds")
    @pytest.mark.parametrize("n_tx, specs", [
        (8, (DetectorSpec.rbp(1, 0), DetectorSpec.mmse_rbp(1, 0))),
        (4, (DetectorSpec.sbp(), DetectorSpec.rbp(1, 0), DetectorSpec.mmse_sic())),
    ])
    def test_a_repeated_sweep_faults_nothing_back_in(self, n_tx, specs):
        """No collection runs while faults are counted: cyclic garbage that
        earlier tests left holding heap arrays, freed there, can take the heap
        top past the trim threshold, and glibc then trims the sweep's freed
        working set with it."""
        resource = pytest.importorskip("resource")
        cfg = _cfg(n_tx=n_tx, n_rx=n_tx, detectors=specs, snr_points_db=(10.0,),
                   errors_target=10**9, bits_max=2 * BATCH_TRIALS * n_tx, master_seed=7)
        gc.collect()
        run_sweep(cfg)
        gc.collect()
        gc.disable()
        try:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            records = run_sweep(cfg)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        finally:
            gc.enable()
        assert faults < 100, f"{faults} minor page faults in the repeated sweep"
        assert [r.bits for r in records] == [2 * BATCH_TRIALS * n_tx] * len(specs)

    @pytest.mark.parametrize("confstr", ["raises", "empty"])
    def test_does_nothing_off_glibc(self, monkeypatch, confstr):
        def fake_confstr(name):
            if confstr == "raises":
                raise ValueError("unrecognized configuration name")
            return None

        def no_lookup(*args):
            raise AssertionError("looked up mallopt")

        monkeypatch.setattr(simulator, "_heap_kept", False)
        monkeypatch.setattr(simulator.os, "confstr", fake_confstr, raising=False)
        monkeypatch.setattr(simulator.ctypes, "CDLL", no_lookup)
        simulator._keep_freed_heap()
        assert simulator._heap_kept  # once per process: later batches skip the check

    def test_does_nothing_without_mallopt(self, monkeypatch):
        class NoMallopt:
            def __init__(self, name):
                pass

        monkeypatch.setattr(simulator, "_heap_kept", False)
        monkeypatch.setattr(simulator.os, "confstr", lambda name: "glibc 2.36", raising=False)
        monkeypatch.setattr(simulator.ctypes, "CDLL", NoMallopt)
        simulator._keep_freed_heap()
        assert simulator._heap_kept


_SPECS = {"SBP": DetectorSpec.sbp(), "RBP(1,0)": DetectorSpec.rbp(1, 0),
          "MMSE-RBP(1,1)": DetectorSpec.mmse_rbp(1, 1)}


class TestRunConvergence:
    def test_depths_are_sorted_deduplicated_and_share_trials(self):
        cfg = _cfg(n_tx=4, n_rx=4, detectors=(DetectorSpec.sbp(),),
                   errors_target=20, master_seed=13)
        records = run_convergence(cfg, DetectorSpec.sbp(), 8.0, [5, 1, 3, 3])
        assert [r.iterations for r in records] == [1, 3, 5]
        assert len({r.bits for r in records}) == 1

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", ["SBP", "RBP(1,0)", "MMSE-RBP(1,1)"])
    def test_each_depth_matches_an_independent_run(self, kind, m):
        """Scoring depth l mid-run equals a separate run with iterations=l."""
        spec = _SPECS[kind]
        cfg = _cfg(n_tx=4, n_rx=4, m=m, detectors=(spec,), errors_target=10 ** 9,
                   bits_max=2 * BATCH_TRIALS * 4 * m, master_seed=41, record_ami=True)
        records = run_convergence(cfg, spec, 8.0, [1, 2, 4])
        for rec in records:
            solo = run_point(cfg, dataclasses.replace(spec, iterations=rec.iterations), 8.0)
            assert (rec.bits, rec.errors, rec.ami) == (solo.bits, solo.errors, solo.ami)

    @pytest.mark.parametrize("kind", ["SBP", "MMSE-RBP(1,1)"])
    def test_worker_count_does_not_change_any_depth(self, kind):
        spec = _SPECS[kind]
        cfg = _cfg(n_tx=4, n_rx=4, m=2, detectors=(spec,), snr_points_db=(14.0,),
                   errors_target=300, master_seed=43, record_ami=True)
        serial, pooled = (run_convergence(cfg, spec, 14.0, [1, 3], workers=w)
                          for w in (1, 2))
        assert [(r.bits, r.errors, r.ami) for r in serial] == \
               [(r.bits, r.errors, r.ami) for r in pooled]
        assert serial[0].bits > 4 * BATCH_TRIALS * 8  # past the first 2 x workers batches

    def test_rejects_non_iterative_detectors_and_bad_depths(self):
        cfg = _cfg()
        with pytest.raises(ValueError):
            run_convergence(cfg, DetectorSpec.ml(), 4.0, [1, 2])
        with pytest.raises(ValueError):
            run_convergence(cfg, DetectorSpec.sbp(), 4.0, [0, 1])
        with pytest.raises(ValueError):
            run_convergence(cfg, DetectorSpec.sbp(), 4.0, [])


class TestCsv:
    def _records(self):
        cfg = _cfg(detectors=(DetectorSpec.ml(), DetectorSpec.rbp(1, 0, 5)),
                   snr_points_db=(4.0,), errors_target=5, record_ami=False)
        return run_sweep(cfg)

    def test_non_iterative_rows_write_zero_iterations(self, tmp_path):
        """ML, MMSE and MMSE-SIC given iterations run none and write 0, as the CLI does."""
        specs = (DetectorSpec("ML", 4), DetectorSpec("MMSE", 4), DetectorSpec("MMSE_SIC", 4))
        path = tmp_path / "out.csv"
        write_csv(run_sweep(_cfg(detectors=specs, errors_target=5)), path)
        rows = [line.split(",")[:4] for line in path.read_text().splitlines()[1:]]
        assert rows == [["ML", "", "", "0"], ["MMSE", "", "", "0"], ["MMSE-SIC", "", "", "0"]]

    def test_header_is_exact(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(self._records(), path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_FIELDS)
        assert header == ("detector,rd1,rd2,iterations,snr_db,bits,errors,"
                          "ber,ber_ci_low,ber_ci_high,ami,wall_seconds")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        records = self._records()
        write_csv(records, path)
        back = read_csv(path)
        assert len(back) == len(records)
        for orig, got in zip(records, back):
            assert got.detector == orig.detector
            assert (got.rd1, got.rd2) == (orig.rd1, orig.rd2)
            assert (got.iterations, got.bits, got.errors) == \
                   (orig.iterations, orig.bits, orig.errors)
            assert got.snr_db == orig.snr_db
            assert got.ber == pytest.approx(orig.ber, rel=1e-5)
            assert got.ber_ci_high == pytest.approx(orig.ber_ci_high, rel=1e-5)
            assert got.ami is None and orig.ami is None

    def test_missing_ami_serializes_as_empty_field(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(self._records(), path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[CSV_FIELDS.index("ami")] == ""
        assert row[CSV_FIELDS.index("rd1")] == ""  # exhaustive detector

    def test_write_failure_raises_io_error(self, tmp_path):
        with pytest.raises(IoFailure):
            write_csv([], tmp_path / "no" / "such" / "dir" / "x.csv")

    @pytest.mark.parametrize("fault,raised", [(OSError, IoFailure), (RuntimeError, RuntimeError)])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, fault, raised):
        path = tmp_path / "out.csv"
        records = self._records()
        write_csv(records, path)
        before = path.read_bytes()
        calls = []

        def failing_fmt(value):
            calls.append(value)
            if len(calls) > len(CSV_FIELDS):  # fail on the second row
                raise fault("disk full")
            return ""

        monkeypatch.setattr(simulator, "_fmt", failing_fmt)
        with pytest.raises(raised):
            write_csv(records, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(IoFailure):
            read_csv(path)

    def test_read_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(IoFailure):
            read_csv(tmp_path / "absent.csv")

    def test_float_formatting_uses_six_significant_digits(self, tmp_path):
        rec = SweepRecord(detector="ML", rd1=None, rd2=None, iterations=0,
                          snr_db=10.0, bits=1000, errors=3, ber=1.0 / 300.0,
                          ber_ci_low=0.001234567, ber_ci_high=0.009876543,
                          ami=None, wall_seconds=0.125)
        path = tmp_path / "fmt.csv"
        write_csv([rec], path)
        row = path.read_text().splitlines()[1]
        assert "0.00333333" in row
        assert "0.00123457" in row
