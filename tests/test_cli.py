"""Command-line front end: parsing, precedence, echo round-trip, outputs."""
import io

import pytest

from mimobp import simulator
from mimobp.channel import SystemDims
from mimobp.cli import (
    WORKERS_ENV,
    _build_sweep_config,
    _parse_detector_label,
    _resolve,
    build_parser,
    echo_config,
    main,
)
from mimobp.detectors import DetectorSpec
from mimobp.presets import PRESET_NAMES, get_preset
from mimobp.simulator import BATCH_TRIALS, SweepConfig, read_csv


def _settings(argv, mode="ber"):
    args = build_parser().parse_args(argv)
    return _resolve(args, mode)


class TestDetectorLabels:
    def test_plain_and_parenthesized_forms(self):
        assert _parse_detector_label("SBP") == \
               {"kind": "SBP", "rd1": 0, "rd2": 0, "l": None}
        assert _parse_detector_label(" RBP(2,1) ") == \
               {"kind": "RBP", "rd1": 2, "rd2": 1, "l": None}
        assert _parse_detector_label("MMSE-RBP(0,0)")["kind"] == "MMSE_RBP"
        assert _parse_detector_label("MMSE-SIC")["kind"] == "MMSE_SIC"

    def test_garbage_rejected(self):
        for bad in ("ZF", "RBP(1)", "RBP(1,0,0)", "rbp(1,0)", ""):
            with pytest.raises(ValueError):
                _parse_detector_label(bad)


class TestUsageErrors:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["ber-sweep", "--frobnicate"])
        assert err.value.code == 2

    def test_invalid_choice_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["ber-sweep", "--m", "3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, ini, named", [
        (["--detectors", "ML(3,1),SBP(2,0)"], None, "ML has no relax degrees, got (3,1)"),
        (["--detectors", "SBP(2,0)"], None, "SBP has no relax degrees, got (2,0)"),
        (["--detectors", "MMSE(0,1)"], None, "MMSE has no relax degrees, got (0,1)"),
        (["--detectors", "MMSE-SIC(1,0)"], None, "MMSE-SIC has no relax degrees, got (1,0)"),
        ([], "[detector:1]\nkind = ML\nrd1 = 3\n", "ML has no relax degrees, got (3,0)"),
        ([], "[detector:1]\nkind = SBP\nrd2 = 1\n", "SBP has no relax degrees, got (0,1)"),
    ], ids=["ML-flag", "SBP-flag", "MMSE-flag", "MMSE-SIC-flag", "ML-rd1-key", "SBP-rd2-key"])
    def test_relax_degrees_on_kinds_without_them_fail_before_any_point(
            self, tmp_path, capsys, argv, ini, named):
        out = tmp_path / "rd.csv"
        if ini is not None:
            path = tmp_path / "rd.ini"
            path.write_text(ini)
            argv = ["--config", str(path)]
        assert main(["ber-sweep", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err
        assert " snr=" not in err  # no point ran
        assert not out.exists()

    def test_echoed_zero_relax_degrees_of_every_kind_read_back(self, tmp_path):
        ini = tmp_path / "zero.ini"
        ini.write_text("".join(f"[detector:{pos}]\nkind = {kind}\nrd1 = 0\nrd2 = 0\n"
                               for pos, kind in enumerate(("ML", "MMSE", "MMSE-SIC", "SBP"))))
        settings = _settings(["ber-sweep", "--config", str(ini)])
        assert [(d["kind"], d["rd1"], d["rd2"]) for d in settings["detectors"]] == [
            ("ML", 0, 0), ("MMSE", 0, 0), ("MMSE_SIC", 0, 0), ("SBP", 0, 0)]

    def test_runtime_error_exits_1(self, capsys):
        assert main(["ber-sweep", "--detectors", "ZF"]) == 1
        assert "[mimobp] error:" in capsys.readouterr().err

    def test_bad_relax_degree_fails_before_any_point(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        assert main(["ber-sweep", "--nt", "4", "--nr", "4", "--detectors", "RBP(5,0)",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "rd1 must be in 0..3" in err
        assert "point failed" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, snr", [
        ("ber-sweep", "nan"), ("ber-sweep", "4000"), ("ber-sweep", "-4000"),
        ("convergence", "inf"), ("convergence", "-4000"),
    ])
    def test_non_finite_snr_fails_before_any_point(self, tmp_path, capsys, command, snr):
        """nan/inf, and 4000/-4000 dB whose noise variance underflows or overflows."""
        out = tmp_path / "nan.csv"
        if command == "ber-sweep":
            ini = tmp_path / "nan.ini"
            ini.write_text(f"[run]\nsnr_points = {snr}, 4\n")
            argv = ["ber-sweep", "--config", str(ini)]
        else:
            argv = ["convergence", "--snr", snr, "--l-max", "2"]
        assert main(argv + ["--detectors", "MMSE,SBP", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "SNR points must be finite" in err
        assert "point failed" not in err
        assert not out.exists()

    @pytest.mark.parametrize("ini, name", [
        ("[run]\nerror_target = 7\n", "error_target"),
        ("[run]\nsnr_point = 3\n", "snr_point"),
        ("[detector:1]\nkind = SBP\nrd_1 = 2\n", "rd_1"),
        ("[detector:1]\nkind = SBP\n[detectors:2]\nkind = ML\n", "[detectors:2]"),
    ], ids=["run-key", "run-key-near-snr_points", "detector-key", "section"])
    def test_unknown_config_key_or_section_fails_before_any_point(
            self, tmp_path, capsys, ini, name):
        path, out = tmp_path / "typo.ini", tmp_path / "typo.csv"
        path.write_text(ini)
        assert main(["ber-sweep", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "[mimobp] error:" in err and name in err
        assert not out.exists()

    def test_convergence_without_an_iterative_detector_fails_before_any_point(
            self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--detectors", "ML,MMSE", "--snr", "6",
                     "--l-max", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "needs an iterative detector" in err
        assert "skipping" not in err
        assert not out.exists()

    def test_oversized_enumeration_fails_before_any_point(self, tmp_path, capsys):
        """ML at 13x13 QPSK enumerates 2^26 configurations: rejected at start."""
        out = tmp_path / "big.csv"
        assert main(["ber-sweep", "--nt", "13", "--nr", "13", "--m", "2",
                     "--detectors", "ML,MMSE", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "2^26 configurations" in err
        assert "point failed" not in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_fail_before_any_point(self, tmp_path, capsys, workers):
        out = tmp_path / "workers.csv"
        assert main(["ber-sweep", "--nt", "2", "--nr", "2", "--detectors", "MMSE",
                     "--snr-min", "4", "--snr-max", "4", "--errors-target", "5",
                     "--workers", workers, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"workers must be >= 1, got {workers}" in err
        assert "[mimobp] MMSE" not in err and "point failed" not in err
        assert not out.exists()

    def test_failed_points_exit_1_and_keep_the_good_rows(self, tmp_path, capsys, monkeypatch):
        """ML fails at run time; MMSE still runs."""
        real = simulator._engine_soft

        def engine(spec, *args, **kwargs):
            if spec.kind == "ML":
                raise MemoryError("no room for the ML table")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(simulator, "_engine_soft", engine)
        out = tmp_path / "partial.csv"
        code = main(["ber-sweep", "--nt", "4", "--nr", "4", "--m", "2",
                     "--detectors", "ML,MMSE", "--snr-min", "0", "--snr-max", "0",
                     "--errors-target", "1", "--seed", "3", "--workers", "1",
                     "--out", str(out)])
        assert code == 1
        assert "1 of 2 points failed" in capsys.readouterr().err
        assert [r.detector for r in read_csv(out)] == ["MMSE"]


class TestResolutionOrder:
    def test_defaults(self):
        settings = _settings(["ber-sweep"])
        assert (settings["nt"], settings["nr"], settings["m"], settings["l"]) == (4, 4, 1, 5)
        assert settings["detectors"] == [{"kind": "SBP", "rd1": 0, "rd2": 0, "l": 5}]

    def test_workers_env_feeds_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert _settings(["ber-sweep"])["workers"] == 3

    def test_workers_env_is_read_only_when_no_layer_sets_workers(self, monkeypatch, tmp_path):
        monkeypatch.setenv(WORKERS_ENV, "abc")
        with pytest.raises(ValueError):
            _settings(["ber-sweep"])
        assert _settings(["ber-sweep", "--workers", "2"])["workers"] == 2
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nworkers = 1\n")
        assert _settings(["ber-sweep", "--config", str(ini)])["workers"] == 1

    def test_preset_fills_everything(self):
        settings = _settings(["ber-sweep", "--preset", "fig3"])
        assert settings["nt"] == settings["nr"] == 4
        assert settings["snr_points"] == [float(v) for v in range(0, 15, 2)]
        assert [d["kind"] for d in settings["detectors"]] == ["ML", "SBP"]

    def test_config_overrides_preset(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nnt = 2\nerrors_target = 77\n")
        settings = _settings(["ber-sweep", "--preset", "fig3", "--config", str(ini)])
        assert settings["nt"] == 2
        assert settings["errors_target"] == 77
        assert settings["nr"] == 4  # untouched preset value survives

    def test_flags_override_config(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nseed = 1\nnt = 2\n")
        settings = _settings(["ber-sweep", "--config", str(ini), "--seed", "5"])
        assert settings["seed"] == 5
        assert settings["nt"] == 2

    def test_grid_flags_build_the_snr_list(self):
        settings = _settings(["ber-sweep", "--snr-min", "4", "--snr-max", "12",
                              "--snr-step", "4"])
        assert settings["snr_points"] == [4.0, 8.0, 12.0]

    def test_rd_flags_rewrite_relaxed_entries_only(self):
        settings = _settings(["ber-sweep", "--detectors", "SBP,RBP(0,0),MMSE-RBP(0,0)",
                              "--rd1", "2", "--rd2", "1"])
        by_kind = {d["kind"]: d for d in settings["detectors"]}
        assert (by_kind["RBP"]["rd1"], by_kind["RBP"]["rd2"]) == (2, 1)
        assert (by_kind["MMSE_RBP"]["rd1"], by_kind["MMSE_RBP"]["rd2"]) == (2, 1)
        assert (by_kind["SBP"]["rd1"], by_kind["SBP"]["rd2"]) == (0, 0)

    def test_config_detector_sections(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\nl = 3\n"
            "[detector:1]\nkind = MMSE-RBP\nrd1 = 1\nrd2 = 0\n"
            "[detector:2]\nkind = ML\n"
        )
        settings = _settings(["ber-sweep", "--config", str(ini)])
        assert settings["detectors"] == [
            {"kind": "MMSE_RBP", "rd1": 1, "rd2": 0, "l": 3},
            {"kind": "ML", "rd1": 0, "rd2": 0, "l": 3},
        ]

    def test_config_grid_keys(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nsnr_min = 2\nsnr_max = 6\nsnr_step = 2\n")
        assert _settings(["ber-sweep", "--config", str(ini)])["snr_points"] == \
               [2.0, 4.0, 6.0]


class TestEchoRoundTrip:
    @pytest.mark.parametrize("mode, argv", [
        ("ber", ["ber-sweep", "--nt", "3", "--nr", "5", "--l", "4", "--seed", "77",
                 "--detectors", "ML,RBP(1,0)", "--snr-min", "2", "--snr-max", "6",
                 "--snr-step", "2", "--errors-target", "111"]),
        ("ber", ["ber-sweep", "--snr-min", "10.00051", "--snr-max", "10.00051"]),
        ("convergence", ["convergence", "--snr", "10.00051", "--l-max", "3"]),
        ("ber", ["ber-sweep", "--preset", "fig5", "--l", "3", "--bits-max", "9"]),
        ("convergence", ["convergence", "--preset", "fig8", "--l-max", "4"]),
    ], ids=["grid", "seven-digit-point", "convergence-snr", "preset", "convergence-preset"])
    def test_echoed_ini_reproduces_the_settings(self, tmp_path, mode, argv):
        first = _settings(argv + ["--out", str(tmp_path / "a.csv")], mode)
        buf = io.StringIO()
        text = echo_config(first, stream=buf)
        assert text == buf.getvalue()
        ini = tmp_path / "echo.ini"
        ini.write_text(text)
        second = _settings([argv[0], "--config", str(ini)], mode)
        assert second == first


_RELAXED = ["SBP", "RBP(1,0)", "RBP(0,0)", "MMSE-RBP(1,0)", "MMSE-RBP(0,0)"]
# name: (mode, (Nt, Nr, M), SNR points in dB, [(detector, L)], errors_target,
# bits_max, trials_min), written out from the figure setups
PRESET_TABLE = {
    "fig3": ("ber", (4, 4, 1), range(0, 15, 2), [("ML", 0), ("SBP", 5)], 500, 20_000_000, 1),
    "fig5": ("ber", (4, 4, 1), range(0, 17, 2),
             [("SBP", 7), ("RBP(2,0)", 7), ("RBP(1,0)", 7), ("RBP(0,0)", 7),
              ("MMSE-RBP(1,0)", 7), ("MMSE-RBP(0,0)", 7), ("MMSE-SIC", 0)], 500, 20_000_000, 1),
    "fig6": ("ber", (8, 8, 1), range(0, 17, 2), [(d, 5) for d in _RELAXED], 500, 8_000_000, 1),
    "fig7": ("ami", (4, 4, 1), range(0, 13, 2), [(d, 5) for d in _RELAXED], 1, 80_000, 20_000),
    "fig8": ("convergence", (4, 4, 1), [12],
             [("SBP", 10), ("RBP(1,0)", 10), ("RBP(0,0)", 10), ("MMSE-RBP(0,0)", 10)],
             500, 20_000_000, 1),
}
_COMMAND = {"ber": "ber-sweep", "ami": "ami-sweep", "convergence": "convergence"}


def _expected_cfg(name, seed):
    mode, dims, snrs, detectors, errors_target, bits_max, trials_min = PRESET_TABLE[name]
    specs = []
    for label, l in detectors:
        entry = _parse_detector_label(label)
        specs.append(DetectorSpec(entry["kind"], l, entry["rd1"], entry["rd2"]))
    return SweepConfig(SystemDims(*dims), tuple(float(v) for v in snrs), tuple(specs),
                       errors_target, bits_max, trials_min, seed, mode == "ami")


def _preset_cfg(argv, mode):
    return _build_sweep_config(_settings(argv, mode), mode == "ami")


class TestPresets:
    def test_names_are_stable(self):
        assert PRESET_NAMES == tuple(PRESET_TABLE) == ("fig3", "fig5", "fig6", "fig7", "fig8")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            get_preset("fig9")

    def test_seed_override_propagates(self):
        assert get_preset("fig6", master_seed=7).cfg.master_seed == 7

    def test_large_array_preset_shape(self):
        cfg = get_preset("fig6").cfg
        assert (cfg.dims.n_tx, cfg.dims.n_rx) == (8, 8)
        labels = [d.label for d in cfg.detectors]
        assert "MMSE-RBP" in labels and "RBP" in labels and "SBP" in labels

    @pytest.mark.parametrize("seed", [12345, 7])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_get_preset_is_the_table(self, monkeypatch, name, seed):
        """Whatever the workers variable holds: a SweepConfig has no worker count."""
        monkeypatch.setenv(WORKERS_ENV, "abc")
        preset = get_preset(name, master_seed=seed)
        assert (preset.name, preset.mode) == (name, PRESET_TABLE[name][0])
        assert preset.cfg == _expected_cfg(name, seed)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_flag_resolves_to_the_table(self, name):
        mode = PRESET_TABLE[name][0]
        argv = [_COMMAND[mode], "--preset", name]
        assert _preset_cfg(argv, mode) == _expected_cfg(name, 12345)
        assert _preset_cfg(argv + ["--seed", "7"], mode) == _expected_cfg(name, 7)
        settings = _settings(argv, mode)
        assert settings["l"] == max(l for _, l in PRESET_TABLE[name][3])
        if mode == "convergence":
            assert (settings["snr"], settings["l_max"]) == (12.0, 10)

    @pytest.mark.parametrize("flags, ini, l", [
        ([], None, 7), (["--l", "3"], None, 3), ([], "[run]\nl = 3\n", 3),
    ], ids=["preset", "flag", "run-key"])
    def test_run_level_l_sets_every_detector_of_the_preset(self, tmp_path, flags, ini, l):
        if ini is not None:
            path = tmp_path / "run.ini"
            path.write_text(ini)
            flags = ["--config", str(path)]
        cfg = _preset_cfg(["ber-sweep", "--preset", "fig5", *flags], "ber")
        assert [d.iterations for d in cfg.detectors if d.iterative] == [l] * 6

    def test_ber_sweep_of_the_convergence_preset_sweeps_its_one_snr(self):
        cfg = _preset_cfg(["ber-sweep", "--preset", "fig8"], "ber")
        assert cfg.snr_points_db == (12.0,)
        assert [d.iterations for d in cfg.detectors] == [10] * 4

    def test_convergence_preset_takes_a_shorter_l_max(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--preset", "fig8", "--l-max", "4", "--bits-max", "1",
                     "--out", str(out)]) == 0
        records = read_csv(out)
        assert [(r.detector, r.iterations) for r in records] == [
            (kind, l) for kind in ("SBP", "RBP", "RBP", "MMSE-RBP") for l in (1, 2, 3, 4)]
        assert {r.snr_db for r in records} == {12.0}

    def test_ami_preset_uses_fixed_trial_count(self):
        cfg = get_preset("fig7").cfg
        assert cfg.record_ami
        assert cfg.trials_min == 20_000
        assert cfg.bits_max == cfg.trials_min * cfg.dims.n_bits


class TestEndToEnd:
    def test_complexity_table_prints_reference_counts(self, capsys):
        assert main(["complexity"]) == 0
        out = capsys.readouterr().out
        assert "Nt=4 Nr=4 M=1 L=5" in out
        for token in ("256", "260", "1136", "1120"):
            assert token in out

    def test_complexity_honors_dimension_flags(self, capsys):
        assert main(["complexity", "--nt", "2", "--nr", "2", "--l", "1",
                     "--rd1", "0", "--rd2", "0"]) == 0
        out = capsys.readouterr().out
        assert "Nt=2 Nr=2 M=1 L=1" in out

    def test_complexity_at_one_transmit_antenna(self, capsys):
        """rd1 defaults to 1, capped at Nt - 1, the most one antenna allows."""
        assert main(["complexity", "--nt", "1"]) == 0
        out = capsys.readouterr().out
        assert "Nt=1 Nr=4 M=1 L=5" in out
        assert "MMSE-RBP(0,0)" in out

    def test_complexity_runs_whatever_the_workers_variable_holds(self, monkeypatch, capsys,
                                                                 tmp_path):
        """The table runs no pool; a sweep without --workers still refuses the value."""
        monkeypatch.setenv(WORKERS_ENV, "abc")
        assert main(["complexity"]) == 0
        assert "Nt=4 Nr=4 M=1 L=5" in capsys.readouterr().out
        assert main(["ber-sweep", "--out", str(tmp_path / "never.csv")]) == 1
        assert "invalid literal for int()" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    def test_complexity_refused_rd1_prints_nothing_to_stdout(self, capsys):
        assert main(["complexity", "--rd1", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rd1 must be in 0..3" in captured.err

    @pytest.mark.parametrize("argv", [["--nt", "1"], ["--rd1", "0"]], ids=["nt1", "rd1-0"])
    def test_complexity_rows_carry_distinct_labels(self, capsys, argv):
        """RBP(0,0) is the relaxed row at rd1 = 0; the RBP00 count has a row of its own."""
        assert main(["complexity", *argv]) == 0
        labels = [row.split()[0] for row in capsys.readouterr().out.splitlines()[2:]]
        assert len(labels) == 6 and len(set(labels)) == 6
        assert "RBP00" in labels

    def test_full_relaxation_sweep_duplicates_the_exhaustive_column(self, tmp_path):
        out = tmp_path / "pair.csv"
        code = main(["ber-sweep", "--nt", "4", "--nr", "4", "--l", "5",
                     "--detectors", "SBP,RBP(3,1)", "--snr-min", "8",
                     "--snr-max", "8", "--errors-target", "40",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        records = read_csv(out)
        assert [r.detector for r in records] == ["SBP", "RBP"]
        assert records[0].errors == records[1].errors
        assert records[0].bits == records[1].bits
        assert records[0].ber == records[1].ber

    def test_messages_name_detectors_as_the_detectors_flag_does(
            self, tmp_path, capsys, monkeypatch):
        real = simulator._engine_soft

        def engine(spec, *args, **kwargs):
            if spec.name == "RBP(0,0)":
                raise MemoryError("no room")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(simulator, "_engine_soft", engine)
        assert main(["ber-sweep", "--nt", "2", "--nr", "2",
                     "--detectors", "MMSE,RBP(1,0),RBP(0,0)", "--snr-min", "4",
                     "--snr-max", "4", "--errors-target", "5", "--seed", "3",
                     "--out", str(tmp_path / "names.csv")]) == 1
        err = capsys.readouterr().err
        assert "[mimobp] MMSE L=0 snr=4 dB" in err
        assert "[mimobp] RBP(1,0) L=5 snr=4 dB" in err
        assert "[mimobp] point failed: RBP(0,0) @ 4.0 dB: no room" in err
        assert "None" not in err

    def test_same_seed_gives_identical_results_files(self, tmp_path):
        argv = ["ber-sweep", "--nt", "2", "--nr", "2", "--detectors", "MMSE",
                "--snr-min", "4", "--snr-max", "6", "--snr-step", "2",
                "--errors-target", "25", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0

        def strip_wall(path):
            rows = path.read_text().splitlines()
            return [",".join(r.split(",")[:-1]) for r in rows]

        assert strip_wall(a) == strip_wall(b)

    def test_ami_sweep_fills_the_ami_column(self, tmp_path):
        out = tmp_path / "ami.csv"
        code = main(["ami-sweep", "--nt", "2", "--nr", "2", "--detectors", "MMSE",
                     "--snr-min", "4", "--snr-max", "4", "--errors-target", "10",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        records = read_csv(out)
        assert records[0].ami is not None

    def test_convergence_writes_one_row_per_depth(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main(["convergence", "--nt", "4", "--nr", "4",
                     "--detectors", "ML,SBP", "--snr", "8", "--l-max", "3",
                     "--errors-target", "20", "--seed", "13", "--out", str(out)])
        assert code == 0
        assert "skipping ML" in capsys.readouterr().err
        records = read_csv(out)
        assert [r.iterations for r in records] == [1, 2, 3]
        assert len({r.bits for r in records}) == 1

    def test_convergence_draws_each_batch_once_for_all_detectors(self, tmp_path, monkeypatch):
        real = simulator._draw_batch
        draws = []

        def draw(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(simulator, "_draw_batch", draw)
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--nt", "4", "--nr", "4", "--detectors", "SBP,RBP(0,0)",
                     "--snr", "8", "--l-max", "3", "--errors-target", "20", "--seed", "13",
                     "--workers", "1", "--out", str(out)]) == 0
        batches = {r.detector: r.bits // (BATCH_TRIALS * 4) for r in read_csv(out)}
        assert len(batches) == 2
        assert len(draws) == max(batches.values()) < sum(batches.values())

    def test_failed_convergence_point_exits_1_and_keeps_the_good_rows(
            self, tmp_path, capsys, monkeypatch):
        argv = ["convergence", "--nt", "4", "--nr", "4", "--snr", "8", "--l-max", "3",
                "--errors-target", "20", "--seed", "13"]
        alone = tmp_path / "alone.csv"
        assert main(argv + ["--detectors", "SBP", "--out", str(alone)]) == 0
        real = simulator._engine_soft

        def engine(spec, *args, **kwargs):
            if spec.kind == "RBP":
                raise MemoryError("no room")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(simulator, "_engine_soft", engine)
        out = tmp_path / "partial.csv"
        assert main(argv + ["--detectors", "SBP,RBP(0,0)", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "[mimobp] point failed: RBP(0,0) @ 8.0 dB: no room" in err
        assert "1 of 2 points failed" in err

        def strip_wall(path):
            return [row.rsplit(",", 1)[0] for row in path.read_text().splitlines()]

        assert strip_wall(out) == strip_wall(alone)

    def test_selftest_command_passes(self, capsys):
        assert main(["selftest"]) == 0
        err = capsys.readouterr().err
        assert "ok" in err.lower() or "pass" in err.lower()
