"""Tests of the benchmark itself: inputs, tracing and the correctness gate.

Run with: python3 -m pytest perfbench -q
"""
import dataclasses
import json

import pytest

import run
import tracer as tr
import workloads
from mimobp import simulator
from mimobp.channel import SystemDims
from mimobp.detectors import DetectorSpec


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_gives_identical_inputs(name):
    wl = workloads.WORKLOADS[name]
    first = workloads.resolve(wl, 7)
    again = workloads.resolve(wl, 7)
    other = workloads.resolve(wl, 8)
    assert first.cfg == again.cfg
    assert (first.snr, first.l_values) == (again.snr, again.l_values)
    assert first.cfg.master_seed == 7
    assert other.cfg.master_seed == 8
    assert dataclasses.replace(other.cfg, master_seed=7) == first.cfg
    assert workloads.canary(first).cfg == workloads.canary(other).cfg
    assert workloads.canary(first).cfg.master_seed == workloads.DEFAULT_SEED


def _tiny_cfg():
    return simulator.SweepConfig(
        SystemDims(2, 2, 1), (4.0,), (DetectorSpec.mmse_rbp(1, 0, 2),),
        errors_target=1, trials_min=2 * simulator.BATCH_TRIALS,
        bits_max=2 * simulator.BATCH_TRIALS * 2)


def test_traced_run_restores_every_wrapped_attribute():
    names = tr.BATCH_NAMES
    originals = {name: getattr(simulator, name) for name in names}
    cfg = _tiny_cfg()
    tracer = tr.Tracer()
    with tr.patched(simulator, tracer, names):
        assert all(getattr(simulator, n) is not originals[n] for n in names)
        rec = simulator.run_point(cfg, cfg.detectors[0], 4.0)
    assert all(getattr(simulator, n) is originals[n] for n in names)
    batches = rec.bits // (simulator.BATCH_TRIALS * 2)
    assert tracer.stats[("_run_batch", "MMSE-RBP-1-0")].calls == batches
    assert tracer.stats[("_engine_bp", "MMSE-RBP-1-0")].iterations == 2 * batches

    with pytest.raises(RuntimeError):
        with tr.patched(simulator, tracer, names):
            raise RuntimeError("boom")
    assert all(getattr(simulator, n) is originals[n] for n in names)


def test_self_time_is_span_minus_children():
    now = [0.0]
    tracer = tr.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 5.0

    def outer(spec):
        now[0] += 1.0
        traced_inner()
        now[0] += 2.0
        traced_inner()

    traced_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "_run_batch")(DetectorSpec.rbp(1, 0, 3))

    child = tracer.stats[("inner", "RBP-1-0")]
    parent = tracer.stats[("_run_batch", "RBP-1-0")]
    assert (child.calls, child.total_s, child.self_s, child.best_s) == (2, 10.0, 10.0, 5.0)
    assert (parent.calls, parent.total_s, parent.self_s) == (1, 13.0, 3.0)
    assert parent.iterations == 3
    assert tracer.root_s == 13.0
    assert tracer.detector == ""


def test_benchmark_json_names_every_metric_and_workload():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def _golden():
    return json.loads(run.GOLDEN.read_text())


@pytest.mark.parametrize("name", ["sweep4-bpsk", "conv4-qpsk", "relax8-bpsk"])
def test_golden_rows_pass_both_gates(name):
    golden = _golden()
    held_out = workloads.HELD_OUT_SEED
    plan = workloads.resolve(workloads.WORKLOADS[name], held_out)
    rows = golden[name][str(held_out)]["rows"]
    assert workloads.count_failures(plan, rows, golden, held_out)[1] == 0
    # the same rows at a seed without golden rows go through the plausibility check
    del golden[name][str(held_out)]
    expected, failed, first = workloads.count_failures(plan, rows, golden, held_out)
    assert (expected, failed, first) == (len(rows), 0, None)


def test_gate_counts_wrong_and_missing_rows():
    golden = _golden()
    plan = workloads.resolve(workloads.WORKLOADS["relax8-bpsk"], workloads.DEFAULT_SEED)
    rows = list(golden["relax8-bpsk"][str(workloads.DEFAULT_SEED)]["rows"])
    rows[3] = rows[3].replace(",5,", ",6,", 1)
    del rows[-1]
    expected, failed, _ = workloads.count_failures(plan, rows, golden, workloads.DEFAULT_SEED)
    assert (expected, failed) == (16, 2)


def test_plausibility_check_rejects_a_doubled_error_count():
    golden = _golden()
    plan = workloads.resolve(workloads.WORKLOADS["conv4-qpsk"], 99)
    ref = golden["conv4-qpsk"][str(workloads.DEFAULT_SEED)]["rows"][0]
    cols = ref.split(",")
    bits, errors = int(cols[5]), 2 * int(cols[6])
    cols[6], cols[7] = str(errors), format(errors / bits, ".6g")
    cols[8], cols[9] = "0", "1"
    assert workloads.row_problem(plan, ",".join(cols), ref) == \
        "ber implausible against the reference seed"
    assert workloads.row_problem(plan, ref, ref) is None
