"""Tests of the benchmark harness: span arithmetic, rebinding, result shape."""
import json
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibration  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from copsurv import cli, data, experiments, training, weibull  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] encloses B [1, 5] (which encloses C [2, 4]) and B [6, 7].
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 10]))
    tracer.enter("x.a")
    tracer.enter("x.b")
    tracer.enter("y.c")
    tracer.exit()
    tracer.exit()
    tracer.enter("x.b")
    tracer.exit()
    tracer.exit()
    assert dict(tracer.self_s) == {"y.c": 2, "x.b": 3, "x.a": 5}
    assert dict(tracer.total_s) == {"y.c": 2, "x.b": 5, "x.a": 10}
    assert dict(tracer.calls) == {"y.c": 1, "x.b": 2, "x.a": 1}
    assert tracer.covered_s == sum(tracer.self_s.values()) == 10
    assert tracer.layer_self_s() == {"x": 8, "y": 2}


def test_nested_call_of_the_same_span_is_folded():
    # log_partial_u2 calls log_partial_u1: one call, timed once.
    tracer = spans.Tracer(clock=FakeClock([0, 3, 4, 9]))
    tracer.enter("copulas.log_partial")
    tracer.enter("copulas.log_partial")  # re-entry reads no clock
    tracer.enter("weibull.survival")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert dict(tracer.calls) == {"copulas.log_partial": 1, "weibull.survival": 1}
    assert dict(tracer.self_s) == {"copulas.log_partial": 8, "weibull.survival": 1}
    assert tracer.covered_s == 9


def test_wrapper_counts_failures_and_reraises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("training.fit", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.calls["training.fit"] == 1 and tracer.errors["training.fit"] == 1
    assert tracer._stack == []


def test_installed_rebinds_every_binding_and_restores_them():
    originals = (training.fit, experiments.fit, cli.fit, cli.survival_l1,
                 vars(weibull.LinearRisk)["evaluate"], vars(data.SurvivalDataset)["load_csv"])
    with spans.installed(spans.Tracer(), spans.layer_targets()):
        assert training.fit is experiments.fit is cli.fit is not originals[0]
        assert cli.survival_l1 is not originals[3]
        assert isinstance(vars(data.SurvivalDataset)["load_csv"], classmethod)
    restored = (training.fit, experiments.fit, cli.fit, cli.survival_l1,
                vars(weibull.LinearRisk)["evaluate"], vars(data.SurvivalDataset)["load_csv"])
    assert all(a is b for a, b in zip(originals, restored))


@pytest.mark.parametrize("name", ["arm_linear_clayton", "cli_data_eval"])
def test_traced_pass_adds_up_and_matches_untraced_outputs(name, tmp_path):
    workload = workloads.WORKLOADS[name].tiny()
    workload.setup(tmp_path / "inputs", [0])
    outcomes = {}
    for traced in (False, True):
        tracer = spans.Tracer()
        targets = spans.layer_targets() if traced else spans.fit_targets()
        with spans.installed(tracer, targets):
            outcomes[traced] = workload.run_pass(
                0, tmp_path / "inputs", tmp_path / str(traced), tracer)
    assert all(ok for _, ok, _ in outcomes[True].ops), outcomes[True].ops
    assert outcomes[True].signature == outcomes[False].signature

    wall = tracer.covered_s + 0.25  # any wall time the spans do not cover
    metrics = spans.pass_metrics(tracer, wall)
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + metrics["trace.other.self_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-12)
    assert set(metrics) == {n for n, _ in spans.PER_LAYER} - {"trace.overhead_frac"}
    assert metrics["training.epochs"] > 0 and metrics["training.self_s"] > 0


def test_run_reports_exactly_the_declared_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(calibration, "STEPS", 50)
    workload = workloads.WORKLOADS["cli_data_eval"].tiny()
    workload.setup(tmp_path / "inputs", [0, 1])
    result, runs = {}, {}
    for trace in (False, True):
        measured = runs[trace] = run.Run(workload, seed=1, trace=trace)
        measured.time_setups(1.0, iter([2.0] * run.SETUP_CHILDREN).__next__)
        measured.measure(tmp_path, seconds=0)
        result[trace] = measured.result(measured.metrics())
        assert measured.seeds == [0, 1, 1]
        assert any(op == "rerun.identical" and ok for _, op, ok, _ in measured.ops)
    assert result[False]["correct"] and result[True]["correct"], result
    assert list(result[False]["metrics"]) == [n for n, _ in run.END_TO_END]
    assert list(result[True]["metrics"]) == [n for n, _ in spans.PER_LAYER]
    chunks, ref = runs[False].chunks, calibration.REFERENCE_S
    assert len(chunks["setup"]) == run.SETUP_CHILDREN + 1
    # Each set-up is scaled by the chunks on either side of it, this
    # process's own by the chunk after it.
    speeds = [ref / chunks["setup"][0]] + [
        2.0 * ref / (a + b) for a, b in zip(chunks["setup"], chunks["setup"][1:])]
    assert result[False]["metrics"]["setup_s"]["value"] == pytest.approx(
        statistics.median([1.0 * speeds[0]] + [2.0 * k for k in speeds[1:]]))
    assert len(chunks["passes"]) == 4 and len(runs[False].pass_speeds()) == 3
    for res in result.values():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        json.dumps(res, allow_nan=False)


def test_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
        "workloads": [w["name"] for w in spec["workloads"]],
    }
    assert declared["end_to_end"] == list(run.END_TO_END)
    assert declared["per_layer"] == list(spans.PER_LAYER)
    assert declared["workloads"] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    names = [n for n, _ in run.END_TO_END + spans.PER_LAYER] + list(run.WORKLOAD_NAMES)
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["run_seconds"] == run.parse_args([]).seconds
