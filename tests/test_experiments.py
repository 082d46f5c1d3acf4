"""Experiment configs, arm orchestration, and output files."""
import csv
import json
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from copsurv import experiments as exp
from copsurv.errors import NumericalFailure, ValidationError
from copsurv.experiments import KINDS, ExperimentConfig, run_experiment
from copsurv.training import TrainConfig

FAST = {"max_epochs": 40, "patience": 40, "seed": 0}
REAL_BIAS_ARM = exp._metric_bias_arm

TOY = dict(seeds=(0, 1), n_train=300, n_val=100, n_test=100, train=FAST)
TINY_CONFIGS = {
    "synthetic_sweep": dict(experiment_id="sweep_tiny", family="clayton", tau_grid=(0.0, 0.4),
                            survival_l1={"n_steps": 200}, **TOY),
    "mixture_sweep": dict(experiment_id="mixture_tiny", tau_grid=(0.4,),
                          survival_l1={"n_steps": 200}, **TOY),
    "metric_bias": dict(experiment_id="bias_tiny", tau_grid=(0.2, 0.6), seeds=(0, 1), n_train=300),
    "semi_synthetic": dict(experiment_id="semi_tiny", preset="standin", tau_grid=(0.3, 0.6), **TOY),
}

# summary.csv header of each kind, as documented in the README
SWEEP_SUMMARY = ("experiment_id,tau_star,model,outcome,mean_survival_l1,std_survival_l1,"
                 "mean_tau_hat,std_tau_hat,n_seeds")
SUMMARY_HEADERS = {
    "synthetic_sweep": SWEEP_SUMMARY,
    "mixture_sweep": SWEEP_SUMMARY,
    "metric_bias": ("experiment_id,tau_star,mean_c_index_uncensored,mean_c_index_censored,"
                    "mean_c_index_abs_diff,mean_brier_uncensored,mean_brier_censored,"
                    "mean_brier_abs_diff,n_seeds"),
    "semi_synthetic": ("experiment_id,tau_star,model,mean_r_squared,std_r_squared,"
                       "mean_tau_hat,std_tau_hat,n_seeds"),
}


# Module-level arms, so that a worker process can unpickle them.
def arm_failing_on_seed_1(payload):
    if payload[1] == 1:
        raise RuntimeError("boom")
    return REAL_BIAS_ARM(payload)


def arm_killing_its_worker(payload):
    os._exit(1)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tree_without_wall_time(root):
    """Every file under ``root`` by relative path, arms.csv without wall_time_s."""
    tree = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "arms.csv":
            lines = [line.split(",") for line in data.decode().splitlines()]
            wall = lines[0].index("wall_time_s")
            data = [line[:wall] + line[wall + 1:] for line in lines]
        tree[str(path.relative_to(root))] = data
    return tree


def test_config_validation():
    bad = [
        {"kind": "ablation"},
        {"tau_grid": ()},
        {"tau_grid": (0.2, 1.0)},
        {"seeds": ()},
        {"n_val": 0},
        {"kind": "synthetic_sweep", "family": "mixture"},
        {"kind": "metric_bias", "family": "mixture"},
        {"family": "independence"},
        {"kind": "synthetic_sweep", "preset": "metric_bias"},
        {"kind": "semi_synthetic", "tau_grid": (0.5,)},  # no data source
        {"kind": "semi_synthetic", "data_csv": "d.csv", "tau_grid": (0.5,)},
        {"kind": "semi_synthetic", "preset": "standin", "tau_grid": (0.0, 0.5)},
        {"event_risk": "tree"},
        {"kappa": 1.5},
        {"kind": "metric_bias", "seeds": (-1,)},
        {"seeds": (0, -3)},
        {"n_train": 200.5},
        {"n_val": 100.0},
        {"n_test": True},
        {"tau_grid": (0.2, 0.2)},
        {"seeds": (0, 1, 0)},
        {"seeds": (1.5,)},
        {"tau_grid": (0.2, 0.2000001)},
        {"kappa": "0.5"},
        {"kappa": True},
        {"train": {"max_epochs": 30.5, "patience": 30}},
        {"train": {"seed": 1.5}},
        {"train": {"theta_min": float("nan")}},
        {"survival_l1": {"n_steps": 10.5}},
        {"train": 5},
        {"train": None},
        {"survival_l1": [1]},
    ]
    for overrides in bad:
        kwargs = {"experiment_id": "x", "kind": "synthetic_sweep", "tau_grid": (0.2,)}
        kwargs.update(overrides)
        with pytest.raises(ValidationError):
            ExperimentConfig(**kwargs)


def test_mixture_sweep_forces_mixture_family():
    cfg = ExperimentConfig(experiment_id="m", kind="mixture_sweep",
                           tau_grid=(0.4,), family="clayton")
    assert cfg.family == "mixture"


def test_config_round_trip_and_unknown_field():
    cfg = ExperimentConfig(
        experiment_id="rt", kind="metric_bias", tau_grid=(0.2, 0.8), seeds=(0, 1, 2),
        n_train=1234, train={"max_epochs": 99, "patience": 50},
        survival_l1={"n_steps": 321},
    )
    doc = json.loads(json.dumps(cfg.to_dict()))
    again = ExperimentConfig.from_dict(doc)
    assert again == cfg
    assert again.train == TrainConfig(max_epochs=99, patience=50)
    doc["budget"] = 7
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict(doc)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Serial run of each kind's tiny config, made on first use: (cfg, result, out)."""
    runs = {}

    def run(kind):
        if kind not in runs:
            cfg = ExperimentConfig(kind=kind, **TINY_CONFIGS[kind])
            out = tmp_path_factory.mktemp(kind)
            runs[kind] = cfg, run_experiment(cfg, out), out
        return runs[kind]

    return run


@pytest.fixture(scope="module")
def tiny_sweep(tiny_runs):
    return tiny_runs("synthetic_sweep")


def test_sweep_row_grid_and_order(tiny_sweep):
    cfg, result, _ = tiny_sweep
    assert len(result.rows) == 2 * 2 * 2  # taus x seeds x models
    key = [(r["tau_star"], r["seed"], r["model"]) for r in result.rows]
    assert key == [
        (t, s, m) for t in (0.0, 0.4) for s in (0, 1) for m in ("copula", "independence")
    ]
    for row in result.rows:
        if row["model"] == "independence":
            assert row["tau_hat"] == 0.0
        assert row["survival_l1_event"] >= 0.0
        assert row["r_squared"] is None
    assert result.failures == []


def test_sweep_artifacts_on_disk(tiny_sweep):
    _, _, out = tiny_sweep
    assert json.loads((out / "config.json").read_text())["experiment_id"] == "sweep_tiny"
    assert (out / "arms" / "tau0_seed0" / "truth.json").exists()
    for model in ("copula", "independence"):
        mdir = out / "arms" / "tau0.4_seed1" / model
        for name in ("checkpoint.json", "trace.csv", "report.json"):
            assert (mdir / name).exists()
    assert not (out / "failures.json").exists()


def test_sweep_arms_csv_layout(tiny_sweep):
    cfg, result, out = tiny_sweep
    text = Path(result.arms_csv).read_text().splitlines()
    assert text[0] == ",".join(exp.SWEEP_COLUMNS)
    assert len(text) == 1 + len(result.rows)
    rows = read_rows(result.arms_csv)
    assert rows[0]["r_squared"] == ""  # sweeps have no regression target
    assert float(rows[0]["survival_l1_event"]) == result.rows[0]["survival_l1_event"]


@pytest.mark.parametrize("kind", KINDS)
def test_summary_recomputes_from_arms(tiny_runs, kind):
    cfg, result, _ = tiny_runs(kind)
    header = Path(result.summary_csv).read_text().splitlines()[0]
    assert header == SUMMARY_HEADERS[kind]
    columns = header.split(",")
    group = [c for c in columns[1:columns.index("n_seeds")] if not c.startswith(("mean_", "std_"))]
    arm_group = [c for c in group if c != "outcome"]
    arms = read_rows(result.arms_csv)
    summary = read_rows(result.summary_csv)

    # one row per group, in the order of the group's first arms.csv row
    expected = list(dict.fromkeys(tuple(a[c] for c in arm_group) for a in arms))
    if "outcome" in group:
        expected = [key + (outcome,) for key in expected for outcome in ("event", "censor")]
    assert [tuple(rec[c] for c in group) for rec in summary] == expected

    for rec in summary:
        sub = [a for a in arms if all(a[c] == rec[c] for c in arm_group)]
        assert int(rec["n_seeds"]) == len(sub) == len(cfg.seeds)
        for col in columns:
            if not col.startswith(("mean_", "std_")):
                continue
            stat, name = col.split("_", 1)
            if name == "survival_l1":
                name = f"survival_l1_{rec['outcome']}"
            values = [float(a[name]) for a in sub if a[name] != ""]
            if not values:  # e.g. tau_hat of the no-censoring baseline
                assert rec[col] == ""
                continue
            want = np.mean(values) if stat == "mean" else np.std(values)
            assert float(rec[col]) == pytest.approx(want, abs=1e-15)


def test_sweep_wall_time_covers_the_fit_only(tmp_path, monkeypatch):
    # wall_time_s is the fit's seconds in every kind; evaluation is left out
    real_evaluate = exp._evaluate_fitted

    def slow_evaluate(*args):
        time.sleep(1.0)
        return real_evaluate(*args)

    monkeypatch.setattr(exp, "_evaluate_fitted", slow_evaluate)
    cfg = ExperimentConfig(
        experiment_id="wall", kind="synthetic_sweep", tau_grid=(0.4,), seeds=(0,),
        n_train=200, n_val=50, n_test=50, train={"max_epochs": 5, "patience": 5, "seed": 0},
    )
    rows = run_experiment(cfg, tmp_path / "out").rows
    assert len(rows) == 2
    assert all(row["wall_time_s"] < 1.0 for row in rows), rows


def test_semi_synthetic_standin_rows(tmp_path):
    cfg = ExperimentConfig(
        experiment_id="semi_tiny", kind="semi_synthetic", preset="standin",
        family="clayton", tau_grid=(0.5,), seeds=(0,),
        n_train=500, n_val=150, n_test=150,
        train=dict(FAST),
    )
    result = run_experiment(cfg, tmp_path / "semi")
    assert [(r["tau_star"], r["model"]) for r in result.rows] == [
        ("", "no_censoring"), (0.5, "copula"), (0.5, "independence")
    ]
    for row in result.rows:
        assert row["r_squared"] is not None
    summary = read_rows(result.summary_csv)
    assert [s["model"] for s in summary] == ["no_censoring", "copula", "independence"]
    assert summary[0]["tau_star"] == ""
    assert (tmp_path / "semi" / "arms" / "seed0" / "tau0.5" / "copula" / "report.json").exists()


def test_failed_arm_is_recorded_not_fatal(tmp_path, monkeypatch):
    real = exp._metric_bias_arm

    def flaky(payload):
        if payload[1] == 1:
            raise RuntimeError("boom")
        return real(payload)

    monkeypatch.setattr(exp, "_metric_bias_arm", flaky)
    cfg = ExperimentConfig(
        experiment_id="bias_flaky", kind="metric_bias", tau_grid=(0.2,),
        seeds=(0, 1), n_train=300,
    )
    result = run_experiment(cfg, tmp_path / "flaky")
    assert len(result.rows) == 1 and result.rows[0]["seed"] == 0
    assert result.failures == [{"arm": "1", "error": "RuntimeError", "message": "boom"}]
    assert json.loads((tmp_path / "flaky" / "failures.json").read_text()) == result.failures


@pytest.mark.parametrize("workers", [1, 2])
def test_numerical_failure_records_model_epoch_and_record(tmp_path, monkeypatch, workers):
    real_fit = exp.fit
    seed0_train_seed = exp.child_seed(0, exp.tau_key(0.4), 2)

    def fit_failing_on_seed_0_independence(data, event_risk, censor_risk, family, config):
        if family == "independence" and config.seed == seed0_train_seed:
            raise NumericalFailure("epoch 7: non-finite log-likelihood term at record 3",
                                   record_index=3, epoch=7)
        return real_fit(data, event_risk, censor_risk, family, config)

    monkeypatch.setattr(exp, "fit", fit_failing_on_seed_0_independence)
    cfg = ExperimentConfig(experiment_id="sweep_fail", kind="synthetic_sweep", tau_grid=(0.4,),
                           survival_l1={"n_steps": 200}, **TOY)
    result = run_experiment(cfg, tmp_path / "fail", workers=workers)
    assert [(r["seed"], r["model"]) for r in result.rows] == [(1, "copula"), (1, "independence")]
    assert result.failures == [{
        "arm": "0.4/0", "error": "NumericalFailure",
        "message": "epoch 7: non-finite log-likelihood term at record 3",
        "model": "independence", "epoch": 7, "record_index": 3,
    }]
    assert json.loads((tmp_path / "fail" / "failures.json").read_text()) == result.failures
    # the failed arm's copula fit succeeded, but without its row it saves nothing
    assert not (tmp_path / "fail" / "arms" / "tau0.4_seed0" / "copula").exists()


def test_all_arms_failing_raises(tmp_path, monkeypatch):
    def broken(payload):
        raise RuntimeError("boom")

    monkeypatch.setattr(exp, "_metric_bias_arm", broken)
    cfg = ExperimentConfig(
        experiment_id="bias_dead", kind="metric_bias", tau_grid=(0.2,),
        seeds=(0, 1), n_train=300,
    )
    with pytest.raises(NumericalFailure, match="all 2 experiment arms failed"):
        run_experiment(cfg, tmp_path / "dead")
    failures = json.loads((tmp_path / "dead" / "failures.json").read_text())
    assert len(failures) == 2
    assert all(f["error"] == "RuntimeError" and f["message"] == "boom" for f in failures)


@pytest.mark.parametrize("kind", KINDS)
def test_parallel_workers_match_serial(tmp_path, tiny_runs, kind):
    cfg, serial, serial_out = tiny_runs(kind)
    parallel = run_experiment(cfg, tmp_path / "parallel", workers=2)

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]

    assert strip(serial.rows) == strip(parallel.rows)
    assert tree_without_wall_time(tmp_path / "parallel") == tree_without_wall_time(serial_out)


BIAS_TWO_SEEDS = dict(kind="metric_bias", tau_grid=(0.2,), seeds=(0, 1), n_train=300)


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_is_a_validation_error(tmp_path, workers):
    cfg = ExperimentConfig(experiment_id="bias_w", **BIAS_TWO_SEEDS)
    with pytest.raises(ValidationError, match="workers"):
        run_experiment(cfg, tmp_path / "w", workers=workers)
    assert not (tmp_path / "w").exists()


def test_arm_failure_in_a_worker_is_recorded(tmp_path, monkeypatch):
    monkeypatch.setattr(exp, "_metric_bias_arm", arm_failing_on_seed_1)
    cfg = ExperimentConfig(experiment_id="bias_pool_flaky", **BIAS_TWO_SEEDS)
    result = run_experiment(cfg, tmp_path / "flaky", workers=2)
    assert len(result.rows) == 1 and result.rows[0]["seed"] == 0
    assert result.failures == [{"arm": "1", "error": "RuntimeError", "message": "boom"}]


def test_unpicklable_arm_raises_instead_of_being_recorded(tmp_path, monkeypatch):
    calls = []

    def local_arm(payload):
        calls.append(payload)
        return REAL_BIAS_ARM(payload)

    monkeypatch.setattr(exp, "_metric_bias_arm", local_arm)
    cfg = ExperimentConfig(experiment_id="bias_local", **BIAS_TWO_SEEDS)
    with pytest.raises(pickle.PicklingError, match="local_arm"):
        run_experiment(cfg, tmp_path / "local", workers=2)
    assert calls == []
    assert not (tmp_path / "local" / "failures.json").exists()


def test_broken_pool_raises_instead_of_being_recorded(tmp_path, monkeypatch):
    monkeypatch.setattr(exp, "_metric_bias_arm", arm_killing_its_worker)
    cfg = ExperimentConfig(experiment_id="bias_broken", **BIAS_TWO_SEEDS)
    with pytest.raises(BrokenProcessPool):
        run_experiment(cfg, tmp_path / "broken", workers=2)
    assert not (tmp_path / "broken" / "failures.json").exists()
