"""Experiment configs, arm orchestration, and output files."""
import csv
import json
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from copsurv import experiments as exp
from copsurv.copulas import spec_from_tau
from copsurv.datagen import generate_synthetic, preset_metric_bias
from copsurv.errors import NumericalFailure, ValidationError
from copsurv.experiments import KINDS, ExperimentConfig, run_experiment
from copsurv.metrics import metric_bias_experiment
from copsurv.training import TrainConfig

FAST = {"max_epochs": 40, "patience": 40, "seed": 0}
REAL_BIAS_ARM = exp._metric_bias_arm

TOY = dict(seeds=(0, 1), n_train=300, n_val=100, n_test=100, train=FAST)
TINY_CONFIGS = {
    # taus and seeds unsorted: arms.csv comes sorted all the same
    "synthetic_sweep": dict(experiment_id="sweep_tiny", family="clayton", tau_grid=(0.4, 0.0),
                            survival_l1={"n_steps": 200}, **dict(TOY, seeds=(1, 0))),
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
    if payload[2] == 1:
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
        {"train": {"validation_fraction": float("nan")}},
        {"train": {"theta_min": 0.001}},
        {"family": "gumbel"},
        {"kind": "metric_bias", "family": "gumbel"},
        {"survival_l1": {"n_steps": 10.5}},
        {"train": 5},
        {"train": None},
        {"survival_l1": [1]},
        {"experiment_id": 5},
        {"tau_grid": ("0.2",)},
        {"tau_grid": "0.2"},
        {"kind": "metric_bias", "preset": 5},
    ]
    for overrides in bad:
        kwargs = {"experiment_id": "x", "kind": "synthetic_sweep", "tau_grid": (0.2,)}
        kwargs.update(overrides)
        with pytest.raises(ValidationError):
            ExperimentConfig(**kwargs)


@pytest.mark.parametrize("train", [{"seed": 3}, {"validation_fraction": 0.25}])
def test_train_fields_each_arm_derives_are_rejected(train):
    # each arm sets its own training seed and validation fraction, so a
    # config that sets either would run with the value silently dropped
    with pytest.raises(ValidationError, match="derives"):
        ExperimentConfig(experiment_id="x", kind="synthetic_sweep", train=train)


def test_mixture_sweep_forces_mixture_family():
    cfg = ExperimentConfig(experiment_id="m", kind="mixture_sweep",
                           tau_grid=(0.4,), family="clayton")
    assert cfg.family == "mixture"


def test_tau_grid_entries_sharing_a_random_stream_are_rejected():
    # distinct arm directories, but both taus key their streams as 12345
    with pytest.raises(ValidationError, match="random stream"):
        ExperimentConfig(experiment_id="x", kind="metric_bias", tau_grid=(0.0123451, 0.0123452))
    ExperimentConfig(experiment_id="x", kind="metric_bias", tau_grid=(0.2, 0.200001))


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


def config_doc(drop=(), **edits):
    """A metric-bias config document with ``edits`` and without the keys in ``drop``."""
    doc = {"experiment_id": "rule", "kind": "metric_bias", **edits}
    return {key: value for key, value in doc.items() if key not in drop}


@pytest.mark.parametrize("doc, message", [
    (config_doc(drop=("experiment_id", "kind")), "ExperimentConfig is missing experiment_id, kind"),
    (config_doc(drop=("kind",)), "ExperimentConfig is missing kind"),
    (config_doc(tau_grid=["a"]), r"tau_grid\[0\] must be a finite number"),
    (config_doc(tau_grid=[None]), r"tau_grid\[0\] must be a finite number"),
    (config_doc(tau_grid=0.2), "tau_grid must be a list"),
    (config_doc(seeds=5), "seeds must be a list"),
    (config_doc(seeds=[0, 1.0]), r"seeds\[1\] must be an integer"),
    (config_doc(n_train="300"), "n_train must be an integer"),
    (config_doc(experiment_id=None), "experiment_id must be a string"),
    (config_doc(budget=7), "ExperimentConfig takes no budget"),
    (config_doc(train={"max_epochs": None}), "TrainConfig max_epochs must be an integer"),
    (config_doc(survival_l1={"n_steps": 10, "bins": 3}), "SurvivalL1Config takes no bins"),
    (config_doc(kind="semi_synthetic", data_csv=5, target_column="y"),
     "ExperimentConfig data_csv must be a string or null, got 5"),
    (config_doc(kind="semi_synthetic", data_csv="d.csv", target_column=7),
     "ExperimentConfig target_column must be a string or null, got 7"),
])
def test_config_document_names_the_bad_key(doc, message):
    with pytest.raises(ValidationError, match=message):
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
    # the config lists its taus and seeds unsorted; rows come by tau, seed and model
    cfg, result, _ = tiny_sweep
    assert cfg.tau_grid == (0.4, 0.0) and cfg.seeds == (1, 0)
    assert len(result.rows) == 2 * 2 * 2  # taus x seeds x models
    key = [(r["tau_star"], r["seed"], r["model"]) for r in result.rows]
    assert [(r["tau_star"], r["seed"], r["model"]) for r in read_rows(result.arms_csv)] == [
        (str(t), str(s), m) for t, s, m in key]
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
    cfg, _, out = tiny_sweep
    # the echo holds the train defaults that each arm overrides, so it loads again
    assert ExperimentConfig.from_dict(json.loads((out / "config.json").read_text())) == cfg
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
    cfg, result, out = tiny_runs(kind)
    header = (Path(out) / "summary.csv").read_text().splitlines()[0]
    assert header == SUMMARY_HEADERS[kind]
    columns = header.split(",")
    group = [c for c in columns[1:columns.index("n_seeds")] if not c.startswith(("mean_", "std_"))]
    arm_group = [c for c in group if c != "outcome"]
    arms = read_rows(result.arms_csv)
    summary = read_rows(Path(out) / "summary.csv")

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
    real_evaluate = exp.evaluate_fitted

    def slow_evaluate(*args):
        time.sleep(1.0)
        return real_evaluate(*args)

    monkeypatch.setattr(exp, "evaluate_fitted", slow_evaluate)
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
    summary = read_rows(tmp_path / "semi" / "summary.csv")
    assert [s["model"] for s in summary] == ["no_censoring", "copula", "independence"]
    assert summary[0]["tau_star"] == ""
    assert (tmp_path / "semi" / "arms" / "seed0" / "tau0.5" / "copula" / "report.json").exists()


def test_metric_bias_row_is_determined_by_its_tau(tmp_path, tiny_runs):
    # a row depends on its tau, seed and size alone, whatever the tau's type:
    # the arm scores the metric-bias preset's draw on its stream 101
    def without_wall_time(result):
        return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in result.rows]

    cfg, result, _ = tiny_runs("metric_bias")
    rows = without_wall_time(result)
    for i, config in enumerate((cfg, replace(cfg, tau_grid=tuple(map(np.float64, cfg.tau_grid))))):
        assert without_wall_time(run_experiment(config, tmp_path / str(i))) == rows
    by_arm = {(row["tau_star"], row["seed"]): row for row in rows}
    for seed in cfg.seeds:
        gen_cfg = preset_metric_bias(seed, n=cfg.n_train, copula=spec_from_tau(cfg.family, 0.6),
                                     data_seed=exp.child_seed(seed, exp.tau_key(0.6), 101))
        want = asdict(metric_bias_experiment(*generate_synthetic(gen_cfg)))
        assert {k: by_arm[0.6, seed][k] for k in want} == want
        assert {k: by_arm[0.2, seed][k] for k in want} != want


def test_failed_arm_is_recorded_not_fatal(tmp_path, monkeypatch):
    real = exp._metric_bias_arm

    def flaky(payload):
        if payload[2] == 1:
            raise RuntimeError("boom")
        return real(payload)

    monkeypatch.setattr(exp, "_metric_bias_arm", flaky)
    cfg = ExperimentConfig(
        experiment_id="bias_flaky", kind="metric_bias", tau_grid=(0.2,),
        seeds=(0, 1), n_train=300,
    )
    result = run_experiment(cfg, tmp_path / "flaky")
    assert len(result.rows) == 1 and result.rows[0]["seed"] == 0
    assert result.failures == [{"arm": "0.2/1", "error": "RuntimeError", "message": "boom"}]
    assert json.loads((tmp_path / "flaky" / "failures.json").read_text()) == result.failures


def test_failed_tau_costs_only_its_own_arm(tmp_path, monkeypatch):
    # every kind runs one arm per (tau, seed), so a metric-bias failure at
    # tau 0.8 leaves the same seed's tau 0.2 row in place
    real = exp.spec_from_tau

    def spec_failing_at_0_8(family, tau, *args):
        if tau == 0.8:
            raise RuntimeError("boom")
        return real(family, tau, *args)

    monkeypatch.setattr(exp, "spec_from_tau", spec_failing_at_0_8)
    cfg = ExperimentConfig(experiment_id="bias_tau_fail", kind="metric_bias", tau_grid=(0.2, 0.8),
                           seeds=(3,), n_train=300)
    result = run_experiment(cfg, tmp_path / "bias")
    assert [(r["tau_star"], r["seed"]) for r in result.rows] == [(0.2, 3)]
    assert result.failures == [{"arm": "0.8/3", "error": "RuntimeError", "message": "boom"}]


def test_failed_semi_tau_keeps_the_baseline_and_the_other_taus(tmp_path, tiny_runs, monkeypatch):
    # the second tau's censoring fails; the seed's no-censoring row and its
    # first tau's rows are written as a run without the failure writes them
    _, full, _ = tiny_runs("semi_synthetic")
    real = exp.censor_regression
    failing_seed = exp.child_seed(0, exp.tau_key(0.6), 9)

    def censor_failing_at_0_6(marginal, spec, seed):
        if seed == failing_seed:
            raise RuntimeError("boom")
        return real(marginal, spec, seed)

    monkeypatch.setattr(exp, "censor_regression", censor_failing_at_0_6)
    cfg = ExperimentConfig(kind="semi_synthetic", **dict(TINY_CONFIGS["semi_synthetic"], seeds=(0,)))
    result = run_experiment(cfg, tmp_path / "semi")

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]

    assert [(r["tau_star"], r["model"]) for r in result.rows] == [
        ("", "no_censoring"), (0.3, "copula"), (0.3, "independence")]
    assert strip(result.rows) == strip(r for r in full.rows if r["seed"] == 0 and r["tau_star"] != 0.6)
    # each model arm of tau 0.6 censors its own draw, so each records the failure
    assert result.failures == [
        {"arm": "0.6/0", "error": "RuntimeError", "message": "boom", "model": model}
        for model in ("copula", "independence")]


def test_failed_semi_draw_at_the_first_tau_keeps_the_baseline(tmp_path, tiny_runs, monkeypatch):
    # the censoring draw at the grid's first tau fails: its two model rows
    # go, and the seed's no-censoring row, which makes no draw, stays
    _, full, _ = tiny_runs("semi_synthetic")
    real = exp.censor_regression
    failing_seed = exp.child_seed(0, exp.tau_key(0.3), 9)

    def censor_failing_at_0_3(marginal, spec, seed):
        if seed == failing_seed:
            raise RuntimeError("boom")
        return real(marginal, spec, seed)

    monkeypatch.setattr(exp, "censor_regression", censor_failing_at_0_3)
    cfg = ExperimentConfig(kind="semi_synthetic", **dict(TINY_CONFIGS["semi_synthetic"], seeds=(0,)))
    result = run_experiment(cfg, tmp_path / "semi")

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]

    assert [(r["tau_star"], r["model"]) for r in result.rows] == [
        ("", "no_censoring"), (0.6, "copula"), (0.6, "independence")]
    assert strip(result.rows) == strip(r for r in full.rows if r["seed"] == 0 and r["tau_star"] != 0.3)
    assert result.failures == [
        {"arm": "0.3/0", "error": "RuntimeError", "message": "boom", "model": model}
        for model in ("copula", "independence")]


def test_no_censoring_arm_makes_no_censoring_draw(tmp_path, tiny_runs, monkeypatch):
    _, full, _ = tiny_runs("semi_synthetic")

    def no_draw(*args, **kwargs):
        raise AssertionError("the no-censoring arm drew censoring times")

    monkeypatch.setattr(exp, "censor_regression", no_draw)
    cfg = ExperimentConfig(kind="semi_synthetic", **TINY_CONFIGS["semi_synthetic"])
    for seed in cfg.seeds:
        row = exp._semi_arm((cfg, "", seed, "no_censoring", str(tmp_path)))
        want = next(r for r in full.rows if r["seed"] == seed and r["model"] == "no_censoring")
        assert {**row, "wall_time_s": None} == {**want, "wall_time_s": None}


@pytest.mark.filterwarnings("error")
def test_semi_arm_of_a_one_row_table_is_a_validation_error(tmp_path):
    # the test split takes the one row, and the marginal fit rejects the
    # empty rest before the z-score of no rows can warn
    src = tmp_path / "one_row.csv"
    src.write_text("x0,x1,y\n0.5,1.5,2.0\n")
    cfg = ExperimentConfig(experiment_id="semi_one_row", kind="semi_synthetic", data_csv=str(src),
                           target_column="y", tau_grid=(0.5,), seeds=(0,))
    with pytest.raises(NumericalFailure, match="all 3 experiment arms failed"):
        run_experiment(cfg, tmp_path / "semi")
    failures = json.loads((tmp_path / "semi" / "failures.json").read_text())
    assert [(f["model"], f["error"]) for f in failures] == [
        (model, "ValidationError") for model in ("no_censoring", "copula", "independence")]
    assert all("at least one record" in f["message"] for f in failures)


def test_failed_semi_fit_at_the_first_tau_keeps_the_baseline_and_the_copula_row(
        tmp_path, tiny_runs, monkeypatch):
    _, full, _ = tiny_runs("semi_synthetic")
    real_fit = exp.fit
    failing_seed = exp.child_seed(0, exp.tau_key(0.3), 11)

    def fit_failing_on_the_first_tau_independence(data, event_risk, censor_risk, family, config):
        if family == "independence" and config.seed == failing_seed:
            raise RuntimeError("boom")
        return real_fit(data, event_risk, censor_risk, family, config)

    monkeypatch.setattr(exp, "fit", fit_failing_on_the_first_tau_independence)
    cfg = ExperimentConfig(kind="semi_synthetic", **dict(TINY_CONFIGS["semi_synthetic"], seeds=(0,)))
    result = run_experiment(cfg, tmp_path / "semi")

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]

    assert [(r["tau_star"], r["model"]) for r in result.rows] == [
        ("", "no_censoring"), (0.3, "copula"), (0.6, "copula"), (0.6, "independence")]
    assert strip(result.rows) == strip(
        r for r in full.rows if r["seed"] == 0 and (r["tau_star"], r["model"]) != (0.3, "independence"))
    assert result.failures == [
        {"arm": "0.3/0", "error": "RuntimeError", "message": "boom", "model": "independence"}]


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
    assert [(r["seed"], r["model"]) for r in result.rows] == [
        (0, "copula"), (1, "copula"), (1, "independence")]
    assert result.failures == [{
        "arm": "0.4/0", "error": "NumericalFailure",
        "message": "epoch 7: non-finite log-likelihood term at record 3",
        "model": "independence", "epoch": 7, "record_index": 3,
    }]
    assert json.loads((tmp_path / "fail" / "failures.json").read_text()) == result.failures
    # the copula fit of the same (tau, seed) is an arm of its own: its row and artifacts stay
    arm_dir = tmp_path / "fail" / "arms" / "tau0.4_seed0"
    for name in ("checkpoint.json", "trace.csv", "report.json"):
        assert (arm_dir / "copula" / name).exists()
    assert not (arm_dir / "independence").exists()


def test_failed_copula_evaluation_names_its_model_and_keeps_the_independence_row(
        tmp_path, monkeypatch):
    real_evaluate = exp.evaluate_fitted

    def evaluate_failing_on_the_copula_fit(fitted, *args):
        if fitted.copula.family.value != "independence":
            raise RuntimeError("boom")
        return real_evaluate(fitted, *args)

    monkeypatch.setattr(exp, "evaluate_fitted", evaluate_failing_on_the_copula_fit)
    cfg = ExperimentConfig(experiment_id="sweep_eval_fail", kind="synthetic_sweep", tau_grid=(0.4,),
                           survival_l1={"n_steps": 200}, **dict(TOY, seeds=(0,)))
    result = run_experiment(cfg, tmp_path / "fail")
    assert [(r["tau_star"], r["seed"], r["model"]) for r in result.rows] == [(0.4, 0, "independence")]
    assert result.failures == [
        {"arm": "0.4/0", "error": "RuntimeError", "message": "boom", "model": "copula"}]
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


def test_a_clean_rerun_removes_an_earlier_runs_failures_json(tmp_path):
    out = tmp_path / "out"
    missing = ExperimentConfig(experiment_id="semi_missing", kind="semi_synthetic",
                               data_csv=str(tmp_path / "missing.csv"), target_column="y",
                               tau_grid=(0.5,), seeds=(0,))
    with pytest.raises(NumericalFailure, match="experiment arms failed"):
        run_experiment(missing, out)
    assert (out / "failures.json").exists()
    result = run_experiment(ExperimentConfig(experiment_id="bias_clean", **BIAS_TWO_SEEDS), out)
    assert result.failures == []
    assert not (out / "failures.json").exists()


def test_a_rerun_leaves_only_its_own_arm_directories(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(kind="synthetic_sweep",
                           **dict(TINY_CONFIGS["synthetic_sweep"], tau_grid=(0.4,), seeds=(0,)))
    run_experiment(cfg, out)
    assert sorted(p.name for p in (out / "arms").iterdir()) == ["tau0.4_seed0"]
    run_experiment(replace(cfg, seeds=(1,)), out)
    assert sorted(p.name for p in (out / "arms").iterdir()) == ["tau0.4_seed1"]
    # a kind that writes no arm directories leaves no arms/ behind either
    run_experiment(ExperimentConfig(experiment_id="bias_after_sweep", **BIAS_TWO_SEEDS), out)
    assert not (out / "arms").exists()


def test_arm_failure_in_a_worker_is_recorded(tmp_path, monkeypatch):
    monkeypatch.setattr(exp, "_metric_bias_arm", arm_failing_on_seed_1)
    cfg = ExperimentConfig(experiment_id="bias_pool_flaky", **BIAS_TWO_SEEDS)
    result = run_experiment(cfg, tmp_path / "flaky", workers=2)
    assert len(result.rows) == 1 and result.rows[0]["seed"] == 0
    assert result.failures == [{"arm": "0.2/1", "error": "RuntimeError", "message": "boom"}]


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
