"""End-to-end runs of the command line interface, in process."""
import copy
import json
from pathlib import Path

import numpy as np
import pytest

import copsurv
from copsurv import experiments
from copsurv.cli import main
from copsurv.datagen import synthetic_regression
from copsurv.experiments import ExperimentConfig
from copsurv.training import TrainConfig


def run(*argv):
    return main([str(a) for a in argv])


TRAIN_CONFIG = {"max_epochs": 60, "patience": 60, "validation_fraction": 0.25, "seed": 0}
EXPERIMENT_CONFIG = {
    "experiment_id": "corpus", "kind": "metric_bias", "family": "clayton", "tau_grid": [0.2, 0.6],
    "seeds": [0, 1], "n_train": 300, "n_val": 100, "n_test": 100, "kappa": 0.5,
    "train": {"max_epochs": 40, "patience": 40},
    "survival_l1": {"quantile_floor": 0.01, "n_steps": 200},
}
# each config command's reader, a valid config and the keys it may do without
CONFIGS = {
    "train": (TrainConfig, TRAIN_CONFIG, set(TRAIN_CONFIG)),
    "experiment": (ExperimentConfig, EXPERIMENT_CONFIG,
                   set(EXPERIMENT_CONFIG) - {"experiment_id", "kind"}
                   | set(EXPERIMENT_CONFIG["train"]) | set(EXPERIMENT_CONFIG["survival_l1"])),
}
# the keys of a truth sidecar that evaluate does not read
SIDECAR_UNREAD = {"n", "d", "seed", "tau"}
CORPUS_KINDS = ("keys", "values", "cut")


def json_paths(doc, path=()):
    """The path, a tuple of keys and indices, of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


DROP = object()


def edited(doc, path, new):
    """A copy of ``doc`` with the value at ``path`` set to ``new``, or dropped if ``new`` is DROP."""
    doc = copy.deepcopy(doc)
    parent = value_at(doc, path[:-1])
    if new is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def broken_variants(text, kind, optional=()):
    """(label, text) of each broken variant of one kind of the JSON document
    ``text``.  ``keys``: each key not in ``optional`` dropped, and an unknown
    key added to each object.  ``values``: each value (scalar, list, list
    element or object) replaced by "x" (a string by 5) and by null.  ``cut``:
    the text cut short."""
    if kind == "cut":
        return [(f"first {n} characters", text[:n]) for n in (1, len(text) // 2, len(text) - 2)]
    doc, edits = json.loads(text), []
    for path in [(), *json_paths(doc)]:
        value = value_at(doc, path)
        if kind == "keys" and isinstance(value, dict):
            edits.append((path + ("bogus",), 1))
        if kind == "keys" and path and isinstance(path[-1], str) and path[-1] not in optional:
            edits.append((path, DROP))
        if kind == "values" and path:
            edits += [(path, 5 if isinstance(value, str) else "x"), (path, None)]
    assert edits
    return [(f"{'dropped' if new is DROP else repr(new)} at {list(path)}",
             json.dumps(edited(doc, path, new))) for path, new in edits]


def corpus(kind):
    """A case of every broken variant of one kind, each an error."""
    return lambda text, optional: [(label, broken, "error:")
                                   for label, broken in broken_variants(text, kind, optional)]


def write_regression_csv(path, n=250, d=4, seed=0, negate=False):
    x, y = synthetic_regression(n, d, seed)
    if negate:
        y = y - y.max() - 1.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{j}" for j in range(d)] + ["y"]) + "\n")
        for i in range(n):
            cells = [repr(float(v)) for v in x[i]] + [repr(float(y[i]))]
            fh.write(",".join(cells) + "\n")


def test_help_and_bad_args_exit_codes(capsys):
    assert run("--help") == 0
    assert run("generate", "--help") == 0
    assert run() == 1                      # no subcommand
    assert run("generate") == 1            # missing required flags
    assert run("generate", "--family", "gumbel", "--tau", "0.5", "--out", "x") == 1
    # the MLP architecture is fixed; there is no widths flag
    assert run("train", "--data", "d.csv", "--mlp-widths", "8", "4", "1", "--out", "x") == 1
    capsys.readouterr()


def test_generate_writes_dataset_and_truth(tmp_path, capsys):
    out = tmp_path / "gen"
    assert run("generate", "--preset", "linear_risk", "--n", 1000, "--family", "clayton",
               "--tau", 0.5, "--seed", 7, "--out", out) == 0
    assert "censoring fraction" in capsys.readouterr().out
    for name in ("data.csv", "latent.csv", "truth.json"):
        assert (out / name).exists()
    doc = json.loads((out / "truth.json").read_text())
    assert doc["nu_E"] == 4.0 and doc["rho_E"] == 14.0
    assert doc["copula"]["family"] == "clayton"
    assert doc["tau"] == 0.5
    header = (out / "data.csv").read_text().splitlines()[0]
    assert header.endswith("time,event")


def test_generate_tau_zero_is_independence(tmp_path, capsys):
    out = tmp_path / "indep"
    assert run("generate", "--tau", 0.0, "--n", 200, "--out", out) == 0
    doc = json.loads((out / "truth.json").read_text())
    assert doc["copula"]["family"] == "independence"
    capsys.readouterr()


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ("generate", "--tau", 0.4, "--n", 500, "--seed", 3)
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()
    capsys.readouterr()


def test_generate_rejects_degenerate_tau(tmp_path, capsys):
    assert run("generate", "--tau", 1.0, "--out", tmp_path / "x") == 1
    assert "error:" in capsys.readouterr().err


def test_censor_writes_metadata(tmp_path, capsys):
    src = tmp_path / "reg.csv"
    write_regression_csv(src)
    out = tmp_path / "cens"
    assert run("censor", "--data", src, "--target", "y", "--family", "frank",
               "--tau", 0.5, "--seed", 1, "--out", out) == 0
    assert (out / "data.csv").exists()
    meta = json.loads((out / "censoring.json").read_text())
    assert meta["target_column"] == "y"
    assert meta["copula"]["family"] == "frank"
    assert 0.0 < meta["censoring_fraction"] < 1.0
    # censoring marginal reuses the event fit with a softened shape
    nu_e = np.exp(meta["event_model"]["log_nu"])
    nu_c = np.exp(meta["censor_model"]["log_nu"])
    assert nu_c == pytest.approx(nu_e / 0.6, rel=1e-12)
    assert len(meta["standardize_mean"]) == 4
    assert meta["shift"] == 0.0
    capsys.readouterr()


def test_censor_nonpositive_targets_need_shift_flag(tmp_path, capsys):
    src = tmp_path / "neg.csv"
    write_regression_csv(src, negate=True)
    assert run("censor", "--data", src, "--target", "y", "--tau", 0.3,
               "--out", tmp_path / "c1") == 1
    assert run("censor", "--data", src, "--target", "y", "--tau", 0.3, "--shift",
               "--out", tmp_path / "c2") == 0
    meta = json.loads((tmp_path / "c2" / "censoring.json").read_text())
    assert meta["shift"] > 0.0
    capsys.readouterr()


def test_censor_negative_target_message_names_the_column_record_and_flag(tmp_path, capsys):
    src = tmp_path / "neg.csv"
    write_regression_csv(src)
    lines = src.read_text().splitlines(keepends=True)
    lines[4] = lines[4].rsplit(",", 1)[0] + ",-0.25\n"  # record 3
    src.write_text("".join(lines))
    out = tmp_path / "c"
    assert run("censor", "--data", src, "--target", "y", "--tau", 0.3, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: {src}: 'y' must be non-negative (record 3); pass --shift to translate the targets\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small generated dataset with a short clayton fit on top."""
    root = tmp_path_factory.mktemp("cli_train")
    data_dir = root / "data"
    assert run("generate", "--tau", 0.5, "--n", 400, "--seed", 2, "--out", data_dir) == 0
    cfg = root / "train.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    fit_dir = root / "fit"
    code = run("train", "--data", data_dir / "data.csv", "--family", "clayton",
               "--config", cfg, "--out", fit_dir)
    assert code == 0
    return data_dir, cfg, fit_dir


def test_train_outputs(trained, capsys):
    data_dir, cfg, fit_dir = trained
    assert (fit_dir / "checkpoint.json").exists()
    trace_header = (fit_dir / "trace.csv").read_text().splitlines()[0]
    assert trace_header == "epoch,train_negloglik,val_negloglik,theta_hat"
    # stdout summary was printed during the fixture; rerun cheaply to capture it
    out_dir = fit_dir.parent / "fit2"
    assert run("train", "--data", data_dir / "data.csv", "--family", "independence",
               "--config", cfg, "--out", out_dir) == 0
    text = capsys.readouterr().out
    assert "val_negloglik=" in text and "tau_hat=" in text
    indep_header = (out_dir / "trace.csv").read_text().splitlines()[0]
    assert indep_header == "epoch,train_negloglik,val_negloglik"


def test_train_seed_flag_overrides_the_config_seed(trained, capsys):
    data_dir, cfg, fit_dir = trained
    seeded = fit_dir.parent / "seed3.json"
    seeded.write_text(json.dumps({**TRAIN_CONFIG, "seed": 3}))
    flag, config = fit_dir.parent / "flag3", fit_dir.parent / "config3"
    assert run("train", "--data", data_dir / "data.csv", "--config", cfg, "--seed", 3,
               "--out", flag) == 0
    assert run("train", "--data", data_dir / "data.csv", "--config", seeded, "--out", config) == 0
    checkpoint = (flag / "checkpoint.json").read_bytes()
    assert checkpoint == (config / "checkpoint.json").read_bytes()
    # the config's own seed (0) gives another fit, so the flag took effect
    assert checkpoint != (fit_dir / "checkpoint.json").read_bytes()
    capsys.readouterr()


def test_train_mixture_trace_columns(trained, capsys):
    data_dir, _, fit_dir = trained
    cfg = fit_dir.parent / "mix.json"
    cfg.write_text(json.dumps({"max_epochs": 5, "patience": 5, "validation_fraction": 0.25}))
    out_dir = fit_dir.parent / "mix"
    assert run("train", "--data", data_dir / "data.csv", "--family", "mixture",
               "--config", cfg, "--out", out_dir) == 0
    header = (out_dir / "trace.csv").read_text().splitlines()[0]
    assert header == "epoch,train_negloglik,val_negloglik,theta_frank,theta_clayton,kappa"
    capsys.readouterr()


def test_evaluate_report(trained, tmp_path, capsys):
    data_dir, _, fit_dir = trained
    report_path = tmp_path / "report.json"
    assert run("evaluate", "--checkpoint", fit_dir / "checkpoint.json",
               "--data", data_dir / "data.csv", "--truth", data_dir / "truth.json",
               "--out", report_path) == 0
    printed = capsys.readouterr().out
    doc = json.loads(report_path.read_text())
    assert json.loads(printed) == doc
    assert set(doc) == {"c_index", "brier", "survival_l1_event", "survival_l1_censor", "tau_hat"}
    assert 0.0 <= doc["c_index"] <= 1.0
    assert doc["survival_l1_event"] >= 0.0

    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(copsurv.__file__).parent / "schemas" / "evaluation_report.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)


def test_evaluate_without_truth_omits_l1(trained, tmp_path, capsys):
    data_dir, _, fit_dir = trained
    report_path = tmp_path / "bare.json"
    assert run("evaluate", "--checkpoint", fit_dir / "checkpoint.json",
               "--data", data_dir / "data.csv", "--out", report_path) == 0
    doc = json.loads(report_path.read_text())
    assert set(doc) == {"c_index", "brier", "tau_hat"}
    capsys.readouterr()


def with_copula(block):
    """The case of the document with its copula block replaced by ``block``."""
    return lambda text, optional: [
        (f"copula {block}", json.dumps({**json.loads(text), "copula": block}), "error:")]


@pytest.mark.parametrize("file, case", [
    pytest.param("checkpoint", with_copula({"family": "clayton"}), id="copula0"),
    pytest.param("checkpoint", with_copula({"family": "clayton", "theta": None}), id="copula1"),
    pytest.param("checkpoint", with_copula({"family": "independence", "theta": 2.0}), id="copula2"),
    *[pytest.param(file, corpus(kind), id=f"{file}-{kind}")
      for file in ("checkpoint", "truth") for kind in CORPUS_KINDS],
])
def test_evaluate_edited_checkpoint_exits_one(trained, tmp_path, capsys, file, case):
    # a broken checkpoint or truth sidecar: dropped, unknown or mistyped keys
    # and cut text each exit 1 with an error line rather than a traceback
    data_dir, _, fit_dir = trained
    paths = {"checkpoint": fit_dir / "checkpoint.json", "truth": data_dir / "truth.json"}
    optional = SIDECAR_UNREAD if file == "truth" else ()
    edited = tmp_path / f"{file}.json"
    for label, text, expected in case(paths[file].read_text(), optional):
        edited.write_text(text)
        files = {**paths, file: edited}
        try:
            code = run("evaluate", "--checkpoint", files["checkpoint"], "--data", data_dir / "data.csv",
                       "--truth", files["truth"], "--out", tmp_path / "r.json")
        except Exception as exc:
            raise AssertionError(f"{file} {label} raised {exc!r}") from exc
        assert code == 1, label
        assert expected in capsys.readouterr().err, label


@pytest.mark.parametrize("command", ["generate", "censor", "train", "train-config"])
def test_negative_seed_exits_one(trained, tmp_path, capsys, command):
    # numpy's generators take no negative seed, by flag or by train config
    data = trained[0] / "data.csv"
    write_regression_csv(tmp_path / "reg.csv")
    (tmp_path / "train.json").write_text(json.dumps({"seed": -1}))
    argv = {
        "generate": ("generate", "--tau", 0.5, "--n", 100, "--seed", -1),
        "censor": ("censor", "--data", tmp_path / "reg.csv", "--target", "y", "--tau", 0.5, "--seed", -1),
        "train": ("train", "--data", data, "--seed", -1),
        "train-config": ("train", "--data", data, "--config", tmp_path / "train.json"),
    }[command]
    assert run(*argv, "--out", tmp_path / "out") == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_files_exit_three(tmp_path, capsys):
    assert run("train", "--data", tmp_path / "nope.csv", "--out", tmp_path / "o") == 3
    assert run("evaluate", "--checkpoint", tmp_path / "nope.json",
               "--data", tmp_path / "nope.csv", "--out", tmp_path / "r.json") == 3
    err = capsys.readouterr().err
    assert "io error:" in err


def test_malformed_data_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,when,what\n0.1,1.0,1\n")
    assert run("train", "--data", bad, "--out", tmp_path / "o") == 1
    assert "error:" in capsys.readouterr().err


def test_experiment_tiny_run(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "experiment_id": "bias_tiny",
        "kind": "metric_bias",
        "tau_grid": [0.2],
        "seeds": [0],
        "n_train": 400,
    }))
    out = tmp_path / "exp"
    assert run("experiment", "--config", cfg_path, "--out", out) == 0
    assert "wrote 1 rows" in capsys.readouterr().out
    assert json.loads((out / "config.json").read_text())["experiment_id"] == "bias_tiny"
    header = (out / "arms.csv").read_text().splitlines()[0]
    assert header == ("experiment_id,tau_star,seed,c_index_uncensored,c_index_censored,"
                      "c_index_abs_diff,brier_uncensored,brier_censored,brier_abs_diff,"
                      "censoring_fraction,wall_time_s")
    assert (out / "summary.csv").exists()
    assert not (out / "failures.json").exists()


def test_experiment_with_some_arms_failing_exits_zero_and_says_so(tmp_path, capsys, monkeypatch):
    real = experiments._metric_bias_arm

    def flaky(payload):
        if payload[2] == 1:
            raise RuntimeError("boom")
        return real(payload)

    monkeypatch.setattr(experiments, "_metric_bias_arm", flaky)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"experiment_id": "bias_flaky", "kind": "metric_bias",
                                    "tau_grid": [0.2], "seeds": [0, 1], "n_train": 300}))
    out = tmp_path / "exp"
    assert run("experiment", "--config", cfg_path, "--out", out) == 0
    captured = capsys.readouterr()
    assert "wrote 1 rows" in captured.out
    assert captured.err == "1 arms failed; see failures.json\n"
    assert [f["arm"] for f in json.loads((out / "failures.json").read_text())] == ["0.2/1"]


def test_experiment_all_arms_failing_exits_two(tmp_path, capsys):
    # one row: the test split takes it, and every arm's marginal fit fails
    src = tmp_path / "one_row.csv"
    src.write_text("x0,x1,y\n0.5,1.5,2.0\n")
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "experiment_id": "semi_broken",
        "kind": "semi_synthetic",
        "tau_grid": [0.5],
        "seeds": [0],
        "data_csv": str(src),
        "target_column": "y",
    }))
    assert run("experiment", "--config", cfg_path, "--out", tmp_path / "out") == 2
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("table, code, message", [
    (None, 3, "io error:"),
    ("x0,y\n0.5,2.0\n1.5,-1.0\n", 1, "'y' must be non-negative (record 1)"),
    ("x0,y\n0.5,0.0\n1.5,0.0\n", 1, "'y' is zero on every record"),
    ("x0,y\n0.5,2.0\nnan,1.0\n", 1, "'y' and the covariates must be finite (record 1)"),
])
def test_experiment_bad_data_csv_exits_before_any_arm(tmp_path, capsys, table, code, message):
    # a missing table is an I/O error, and a table the target rule refuses
    # invalid input, not one failure per arm
    src = tmp_path / "table.csv"
    if table is not None:
        src.write_text(table)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "experiment_id": "semi_bad", "kind": "semi_synthetic", "tau_grid": [0.5], "seeds": [0],
        "data_csv": str(src), "target_column": "y",
    }))
    out = tmp_path / "out"
    assert run("experiment", "--config", cfg_path, "--out", out) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, family", [("synthetic_sweep", "frank"), ("mixture_sweep", "mixture")])
def test_experiment_tau_beyond_the_family_range_exits_one(tmp_path, capsys, kind, family):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "experiment_id": "high_tau", "kind": kind, "family": family,
        "tau_grid": [0.995], "seeds": [0], "n_train": 100, "n_val": 50, "n_test": 50,
    }))
    out = tmp_path / "out"
    assert run("experiment", "--config", cfg_path, "--out", out) == 1
    assert "tau_grid entry 0.995" in capsys.readouterr().err
    assert not (out / "arms.csv").exists()


def test_experiment_unknown_family_exits_one(tmp_path, capsys):
    # rejected as invalid input before any arm runs, not as a numerical failure
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "experiment_id": "gumbel", "kind": "synthetic_sweep", "family": "gumbel",
        "tau_grid": [0.2], "seeds": [0], "n_train": 100, "n_val": 50, "n_test": 50,
    }))
    out = tmp_path / "out"
    assert run("experiment", "--config", cfg_path, "--out", out) == 1
    assert "family must be one of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("block", [
    {"kind": "synthetic_sweep", "train": 5},
    {"kind": "metric_bias", "train": 5},
    {"kind": "synthetic_sweep", "survival_l1": [1]},
    {"kind": "metric_bias", "train": "x"},
    {"kind": "metric_bias", "train": None},
    {"kind": "synthetic_sweep", "survival_l1": "x"},
    {"kind": "synthetic_sweep", "survival_l1": None},
])
def test_experiment_config_block_that_is_not_an_object_exits_one(tmp_path, capsys, block):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(
        {"experiment_id": "bad_block", "tau_grid": [0.2], "seeds": [0], "n_train": 300, **block}
    ))
    out = tmp_path / "out"
    assert run("experiment", "--config", cfg_path, "--out", out) == 1
    assert "must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_id_with_a_comma_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(
        {"experiment_id": "trial,2", "kind": "metric_bias", "tau_grid": [0.2], "seeds": [0],
         "n_train": 300}
    ))
    out = tmp_path / "out"
    assert run("experiment", "--config", cfg_path, "--out", out) == 1
    assert "experiment_id" in capsys.readouterr().err
    assert not out.exists()


def whole(top):
    """The case of a config file that holds ``top``, which is not a JSON object."""
    return lambda text, optional: [(repr(top), json.dumps(top), "must be a JSON object")]


@pytest.mark.parametrize("command", ["train", "experiment"])
@pytest.mark.parametrize("top", [
    pytest.param(whole(5), id="5"),
    pytest.param(whole([1, 2]), id="top1"),
    pytest.param(whole(None), id="None"),
    *[pytest.param(corpus(kind), id=kind) for kind in CORPUS_KINDS],
])
def test_config_file_that_is_not_an_object_exits_one(trained, tmp_path, capsys, command, top):
    # so is a config with a dropped, unknown or mistyped key, or cut short
    reader, config, optional = CONFIGS[command]
    reader.from_dict(copy.deepcopy(config))  # the unbroken config is valid
    cfg_path = tmp_path / "cfg.json"
    argv = ["--config", cfg_path, "--out", tmp_path / "out"]
    if command == "train":
        argv += ["--data", trained[0] / "data.csv"]
    for label, text, expected in top(json.dumps(config), optional):
        cfg_path.write_text(text)
        try:
            code = run(command, *argv)
        except Exception as exc:
            raise AssertionError(f"{command} config {label} raised {exc!r}") from exc
        assert code == 1, label
        assert expected in capsys.readouterr().err, label
        assert not (tmp_path / "out").exists(), label
