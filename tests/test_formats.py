"""Golden bytes of every file kind the package writes.

Each file is written from a fixed tiny input and compared byte for byte with
the copy under ``tests/golden``, so the one format rule (UTF-8, LF, header
row, ``repr`` floats; JSON indented by 2 with sorted keys and a trailing
newline) cannot drift unnoticed.  The inputs include the awkward cases: a
float whose shortest form has 17 digits, exponents, -0.0, NaN, numpy
scalars, missing cells and a null JSON value.
"""
from pathlib import Path

import numpy as np
import pytest

from copsurv import experiments as exp
from copsurv.copulas import CopulaSpec
from copsurv.data import SurvivalDataset, write_json
from copsurv.datagen import LatentOutcomes, SyntheticGenConfig, sidecar_dict
from copsurv.experiments import ExperimentConfig
from copsurv.metrics import EvaluationReport
from copsurv.training import FittedJointModel, TrainTrace
from copsurv.weibull import LinearRisk, MLPRisk, QuadraticRisk, WeibullCoxModel

GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIG = ExperimentConfig(
    experiment_id="golden", kind="synthetic_sweep", tau_grid=(0.2, 0.4), seeds=(0, 1),
    n_train=30, train={"max_epochs": 50, "patience": 20}, survival_l1={"n_steps": 200},
)


def arm_rows():
    """Four sweep rows of one tau, then a no-censoring row with missing cells."""
    rows = []
    for seed, model, l1_event, l1_censor, tau_hat in [
        (0, "copula", 0.0125, 0.25, 0.21),
        (0, "independence", 0.03, 0.5, 0.0),
        (np.int64(1), "copula", np.float64(0.1) + np.float64(0.2), 1e-05, 0.19),
        (np.int64(1), "independence", 0.04, 0.75, 0.0),
    ]:
        rows.append({
            "experiment_id": "golden", "tau_star": 0.2, "seed": seed, "model": model,
            "family": "clayton" if model == "copula" else "independence",
            "survival_l1_event": l1_event, "survival_l1_censor": l1_censor,
            "tau_hat": tau_hat, "c_index": 0.7, "brier": 0.125, "r_squared": None,
            "wall_time_s": 1.5,
        })
    rows.append({
        "experiment_id": "golden", "tau_star": "", "seed": 2, "model": "no_censoring",
        "family": "", "survival_l1_event": None, "survival_l1_censor": None, "tau_hat": None,
        "c_index": 0.5, "brier": 0.25, "r_squared": -0.125, "wall_time_s": 2.0,
    })
    return rows


def write_data(path):
    SurvivalDataset(
        np.array([[0.1, -2.5e-07], [1e16, 0.30000000000000004], [123456.789, -0.0]]),
        np.array([1.5, 2.0000000000000004, 1e-05]),
        np.array([1, 0, 1]),
    ).save_csv(path)


def write_latent(path):
    LatentOutcomes(np.array([1.5, 3.25e-08]), np.array([2.0, 1e22])).save_csv(path)


def write_trace(path):
    TrainTrace(
        epoch=np.arange(3),
        train_negloglik=np.array([10.5, 9.25, 9.125]),
        val_negloglik=np.array([11.0, np.nan, 10.1]),
        copula_path={"theta_frank": np.array([1.0, 1.5, 2.25]),
                     "theta_clayton": np.array([1.0, 0.5, 1e-3]),
                     "kappa": np.array([0.5, 0.75, 1.0])},
    ).to_csv(path)


def write_arms(path):
    exp._write_csv(path, exp.SWEEP_COLUMNS, arm_rows())


def write_summary(path):
    exp._write_csv(path, *exp._summarize(CONFIG, arm_rows()[:4]))


def write_report(path):
    EvaluationReport(c_index=0.75, brier=0.125, survival_l1_event=0.0123,
                     tau_hat=0.30000000000000004).save(path)


def write_truth(path):
    gen = SyntheticGenConfig(
        n=5, d=2, nu_event=4.0, rho_event=14.0, risk_event=LinearRisk([0.5, 0.25]),
        nu_censor=3.0, rho_censor=16.0, risk_censor=QuadraticRisk([1.0, 0.125]),
        copula=CopulaSpec.mixture(5.0, 2.0, 0.25), seed=7,
    )
    write_json(path, sidecar_dict(gen, tau=0.5))


def write_config(path):
    write_json(path, CONFIG.to_dict())


def write_checkpoint(path):
    FittedJointModel(
        event_model=WeibullCoxModel.from_natural(4.0, 14.0, LinearRisk([0.5, -0.25])),
        censor_model=WeibullCoxModel(np.log(3.0), np.log(16.0), MLPRisk(
            widths=(2, 2, 1), weights=[[[0.1, 0.2], [0.3, 0.4]], [[0.5, -0.6]]],
            biases=[[0.0, 0.01], [0.02]])),
        copula=CopulaSpec.mixture(5.0, 2.0, 0.25),
        trace=None, best_epoch=-1, best_val_negloglik=float("nan"),
    ).save(path)


WRITERS = {
    "data.csv": write_data,
    "latent.csv": write_latent,
    "trace.csv": write_trace,
    "arms.csv": write_arms,
    "summary.csv": write_summary,
    "report.json": write_report,
    "truth.json": write_truth,
    "config.json": write_config,
    "checkpoint.json": write_checkpoint,
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_file_matches_golden_bytes(tmp_path, name):
    path = tmp_path / name
    WRITERS[name](path)
    assert path.read_bytes() == (GOLDEN / name).read_bytes()
