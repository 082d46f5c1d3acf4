"""Release gate: the properties the library must reproduce at desk scale.

The fast checks (axioms, derivative oracles, sampler and reduction
identities) restate the unit-level bars at their stated tolerances.  The
sweep fixtures then run the shipped experiment kinds end to end, one worker
process per available core; together those take about two minutes on two
cores, most of it in the Clayton and mixture sweeps.
"""
import csv
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from copsurv import copulas
from copsurv.copulas import CopulaSpec, spec_from_tau
from copsurv.experiments import ExperimentConfig, run_experiment
from copsurv.likelihood import loglik_copula
from copsurv.metrics import SurvivalL1Config, survival_l1
from copsurv.weibull import LinearRisk, WeibullCoxModel

from test_copulas import assert_partials_match_fd, copula_cdf, family_grid, spec_id
from test_likelihood import fd_check, loglik_independent, random_instance, spec_cases

DESK_TRAIN = {"max_epochs": 12000, "patience": 2000, "seed": 0}
# run_experiment is serial by default; its rows do not depend on the worker count
SWEEP_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def mean_over_seeds(rows, value_key, **filters):
    vals = [
        row[value_key]
        for row in rows
        if all(row[key] == want for key, want in filters.items())
    ]
    assert vals, filters
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Structural bars, all fast.


@pytest.mark.parametrize("spec", family_grid(), ids=spec_id)
def test_copula_axioms_hold(spec):
    grid = np.linspace(0.0, 1.0, 101)
    zeros = np.zeros_like(grid)
    assert np.max(np.abs(copula_cdf(spec, grid, zeros))) <= 1e-12
    assert np.max(np.abs(copula_cdf(spec, zeros, grid))) <= 1e-12
    ones = np.ones_like(grid)
    assert np.max(np.abs(copula_cdf(spec, grid, ones) - grid)) <= 1e-12
    assert np.max(np.abs(copula_cdf(spec, ones, grid) - grid)) <= 1e-12

    rng = np.random.default_rng(0)
    lo = rng.uniform(size=(10_000, 2))
    hi = lo + (1.0 - lo) * rng.uniform(size=(10_000, 2))
    mass = (
        copula_cdf(spec, hi[:, 0], hi[:, 1])
        - copula_cdf(spec, lo[:, 0], hi[:, 1])
        - copula_cdf(spec, hi[:, 0], lo[:, 1])
        + copula_cdf(spec, lo[:, 0], lo[:, 1])
    )
    assert float(mass.min()) >= -1e-12


@pytest.mark.parametrize("spec", family_grid(), ids=spec_id)
def test_copula_partials_match_finite_differences(spec):
    assert_partials_match_fd(spec, rel_tol=1e-5)


@pytest.mark.parametrize("family", ["clayton", "frank"])
@pytest.mark.parametrize("tau", [0.2, 0.5, 0.8])
def test_sampler_recovers_kendall_tau(family, tau):
    spec = spec_from_tau(family, tau)
    u1, u2 = copulas.sample_pairs(spec, 50_000, np.random.default_rng(7)).T
    tau_emp = stats.kendalltau(u1, u2).statistic
    assert abs(tau_emp - tau) < 0.02


@pytest.mark.parametrize("risk", ["linear", "mlp"])
@pytest.mark.parametrize(
    "spec",
    [s for s in spec_cases() if s.family.value != "independence"],
    ids=lambda s: s.family.value,
)
def test_joint_gradient_matches_finite_differences(risk, spec):
    event, censor, data = random_instance(20, seed=5, risk=risk)
    fd_check(event, censor, spec, data, tol=1e-4)


def test_independence_family_reduces_to_independent_likelihood():
    for seed in range(5):
        event, censor, data = random_instance(60, seed=seed)
        joint = loglik_copula(event, censor, CopulaSpec.independence(), data)
        split = loglik_independent(event, censor, data)
        assert abs(joint - split) <= 1e-10


def test_survival_l1_exponential_oracle():
    def exponential(rate):
        return WeibullCoxModel.from_natural(1.0, 1.0 / rate, LinearRisk(np.zeros(2)))

    x = np.zeros((3, 2))
    # closed form on (0, ln 100]: ((1 - e^-T) - (1 - e^-2T)/2) / T
    T = math.log(100.0)
    exact = ((1.0 - math.exp(-T)) - (1.0 - math.exp(-2.0 * T)) / 2.0) / T
    got = survival_l1(exponential(1.0), exponential(2.0), x, SurvivalL1Config(n_steps=1000))
    assert abs(got - exact) < 1e-3
    assert survival_l1(exponential(1.0), exponential(1.0), x) < 1e-12


# ---------------------------------------------------------------------------
# Experiment reproductions.  The clayton sweep backs two tests.


@pytest.fixture(scope="module")
def clayton_sweep(tmp_path_factory):
    cfg = ExperimentConfig(
        experiment_id="accept_clayton",
        kind="synthetic_sweep",
        family="clayton",
        preset="linear_risk",
        tau_grid=(0.0, 0.2, 0.4, 0.6, 0.8),
        seeds=(0, 1, 2, 3, 4),
        n_train=5000,
        n_val=2000,
        n_test=2000,
        train=dict(DESK_TRAIN),
    )
    return run_experiment(
        cfg, tmp_path_factory.mktemp("accept_clayton"), workers=SWEEP_WORKERS
    ).rows


def test_dependent_fit_beats_independence_on_event_curves(clayton_sweep):
    gaps = {}
    for tau in (0.2, 0.4, 0.6, 0.8):
        cop = mean_over_seeds(
            clayton_sweep, "survival_l1_event", tau_star=tau, model="copula"
        )
        ind = mean_over_seeds(
            clayton_sweep, "survival_l1_event", tau_star=tau, model="independence"
        )
        assert cop < ind, f"tau={tau}: copula {cop} vs independence {ind}"
        gaps[tau] = ind - cop
    # the advantage grows with the dependence strength
    assert gaps[0.8] > gaps[0.2]


def test_dependence_strength_is_recovered(clayton_sweep):
    for tau in (0.2, 0.4, 0.6, 0.8):
        tau_fit = mean_over_seeds(clayton_sweep, "tau_hat", tau_star=tau, model="copula")
        assert abs(tau_fit - tau) < 0.1, f"tau={tau}: recovered {tau_fit}"
    at_zero = mean_over_seeds(clayton_sweep, "tau_hat", tau_star=0.0, model="copula")
    assert at_zero < 0.05


def test_mlp_fit_learns_dependence(tmp_path):
    # the paper's deep model: MLP risks on both marginals, each fit stopped
    # on validation, must recover strong dependence and beat independence
    cfg = ExperimentConfig(
        experiment_id="accept_mlp",
        kind="synthetic_sweep",
        family="clayton",
        preset="nonlinear_risk",
        event_risk="mlp",
        censor_risk="mlp",
        tau_grid=(0.8,),
        seeds=(0, 1, 2),
        n_train=1500,
        n_val=500,
        n_test=2000,
        train={"max_epochs": 500, "patience": 50, "seed": 0},
    )
    rows = run_experiment(cfg, tmp_path / "mlp", workers=SWEEP_WORKERS).rows
    taus = [row["tau_hat"] for row in rows if row["model"] == "copula"]
    assert len(taus) == 3 and all(abs(t - 0.8) < 0.1 for t in taus), taus
    cop = mean_over_seeds(rows, "survival_l1_event", model="copula")
    ind = mean_over_seeds(rows, "survival_l1_event", model="independence")
    assert cop < ind, f"copula {cop} vs independence {ind}"


def test_metric_bias_grows_with_dependence(tmp_path):
    cfg = ExperimentConfig(
        experiment_id="accept_bias",
        kind="metric_bias",
        tau_grid=(0.2, 0.8),
        seeds=(0, 1, 2),
        n_train=10_000,
    )
    rows = run_experiment(cfg, tmp_path / "bias", workers=SWEEP_WORKERS).rows
    for metric in ("c_index_abs_diff", "brier_abs_diff"):
        weak = mean_over_seeds(rows, metric, tau_star=0.2)
        strong = mean_over_seeds(rows, metric, tau_star=0.8)
        assert strong > weak, f"{metric}: {strong} at 0.8 vs {weak} at 0.2"


def test_mixture_fit_beats_independence(tmp_path_factory):
    cfg = ExperimentConfig(
        experiment_id="accept_mixture",
        kind="mixture_sweep",
        kappa=0.5,
        tau_grid=(0.4, 0.8),
        seeds=(0, 1, 2),
        n_train=5000,
        n_val=2000,
        n_test=2000,
        train=dict(DESK_TRAIN),
    )
    rows = run_experiment(
        cfg, tmp_path_factory.mktemp("accept_mixture"), workers=SWEEP_WORKERS
    ).rows
    for tau in (0.4, 0.8):
        cop = mean_over_seeds(rows, "survival_l1_event", tau_star=tau, model="copula")
        ind = mean_over_seeds(rows, "survival_l1_event", tau_star=tau, model="independence")
        assert cop < ind, f"tau={tau}: mixture {cop} vs independence {ind}"


def test_semi_synthetic_r_squared_ordering(tmp_path):
    cfg = ExperimentConfig(
        experiment_id="accept_semi",
        kind="semi_synthetic",
        preset="standin",
        family="clayton",
        tau_grid=(0.8,),
        seeds=(0, 1, 2),
        n_train=1400,
        n_val=300,
        n_test=300,
        train=dict(DESK_TRAIN),
    )
    rows = run_experiment(cfg, tmp_path / "semi", workers=SWEEP_WORKERS).rows
    dependent = mean_over_seeds(rows, "r_squared", model="copula")
    independent = mean_over_seeds(rows, "r_squared", model="independence")
    uncensored = mean_over_seeds(rows, "r_squared", model="no_censoring")
    assert dependent > independent
    assert dependent < uncensored and independent < uncensored


# ---------------------------------------------------------------------------
# Determinism of every experiment kind, at reduced scale.


def _rows_excluding_wall(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # wall-clock seconds is the one measured, nondeterministic column
    return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]


SMALL_TRAIN = {"max_epochs": 60, "patience": 60, "seed": 0}
DETERMINISM_CONFIGS = (
    dict(experiment_id="det_sweep", kind="synthetic_sweep", tau_grid=(0.0, 0.4),
         seeds=(0, 1), n_train=300, n_val=100, n_test=100, train=dict(SMALL_TRAIN)),
    dict(experiment_id="det_mixture", kind="mixture_sweep", tau_grid=(0.4,),
         seeds=(0,), n_train=300, n_val=100, n_test=100, train=dict(SMALL_TRAIN)),
    dict(experiment_id="det_bias", kind="metric_bias", tau_grid=(0.2, 0.8),
         seeds=(0, 1), n_train=500),
    dict(experiment_id="det_semi", kind="semi_synthetic", preset="standin",
         tau_grid=(0.5,), seeds=(0,), n_train=500, n_val=150, n_test=150,
         train=dict(SMALL_TRAIN)),
)


@pytest.mark.parametrize("kwargs", DETERMINISM_CONFIGS, ids=lambda c: c["kind"])
def test_reruns_are_byte_identical(kwargs, tmp_path):
    cfg = ExperimentConfig(**kwargs)
    first = run_experiment(cfg, tmp_path / "a")
    second = run_experiment(cfg, tmp_path / "b")
    assert Path(first.out_dir, "summary.csv").read_bytes() == Path(second.out_dir, "summary.csv").read_bytes()
    assert _rows_excluding_wall(first.arms_csv) == _rows_excluding_wall(second.arms_csv)
