"""Synthetic generators: preset parameters, the censoring mechanism, and
dependence of the latent draws."""
import warnings

import numpy as np
import pytest
from scipy import stats

from copsurv import datagen
from copsurv.copulas import CopulaSpec, Family, spec_from_tau
from copsurv.datagen import (
    SyntheticGenConfig,
    censor_regression,
    fit_regression_marginal,
    generate_synthetic,
    preset_linear_risk,
    preset_metric_bias,
    preset_nonlinear_risk,
    regression_table,
    sidecar_dict,
    synthetic_regression,
    truth_from_sidecar,
    zscore_fit,
)
from copsurv.errors import ValidationError
from copsurv.weibull import LinearRisk, QuadraticRisk, WeibullCoxModel


def test_linear_preset_parameters():
    cfg = preset_linear_risk(0, n=100)
    assert (cfg.nu_event, cfg.rho_event) == (4.0, 14.0)
    assert (cfg.nu_censor, cfg.rho_censor) == (3.0, 16.0)
    assert cfg.d == 10
    assert isinstance(cfg.risk_event, LinearRisk)
    for w in (cfg.risk_event.weights, cfg.risk_censor.weights):
        assert w.shape == (10,)
        assert np.all((0.0 <= w) & (w <= 1.0))
    # the two risks use distinct draws
    assert not np.array_equal(cfg.risk_event.weights, cfg.risk_censor.weights)


def test_nonlinear_preset_parameters():
    cfg = preset_nonlinear_risk(0, n=100)
    assert (cfg.nu_event, cfg.rho_event) == (4.0, 17.0)
    assert isinstance(cfg.risk_event, QuadraticRisk)
    assert np.allclose(cfg.risk_event.weights, 1.0 / 8.0)
    x = np.array([[2.0] * 10])
    # event risk is sum(x^2)/8
    assert cfg.risk_event.evaluate(x)[0] == pytest.approx(40.0 / 8.0)


def test_metric_bias_preset_parameters():
    cfg = preset_metric_bias(0, n=100)
    assert (cfg.nu_event, cfg.rho_event) == (4.0, 17.0)
    w = cfg.risk_event.weights
    assert np.array_equal(w[:2], [1.0, 1.0]) and np.all(w[2:] == 0.0)
    # censoring risk only involves the first three covariates
    assert np.all(cfg.risk_censor.weights[3:] == 0.0)


def test_generate_shapes_and_indicator_rule():
    cfg = preset_linear_risk(1, n=500, copula=spec_from_tau("clayton", 0.5))
    dataset, truth, latent = generate_synthetic(cfg)
    assert len(dataset) == 500 and dataset.dim == 10
    assert latent.t_event.shape == (500,)
    # observed time is the minimum; a record is an event when T_E <= T_C
    assert np.array_equal(dataset.t_obs, np.minimum(latent.t_event, latent.t_censor))
    assert np.array_equal(dataset.delta, (latent.t_event <= latent.t_censor).astype(int))
    assert truth.copula == cfg.copula


def test_a_tie_between_the_latent_times_is_an_event():
    # a censoring time bounds the event time from below, so T_E = T_C is observed
    x = np.zeros((3, 1))
    dataset, latent = datagen._observe(x, np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.5, 4.0]))
    assert dataset.delta.tolist() == [1, 0, 1]
    assert dataset.t_obs.tolist() == [1.0, 1.5, 3.0]
    assert latent.t_censor.tolist() == [1.0, 1.5, 4.0]


def test_generate_deterministic_and_seed_separation():
    a = generate_synthetic(preset_linear_risk(2, n=200))[0]
    b = generate_synthetic(preset_linear_risk(2, n=200))[0]
    assert np.array_equal(a.x, b.x) and np.array_equal(a.t_obs, b.t_obs)

    # same risk draw, different data draw
    c1 = preset_linear_risk(2, n=200, data_seed=7)
    c2 = preset_linear_risk(2, n=200, data_seed=8)
    assert np.array_equal(c1.risk_event.weights, c2.risk_event.weights)
    d1, d2 = generate_synthetic(c1)[0], generate_synthetic(c2)[0]
    assert not np.array_equal(d1.t_obs, d2.t_obs)


def test_config_refuses_no_records_or_no_covariates():
    risk = LinearRisk(np.full(3, 0.5))
    fields = dict(n=10, d=3, nu_event=2.0, rho_event=5.0, risk_event=risk, nu_censor=2.0,
                  rho_censor=5.0, risk_censor=risk, copula=CopulaSpec(Family.INDEPENDENCE))
    with pytest.raises(ValidationError, match="^n must be >= 1, got 0$"):
        SyntheticGenConfig(**{**fields, "n": 0})
    with pytest.raises(ValidationError, match="^d must be >= 1, got 0$"):
        SyntheticGenConfig(**{**fields, "d": 0})


def test_symmetric_independence_censors_half():
    # identical marginals under the independence copula: either outcome
    # wins the minimum with probability 1/2
    risk = LinearRisk(np.full(3, 0.5))
    cfg = SyntheticGenConfig(
        n=10_000, d=3,
        nu_event=2.0, rho_event=5.0, risk_event=risk,
        nu_censor=2.0, rho_censor=5.0, risk_censor=LinearRisk(risk.weights.copy()),
        copula=CopulaSpec(Family.INDEPENDENCE), seed=0,
    )
    dataset, _, _ = generate_synthetic(cfg)
    assert abs(dataset.delta.mean() - 0.5) < 0.02


def test_latent_quantiles_uniform_and_dependent():
    tau = 0.6
    cfg = preset_linear_risk(3, n=5000, copula=spec_from_tau("clayton", tau))
    dataset, truth, latent = generate_synthetic(cfg)
    u1 = truth.event_model.survival(latent.t_event, dataset.x)
    u2 = truth.censor_model.survival(latent.t_censor, dataset.x)
    assert stats.kstest(u1, "uniform").pvalue > 0.01
    assert stats.kstest(u2, "uniform").pvalue > 0.01
    assert stats.kendalltau(u1, u2).statistic == pytest.approx(tau, abs=0.03)


def test_high_dependence_clusters_quantiles():
    def med_gap(tau):
        cfg = preset_linear_risk(4, n=4000, copula=spec_from_tau("clayton", tau))
        dataset, truth, latent = generate_synthetic(cfg)
        u1 = truth.event_model.survival(latent.t_event, dataset.x)
        u2 = truth.censor_model.survival(latent.t_censor, dataset.x)
        return float(np.median(np.abs(u1 - u2)))

    assert med_gap(0.8) < med_gap(0.0)


def test_sidecar_roundtrip():
    cfg = preset_nonlinear_risk(5, n=50, copula=spec_from_tau("frank", 0.4))
    doc = sidecar_dict(cfg, tau=0.4)
    assert doc["tau"] == 0.4
    truth = truth_from_sidecar(doc)
    x = np.random.default_rng(0).uniform(size=(20, 10))
    t = np.linspace(0.5, 10.0, 20)
    direct = WeibullCoxModel.from_natural(cfg.nu_event, cfg.rho_event, cfg.risk_event)
    assert np.array_equal(truth.event_model.survival(t, x), direct.survival(t, x))
    assert truth.copula == cfg.copula


def test_latent_csv(tmp_path):
    cfg = preset_linear_risk(0, n=30)
    _, _, latent = generate_synthetic(cfg)
    path = tmp_path / "latent.csv"
    latent.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_event,t_censor"
    assert len(lines) == 31


# ---------------------------------------------------------------------------
# Regression censoring


def regression_data(n=2000, d=4, seed=0):
    return synthetic_regression(n, d, seed)


def short_cfg(seed=0):
    from copsurv.training import TrainConfig

    return TrainConfig(max_epochs=400, patience=400, seed=seed)


def test_synthetic_regression_properties():
    x, y = regression_data(500, 3, seed=1)
    assert x.shape == (500, 3) and y.shape == (500,)
    assert np.all(y > 0)
    x2, y2 = regression_data(500, 3, seed=1)
    assert np.array_equal(y, y2)


def test_censor_regression_basics():
    x, y = regression_data(800)
    marginal = fit_regression_marginal(x, y, short_cfg())
    dataset, latent = censor_regression(marginal, spec_from_tau("clayton", 0.8), 0)
    assert len(dataset) == 800
    assert 0.0 < dataset.delta.mean() < 1.0
    # covariates in the emitted dataset are standardized
    assert np.allclose(dataset.x.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(dataset.x.std(axis=0), 1.0, atol=1e-10)
    # positive targets are the latent event times, unshifted
    assert regression_table(x, y, "'y'")[2] == 0.0 and np.array_equal(latent.t_event, y)
    # indicator rule: event iff the target is at or below its censor draw
    assert np.array_equal(dataset.delta, (latent.t_event <= latent.t_censor).astype(int))
    assert np.array_equal(dataset.t_obs, np.minimum(latent.t_event, latent.t_censor))
    # censoring marginal: shape divided by 0.6, scale and weights shared
    assert marginal.censor_model.nu == pytest.approx(marginal.event_model.nu / 0.6, rel=1e-12)
    assert float(marginal.censor_model.log_rho) == float(marginal.event_model.log_rho)
    assert np.array_equal(marginal.censor_model.risk.weights, marginal.event_model.risk.weights)


def test_censor_regression_independence_stable_and_uncorrelated():
    x, y = regression_data(4000)
    marginal = fit_regression_marginal(x, y, short_cfg(1))
    dataset, latent = censor_regression(marginal, CopulaSpec(Family.INDEPENDENCE), 1)
    # the latent quantile pair shows no dependence
    u1 = marginal.event_model.survival(latent.t_event, dataset.x)
    u2 = marginal.censor_model.survival(latent.t_censor, dataset.x)
    assert abs(stats.kendalltau(u1, u2).statistic) < 0.05
    # and the censoring rate is stable across fresh draw seeds
    other, _ = censor_regression(marginal, CopulaSpec(Family.INDEPENDENCE), 9)
    assert abs(dataset.delta.mean() - other.delta.mean()) < 0.05


def test_censor_regression_dependence_recovered():
    # the nominal tau is achieved through the fitted event quantiles, so the
    # marginal fit needs enough epochs to calibrate them
    x, y = regression_data(3000)
    tau = 0.7
    from copsurv.training import TrainConfig

    cfg = TrainConfig(max_epochs=4000, patience=1000, seed=2)
    marginal = fit_regression_marginal(x, y, cfg)
    dataset, latent = censor_regression(marginal, spec_from_tau("clayton", tau), 2)
    u1 = marginal.event_model.survival(latent.t_event, dataset.x)
    u2 = marginal.censor_model.survival(latent.t_censor, dataset.x)
    assert stats.kendalltau(u1, u2).statistic == pytest.approx(tau, abs=0.05)


def test_censor_regression_shift_handling():
    x, y = regression_data(300)

    y_neg = y - 2.0 * y.max()
    with pytest.raises(ValidationError, match=r"^'y' must be non-negative \(record 0\); hint$"):
        regression_table(x, y_neg, "'y'", hint="; hint")
    x_out, y_shifted, shift = regression_table(x, y_neg, "'y'", shift=True)
    assert x_out is x and shift > 0.0
    assert np.all(y_shifted > 0.0)
    # the translation leaves a zero, which lifts every target by 1e-3 of the largest
    assert shift == pytest.approx(-y_neg.min() + 1e-3 * (y_neg.max() - y_neg.min()), rel=1e-12)
    assert np.allclose(y_shifted, y_neg + shift, rtol=1e-12)
    # held-out rows get the fit rows' standardization
    marginal = fit_regression_marginal(x, y_shifted, short_cfg())
    assert np.array_equal(marginal.standardize(x), marginal.x)
    assert np.array_equal(marginal.y, y_shifted)

    y_zero = y.copy()
    y_zero[0] = 0.0
    _, y_lifted, lift = regression_table(x, y_zero, "'y'")
    assert lift == pytest.approx(1e-3 * y_zero.max())
    assert np.array_equal(y_lifted, y_zero + lift)
    # the draw censors the lifted targets
    marginal0 = fit_regression_marginal(x, y_lifted, short_cfg())
    _, latent = censor_regression(marginal0, spec_from_tau("clayton", 0.5), 0)
    assert np.array_equal(latent.t_event, y_lifted)


@pytest.mark.parametrize("case, match", [
    ("nan_target", r"^'y' and the covariates must be finite \(record 2\)$"),
    ("inf_covariate", r"^'y' and the covariates must be finite \(record 5\)$"),
    ("all_zero", r"^'y' is zero on every record$"),
    ("all_equal_shifted", r"^'y' is zero on every record$"),
])
def test_regression_table_refuses_what_no_survival_time_can_be(case, match):
    x, y = regression_data(10)
    x = x.copy()
    shift = False
    if case == "nan_target":
        y[2] = y[7] = np.nan
    elif case == "inf_covariate":
        x[5, 1] = np.inf
    elif case == "all_zero":
        y = np.zeros(10)
    else:
        y, shift = np.full(10, -1.5), True
    with pytest.raises(ValidationError, match=match):
        regression_table(x, y, "'y'", shift=shift)


def test_regression_table_finite_check_comes_before_the_sign_check():
    x, y = regression_data(10)
    y[3], y[6] = -1.0, np.nan
    with pytest.raises(ValidationError, match=r"finite \(record 6\)"):
        regression_table(x, y, "'y'", shift=True)


def test_fit_regression_marginal_rejects_an_empty_table():
    # the check comes before the z-score, whose mean and std of no rows warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="at least one record"):
            fit_regression_marginal(np.empty((0, 3)), np.empty(0), short_cfg())


def test_censor_regression_deterministic():
    x, y = regression_data(400)
    spec = spec_from_tau("frank", 0.6)
    a, _ = censor_regression(fit_regression_marginal(x, y, short_cfg(3)), spec, 3)
    marginal = fit_regression_marginal(x, y, short_cfg(3))
    b, _ = censor_regression(marginal, spec, 3)
    assert np.array_equal(a.t_obs, b.t_obs)
    assert np.array_equal(a.delta, b.delta)
    # the draw depends on its seed, and leaves the fit as it found it
    y_fit = marginal.y.copy()
    c, _ = censor_regression(marginal, spec, 4)
    assert not np.array_equal(c.t_obs, b.t_obs)
    assert np.array_equal(marginal.y, y_fit)
    assert np.array_equal(censor_regression(marginal, spec, 3)[0].t_obs, b.t_obs)


def test_zscore_fit_zero_spread():
    x = np.column_stack([np.ones(5), np.arange(5.0)])
    mean, std = zscore_fit(x)
    assert std[0] == 1.0
    assert mean[0] == 1.0
