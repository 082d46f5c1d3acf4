"""Survival-curve distance, concordance, Brier score, R^2."""
import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import copsurv
from copsurv.copulas import spec_from_tau
from copsurv.data import SurvivalDataset
from copsurv.datagen import child_seed, generate_synthetic, preset_metric_bias, tau_key
from copsurv.errors import DomainError, UndefinedMetricError, ValidationError
from copsurv.metrics import (
    SURVIVAL_L1_CHUNK,
    EvaluationReport,
    SurvivalL1Config,
    brier_score,
    concordance_index,
    metric_bias_experiment,
    r_squared,
    survival_l1,
)
from copsurv.weibull import (LinearRisk, MLPRisk, QuadraticRisk, WeibullCoxModel, floored_survival,
                             log_cumulative_hazard_from)

# truth S(t) = e^-t vs estimate S(t) = e^-2t on [0, ln 100]:
# (1/T) * integral |e^-t - e^-2t| dt = ((1 - e^-T) - (1 - e^-2T)/2) / T
L1_EXPONENTIAL_EXACT = 0.10641300542834427


def exponential_model(rate):
    # Weibull with nu = 1 and rho = 1/rate is exponential with that rate
    return WeibullCoxModel.from_natural(1.0, 1.0 / rate, LinearRisk(np.zeros(2)))


def scored(scores):
    """A stand-in model whose risk gives every record its entry of ``scores``."""
    return SimpleNamespace(risk=SimpleNamespace(evaluate=lambda x: scores))


def predicting(probs):
    """A stand-in model whose survival at any time is ``probs``, record by record."""
    return SimpleNamespace(survival=lambda t, x: probs)


def all_event_data(t, delta=None, seed=0):
    n = len(t)
    d = np.ones(n, dtype=int) if delta is None else np.asarray(delta)
    return SurvivalDataset(np.random.default_rng(seed).uniform(size=(n, 2)), np.asarray(t, float), d)


# ---------------------------------------------------------------------------
# Survival-L1


def dense_survival_l1(truth_model, estimate_model, x, config=None):
    """Oracle: both survival curves on the whole n x n_steps grid at once."""
    cfg = config or SurvivalL1Config()
    with np.errstate(over="ignore"):
        t_max = np.asarray(truth_model.inverse_survival(cfg.quantile_floor, x), dtype=float)
    if not np.all(np.isfinite(t_max)) or np.any(t_max <= 0.0):
        raise DomainError("truth curve not invertible at the quantile floor")
    log_grid = np.log(t_max[:, None] * (np.arange(1, cfg.n_steps + 1) / cfg.n_steps))

    def survival(model):  # each record's risk broadcast along its row of the grid
        log_h = log_cumulative_hazard_from(model.log_nu, model.log_rho, log_grid,
                                           model.risk.evaluate(x)[:, None])
        return floored_survival(np.exp(log_h))

    with np.errstate(over="ignore"):
        gap = np.abs(survival(truth_model) - survival(estimate_model))
    return float(gap.mean())


def boundary_sizes(n_steps):
    """Record counts at and beside the first block boundary of ``survival_l1``."""
    rows = max(1, SURVIVAL_L1_CHUNK // n_steps)
    return sorted({1, max(1, rows - 1), rows, rows + 1})


def scaled_risk(kind, x, peak, rng):
    """A ``kind`` risk whose largest |g| over ``x`` is ``peak``."""
    if kind == "mlp":
        risk = MLPRisk.init((x.shape[1], 4, 4, 1), rng)
        last = risk.weights[-1]  # the output layer is linear with zero bias
    else:
        risk = {"linear": LinearRisk, "quadratic": QuadraticRisk}[kind](rng.normal(size=x.shape[1]))
        last = risk.weights
    last *= peak / np.max(np.abs(risk.evaluate(x)))
    return risk


def test_survival_l1_identity_is_zero():
    model = exponential_model(1.0)
    x = np.random.default_rng(0).uniform(size=(10, 2))
    assert survival_l1(model, model, x) < 1e-12
    clone = WeibullCoxModel.from_natural(1.0, 1.0, LinearRisk(np.zeros(2)))
    assert survival_l1(model, clone, x) < 1e-12


def test_survival_l1_exponential_closed_form():
    truth = exponential_model(1.0)
    estimate = exponential_model(2.0)
    x = np.zeros((4, 2))  # any rows; g = 0 regardless
    got = survival_l1(truth, estimate, x)
    assert got == pytest.approx(L1_EXPONENTIAL_EXACT, abs=1e-3)

    # and the exact right-endpoint Riemann replication agrees to rounding
    T = math.log(100.0)
    grid = T * np.arange(1, 1001) / 1000.0
    manual = float(np.mean(np.abs(np.exp(-grid) - np.exp(-2.0 * grid))))
    assert got == pytest.approx(manual, abs=1e-12)


def test_survival_l1_discretization_converges():
    truth = exponential_model(1.0)
    estimate = exponential_model(2.0)
    x = np.zeros((1, 2))
    coarse = survival_l1(truth, estimate, x, SurvivalL1Config(n_steps=100))
    fine = survival_l1(truth, estimate, x, SurvivalL1Config(n_steps=4000))
    assert abs(fine - L1_EXPONENTIAL_EXACT) < abs(coarse - L1_EXPONENTIAL_EXACT)
    assert abs(fine - L1_EXPONENTIAL_EXACT) < 3e-4


def test_survival_l1_time_unit_invariant():
    # measuring in days vs hours must not change the metric
    rng = np.random.default_rng(1)
    w = rng.normal(size=3)
    truth = WeibullCoxModel.from_natural(2.0, 3.0, LinearRisk(w))
    est = WeibullCoxModel.from_natural(1.7, 3.5, LinearRisk(w * 0.8))
    truth24 = WeibullCoxModel.from_natural(2.0, 3.0 * 24.0, LinearRisk(w))
    est24 = WeibullCoxModel.from_natural(1.7, 3.5 * 24.0, LinearRisk(w * 0.8))
    x = rng.uniform(size=(6, 3))
    assert survival_l1(truth, est, x) == pytest.approx(survival_l1(truth24, est24, x), abs=1e-12)


def test_survival_l1_averages_per_record():
    rng = np.random.default_rng(2)
    truth = WeibullCoxModel.from_natural(2.0, 3.0, LinearRisk(rng.normal(size=2)))
    est = WeibullCoxModel.from_natural(2.2, 2.8, LinearRisk(rng.normal(size=2)))
    # 7 records, then sizes on either side of a block boundary: a record's
    # curve never depends on the block it falls in
    for n_steps, n in [(1000, 7)] + [(steps, n) for steps in (1000, 5000)
                                     for n in boundary_sizes(steps)]:
        x = rng.uniform(size=(n, 2))
        cfg = SurvivalL1Config(n_steps=n_steps)
        whole = survival_l1(truth, est, x, cfg)
        singles = [survival_l1(truth, est, x[i : i + 1], cfg) for i in range(n)]
        assert whole == pytest.approx(float(np.mean(singles)), abs=1e-12), (n_steps, n)


@pytest.mark.parametrize(
    "kind, n_steps, n",
    [(kind, steps, n) for kind in ("linear", "mlp", "quadratic")
     for steps in (1, 7, 1000) for n in boundary_sizes(steps)],
)
def test_survival_l1_matches_the_dense_grid(kind, n_steps, n):
    rng = np.random.default_rng(n_steps + n)
    x = rng.uniform(-1.0, 1.0, size=(n, 3))
    cfg = SurvivalL1Config(n_steps=n_steps)
    for nu_truth, nu_est in ((0.2, 1.0), (1.0, 500.0), (500.0, 0.2), (2.0, 1.5)):
        for peak in (1.0, 700.0):
            truth = WeibullCoxModel.from_natural(nu_truth, 1.0, scaled_risk(kind, x, peak, rng))
            est = WeibullCoxModel.from_natural(nu_est, 2.0, scaled_risk("linear", x, peak, rng))
            try:
                want = dense_survival_l1(truth, est, x, cfg)
            except DomainError:
                with pytest.raises(DomainError):
                    survival_l1(truth, est, x, cfg)
                continue
            got = survival_l1(truth, est, x, cfg)
            assert abs(got - want) <= 1e-12 * abs(want), (nu_truth, nu_est, peak, got, want)


def test_survival_l1_evaluates_each_risk_once(monkeypatch):
    # the truth curve is one shared row: its risk enters only through T_max
    rng = np.random.default_rng(6)
    truth = WeibullCoxModel.from_natural(2.0, 3.0, LinearRisk(rng.normal(size=3)))
    est = WeibullCoxModel.from_natural(0.7, 2.8, MLPRisk.init((3, 4, 1), rng))
    calls = {"truth": 0, "estimate": 0}
    for name, model in (("truth", truth), ("estimate", est)):
        def spy(x, name=name, evaluate=model.risk.evaluate):
            calls[name] += 1
            return evaluate(x)
        monkeypatch.setattr(model.risk, "evaluate", spy)
    survival_l1(truth, est, rng.uniform(size=(5000, 3)), SurvivalL1Config(n_steps=50))
    assert calls == {"truth": 1, "estimate": 1}


def test_survival_l1_at_one_step_is_the_gap_at_the_horizon():
    # the only grid point is T_max, where the truth curve is the floor itself
    rng = np.random.default_rng(7)
    truth = WeibullCoxModel.from_natural(2.0, 3.0, LinearRisk(rng.normal(size=3)))
    est = WeibullCoxModel.from_natural(0.7, 2.8, LinearRisk(rng.normal(size=3)))
    x = rng.uniform(-1.0, 1.0, size=(40, 3))
    t_max = truth.inverse_survival(0.05, x)
    want = float(np.mean(np.abs(0.05 - est.survival(t_max, x))))
    got = survival_l1(truth, est, x, SurvivalL1Config(quantile_floor=0.05, n_steps=1))
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("quantile_floor", [0.001, 0.3, 0.9])
def test_survival_l1_matches_the_dense_grid_at_other_floors(quantile_floor):
    # the shared truth row depends on the floor through log(-log q)
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, size=(boundary_sizes(1000)[-1], 3))
    for nu_truth, nu_est in ((0.2, 1.0), (2.0, 1.5), (500.0, 0.2)):
        truth = WeibullCoxModel.from_natural(nu_truth, 1.0, scaled_risk("mlp", x, 1.0, rng))
        est = WeibullCoxModel.from_natural(nu_est, 2.0, scaled_risk("linear", x, 1.0, rng))
        for n_steps in (1, 7, 1000):
            cfg = SurvivalL1Config(quantile_floor=quantile_floor, n_steps=n_steps)
            want = dense_survival_l1(truth, est, x, cfg)
            got = survival_l1(truth, est, x, cfg)
            assert abs(got - want) <= 1e-12 * abs(want), (nu_truth, nu_est, n_steps, got, want)


def test_survival_l1_survives_an_overflowing_cumulative_hazard():
    # estimate H(t_max) overflows to inf while (k / n_steps)^500 underflows
    # to 0; their product would be nan, their log-space sum is not
    truth = exponential_model(1.0)
    est = WeibullCoxModel.from_natural(500.0, 1.0, LinearRisk(np.zeros(2)))
    x = np.zeros((3, 2))
    assert dense_survival_l1(truth, est, x) == 0.15710810628442182
    assert survival_l1(truth, est, x) == pytest.approx(0.15710810628442182, rel=1e-12)


def test_survival_l1_of_zero_records_is_a_validation_error():
    model = exponential_model(1.0)
    with pytest.raises(ValidationError, match="at least one record"):
        survival_l1(model, model, np.zeros((0, 2)))


def test_survival_l1_memory_is_bounded_by_the_block():
    rng = np.random.default_rng(4)
    truth = WeibullCoxModel.from_natural(2.0, 3.0, LinearRisk(rng.normal(size=3)))
    est = WeibullCoxModel.from_natural(2.2, 2.8, LinearRisk(rng.normal(size=3)))
    x = rng.uniform(size=(4000, 3))
    tracemalloc.start()
    try:
        survival_l1(truth, est, x, SurvivalL1Config(n_steps=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_concordance_memory_is_linear_in_the_records():
    # an events x records comparison block would take tens of MiB here
    rng = np.random.default_rng(5)
    n = 20000
    data = SurvivalDataset(np.zeros((n, 1)), rng.uniform(0.5, 5.0, size=n), np.arange(n) % 2)
    scores = rng.normal(size=n)
    tracemalloc.start()
    try:
        concordance_index(scored(scores), data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_survival_l1_unreachable_horizon():
    truth = WeibullCoxModel.from_natural(1.0, 1e308, LinearRisk(np.zeros(1)))
    est = exponential_model(1.0)
    est_d1 = WeibullCoxModel.from_natural(1.0, 1.0, LinearRisk(np.zeros(1)))
    with pytest.raises(DomainError):
        survival_l1(truth, est_d1, np.zeros((2, 1)))


def test_survival_l1_config_validation():
    with pytest.raises(ValidationError):
        SurvivalL1Config(quantile_floor=0.0)
    with pytest.raises(ValidationError):
        SurvivalL1Config(n_steps=0)
    for overrides in ({"n_steps": 10.5}, {"n_steps": True}, {"quantile_floor": "0.01"}):
        with pytest.raises(ValidationError):
            SurvivalL1Config(**overrides)
    cfg = SurvivalL1Config(quantile_floor=0.05, n_steps=500)
    assert SurvivalL1Config.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# Concordance


def blocked_concordance_index(scores, data):
    """Oracle: each block of 512 events compared with every record at once."""
    block = 512
    t = data.t_obs
    event_idx = np.flatnonzero(data.delta == 1)
    concordant = 0.0
    comparable = 0
    for start in range(0, len(event_idx), block):
        rows = event_idx[start : start + block]
        later = t[None, :] > t[rows, None]
        comparable += int(later.sum())
        r_i = scores[rows, None]
        concordant += float(((r_i > scores[None, :]) & later).sum())
        concordant += 0.5 * float(((r_i == scores[None, :]) & later).sum())
    if comparable == 0:
        raise UndefinedMetricError("no comparable pairs for the concordance index")
    return concordant / comparable


def concordance_or_undefined(index, scores, data):
    try:
        return index(scores, data)
    except UndefinedMetricError:
        return "undefined"


# 1 to 3 records, then sizes at and beside each power of two: the edges of
# the merge levels
MERGE_EDGE_SIZES = [1, 2, 3] + [n for k in range(2, 11) for n in (2**k - 1, 2**k, 2**k + 1)]


@pytest.mark.parametrize("n", MERGE_EDGE_SIZES)
def test_concordance_equals_the_blocked_comparison(n):
    rng = np.random.default_rng(n)
    for trial in range(12):
        # few distinct values give ties in times, in scores and in both at once
        t = rng.integers(1, 2 + trial, size=n).astype(float)
        scores = rng.integers(0, 2 + trial % 5, size=n).astype(float)
        if trial % 3 == 1:  # non-finite scores
            for value in (np.nan, np.inf, -np.inf):
                scores[rng.uniform(size=n) < 0.15] = value
        if trial == 11:
            scores[:] = np.nan
        delta = (rng.uniform(size=n) < (0.2, 0.5, 0.9)[trial % 3]).astype(int)
        # drawn events, all events, a single event, and events only at the
        # latest time, which leave no comparable pair
        cases = [delta, np.ones(n, dtype=int), np.eye(1, n, rng.integers(n), dtype=int)[0],
                 (t == t.max()).astype(int)]
        for d in cases:
            data = SurvivalDataset(np.zeros((n, 1)), t, d)
            want = concordance_or_undefined(blocked_concordance_index, scores, data)
            got = concordance_or_undefined(concordance_index, scored(scores), data)
            assert got == want, (trial, d)


def test_concordance_hand_cases():
    t = [1.0, 2.0, 3.0]
    perfect = all_event_data(t)
    assert concordance_index(scored(np.array([3.0, 2.0, 1.0])), perfect) == 1.0
    assert concordance_index(scored(np.array([1.0, 2.0, 3.0])), perfect) == 0.0
    # tied scores count one half
    assert concordance_index(scored(np.array([2.0, 2.0, 1.0])), perfect) == pytest.approx(
        (0.5 + 1.0 + 1.0) / 3.0
    )
    # censoring removes pairs: only (0, 1) and (0, 2) are comparable
    censored = all_event_data(t, delta=[1, 0, 1])
    # pairs: (0,1) concordant, (0,2) discordant, (2, .) none
    assert concordance_index(scored(np.array([2.0, 1.0, 3.0])), censored) == pytest.approx(0.5)


def test_concordance_brute_force_oracle():
    rng = np.random.default_rng(3)
    n = 300
    t = np.round(rng.uniform(0.5, 5.0, size=n), 1)  # rounding creates time ties
    delta = (rng.uniform(size=n) < 0.6).astype(int)
    scores = np.round(rng.normal(size=n), 1)  # and score ties
    data = SurvivalDataset(rng.uniform(size=(n, 2)), t, delta)

    num = den = 0.0
    for i in range(n):
        if delta[i] != 1:
            continue
        for j in range(n):
            if t[i] < t[j]:
                den += 1
                if scores[i] > scores[j]:
                    num += 1
                elif scores[i] == scores[j]:
                    num += 0.5
    # every sum is a half-integer, so both sides are exact
    assert concordance_index(scored(scores), data) == num / den


def test_concordance_monotone_invariance_and_model_route():
    rng = np.random.default_rng(4)
    n = 100
    data = SurvivalDataset(
        rng.uniform(size=(n, 3)), rng.uniform(0.5, 4.0, size=n),
        (rng.uniform(size=n) < 0.7).astype(int),
    )
    scores = rng.normal(size=n)
    assert concordance_index(scored(scores), data) == concordance_index(
        scored(5.0 * scores + 2.0), data
    )
    model = WeibullCoxModel.from_natural(2.0, 3.0, LinearRisk(rng.normal(size=3)))
    assert concordance_index(model, data) == concordance_index(
        scored(np.asarray(model.risk.evaluate(data.x))), data
    )


def test_concordance_undefined_without_comparable_pairs():
    data = all_event_data([1.0, 2.0], delta=[0, 0])
    with pytest.raises(UndefinedMetricError):
        concordance_index(scored(np.array([1.0, 2.0])), data)
    # a single event at the latest time has nothing later to compare with
    late = all_event_data([1.0, 2.0], delta=[0, 1])
    with pytest.raises(UndefinedMetricError):
        concordance_index(scored(np.array([1.0, 2.0])), late)


# ---------------------------------------------------------------------------
# Brier


def test_brier_hand_case_with_probabilities():
    # record 0 alive at the horizon, record 1 an earlier event
    data = all_event_data([3.0, 1.0], delta=[1, 1])
    probs = np.array([0.9, 0.4])
    got = brier_score(predicting(probs), data, eval_time=2.0)
    assert got == pytest.approx(((1 - 0.9) ** 2 + (0 - 0.4) ** 2) / 2.0, abs=1e-14)


def test_brier_excludes_early_censored():
    data = all_event_data([3.0, 1.0, 0.5], delta=[1, 1, 0])
    probs = np.array([0.9, 0.4, 0.123])
    with_excluded = brier_score(predicting(probs), data, eval_time=2.0)
    assert with_excluded == pytest.approx(((1 - 0.9) ** 2 + 0.4**2) / 2.0, abs=1e-14)
    # censored exactly at the horizon is also unknown
    at_horizon = all_event_data([3.0, 2.0], delta=[1, 0])
    got = brier_score(predicting(np.array([0.9, 0.5])), at_horizon, eval_time=2.0)
    assert got == pytest.approx(0.01, abs=1e-14)


def test_brier_default_time_is_median():
    rng = np.random.default_rng(5)
    n = 50
    data = SurvivalDataset(
        rng.uniform(size=(n, 2)), rng.uniform(0.5, 5.0, size=n), np.ones(n, dtype=int)
    )
    model = WeibullCoxModel.from_natural(2.0, 3.0, LinearRisk(rng.normal(size=2)))
    assert brier_score(model, data) == pytest.approx(
        brier_score(model, data, eval_time=float(np.median(data.t_obs))), abs=1e-14
    )


def test_brier_undefined_when_all_excluded():
    data = all_event_data([0.5, 1.0], delta=[0, 0])
    with pytest.raises(UndefinedMetricError):
        brier_score(predicting(np.array([0.5, 0.5])), data, eval_time=2.0)


def test_brier_model_route_matches_probs_route():
    rng = np.random.default_rng(6)
    n = 40
    data = SurvivalDataset(
        rng.uniform(size=(n, 2)), rng.uniform(0.5, 5.0, size=n),
        (rng.uniform(size=n) < 0.7).astype(int),
    )
    model = WeibullCoxModel.from_natural(1.8, 2.5, LinearRisk(rng.normal(size=2)))
    ev = 2.0
    probs = model.survival(np.full(n, ev), data.x)
    assert brier_score(model, data, eval_time=ev) == pytest.approx(
        brier_score(predicting(probs), data, eval_time=ev), abs=1e-14
    )


# ---------------------------------------------------------------------------
# R^2


def test_r_squared_hand_case():
    # unit exponential predicts its median ln 2 for every record
    model = exponential_model(1.0)
    x = np.zeros((2, 2))
    y = np.array([1.0, 2.0])
    m = math.log(2.0)
    sse = (1.0 - m) ** 2 + (2.0 - m) ** 2
    sst = 0.25 + 0.25
    assert r_squared(model, x, y) == pytest.approx(1.0 - sse / sst, abs=1e-12)


def test_r_squared_perfect_and_undefined():
    rng = np.random.default_rng(7)
    w = rng.normal(size=2)
    model = WeibullCoxModel.from_natural(2.0, 3.0, LinearRisk(w))
    x = rng.uniform(size=(20, 2))
    y = model.inverse_survival(np.full(20, 0.5), x)  # exactly the medians
    assert r_squared(model, x, y) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(UndefinedMetricError):
        r_squared(model, x, np.full(20, 3.0))  # zero variance targets
    with pytest.raises(ValidationError, match=r"y must have shape \(20,\), got \(19,\)"):
        r_squared(model, x, y[:19])


# ---------------------------------------------------------------------------
# Metric-bias experiment rows


def metric_bias_draw(tau, seed=0, n=1500):
    """The metric-bias arm's draw at Clayton dependence ``tau``: its preset, on stream 101."""
    return generate_synthetic(preset_metric_bias(
        seed, n=n, copula=spec_from_tau("clayton", tau), data_seed=child_seed(seed, tau_key(tau), 101)
    ))


def test_metric_bias_rows():
    rows = [metric_bias_experiment(*metric_bias_draw(tau)) for tau in (0.01, 0.8)]
    for r in rows:
        assert r.c_index_abs_diff == pytest.approx(
            abs(r.c_index_uncensored - r.c_index_censored), abs=1e-15
        )
        assert r.brier_abs_diff == pytest.approx(
            abs(r.brier_uncensored - r.brier_censored), abs=1e-15
        )
        assert 0.0 < r.censoring_fraction < 1.0


# ---------------------------------------------------------------------------
# Report serialization


def test_report_serialization(tmp_path):
    report = EvaluationReport(c_index=0.7, brier=0.1)
    doc = report.to_dict()
    assert set(doc) == {"c_index", "brier"}
    full = EvaluationReport(
        c_index=0.7, brier=0.1, survival_l1_event=0.02, survival_l1_censor=0.03,
        tau_hat=0.5, r_squared=0.4,
    )
    path = tmp_path / "report.json"
    full.save(path)
    loaded = json.loads(path.read_text())
    assert loaded["tau_hat"] == 0.5

    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(copsurv.__file__).parent / "schemas" / "evaluation_report.schema.json").read_text()
    )
    jsonschema.validate(loaded, schema)
    jsonschema.validate(doc, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"c_index": 0.5}, schema)
