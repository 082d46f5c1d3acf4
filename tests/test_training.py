"""Optimizer behavior (L-BFGS-B, and the Adam step no fit uses), early
stopping, determinism, and the equivalence of the joint independence fit
with separate marginal fits."""
import json
import re

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, rosen, rosen_der

from copsurv import training
from copsurv.copulas import (
    PARAMETERS,
    THETA_HI_FRANK,
    CopulaSpec,
    Family,
    spec_from_tau,
    theta_to_tau,
)
from copsurv.data import SurvivalDataset
from copsurv.datagen import generate_synthetic, preset_linear_risk, synthetic_regression, zscore_fit
from copsurv.errors import NumericalFailure, ValidationError
from copsurv.likelihood import loglik_copula, marginal_loglik
from copsurv.training import (
    MLP_L2_LAMBDA,
    THETA_MIN,
    Adam,
    FittedJointModel,
    TrainConfig,
    _optimize,
    _setup,
    fit,
    fit_marginal,
)

from test_likelihood import joint_gradient, marginal_gradient


def make_data(n=400, tau=0.5, family="clayton", seed=0):
    cfg = preset_linear_risk(seed, n=n, copula=spec_from_tau(family, tau))
    dataset, _, _ = generate_synthetic(cfg)
    return dataset


# ---------------------------------------------------------------------------
# Config


def test_train_config_has_four_fields():
    assert set(TrainConfig.__dataclass_fields__) == {
        "max_epochs", "patience", "validation_fraction", "seed"}


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(patience=0)
    with pytest.raises(ValidationError):
        TrainConfig(max_epochs=10, patience=11)
    with pytest.raises(ValidationError):
        TrainConfig(validation_fraction=1.0)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    with pytest.raises(ValidationError):
        TrainConfig.from_dict({"seed": 1, "bogus": 1})
    # removed fields (the Adam-only ones, and the theta floor and L2 weight
    # that now follow from the code) are rejected by name
    for removed in ("alpha", "grad_scale", "clip_bound", "theta_min", "l2_lambda"):
        with pytest.raises(ValidationError):
            TrainConfig.from_dict({removed: 0.1})
    # integer fields take ints only, real fields finite ints or floats
    nan, inf = float("nan"), float("inf")
    bad_types = [
        {"max_epochs": 30.5, "patience": 30}, {"patience": 5.5}, {"seed": 1.5}, {"seed": True},
        {"validation_fraction": "0.1"}, {"validation_fraction": nan},
        {"validation_fraction": inf}, {"validation_fraction": True}, {"validation_fraction": None},
    ]
    for overrides in bad_types:
        with pytest.raises(ValidationError):
            TrainConfig.from_dict(overrides)


def test_train_config_roundtrip():
    cfg = TrainConfig(max_epochs=50, patience=10, validation_fraction=0.25, seed=3)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# Adam (no fit runs it; it stays as the benchmark's training.adam_step span)


def test_adam_first_step_size():
    # with bias correction the first step is alpha * g / (|g| + eps'), i.e.
    # just under alpha in magnitude, in the ascent direction
    p = np.array(1.0)
    opt = Adam({"p": p}, alpha=0.001)
    opt.step({"p": np.array(5.0)})
    delta = float(p) - 1.0
    assert 0.0009 < delta <= 0.001 * (1.0 + 1e-6)

    q = np.array(1.0)
    opt2 = Adam({"q": q}, alpha=0.001)
    opt2.step({"q": np.array(-0.3)})
    assert -0.001 * (1.0 + 1e-6) <= float(q) - 1.0 < -0.0009


def test_adam_multiple_steps_bounded():
    p = np.array(0.0)
    opt = Adam({"p": p}, alpha=0.01)
    rng = np.random.default_rng(0)
    prev = 0.0
    for _ in range(50):
        opt.step({"p": np.array(rng.uniform(0.5, 2.0))})
        # consistent-sign gradients move the parameter monotonically,
        # about alpha per step
        assert float(p) > prev
        assert float(p) - prev <= 0.011
        prev = float(p)


def test_adam_overflowing_second_moment_raises():
    # 1e200 squared is inf: the step would be 0 and the parameter frozen
    p = np.array(1.0)
    with pytest.warns(RuntimeWarning), pytest.raises(NumericalFailure):
        Adam({"p": p}, alpha=0.001).step({"p": np.array(1e200)})
    assert float(p) == 1.0


# ---------------------------------------------------------------------------
# The L-BFGS-B loop.  Its box is held by
# test_lbfgsb_holds_the_box_and_records_every_iterate and its validation
# stop by test_lbfgsb_early_stop_restores_the_best_validation_iterate.
# Validation scores a block of iterates per call: each callback here takes
# the stacked points and returns one loss per point.


def accepted_iterates(monkeypatch):
    """The iterates the solver accepts, recorded as it accepts them (the
    validation callback sees them only when their block is scored)."""
    accepted = []
    solve = training.minimize

    def solver(fun, x0, callback, **kwargs):
        def record(intermediate_result):
            accepted.append(intermediate_result.x.copy())
            callback(intermediate_result)

        return solve(fun, x0, callback=record, **kwargs)

    monkeypatch.setattr(training, "minimize", solver)
    return accepted


def test_optimize_failure_carries_epoch_and_state():
    # every evaluation after the 10th fails: the run ends at a failed trial
    # point, the restart from the last accepted iterate fails at once, the
    # failure carries the accepted-iterate count, and p holds that iterate;
    # every accepted iterate was scored before the failure was raised
    p = np.array([-1.2, 1.0])
    calls = {"n": 0}
    accepted = []

    def loss_and_grad(point):
        calls["n"] += 1
        if calls["n"] > 10:
            raise NumericalFailure("boom", record_index=7)
        return -float(rosen(point["p"])), {"p": -rosen_der(point["p"])}

    def val(points):
        accepted.extend(points["p"].copy())
        return np.zeros(len(points["p"]))

    cfg = TrainConfig(max_epochs=100, patience=100)
    with pytest.raises(NumericalFailure) as info:
        _optimize({"p": p}, {}, loss_and_grad, val, cfg)
    assert info.value.epoch == len(accepted) > 0
    assert info.value.record_index == 7
    assert np.array_equal(p, accepted[-1])


def _saturating(p, limit=None):
    """log-likelihood -sum log cosh(p - 3), maximal at p = 3; its gradient is
    flat far from the optimum, so a quasi-Newton step overshoots by far.
    Beyond ``limit`` the objective overflows."""
    if limit is not None and np.any(p > limit):
        raise NumericalFailure("overflow", record_index=1)
    return -float(np.sum(np.log(np.cosh(p - 3.0)))), {"p": -np.tanh(p - 3.0)}


def test_lbfgsb_restarts_after_an_overflowing_trial_point():
    p = np.full(2, -20.0)
    calls = {"failed": 0}

    def loss_and_grad(point):
        try:
            return _saturating(point["p"], limit=5.0)
        except NumericalFailure:
            calls["failed"] += 1
            raise

    cfg = TrainConfig(max_epochs=500, patience=500, validation_fraction=0.0)
    try:
        trace, best_epoch, _ = _optimize({"p": p}, {}, loss_and_grad, None, cfg)
    except NumericalFailure:
        return  # an honest failure is acceptable; a false convergence is not
    assert calls["failed"] > 0  # the trial points did overflow
    assert np.allclose(p, 3.0, atol=1e-4)
    assert best_epoch == len(trace.epoch) - 1


def test_lbfgsb_treats_a_nan_gradient_at_a_finite_value_as_a_failed_trial_point():
    # beyond p = 5 the value stays finite but the gradient is nan: the run
    # restarts from its last accepted iterate, as after an overflow
    p = np.full(2, -2.0)
    calls = {"nan": 0}

    def loss_and_grad(point):
        loglik, grads = _saturating(point["p"])
        if np.any(point["p"] > 5.0):
            calls["nan"] += 1
            grads = {"p": np.full(2, np.nan)}
        return loglik, grads

    cfg = TrainConfig(max_epochs=500, patience=500, validation_fraction=0.0)
    trace, best_epoch, _ = _optimize({"p": p}, {}, loss_and_grad, None, cfg)
    assert calls["nan"] > 0
    assert np.allclose(p, 3.0, atol=1e-4)
    assert best_epoch == len(trace.epoch) - 1
    # at the start it is the run's failure, charged to epoch 0 and to no record
    with pytest.raises(NumericalFailure) as info:
        _optimize({"p": np.full(2, 6.0)}, {}, loss_and_grad, None, cfg)
    assert str(info.value) == "epoch 0: non-finite gradient"
    assert (info.value.epoch, info.value.record_index) == (0, None)


@pytest.mark.parametrize("early_stop", [False, True])
def test_lbfgsb_leaves_the_reported_iterate_after_failed_trial_points(early_stop, monkeypatch):
    # trial points overflow after iterates were accepted; whatever the solver
    # last evaluated, the parameters left behind are the iterate reported:
    # the final one, or with early_stop the best-validation one
    p = np.full(2, -2.0)
    seen, failed_after = [], []
    accepted = accepted_iterates(monkeypatch)

    def loss_and_grad(point):
        try:
            return _saturating(point["p"], limit=5.0)
        except NumericalFailure:
            failed_after.append(len(accepted))
            raise

    def val(points):
        seen.extend(points["p"].copy())
        # best near 2, short of the optimum at 3
        return np.array([float(np.sum((q - 2.0) ** 2)) for q in points["p"]])

    cfg = TrainConfig(max_epochs=500, patience=5)
    trace, best_epoch, best_val = _optimize(
        {"p": p}, {}, loss_and_grad, val, cfg, early_stop=early_stop
    )
    assert max(failed_after) > 0  # a trial point failed after an accepted iterate
    assert np.array_equal(p, seen[best_epoch])
    assert -_saturating(p)[0] == trace.train_negloglik[best_epoch]
    assert best_val == val({"p": p[None]})[0] == trace.val_negloglik[best_epoch]
    if early_stop:
        assert best_epoch < len(trace.epoch) - 1
    else:
        assert best_epoch == len(trace.epoch) - 1 and np.allclose(p, 3.0, atol=1e-4)


def test_lbfgsb_unpacks_an_accepted_iterate_it_did_not_evaluate_last(monkeypatch):
    # L-BFGS-B accepts the point it evaluated last, so the unpack on each
    # accepted iterate is skipped; a solver that accepts an earlier point
    # must still leave the parameters at it
    p = np.zeros(2)
    seen = []

    def solver(fun, x0, callback, **kwargs):
        fun(np.array([1.0, 2.0]))
        fun(np.array([5.0, 6.0]))
        callback(OptimizeResult(x=np.array([1.0, 2.0]), fun=0.0))
        return OptimizeResult(x=np.array([1.0, 2.0]))

    def val(points):
        seen.extend(points["p"].tolist())
        return np.zeros(len(points["p"]))

    monkeypatch.setattr(training, "minimize", solver)
    _optimize({"p": p}, {}, lambda point: (0.0, {"p": np.zeros(2)}), val, TrainConfig())
    assert seen == [[1.0, 2.0]]
    assert p.tolist() == [1.0, 2.0]


def test_lbfgsb_without_progress_raises_with_the_iteration_count():
    p = np.array([0.0])
    start = p.copy()

    def loss_and_grad(point):
        if not np.array_equal(point["p"], start):
            raise NumericalFailure("overflow", record_index=4)
        return _saturating(point["p"])

    cfg = TrainConfig(max_epochs=50, patience=50, validation_fraction=0.0)
    with pytest.raises(NumericalFailure) as info:
        _optimize({"p": p}, {}, loss_and_grad, None, cfg)
    assert info.value.epoch == 0
    assert info.value.record_index == 4
    assert p.tolist() == [0.0]


@pytest.mark.parametrize("early_stop", [False, True])
@pytest.mark.parametrize("split", [True, False], ids=["split", "no-split"])
def test_lbfgsb_started_at_the_optimum_returns_the_start(early_stop, split):
    # the gradient is 0 at the start, so L-BFGS-B accepts no iterate: the
    # run returns epoch -1 at the start, scored there (NaN without a split)
    p = np.array([3.0, -1.0])
    seen = []

    def loss_and_grad(point):
        q = point["p"]
        return -float(np.sum((q - [3.0, -1.0]) ** 2)), {"p": -2.0 * (q - [3.0, -1.0])}

    def val(points):
        seen.extend(points["p"].tolist())
        return np.full(len(points["p"]), 7.5)

    trace, best_epoch, best_val = _optimize({"p": p}, {}, loss_and_grad, val if split else None,
                                            TrainConfig(max_epochs=50, patience=5),
                                            early_stop=early_stop)
    assert best_epoch == -1
    assert p.tolist() == [3.0, -1.0]
    assert best_val == 7.5 if split else np.isnan(best_val)
    assert seen == ([[3.0, -1.0]] if split else [])
    assert len(trace.epoch) == len(trace.train_negloglik) == len(trace.val_negloglik) == 0


def test_lbfgsb_holds_the_box_and_records_every_iterate():
    # the unconstrained maximum lies at 1000, beyond the Frank cap
    p = np.array(1.0)
    vals = iter(range(1000, 0, -1))

    def loss_and_grad(point):
        q = point["p"]
        return -float((q - 1000.0) ** 2), {"p": -2.0 * (q - 1000.0)}

    cfg = TrainConfig(max_epochs=50, patience=50)
    trace, best_epoch, best_val = _optimize(
        {"p": p}, {"p": (1e-3, THETA_HI_FRANK)}, loss_and_grad,
        lambda points: np.array([next(vals) for _ in points["p"]]), cfg
    )
    assert float(p) == THETA_HI_FRANK
    assert trace.copula_path["p"].max() == THETA_HI_FRANK
    assert trace.copula_path["p"][-1] == THETA_HI_FRANK
    assert best_epoch == len(trace.epoch) - 1
    assert best_val == trace.val_negloglik[-1]
    # every column of a row is taken at the same accepted iterate
    assert trace.train_negloglik.tolist() == [(p - 1000.0) ** 2 for p in trace.copula_path["p"]]


def test_lbfgsb_early_stop_restores_the_best_validation_iterate():
    # validation is best at the third iterate; with early_stop the run ends
    # `patience` iterates later and restores the third, whatever the optimum
    # (Rosenbrock's function takes L-BFGS-B about 35 iterations from here);
    # in the second run the fourth ties with it, which is no improvement
    for vals in ([5.0, 4.0, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5], [5.0, 4.0, 3.0, 3.0, 4.0, 4.5, 5.0, 5.5]):
        p = np.array([-1.2, 1.0])
        seen = []

        def loss_and_grad(point):
            return -float(rosen(point["p"])), {"p": -rosen_der(point["p"])}

        def val(points):
            seen.extend(points["p"].copy())
            return np.array(vals[len(seen) - len(points["p"]):len(seen)])

        cfg = TrainConfig(max_epochs=50, patience=3)
        trace, best_epoch, best_val = _optimize(
            {"p": p}, {}, loss_and_grad, val, cfg, early_stop=True
        )
        assert (best_epoch, best_val) == (2, 3.0)
        assert trace.val_negloglik.tolist() == vals[:2 + 3 + 1]
        assert np.array_equal(p, seen[2]) and not np.array_equal(p, seen[-1])


@pytest.mark.parametrize("fail_epoch", [0, 2])
@pytest.mark.parametrize("case", ["later_trial_failure", "early_stop_trial_failure", "patience"])
def test_a_failed_validation_names_its_epoch_and_leaves_its_iterate(case, fail_epoch,
                                                                     monkeypatch):
    # the validation of iterate fail_epoch fails, but its block is scored
    # later: at the patience flush, or, in the trial-failure cases, only when
    # a later trial point has failed and the run is about to raise that; the
    # validation failure must still be the one raised, with its own epoch
    # and record, and p must be left at the iterate it scored
    p = np.array([-1.2, 1.0])
    accepted = accepted_iterates(monkeypatch)
    calls = {"n": 0}
    scored = []
    trial_limit = np.inf if case == "patience" else 12

    def loss_and_grad(point):
        calls["n"] += 1
        if calls["n"] > trial_limit:
            raise NumericalFailure("boom", record_index=7)
        return -float(rosen(point["p"])), {"p": -rosen_der(point["p"])}

    def val(points):
        first = len(scored)
        if first <= fail_epoch < first + len(points["p"]):
            raise NumericalFailure("non-finite", record_index=5, point_index=fail_epoch - first)
        scored.extend(points["p"].copy())
        return np.zeros(len(points["p"]))

    patience = 3 if case == "patience" else 100
    cfg = TrainConfig(max_epochs=100, patience=patience)
    with pytest.raises(NumericalFailure) as info:
        _optimize({"p": p}, {}, loss_and_grad, val, cfg, early_stop=case != "later_trial_failure")
    assert (info.value.epoch, info.value.record_index) == (fail_epoch, 5)
    assert str(info.value) == f"epoch {fail_epoch}: non-finite"
    assert len(accepted) >= 3  # the block held other iterates
    assert np.array_equal(p, accepted[fail_epoch])


def _fit_outcome(fit_kind, risks, cfg):
    data = make_data(200, tau=0.5, family="mixture", seed=1)
    if fit_kind == "marginal":
        model, trace = fit_marginal(data, risks[0], cfg)
        return model.to_dict(), trace, None, float("nan")
    family = "mixture" if "mlp" in risks else "frank"
    out = fit(data, *risks, family, cfg)
    return out.to_dict(), out.trace, out.best_epoch, out.best_val_negloglik


@pytest.mark.parametrize("fit_kind, risks, cfg", [
    # three starts, each to convergence or 60 iterations; patience does not apply
    ("joint", ("linear", "linear"), TrainConfig(max_epochs=60, patience=3)),
    # stopped on validation after 3 iterations without improvement, mid-block
    ("joint", ("mlp", "mlp"), TrainConfig(max_epochs=60, patience=3)),
    ("joint", ("mlp", "linear"), TrainConfig(max_epochs=60, patience=3)),
    # a patience the run never reaches
    ("joint", ("mlp", "mlp"), TrainConfig(max_epochs=40, patience=40)),
    ("joint", ("mlp", "mlp"), TrainConfig(max_epochs=40, patience=40, validation_fraction=0.0)),
    ("marginal", ("linear",), TrainConfig(max_epochs=60, patience=3)),
    ("marginal", ("mlp",), TrainConfig(max_epochs=60, patience=3)),
], ids=["linear", "mlp-patience3", "mixed-patience3", "mlp-patience40", "mlp-no-split",
        "marginal-linear", "marginal-mlp"])
def test_validation_blocks_leave_every_fit_as_iterate_by_iterate_scoring(fit_kind, risks, cfg,
                                                                          monkeypatch):
    # a block of one value scores each iterate as it is accepted; a block of
    # 1,000 values holds 4 (two MLPs) to 25 (linear) iterates here, and the
    # default 20 to 102: each must give the same model, trace and best epoch
    default = training.VALIDATION_BLOCK
    outcomes = []
    for block in (1, 1000, default):
        monkeypatch.setattr(training, "VALIDATION_BLOCK", block)
        outcomes.append(_fit_outcome(fit_kind, risks, cfg))
    (model, trace, best_epoch, best_val), *others = outcomes
    for other_model, other_trace, other_best_epoch, other_best_val in others:
        assert json.dumps(other_model, sort_keys=True) == json.dumps(model, sort_keys=True)
        for column in ("epoch", "train_negloglik", "val_negloglik"):
            assert np.array_equal(getattr(other_trace, column), getattr(trace, column),
                                  equal_nan=column == "val_negloglik"), column
        assert other_trace.copula_path.keys() == trace.copula_path.keys()
        for key in trace.copula_path:
            assert np.array_equal(other_trace.copula_path[key], trace.copula_path[key]), key
        assert other_best_epoch == best_epoch
        assert np.array_equal(other_best_val, best_val, equal_nan=True)


def _censor_input(seed=0):
    """The all-event dataset ``fit_regression_marginal`` fits on."""
    x, y = synthetic_regression(2000, 10, seed)
    mean, std = zscore_fit(x)
    return SurvivalDataset((x - mean) / std, y, np.ones(len(y), dtype=np.int64))


# the fit config of ``copsurv censor`` at its default seed
CENSOR_FIT = TrainConfig(seed=0)


def test_fit_marginal_returns_the_best_validation_iterate():
    data = _censor_input()
    model, trace = fit_marginal(data, "linear", CENSOR_FIT)
    _, val_ds, _, _ = _setup(data, CENSOR_FIT, "linear")
    vals = trace.val_negloglik
    best = int(np.argmin(vals))
    # validation stops improving before L-BFGS-B converges, so the final
    # iterate is not the one returned
    assert best < len(vals) - 1 and vals[-1] > vals[best]
    assert -marginal_loglik(model, val_ds) == vals[best]


def _grouped_data(censored, n=200, seed=0):
    """Weibull times on two binary covariates.  An MLP risk then takes four
    values only, so its penalized likelihood has a stationary point that
    L-BFGS-B reaches in about 1,000 iterations."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(n, 2)).astype(float)
    t = rng.weibull(1.5, size=n) * np.exp(-0.5 * x.sum(1))
    delta = (rng.uniform(size=n) < 0.6) if censored else np.ones(n)
    return SurvivalDataset(x, t, delta.astype(np.int64))


def test_fit_marginal_without_validation_is_stationary():
    # no split: L-BFGS-B runs to convergence on the penalized objective (the
    # value passed to it must carry the penalty its gradient carries; without
    # it this case stops at a gradient of 0.15)
    data = _grouped_data(censored=False)
    cfg = TrainConfig(max_epochs=5000, validation_fraction=0.0)
    model, trace = fit_marginal(data, "mlp", cfg)
    assert np.isnan(trace.val_negloglik).all()
    penalized, grads = marginal_gradient(model, data, MLP_L2_LAMBDA)
    assert penalized < marginal_loglik(model, data)  # the penalty is active
    assert max(float(np.max(np.abs(g))) for g in grads.values()) < 1e-3, grads


def test_fit_marginal_budget_on_the_censor_input():
    # L-BFGS-B converges in about 20 iterations here; Adam ran 2,441 to 5,000
    _, trace = fit_marginal(_censor_input(), "linear", CENSOR_FIT)
    assert len(trace.epoch) < 100


# ---------------------------------------------------------------------------
# Joint fitting


def test_fit_requires_both_statuses():
    ds = make_data(100)
    all_events = SurvivalDataset(ds.x, ds.t_obs, np.ones(len(ds), dtype=int))
    with pytest.raises(ValidationError):
        fit(all_events, "linear", "linear", "clayton", TrainConfig(max_epochs=5, patience=5))
    # marginal fitting accepts degenerate indicators
    model, trace = fit_marginal(all_events, "linear", TrainConfig(max_epochs=5, patience=5))
    assert model.nu > 0


def test_fit_smoke_and_trace_columns():
    ds = make_data(300, tau=0.5)
    cfg = TrainConfig(max_epochs=30, patience=30, seed=0)
    out = fit(ds, "linear", "linear", "clayton", cfg)
    assert isinstance(out, FittedJointModel)
    assert out.copula.family is Family.CLAYTON
    assert set(out.trace.copula_path) == {"theta_hat"}
    assert len(out.trace.epoch) == 30
    # theta respects the positivity floor everywhere on the path
    assert np.all(out.trace.copula_path["theta_hat"] >= 1e-3)

    mix = fit(ds, "linear", "linear", "mixture", cfg)
    assert set(mix.trace.copula_path) == {"theta_frank", "theta_clayton", "kappa"}
    assert np.all(mix.trace.copula_path["kappa"] >= 0.0)
    assert np.all(mix.trace.copula_path["kappa"] <= 1.0)

    ind = fit(ds, "linear", "linear", "independence", cfg)
    assert ind.trace.copula_path == {}
    assert theta_to_tau(ind.copula) == 0.0


def test_risk_kinds_are_case_insensitive():
    # an upper-case kind builds the same nets and must carry the same L2 penalty
    ds = make_data(200)
    cfg = TrainConfig(max_epochs=5, patience=5)
    upper = fit(ds, "MLP", "Linear", "clayton", cfg)
    lower = fit(ds, "mlp", "linear", "clayton", cfg)
    assert upper.to_dict() == lower.to_dict()
    assert fit_marginal(ds, "MLP", cfg)[0].to_dict() == fit_marginal(ds, "mlp", cfg)[0].to_dict()


def test_theta_floor_reached_from_independent_data():
    ds = make_data(300, tau=0.0)
    cfg = TrainConfig(max_epochs=1500, patience=1500, seed=1)
    out = fit(ds, "linear", "linear", "clayton", cfg)
    path = out.trace.copula_path["theta_hat"]
    assert path.min() >= 1e-3
    assert path[-1] == pytest.approx(1e-3, abs=1e-9)


def test_linear_frank_fit_holds_the_cap():
    # data drawn at the cap itself, where the fit wants theta beyond it:
    # L-BFGS-B must end on the bound, not past it, and reach it early (on
    # natural theta, where the likelihood is nearly flat, it took 356)
    cfg = preset_linear_risk(0, n=1000, copula=CopulaSpec(Family.FRANK, theta=THETA_HI_FRANK))
    ds, _, _ = generate_synthetic(cfg)
    out = fit(ds, "linear", "linear", "frank", TrainConfig(max_epochs=500, patience=500))
    path = out.trace.copula_path["theta_hat"]
    assert path.max() == THETA_HI_FRANK
    assert path[:300].max() == THETA_HI_FRANK
    assert out.copula.theta == THETA_HI_FRANK


class _SolverCall(Exception):
    """Ends a fit at its first solver call, carrying that call's arguments."""


@pytest.mark.parametrize("family", ["clayton", "frank", "mixture"])
def test_solver_gradient_matches_finite_differences_in_log_theta(family, monkeypatch):
    # the solver moves each theta as log theta, so the gradient it receives
    # must be the derivative in those coordinates; without the factor theta
    # the sign is unchanged and a stationarity test would not notice
    def capture(fun, x0, **kwargs):
        raise _SolverCall(fun, x0, kwargs["bounds"])

    monkeypatch.setattr("copsurv.training.minimize", capture)
    ds = make_data(200, tau=0.5, family=family)
    with pytest.raises(_SolverCall) as call:
        fit(ds, "linear", "linear", family, TrainConfig(max_epochs=10, patience=10))
    fun, x0, bounds = call.value.args
    log_lo, log_cap = np.log(THETA_MIN), np.log(THETA_HI_FRANK)
    boxes = {"clayton": [(log_lo, np.inf)], "frank": [(log_lo, log_cap)],
             "mixture": [(log_lo, log_cap), (log_lo, np.inf), (0.0, 1.0)]}[family]
    assert [tuple(b) for b in bounds[-len(boxes):]] == boxes
    x = x0 + np.random.default_rng(0).uniform(-0.1, 0.1, size=x0.size)
    _, grad = fun(x)
    h = 1e-6
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h
        fd = (fun(x + step)[0] - fun(x - step)[0]) / (2 * h)
        assert abs(grad[i] - fd) / max(abs(fd), 1.0) < 1e-4, (i, grad[i], fd)


@pytest.mark.parametrize("family", [family.value for family in Family])
def test_optimizer_boxes_lie_inside_the_spec_ranges(family, monkeypatch):
    # the solver's boxes and the ranges CopulaSpec enforces both come from
    # copulas.PARAMETERS; every spec the solver can reach must build, or a fit
    # would stop on a domain error instead of its numerical exit
    def capture(params, copula_bounds, *args, **kwargs):
        start = {key[len("copula."):]: float(params[key]) for key in copula_bounds}
        raise _SolverCall(start, copula_bounds)

    monkeypatch.setattr("copsurv.training._optimize", capture)
    with pytest.raises(_SolverCall) as call:  # an MLP risk: the single start
        fit(make_data(100), "mlp", "linear", family, TrainConfig(max_epochs=5, patience=5))
    start, boxes = call.value.args
    domains = PARAMETERS[Family(family)]
    assert start == {name: 0.5 if name == "kappa" else 1.0 for name in domains}
    assert list(boxes) == [f"copula.{name}" for name in domains]
    CopulaSpec(family, **start)
    for name, domain in domains.items():
        lo, hi = boxes[f"copula.{name}"]
        assert domain.lo <= lo < hi <= domain.hi
        assert lo == (THETA_MIN if domain.lo_open else domain.lo)
        for end in (lo, hi) if np.isfinite(hi) else (lo,):
            CopulaSpec(family, **{**start, name: end})


def test_fit_deterministic():
    ds = make_data(250, tau=0.4)
    cfg = TrainConfig(max_epochs=40, patience=40, seed=5)
    a = fit(ds, "linear", "mlp", "frank", cfg)
    b = fit(ds, "linear", "mlp", "frank", cfg)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    assert np.array_equal(a.trace.train_negloglik, b.trace.train_negloglik)
    assert np.array_equal(a.trace.val_negloglik, b.trace.val_negloglik)


def test_joint_independence_fit_equals_marginal_fit():
    # with the independence family the likelihood separates, so the event
    # block of the joint fit must be a stationary point of the event-only
    # marginal likelihood, and the censor block one of the censor-only
    # likelihood (status flipped), whatever the solver
    ds = make_data(200, tau=0.3)
    cfg = TrainConfig(max_epochs=2000, patience=2000, validation_fraction=0.0, seed=2)
    joint = fit(ds, "linear", "linear", "independence", cfg)
    flipped = SurvivalDataset(ds.x, ds.t_obs, 1 - ds.delta)
    for model, data in ((joint.event_model, ds), (joint.censor_model, flipped)):
        _, grads = marginal_gradient(model, data)
        assert max(float(np.max(np.abs(g))) for g in grads.values()) < 1e-3, grads


def test_fit_recovers_dependence_direction():
    # L-BFGS-B runs each of the three tau starts to convergence; the winning
    # fit must improve the validation loss over its first iterate and find
    # clear positive dependence (the truth, tau 0.6, is Clayton theta 3.0)
    ds = make_data(800, tau=0.6, seed=3)
    cfg = TrainConfig(max_epochs=2500, patience=2500, seed=3)
    out = fit(ds, "linear", "linear", "clayton", cfg)
    assert out.trace.val_negloglik[out.best_epoch] < out.trace.val_negloglik[0]
    assert out.copula.theta > 1.2


def test_best_epoch_is_argmin_of_validation():
    # a joint fit with an MLP risk stops on validation and restores the
    # best-validation iterate
    ds = make_data(300, tau=0.4)
    cfg = TrainConfig(max_epochs=200, patience=50, seed=0)
    out = fit(ds, "mlp", "mlp", "clayton", cfg)
    vals = out.trace.val_negloglik
    assert out.best_epoch == int(np.argmin(vals))
    assert out.best_val_negloglik == pytest.approx(float(vals.min()), abs=0.0)


def test_linear_fit_keeps_the_last_iterate():
    # L-BFGS-B runs to convergence; validation is recorded, not used to stop
    ds = make_data(300, tau=0.4)
    cfg = TrainConfig(max_epochs=200, patience=50, seed=0)
    out = fit(ds, "linear", "linear", "clayton", cfg)
    assert out.best_epoch == len(out.trace.epoch) - 1
    assert out.best_val_negloglik == out.trace.val_negloglik[-1]
    assert out.copula.theta == out.trace.copula_path["theta_hat"][-1]


@pytest.mark.parametrize("family, risks", [
    ("clayton", ("linear", "linear")),
    ("frank", ("linear", "linear")),
    ("mixture", ("linear", "linear")),
    ("mixture", ("mlp", "linear")),
])
def test_the_trace_records_the_returned_penalized_loglik(family, risks):
    # fit ranks its starts by this recorded value, so it must be the
    # penalized training log-likelihood of the returned models, bit for bit
    ds = make_data(300, tau=0.5, family=family, seed=1)
    cfg = TrainConfig(max_epochs=300, patience=20, seed=1)
    fitted = fit(ds, *risks, family, cfg)
    train_ds, _, _, _ = _setup(ds, cfg, *risks)
    l2 = MLP_L2_LAMBDA if "mlp" in risks else 0.0
    if "mlp" in risks:  # the returned iterate is an earlier one, not the last
        assert fitted.best_epoch < len(fitted.trace.epoch) - 1
    assert -fitted.trace.train_negloglik[fitted.best_epoch] == loglik_copula(
        fitted.event_model, fitted.censor_model, fitted.copula, train_ds, l2)


def test_fit_returns_the_start_its_trace_ranks_best(monkeypatch):
    # each start's solver run is scripted: start i shifts the event log nu
    # by shifts[i] and records the training losses losses[i], the last at
    # the iterate it returns
    drawn, true_loglik = [], []
    setup = training._setup

    def recording_setup(*args):
        out = setup(*args)
        drawn.append(out[2])
        return out

    def scripted(params, copula_bounds, loss_and_grad, *args, **kwargs):
        i = len(true_loglik)
        params["event.log_nu"][...] += shifts[i]
        true_loglik.append(loss_and_grad(params)[0])
        n = len(losses[i])
        path = {key: np.full(n, float(params[key])) for key in copula_bounds}
        trace = training.TrainTrace(np.arange(n), np.array(losses[i], dtype=float),
                                    np.full(n, np.nan), path)
        return trace, n - 1, float("nan")

    monkeypatch.setattr(training, "_setup", recording_setup)
    monkeypatch.setattr(training, "_optimize", scripted)
    ds = make_data(200)
    cfg = TrainConfig(max_epochs=10, patience=10)
    thetas = [spec_from_tau("clayton", tau).theta for tau in training.START_TAUS]
    cases = [
        # the best recorded value wins, although it ends far off the optimum
        ([[9.0, 1.0], [3.0], [5.0]], [2.0, 0.0, 0.5], 0),
        # a tie goes to the earlier start
        ([[4.0], [2.0, 1.0], [1.0]], [0.1, 0.2, 0.3], 1),
        # a start with no accepted iterate ranks last, below any recorded value
        ([[], [1e300], [2e300]], [0.1, 0.2, 0.3], 1),
    ]
    for losses, shifts, winner in cases:
        true_loglik.clear()
        out = fit(ds, "linear", "linear", "clayton", cfg)
        if winner == 0:
            assert true_loglik[0] < true_loglik[1]
        assert out.copula.theta == thetas[winner]
        assert np.array_equal(out.trace.train_negloglik, losses[winner])
        assert out.best_epoch == len(losses[winner]) - 1
        # the returned models are the winner's own, and _setup's are untouched
        _, _, initial, _ = setup(ds, cfg, "linear", "linear")
        assert float(out.event_model.log_nu) == float(initial[0].log_nu) + shifts[winner]
        assert out.event_model is not drawn[-1][0] and out.censor_model is not drawn[-1][1]
        assert [m.to_dict() for m in drawn[-1]] == [m.to_dict() for m in initial]


def test_mlp_fit_is_stationary_for_the_penalized_objective():
    # the L-BFGS-B value must include the L2 penalty its gradient includes;
    # a value without it breaks the line search far from the optimum
    ds = _grouped_data(censored=True)
    cfg = TrainConfig(max_epochs=5000, validation_fraction=0.0)
    out = fit(ds, "mlp", "mlp", "clayton", cfg)
    _, grads = joint_gradient(out.event_model, out.censor_model, out.copula, ds, MLP_L2_LAMBDA)
    # without the penalty in the value this case ends at a gradient of 0.0044
    assert max(float(np.max(np.abs(g))) for g in grads.values()) < 1e-3, grads


def test_checkpoint_roundtrip(tmp_path):
    ds = make_data(150, tau=0.4)
    out = fit(ds, "linear", "linear", "clayton", TrainConfig(max_epochs=10, patience=10))
    path = tmp_path / "checkpoint.json"
    out.save(path)
    back = FittedJointModel.load(path)
    assert back.copula == out.copula
    assert float(back.event_model.log_nu) == float(out.event_model.log_nu)
    x = ds.x[:5]
    t = ds.t_obs[:5]
    assert np.array_equal(back.censor_model.survival(t, x), out.censor_model.survival(t, x))


def test_trace_csv_format(tmp_path):
    ds = make_data(120, tau=0.4)
    out = fit(ds, "linear", "linear", "clayton", TrainConfig(max_epochs=8, patience=8))
    path = tmp_path / "trace.csv"
    out.trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_negloglik,val_negloglik,theta_hat"
    assert len(lines) == 9

    ind = fit(ds, "linear", "linear", "independence", TrainConfig(max_epochs=8, patience=8))
    ind_path = tmp_path / "ind.csv"
    ind.trace.to_csv(ind_path)
    assert ind_path.read_text().splitlines()[0] == "epoch,train_negloglik,val_negloglik"


@pytest.mark.parametrize("risks", [("linear", "linear"), ("mlp", "linear"), ("linear",), ("mlp",)],
                         ids=["linear", "mlp-linear", "marginal-linear", "marginal-mlp"])
def test_the_models_hold_the_setup_arrays_until_the_solver_returns(risks, monkeypatch):
    # every evaluation reads its point, so no model is written while the
    # solver runs: the models stay at _setup's initial values throughout
    ds = make_data(200, tau=0.5)
    cfg = TrainConfig(max_epochs=30, patience=30)
    initial = [model.to_dict() for model in _setup(ds, cfg, *risks)[2]]
    seen = []

    def recording(call):
        def wrapped(*args):
            seen.append([arg.to_dict() for arg in args[:len(risks)]])
            return call(*args)
        return wrapped

    for name in ("loglik_and_gradient", "loglik_copula_points", "marginal_loglik_and_gradient",
                 "marginal_loglik_points"):
        monkeypatch.setattr(training.likelihood, name, recording(getattr(training.likelihood, name)))
    if len(risks) == 2:
        models = [(out := fit(ds, *risks, "clayton", cfg)).event_model, out.censor_model]
    else:
        models = [fit_marginal(ds, risks[0], cfg)[0]]
    assert len(seen) > 30
    assert all(models_seen == initial for models_seen in seen)
    assert [model.to_dict() for model in models] != initial


@pytest.mark.parametrize("joint", [True, False], ids=["fit", "fit_marginal"])
def test_a_failing_validation_record_is_named_by_its_row_of_the_dataset(joint):
    # one validation record has a covariate of 1e200: its term overflows
    # once the first weight has moved off its start at 0
    ds = make_data(100, tau=0.5)
    cfg = TrainConfig(max_epochs=20, patience=20)
    val_rows = np.random.default_rng(cfg.seed).permutation(len(ds))[:20]
    row = int(val_rows[7])
    x = ds.x.copy()
    x[row, 0] = 1e200
    data = SurvivalDataset(x, ds.t_obs, ds.delta)
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure) as info:
        fit(data, "linear", "linear", "clayton", cfg) if joint else fit_marginal(data, "linear", cfg)
    assert info.value.record_index == row
    assert re.fullmatch(rf"epoch \d+: non-finite validation log-likelihood term at record {row}",
                        str(info.value))


@pytest.mark.parametrize("joint", [True, False], ids=["fit", "fit_marginal"])
def test_a_failing_training_record_is_named_by_its_row_of_the_dataset(joint, monkeypatch):
    # the objective fails at record 3 of the training records it is given,
    # which is another row of the caller's dataset; times are distinct, so
    # the time names the row
    ds = make_data(100, tau=0.5)
    failed_at = []

    def failing(*args):
        train_ds = next(arg for arg in args if isinstance(arg, SurvivalDataset))
        failed_at.append(train_ds.t_obs[3])
        raise NumericalFailure("non-finite log-likelihood term at record 3", record_index=3)

    name = "loglik_and_gradient" if joint else "marginal_loglik_and_gradient"
    monkeypatch.setattr(training.likelihood, name, failing)
    cfg = TrainConfig(max_epochs=20, patience=20)
    with pytest.raises(NumericalFailure) as info:
        fit(ds, "linear", "linear", "clayton", cfg) if joint else fit_marginal(ds, "linear", cfg)
    row = info.value.record_index
    assert len(np.unique(ds.t_obs)) == len(ds) and ds.t_obs[row] == failed_at[0]
    assert str(info.value) == f"epoch 0: non-finite training log-likelihood term at record {row}"


def test_a_failure_that_names_no_record_passes_the_row_map_unchanged(monkeypatch):
    failure = NumericalFailure("boom", point_index=2)

    def failing(*args):
        raise failure

    with pytest.raises(NumericalFailure) as info:
        training._on_rows(failing, np.arange(5), "training")(None)
    assert info.value is failure
    # through a fit: the message gains its epoch and still names no record
    monkeypatch.setattr(training.likelihood, "loglik_and_gradient", failing)
    with pytest.raises(NumericalFailure) as info:
        fit(make_data(100), "linear", "linear", "clayton", TrainConfig(max_epochs=20, patience=20))
    assert str(info.value) == "epoch 0: boom"
    assert (info.value.epoch, info.value.record_index) == (0, None)
