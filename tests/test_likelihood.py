"""Likelihood values against hand-derived cases; exact gradients against
central finite differences."""
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from copsurv import copulas
from copsurv.copulas import CopulaSpec, Family
from copsurv.data import SurvivalDataset
from copsurv.errors import NumericalFailure
from copsurv.likelihood import (
    _check_finite,
    _hazard_pieces,
    _marginal_grads,
    _passthrough,
    loglik_and_gradient,
    loglik_copula,
    marginal_loglik,
    marginal_loglik_and_gradient,
    parameters,
)
from copsurv.weibull import LinearRisk, MLPRisk, WeibullCoxModel

from test_exactness import joint_point
from test_weibull import density

# single record under unit-exponential marginals (nu = rho = 1, g = 0):
# log f(t) = -t and log S(t) = -t, so independence gives -2t; frozen Frank
# value computed from the partial-derivative formula typed out by hand
FRANK_T2_SINGLE_RECORD = -1.8661013092206318


def own_pieces(model, data):
    """A marginal's hazard pieces at its own parameters."""
    return _hazard_pieces(model, "model", parameters(model, "model"), data)


def joint_gradient(event, censor, spec, data, l2_lambda=0.0):
    """``loglik_and_gradient`` at the models' own parameters and ``spec``."""
    return loglik_and_gradient(event, censor, spec.family, joint_point(event, censor, spec), data,
                               l2_lambda)


def marginal_gradient(model, data, l2_lambda=0.0):
    """``marginal_loglik_and_gradient`` at the model's own parameters."""
    return marginal_loglik_and_gradient(model, parameters(model, "model"), data, l2_lambda)


# independence oracle: the direct independent-censoring form, computed apart
# from the copula kernel
def loglik_independent(event_model, censor_model, data: SurvivalDataset) -> float:
    """Independent-censoring log-likelihood (sum over records)."""
    if len(data) == 0:
        return 0.0
    delta = data.delta.astype(float)
    ev = own_pieces(event_model, data)
    ce = own_pieces(censor_model, data)
    terms = delta * (ev.log_f - ce.h_cum) + (1.0 - delta) * (ce.log_f - ev.h_cum)
    _check_finite(terms)
    return float(terms.sum())


# two-orientation oracle: both log-partials and both of their gradients on
# every record, blended by delta, where the joint kernel orients each record
# and evaluates only the partial that record uses
def loglik_two_orientations(event_model, censor_model, spec, data, l2_lambda=0.0):
    delta = data.delta.astype(float)
    ev = own_pieces(event_model, data)
    ce = own_pieces(censor_model, data)
    u1, pass1 = copulas.clamp_quantile(ev.surv), _passthrough(ev.surv)
    u2, pass2 = copulas.clamp_quantile(ce.surv), _passthrough(ce.surv)
    log_p1 = copulas.log_partial_u1(spec, u1, u2)
    log_p2 = copulas.log_partial_u2(spec, u1, u2)
    terms = delta * (ev.log_f + log_p1) + (1.0 - delta) * (ce.log_f + log_p2)
    g1_u1, g1_u2, g1_par = copulas.grad_log_partial_u1(spec, u1, u2)
    g2_u1, g2_u2, g2_par = copulas.grad_log_partial_u2(spec, u1, u2)
    c_u1 = delta * g1_u1 + (1.0 - delta) * g2_u1
    c_u2 = delta * g1_u2 + (1.0 - delta) * g2_u2
    grads = {}
    point = joint_point(event_model, censor_model, spec)
    _marginal_grads(grads, "event", point, ev, delta,
                    c_u1 * (-ev.surv * pass1), l2_lambda)
    _marginal_grads(grads, "censor", point, ce, 1.0 - delta,
                    c_u2 * (-ce.surv * pass2), l2_lambda)
    for key in g1_par:
        grads[f"copula.{key}"] = np.asarray((delta * g1_par[key] + (1.0 - delta) * g2_par[key]).sum())
    squares = 0.0
    for model in (event_model, censor_model):
        params = model.risk.params()
        squares += sum(float(np.sum(params[key] ** 2)) for key in model.risk.weight_keys())
    return float(terms.sum()) - l2_lambda * squares, grads


def unit_exponential():
    return WeibullCoxModel.from_natural(1.0, 1.0, LinearRisk(np.zeros(1)))


def single_record(t=1.0, delta=1):
    return SurvivalDataset(np.array([[0.3]]), np.array([t]), np.array([delta]))


def random_instance(n=20, d=3, seed=0, risk="linear"):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    t = rng.uniform(0.2, 4.0, size=n)
    delta = (rng.uniform(size=n) < 0.6).astype(int)
    # keep at least one of each status so both branches are exercised
    delta[0], delta[1] = 1, 0
    data = SurvivalDataset(x, t, delta)

    def build():
        if risk == "linear":
            return LinearRisk(rng.normal(scale=0.5, size=d))
        return MLPRisk.init((d, 4, 2, 1), rng)

    event = WeibullCoxModel.from_natural(1.5, 2.0, build())
    censor = WeibullCoxModel.from_natural(1.2, 2.5, build())
    return event, censor, data


# ---------------------------------------------------------------------------
# Hand values


def test_independence_single_record_hand_value():
    ev, ce = unit_exponential(), unit_exponential()
    assert loglik_independent(ev, ce, single_record(1.0, 1)) == pytest.approx(-2.0, abs=1e-12)
    assert loglik_independent(ev, ce, single_record(1.0, 0)) == pytest.approx(-2.0, abs=1e-12)
    assert loglik_independent(ev, ce, single_record(0.5, 1)) == pytest.approx(-1.0, abs=1e-12)


def test_clayton_single_record_hand_value():
    # u1 = u2 = e^-1; Clayton theta=2: dC/du1 = u1^-3 (u1^-2 + u2^-2 - 1)^-1.5
    # so loglik = -1 + 3 - 1.5 log(2 e^2 - 1)
    ev, ce = unit_exponential(), unit_exponential()
    expect = 2.0 - 1.5 * math.log(2.0 * math.e**2 - 1.0)
    got = loglik_copula(ev, ce, CopulaSpec(Family.CLAYTON, theta=2.0), single_record(1.0, 1))
    assert got == pytest.approx(expect, abs=1e-12)


def test_frank_single_record_hand_value():
    ev, ce = unit_exponential(), unit_exponential()
    got = loglik_copula(ev, ce, CopulaSpec(Family.FRANK, theta=2.0), single_record(1.0, 1))
    assert got == pytest.approx(FRANK_T2_SINGLE_RECORD, abs=1e-12)


def test_mixture_reduces_to_components():
    ev, ce, data = random_instance(30, seed=4)
    clay = loglik_copula(ev, ce, CopulaSpec(Family.CLAYTON, theta=2.0), data)
    frank = loglik_copula(ev, ce, CopulaSpec(Family.FRANK, theta=3.0), data)
    for kappa, pure in ((0.0, clay), (1.0, frank)):
        mix = CopulaSpec(Family.MIXTURE, theta_frank=3.0, theta_clayton=2.0, kappa=kappa)
        assert loglik_copula(ev, ce, mix, data) == pytest.approx(pure, abs=1e-10)


def test_independence_reduction():
    # the copula form with the independence family must equal the direct
    # independent-censoring expression, computed by a separate code path
    for seed in range(5):
        ev, ce, data = random_instance(200, seed=seed)
        a = loglik_copula(ev, ce, CopulaSpec(Family.INDEPENDENCE), data)
        b = loglik_independent(ev, ce, data)
        assert abs(a - b) <= 1e-10


def test_sum_over_records_and_permutation_invariance():
    ev, ce, data = random_instance(25, seed=2)
    spec = CopulaSpec(Family.CLAYTON, theta=1.5)
    total = loglik_copula(ev, ce, spec, data)
    parts = sum(
        loglik_copula(ev, ce, spec, data.subset(np.array([i]))) for i in range(len(data))
    )
    assert total == pytest.approx(parts, abs=1e-9)
    perm = np.random.default_rng(0).permutation(len(data))
    assert loglik_copula(ev, ce, spec, data.subset(perm)) == pytest.approx(total, abs=1e-9)


def test_empty_dataset_is_zero():
    ev, ce = unit_exponential(), unit_exponential()
    empty = SurvivalDataset(np.empty((0, 1)), np.empty(0), np.empty(0, dtype=int))
    assert loglik_copula(ev, ce, CopulaSpec(Family.CLAYTON, theta=2.0), empty) == 0.0
    assert loglik_independent(ev, ce, empty) == 0.0
    assert marginal_loglik(unit_exponential(), empty) == 0.0


def test_nonfinite_record_raises_with_index():
    # nu this large overflows the cumulative hazard for t > rho, but the
    # first record sits exactly at t = rho and stays finite
    ev = WeibullCoxModel.from_natural(5e173, 1.0, LinearRisk(np.zeros(1)))
    ce = unit_exponential()
    data = SurvivalDataset(np.zeros((2, 1)), np.array([1.0, 2.0]), np.array([1, 1]))
    with pytest.raises(NumericalFailure) as info:
        loglik_copula(ev, ce, CopulaSpec(Family.CLAYTON, theta=2.0), data)
    assert info.value.record_index == 1


def test_nonfinite_risk_output_is_a_numerical_failure():
    # a NaN risk weight makes every quantile NaN; the copula kernel does not
    # validate them, so the record-indexed finiteness check reports it
    event, censor, data = random_instance(10, seed=3)
    event.risk.weights[0] = np.nan
    for call in (loglik_copula, joint_gradient):
        with pytest.raises(NumericalFailure) as info:
            call(event, censor, CopulaSpec(Family.CLAYTON, theta=2.0), data)
        assert info.value.record_index == 0


def test_mixture_endpoint_scores_an_underflowing_partial():
    # one censored record at u1 = 8.98e-11, u2 = 0.00939, where Clayton(40)'s
    # dC/du2 is about exp(-757): the kappa = 0 mixture must score it as Clayton
    def model(u):
        return WeibullCoxModel.from_natural(1.0, 1.0, LinearRisk([math.log(-math.log(u))]))

    ev, ce = model(8.98e-11), model(0.00939)
    data = SurvivalDataset(np.array([[1.0]]), np.array([1.0]), np.array([0]))
    clayton = loglik_copula(ev, ce, CopulaSpec(Family.CLAYTON, theta=40.0), data)
    assert clayton < -745.0
    mix = CopulaSpec(Family.MIXTURE, theta_frank=400.0, theta_clayton=40.0, kappa=0.0)
    assert loglik_copula(ev, ce, mix, data) == clayton


ORIENTATION_SPECS = [
    CopulaSpec(Family.INDEPENDENCE),
    CopulaSpec(Family.CLAYTON, theta=1.5),
    CopulaSpec(Family.FRANK, theta=3.0),
    CopulaSpec(Family.MIXTURE, theta_frank=3.0, theta_clayton=1.5, kappa=0.4),
    CopulaSpec(Family.CLAYTON, theta=40.0),
    CopulaSpec(Family.FRANK, theta=400.0),
]


@pytest.mark.parametrize("l2_lambda", [0.0, 0.01])
@pytest.mark.parametrize("risk", ["linear", "mlp"])
@pytest.mark.parametrize(
    "spec", ORIENTATION_SPECS, ids=lambda s: f"{s.family.value}{s.theta or ''}"
)
def test_oriented_kernel_equals_two_orientation_oracle(spec, risk, l2_lambda):
    event, censor, data = random_instance(60, seed=5, risk=risk)
    expect, expect_grads = loglik_two_orientations(event, censor, spec, data, l2_lambda)
    got, grads = joint_gradient(event, censor, spec, data, l2_lambda)
    assert got == expect
    assert loglik_copula(event, censor, spec, data, l2_lambda) == expect
    assert list(grads) == list(expect_grads)
    for key in grads:
        assert np.array_equal(grads[key], expect_grads[key]), key


# ---------------------------------------------------------------------------
# Gradient oracle: central finite differences over every parameter


def spec_cases():
    return [
        CopulaSpec(Family.INDEPENDENCE),
        CopulaSpec(Family.CLAYTON, theta=1.5),
        CopulaSpec(Family.FRANK, theta=3.0),
        CopulaSpec(Family.MIXTURE, theta_frank=3.0, theta_clayton=1.5, kappa=0.4),
    ]


def rebuild_spec(spec, values):
    return CopulaSpec(spec.family, **values)


def spec_values(spec):
    if spec.family.value in ("clayton", "frank"):
        return {"theta": spec.theta}
    return {
        "theta_frank": spec.theta_frank,
        "theta_clayton": spec.theta_clayton,
        "kappa": spec.kappa,
    }


def fd_check(event, censor, spec, data, tol=1e-4, h=1e-6):
    _, grads = joint_gradient(event, censor, spec, data)

    def value(s):
        return loglik_copula(event, censor, s, data)

    worst = 0.0
    # marginal parameters, perturbed in place through the shared arrays
    for prefix, model in (("event", event), ("censor", censor)):
        arrays = {
            f"{prefix}.log_nu": model.log_nu,
            f"{prefix}.log_rho": model.log_rho,
        }
        for key, arr in model.risk.params().items():
            arrays[f"{prefix}.risk.{key}"] = arr
        for key, arr in arrays.items():
            grad = np.asarray(grads[key])
            fd = np.zeros(grad.shape)
            it = np.nditer(np.zeros(arr.shape), flags=["multi_index", "zerosize_ok"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                up = value(spec)
                arr[idx] = old - h
                down = value(spec)
                arr[idx] = old
                fd[idx] = (up - down) / (2 * h)
            err = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0))
            worst = max(worst, float(err))
            assert err < tol, key

    # copula parameters, perturbed by rebuilding the spec
    values = spec_values(spec) if spec.family.value != "independence" else {}
    for key in values:
        hi = dict(values)
        lo = dict(values)
        hi[key] += h
        lo[key] -= h
        fd = (value(rebuild_spec(spec, hi)) - value(rebuild_spec(spec, lo))) / (2 * h)
        grad = float(grads[f"copula.{key}"])
        err = abs(grad - fd) / max(abs(fd), 1.0)
        worst = max(worst, err)
        assert err < tol, key
    return worst


@pytest.mark.parametrize("risk", ["linear", "mlp"])
@pytest.mark.parametrize("spec", spec_cases(), ids=lambda s: s.family.value)
def test_gradients_match_finite_differences(risk, spec):
    event, censor, data = random_instance(20, seed=11, risk=risk)
    fd_check(event, censor, spec, data)


@pytest.mark.parametrize("l2_lambda", [0.0, 0.01])
@pytest.mark.parametrize("risk", ["linear", "mlp"])
@pytest.mark.parametrize("spec", spec_cases(), ids=lambda s: s.family.value)
def test_the_objectives_read_the_point_not_the_models(risk, spec, l2_lambda):
    # the models give only their risks' structure: a second pair of the same
    # structure, with other parameters of its own, gives the same value and
    # gradient at a point, and neither pair is written
    event, censor, data = random_instance(20, seed=11, risk=risk)
    other_event, other_censor, _ = random_instance(20, seed=12, risk=risk)
    point = {key: np.array(val, copy=True) for key, val in joint_point(event, censor, spec).items()}
    before = [model.to_dict() for model in (event, censor, other_event, other_censor)]
    assert before[0] != before[2] and before[1] != before[3]
    marginal_point = {key.replace("event.", "model.", 1): val for key, val in point.items()
                      if key.startswith("event.")}
    for got, want in (
            (loglik_and_gradient(other_event, other_censor, spec.family, point, data, l2_lambda),
             loglik_and_gradient(event, censor, spec.family, point, data, l2_lambda)),
            (marginal_loglik_and_gradient(other_event, marginal_point, data, l2_lambda),
             marginal_loglik_and_gradient(event, marginal_point, data, l2_lambda))):
        assert got[0] == want[0]
        assert got[1].keys() == want[1].keys()
        for key in want[1]:
            assert np.array_equal(got[1][key], want[1][key]), key
    assert [model.to_dict() for model in (event, censor, other_event, other_censor)] == before


@pytest.mark.parametrize("risk", ["linear", "mlp"])
@pytest.mark.parametrize("spec", spec_cases(), ids=lambda s: s.family.value)
def test_value_only_path_equals_gradient_path(risk, spec):
    event, censor, data = random_instance(20, seed=11, risk=risk)
    assert loglik_copula(event, censor, spec, data) == joint_gradient(
        event, censor, spec, data
    )[0]
    for model in (event, censor):
        assert marginal_loglik(model, data) == marginal_gradient(model, data)[0]


def test_gradient_keys_and_independence_has_no_copula_keys():
    event, censor, data = random_instance(10, seed=1)
    _, g_ind = joint_gradient(event, censor, CopulaSpec(Family.INDEPENDENCE), data)
    assert not any(k.startswith("copula.") for k in g_ind)
    mix = CopulaSpec(Family.MIXTURE, theta_frank=2.0, theta_clayton=2.0, kappa=0.5)
    _, g_mix = joint_gradient(event, censor, mix, data)
    assert {"copula.theta_frank", "copula.theta_clayton", "copula.kappa"} <= set(g_mix)
    assert {"event.log_nu", "event.log_rho", "event.risk.w", "censor.risk.w"} <= set(g_mix)


def test_l2_penalty_touches_only_weights():
    event, censor, data = random_instance(15, seed=7, risk="mlp")
    lam = 0.01
    ll0, g0 = joint_gradient(event, censor, CopulaSpec(Family.CLAYTON, theta=2.0), data, l2_lambda=0.0)
    ll1, g1 = joint_gradient(event, censor, CopulaSpec(Family.CLAYTON, theta=2.0), data, l2_lambda=lam)
    # the value carries the penalty its gradient carries, on the weights alone
    squares = sum(float(np.sum(model.risk.params()[key] ** 2))
                  for model in (event, censor) for key in model.risk.weight_keys())
    assert ll1 == pytest.approx(ll0 - lam * squares, rel=0.0, abs=1e-12)
    assert loglik_copula(event, censor, CopulaSpec(Family.CLAYTON, theta=2.0), data, lam) == ll1
    weight_keys = {f"event.risk.{k}" for k in event.risk.weight_keys()}
    weight_keys |= {f"censor.risk.{k}" for k in censor.risk.weight_keys()}
    for key in g0:
        if key in weight_keys:
            prefix, _, wkey = key.partition(".risk.")
            model = event if prefix == "event" else censor
            expect = g0[key] - 2.0 * lam * model.risk.params()[wkey]
            assert np.allclose(g1[key], expect, atol=1e-14)
        else:
            assert np.allclose(np.asarray(g1[key]), np.asarray(g0[key]), atol=0.0)


# ---------------------------------------------------------------------------
# Single-marginal objective


@pytest.mark.parametrize("risk", ["linear", "mlp"])
def test_marginal_pieces_match_the_model(risk):
    # the likelihood's log f, S and H must agree with the density oracle and
    # with the model's survival and cumulative hazard
    event, censor, data = random_instance(200, seed=11, risk=risk)
    for model in (event, censor):
        pieces = own_pieces(model, data)
        for got, want in ((np.exp(pieces.log_f), density(model, data.t_obs, data.x)),
                          (pieces.surv, model.survival(data.t_obs, data.x)),
                          (pieces.h_cum, model.cumulative_hazard(data.t_obs, data.x))):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_marginal_loglik_hand_value_and_gradient():
    model = unit_exponential()
    data = single_record(1.0, 1)
    # all-event unit exponential: loglik = log f(1) = -1
    assert marginal_loglik(model, data) == pytest.approx(-1.0, abs=1e-12)
    ll, grads = marginal_gradient(model, data)
    assert ll == pytest.approx(-1.0, abs=1e-12)
    assert {"model.log_nu", "model.log_rho", "model.risk.w"} == set(grads)

    # finite differences on a bigger instance
    rng = np.random.default_rng(9)
    big = SurvivalDataset(
        rng.uniform(size=(30, 2)),
        rng.uniform(0.2, 4.0, size=30),
        (rng.uniform(size=30) < 0.7).astype(int),
    )
    m = WeibullCoxModel.from_natural(1.4, 2.2, LinearRisk(rng.normal(size=2)))
    _, grads = marginal_gradient(m, big)
    h = 1e-6
    for key, arr in (
        ("model.log_nu", m.log_nu),
        ("model.log_rho", m.log_rho),
        ("model.risk.w", m.risk.params()["w"]),
    ):
        grad = np.asarray(grads[key])
        fd = np.zeros(grad.shape)
        it = np.nditer(np.zeros(arr.shape), flags=["multi_index", "zerosize_ok"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            up = marginal_loglik(m, big)
            arr[idx] = old - h
            down = marginal_loglik(m, big)
            arr[idx] = old
            fd[idx] = (up - down) / (2 * h)
        assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-5, key


# ---------------------------------------------------------------------------
# Heap churn


# One evaluation of an MLP mixture fit at 3,200 training rows, repeated in a
# process that imports nothing but the package; prints the mean count of
# minor page faults per evaluation after a warm-up.
HEAP_CHURN_PROBE = """
import resource
import numpy as np
from copsurv.copulas import CopulaSpec, Family
from copsurv.data import SurvivalDataset
from copsurv.likelihood import loglik_and_gradient, parameters
from copsurv.weibull import MLPRisk, WeibullCoxModel, default_mlp_widths

rng = np.random.default_rng(0)
n = 3200
data = SurvivalDataset(rng.uniform(size=(n, 10)), rng.uniform(0.2, 4.0, size=n),
                       (rng.uniform(size=n) < 0.6).astype(int))
event, censor = (WeibullCoxModel.from_natural(1.5, 2.0, MLPRisk.init(default_mlp_widths(10), rng))
                 for _ in range(2))
spec = CopulaSpec(Family.MIXTURE, theta_frank=5.0, theta_clayton=2.0, kappa=0.5)
point = {**parameters(event, "event"), **parameters(censor, "censor"),
         "copula.theta_frank": 5.0, "copula.theta_clayton": 2.0, "copula.kappa": 0.5}
for _ in range(5):
    loglik_and_gradient(event, censor, spec.family, point, data)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    loglik_and_gradient(event, censor, spec.family, point, data)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the package pins malloc's thresholds on glibc only")
def test_evaluations_reuse_their_heap():
    # with glibc's thresholds left at 128 KiB, each evaluation returns its
    # temporaries to the OS and faults them back in: about 600 minor faults
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", HEAP_CHURN_PROBE], env=env, capture_output=True,
                          text=True, check=True)
    assert float(proc.stdout) < 20.0
