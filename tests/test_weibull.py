"""Weibull proportional-hazards marginals, risk functions, checkpoints."""
import json
import math

import numpy as np
import pytest
from scipy import integrate

from copsurv.errors import DomainError, ValidationError
from copsurv.weibull import (
    LinearRisk,
    MLPRisk,
    QuadraticRisk,
    WeibullCoxModel,
    default_mlp_widths,
    make_risk,
    risk_from_dict,
)

RNG = np.random.default_rng


def linear_model(nu=2.0, rho=3.0, w=(0.7,)):
    return WeibullCoxModel.from_natural(nu, rho, LinearRisk(np.array(w, dtype=float)))


# Oracles: the hazard and density written straight from the definitions,
# h(t | x) = (nu / rho) (t / rho)^(nu - 1) exp(g(x)) and f = h S.  The
# package evaluates neither: the model and the likelihood derive everything
# from log H = nu (log t - log rho) + g.


def hazard(model, t, x):
    t = np.asarray(t, dtype=float)
    nu, rho = model.nu, np.exp(model.log_rho)
    return (nu / rho) * (t / rho) ** (nu - 1.0) * np.exp(model.risk.evaluate(x))


def density(model, t, x):
    return hazard(model, t, x) * model.survival(t, x)


# ---------------------------------------------------------------------------
# Closed-form identities


def test_cumulative_hazard_hand_value():
    # H(t|x) = (t/rho)^nu * exp(g); here g = 0.7 * 1.0
    model = linear_model()
    x = np.array([[1.0]])
    t = np.array([1.5])
    expect = (1.5 / 3.0) ** 2.0 * math.exp(0.7)
    assert model.cumulative_hazard(t, x)[0] == pytest.approx(expect, rel=1e-14)
    assert model.survival(t, x)[0] == pytest.approx(math.exp(-expect), rel=1e-14)


def test_density_is_hazard_times_survival():
    model = linear_model(1.7, 2.2, (0.3, -0.4))
    rng = RNG(0)
    x = rng.uniform(size=(50, 2))
    t = rng.uniform(0.1, 6.0, size=50)
    # the oracles define f = h S; what binds them to the model is that h is
    # the slope of its cumulative hazard
    step = 1e-6
    slope = (model.cumulative_hazard(t + step, x) - model.cumulative_hazard(t - step, x)) / (2 * step)
    assert np.allclose(hazard(model, t, x), slope, rtol=1e-6)
    assert np.allclose(np.exp(model.log_cumulative_hazard(t, x)), model.cumulative_hazard(t, x),
                       rtol=1e-13)


def test_proportional_hazards_property():
    # hazard ratio between two covariate rows is exp(g1 - g2), constant in t
    model = linear_model(2.5, 4.0, (1.1, 0.2))
    x = np.array([[0.3, 0.9], [0.8, 0.1]])
    t_grid = np.linspace(0.2, 8.0, 25)
    h0 = np.array([hazard(model, np.array([t]), x[:1])[0] for t in t_grid])
    h1 = np.array([hazard(model, np.array([t]), x[1:])[0] for t in t_grid])
    ratios = h0 / h1
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12


def test_time_zero_and_survival_limits():
    model = linear_model()
    x = np.array([[0.5]])
    assert model.cumulative_hazard(np.array([0.0]), x)[0] == 0.0
    assert model.survival(np.array([0.0]), x)[0] == 1.0
    # far tail underflows to the positive floor instead of 0
    s = model.survival(np.array([1e12]), x)[0]
    assert s > 0.0


def test_inverse_survival_roundtrip():
    model = linear_model(3.0, 5.0, (0.4, 0.6, -0.2))
    rng = RNG(1)
    x = rng.uniform(size=(200, 3))
    q = rng.uniform(0.01, 0.99, size=200)
    t = model.inverse_survival(q, x)
    assert np.max(np.abs(model.survival(t, x) - q)) < 1e-12
    assert np.all(model.inverse_survival(np.ones(3), x[:3]) == 0.0)


def test_density_integrates_to_one():
    model = linear_model(2.0, 3.0, (0.7, -0.3))
    x = np.array([[0.2, 0.9]])
    val, _ = integrate.quad(lambda t: float(density(model, np.array([t]), x)[0]), 0.0, 200.0)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_density_is_negative_survival_slope():
    model = linear_model(2.4, 1.8, (0.5,))
    x = np.array([[0.7]])
    h = 1e-6
    for t in (0.4, 1.1, 2.7):
        fd = -(model.survival(np.array([t + h]), x) - model.survival(np.array([t - h]), x)) / (2 * h)
        assert density(model, np.array([t]), x)[0] == pytest.approx(float(fd[0]), rel=1e-6)


def test_rejects_negative_times():
    model = linear_model()
    with pytest.raises(DomainError):
        model.cumulative_hazard(np.array([-0.1]), np.array([[1.0]]))


# ---------------------------------------------------------------------------
# Risk functions


def test_linear_risk_evaluate_and_backprop():
    risk = LinearRisk(np.array([1.0, -2.0]))
    x = np.array([[3.0, 0.5], [0.0, 1.0]])
    assert np.allclose(risk.evaluate(x), [2.0, -2.0])
    grads = risk.forward(x, risk.params())[1](np.array([1.0, 1.0]))
    assert np.allclose(grads["w"], x.sum(axis=0))


def test_quadratic_risk_evaluate():
    risk = QuadraticRisk(np.array([1.0, 0.5]))
    x = np.array([[2.0, 2.0]])
    assert risk.evaluate(x)[0] == pytest.approx(4.0 + 2.0)


def test_mlp_init_bounds_and_determinism():
    a = MLPRisk.init((5, 4, 4, 1), RNG(3))
    b = MLPRisk.init((5, 4, 4, 1), RNG(3))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
        fan_in = wa.shape[1]
        assert np.max(np.abs(wa)) <= 1.0 / math.sqrt(fan_in)
    for ba in a.biases:
        assert np.all(ba == 0.0)


def test_mlp_backprop_matches_finite_differences():
    rng = RNG(4)
    risk = MLPRisk.init((3, 4, 2, 1), rng)
    x = rng.uniform(-1.0, 1.0, size=(12, 3))
    coef = rng.normal(size=12)

    def objective(r):
        return float(np.dot(coef, r.evaluate(x)))

    grads = risk.forward(x, risk.params())[1](coef)
    h = 1e-6
    params = risk.params()
    for key in sorted(params):
        arr = params[key]
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            up = objective(risk)
            arr[idx] = old - h
            down = objective(risk)
            arr[idx] = old
            fd[idx] = (up - down) / (2 * h)
        denom = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(grads[key] - fd) / denom) < 1e-6, key


def row_major_forward(risk, x):
    """Oracle: the MLP pass with (n, width) activations and np.where ELU,
    as ``MLPRisk.forward`` ran before it held activations feature-major."""
    pre, post = [], [x]
    n_layers = len(risk.weights)
    for i, (w, b) in enumerate(zip(risk.weights, risk.biases)):
        z = post[-1] @ w.T + b
        pre.append(z)
        post.append(np.where(z > 0.0, z, np.expm1(z)) if i < n_layers - 1 else z)

    def backprop(cotangent):
        grads = {}
        delta = np.asarray(cotangent, dtype=float)[:, None]
        for i in range(n_layers - 1, -1, -1):
            grads[f"W{i}"] = delta.T @ post[i]
            grads[f"b{i}"] = delta.sum(axis=0)
            if i > 0:
                z = pre[i - 1]
                delta = (delta @ risk.weights[i]) * np.where(z > 0.0, 1.0, np.exp(z))
        return grads

    return post[-1][:, 0], backprop


@pytest.mark.parametrize("widths", [default_mlp_widths(10), (3, 4, 2, 1), (20, 8, 8, 1), (1, 3, 1)])
@pytest.mark.parametrize("n", [0, 1, 7, 1500])
def test_mlp_pass_matches_row_major_oracle(widths, n):
    # the two passes sum their reductions in different orders, so they agree
    # to rounding, relative to each array's largest entry
    rng = RNG(6)
    risk = MLPRisk.init(widths, rng)
    for b in risk.biases:
        b[...] = rng.normal(size=b.shape)  # nonzero, so the bias adds are exercised
    x = rng.normal(size=(n, widths[0]))
    coef = rng.normal(size=n)
    g, backprop = risk.forward(x, risk.params())
    want_g, want_backprop = row_major_forward(risk, x)
    assert g.shape == (n,)
    np.testing.assert_allclose(g, want_g, rtol=0.0, atol=1e-12 * np.abs(want_g).max(initial=0.0))
    grads, want = backprop(coef), want_backprop(coef)
    assert set(grads) == set(want) == set(risk.params())
    for key, val in want.items():
        assert grads[key].shape == val.shape == risk.params()[key].shape, key
        np.testing.assert_allclose(grads[key], val, rtol=0.0,
                                   atol=1e-12 * np.abs(val).max(initial=0.0), err_msg=key)
        if n == 0:
            assert np.all(grads[key] == 0.0), key


def test_mlp_weight_keys_exclude_biases():
    risk = MLPRisk.init((3, 4, 1), RNG(5))
    keys = set(risk.weight_keys())
    assert all(k.startswith("W") for k in keys)
    assert set(risk.params()) - keys == {f"b{i}" for i in range(len(risk.biases))}


def test_default_mlp_widths():
    assert default_mlp_widths(10) == (10, 4, 4, 4, 2, 1)


def test_make_risk():
    lin = make_risk("linear", 4, RNG(0))
    assert isinstance(lin, LinearRisk) and np.all(lin.weights == 0.0)
    mlp = make_risk("mlp", 10, RNG(0))
    assert isinstance(mlp, MLPRisk)
    assert mlp.widths == default_mlp_widths(10)
    with pytest.raises(ValidationError):
        make_risk("spline", 4, RNG(0))


# ---------------------------------------------------------------------------
# Serialization


@pytest.mark.parametrize("kind", ["linear", "quadratic", "mlp"])
def test_risk_dict_roundtrip_exact(kind):
    rng = RNG(6)
    if kind == "linear":
        risk = LinearRisk(rng.normal(size=5))
    elif kind == "quadratic":
        risk = QuadraticRisk(rng.normal(size=5))
    else:
        risk = MLPRisk.init((5, 4, 2, 1), rng)
    back = risk_from_dict(risk.to_dict())
    x = rng.uniform(size=(20, 5))
    assert np.array_equal(back.evaluate(x), risk.evaluate(x))


def mlp_doc(**edits):
    return {**MLPRisk.init((3, 2, 1), RNG(8)).to_dict(), **edits}


@pytest.mark.parametrize("doc, message", [
    (mlp_doc(weights=[[0.0] * 5, [0.0] * 2]), "do not fit widths"),  # 3 x 2 = 6 weights
    (mlp_doc(weights=[[0.0] * 6]), "do not fit widths"),              # a layer short
    (mlp_doc(biases=[[0.0] * 2, [0.0] * 2]), "do not fit widths"),
    (mlp_doc(biases=[[0.0] * 2]), "do not fit widths"),              # a layer short
    (mlp_doc(widths=[3, 0, 1], weights=[[], []], biases=[[], [0.0]]), "do not fit widths"),
    (mlp_doc(widths=[3.0, 2, 1]), r"widths\[0\] must be an integer"),
    (mlp_doc(weights=[[None] * 6, [0.0] * 2]), r"weights\[0\]\[0\] must be a finite number"),
    ({"kind": "linear", "weights": [1.0, 10**400]}, r"weights\[1\] must be a finite number"),
    ({"kind": "linear", "weights": [float("nan")]}, "must be a finite number"),
    ({"kind": "linear", "weights": 1.0}, "weights must be a list"),
    ({"kind": "linear"}, "linear risk is missing weights"),
    ({"kind": "linear", "weights": [], "widths": [1]}, "linear risk takes no widths"),
    ({"kind": ["linear"]}, "unknown risk kind"),
    ("linear", "risk must be a JSON object"),
])
def test_risk_from_dict_names_the_bad_key(doc, message):
    with pytest.raises(ValidationError, match=message):
        risk_from_dict(doc)


@pytest.mark.parametrize("edit, message", [
    ({"log_nu": "1.0"}, "log_nu must be a finite number"),
    ({"log_nu": True}, "log_nu must be a finite number"),
    ({"log_rho": None}, "log_rho must be a finite number"),
    ({"kind": "weibull"}, "not a weibull_cox checkpoint"),
    ({"shape": 1.0}, "weibull_cox model takes no shape"),
])
def test_model_from_dict_names_the_bad_key(edit, message):
    doc = {**linear_model().to_dict(), **edit}
    with pytest.raises(ValidationError, match=message):
        WeibullCoxModel.from_dict(doc)


def test_model_checkpoint_roundtrip_bitwise():
    rng = RNG(7)
    model = WeibullCoxModel.from_natural(2.3, 4.1, MLPRisk.init((4, 4, 2, 1), rng))
    doc = json.loads(json.dumps(model.to_dict()))
    back = WeibullCoxModel.from_dict(doc)
    assert float(back.log_nu) == float(model.log_nu)
    assert float(back.log_rho) == float(model.log_rho)
    x = rng.uniform(size=(25, 4))
    t = rng.uniform(0.1, 5.0, size=25)
    assert np.array_equal(back.survival(t, x), model.survival(t, x))
    # the JSON form has the declared top-level keys
    assert {"log_nu", "log_rho", "risk"} <= set(doc)
