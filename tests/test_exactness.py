"""Exactness of the in-place evaluation path.

The MLP risk pass, the Clayton and Frank log-partial kernels, the L2
penalty and ``survival_l1`` (which builds the truth curve once as a row
shared by every record) update arrays in place and share common terms.
Each keeps the operations, operands and order of the plain out-of-place
formula it stands for, so each must equal that formula bit for bit.  Those
formulas are kept here as oracles and compared with ``np.array_equal``, on
the value and on every gradient, including the edges: one record, tied
quantiles, the clamp ends, theta at the solver's floor and at the Frank
cap, mixture weights 0 and 1, and MLP layers that are all negative or all
positive before the ELU.

The value at k stacked parameter points, which validation scores a block
of iterates with, must equal the value at each point alone bit for bit,
for every family and risk pair and at the same edges.
"""
import numpy as np
import pytest

from copsurv import copulas, likelihood, weibull
from copsurv.copulas import U_EPS, CopulaSpec, Family
from copsurv.data import SurvivalDataset
from copsurv.errors import NumericalFailure
from copsurv.metrics import SURVIVAL_L1_CHUNK, SurvivalL1Config, survival_l1
from copsurv.training import THETA_MIN
from copsurv.weibull import LinearRisk, MLPRisk, WeibullCoxModel, floored_survival

THETAS = (THETA_MIN, 0.37, 2.0, 14.5, 120.0, 500.0)


# ---------------------------------------------------------------------------
# Oracles: the out-of-place formulas


def mlp_forward_oracle(risk, x, params):
    post, negs = [np.asarray(x, dtype=float).T], []
    n_layers = len(risk.weights)
    weights = [params[f"W{i}"] for i in range(n_layers)]
    for i, w in enumerate(weights):
        b = params[f"b{i}"]
        z = w @ post[-1] + b[:, None]
        if i < n_layers - 1:
            negs.append(np.minimum(z, 0.0))
            z = np.maximum(z, 0.0) + np.expm1(negs[-1])
        post.append(z)

    def backprop(cotangent):
        grads = {}
        delta = np.asarray(cotangent, dtype=float)[None, :]
        for i in range(n_layers - 1, -1, -1):
            grads[f"W{i}"] = delta @ post[i].T
            grads[f"b{i}"] = delta.sum(axis=1)
            if i > 0:
                delta = (weights[i].T @ delta) * np.exp(negs[i - 1])
        return grads

    return post[-1][0], backprop


def clayton_log_s_oracle(theta, lu1, lu2):
    a = -theta * lu1
    b = -theta * lu2
    m = np.maximum(a, b)
    return m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))


def clayton_log_partial_oracle(theta, u1, u2, want_grad):
    lu1 = np.log(u1)
    lu2 = np.log(u2)
    log_s = clayton_log_s_oracle(theta, lu1, lu2)
    value = -(1.0 + theta) / theta * log_s - (theta + 1.0) * lu1
    if not want_grad:
        return value, None
    r1 = np.exp(-(theta + 1.0) * lu1 - log_s)
    r2 = np.exp(-(theta + 1.0) * lu2 - log_s)
    d_u1 = (1.0 + theta) * r1 - (theta + 1.0) / u1
    d_u2 = (1.0 + theta) * r2
    ds_dtheta_over_s = -(np.exp(-theta * lu1 - log_s) * lu1 + np.exp(-theta * lu2 - log_s) * lu2)
    d_theta = log_s / theta**2 - (1.0 + theta) / theta * ds_dtheta_over_s - lu1
    return value, (d_u1, d_u2, {"theta": d_theta})


def frank_log_neg_dab_oracle(theta, u1, u2):
    lo = np.minimum(u1, u2)
    hi = np.maximum(u1, u2)
    bracket = np.exp(-theta * (hi - lo)) * (-np.expm1(-theta * lo)) + (
        -np.expm1(-theta * (1.0 - lo))
    )
    return -theta * lo + np.log(bracket)


def frank_log_partial_oracle(theta, u1, u2, want_grad):
    log_neg_b = np.log(-np.expm1(-theta * u2))
    log_neg_n = frank_log_neg_dab_oracle(theta, u1, u2)
    value = -theta * u1 + log_neg_b - log_neg_n
    if not want_grad:
        return value, None
    log_neg_a = np.log(-np.expm1(-theta * u1))
    p = np.exp(value)
    q = np.exp(-theta * u2 + log_neg_a - log_neg_n)
    inv_neg_b = np.exp(-log_neg_b)
    d_u1 = theta * (p - 1.0)
    d_u2 = theta * (q - 1.0 + inv_neg_b)
    dn_over_n = np.exp(-theta - log_neg_n) - u1 * p - u2 * q
    d_theta = -u1 - u2 * (1.0 - inv_neg_b) - dn_over_n
    return value, (d_u1, d_u2, {"theta": d_theta})


def l2_penalty_oracle(l2_lambda, *weights):
    if l2_lambda == 0.0:
        return 0.0
    total = 0.0
    for group in weights:
        total += sum(float(np.sum(w ** 2)) for w in group.values())
    return l2_lambda * total


def survival_l1_blocks_oracle(truth_model, estimate_model, x, cfg):
    t_max = np.asarray(truth_model.inverse_survival(cfg.quantile_floor, x), dtype=float)
    n = len(t_max)
    log_steps = np.log(np.arange(1, cfg.n_steps + 1) / cfg.n_steps)
    rows = max(1, SURVIVAL_L1_CHUNK // cfg.n_steps)
    at_horizon = estimate_model.log_cumulative_hazard(t_max, x)[:, None]
    per_step = estimate_model.nu * log_steps
    total = 0.0
    with np.errstate(over="ignore"):
        s_truth = floored_survival(
            np.exp(np.log(-np.log(cfg.quantile_floor)) + truth_model.nu * log_steps)
        )
        for start in range(0, n, rows):
            s_est = floored_survival(np.exp(at_horizon[start : start + rows] + per_step))
            total += float(np.abs(s_truth - s_est).sum())
    return total / (n * cfg.n_steps)


# ---------------------------------------------------------------------------
# Inputs


def quantile_pairs(seed, n=400):
    """Random interior pairs, ties, and every pairing of the clamp ends with
    each other and with interior values."""
    rng = np.random.default_rng(seed)
    u1, u2 = rng.uniform(size=n), rng.uniform(size=n)
    ties = rng.uniform(size=20)
    ends = np.array([U_EPS, 1.0 - U_EPS, 0.5, 1e-6, 1.0 - 1e-6])
    e1, e2 = (a.ravel() for a in np.meshgrid(ends, ends))
    u1 = copulas.clamp_quantile(np.concatenate([u1, ties, e1]))
    u2 = copulas.clamp_quantile(np.concatenate([u2, ties, e2]))
    return u1, u2


def assert_same_partial(got, want):
    (value, grad), (want_value, want_grad) = got, want
    assert np.array_equal(value, want_value)
    if want_grad is None:
        assert grad is None
        return
    assert np.array_equal(grad[0], want_grad[0]) and np.array_equal(grad[1], want_grad[1])
    assert grad[2].keys() == want_grad[2].keys()
    for key in want_grad[2]:
        assert np.array_equal(grad[2][key], want_grad[2][key]), key


# hidden biases that, with non-negative weights and inputs in [0, 1), put
# every hidden pre-activation on one ELU branch
BRANCH_BIAS = {"negative": -50.0, "positive": 1.0}


def mlp(dim, seed, branch=None):
    """The reference net; with ``branch`` its weights are made non-negative
    and its hidden biases set from ``BRANCH_BIAS``."""
    risk = MLPRisk.init(weibull.default_mlp_widths(dim), np.random.default_rng(seed))
    if branch is not None:
        for w in risk.weights:
            np.abs(w, out=w)
        for b in risk.biases[:-1]:
            b[...] = BRANCH_BIAS[branch]
    return risk


# ---------------------------------------------------------------------------
# MLP risk


@pytest.mark.parametrize("n", [1, 2, 37, 1500])
@pytest.mark.parametrize("branch", [None, "negative", "positive"])
def test_mlp_forward_and_backprop_equal_the_out_of_place_oracle(n, branch):
    rng = np.random.default_rng(n)
    risk = mlp(5, seed=n, branch=branch)
    x = rng.normal(size=(n, 5)) if branch is None else rng.uniform(size=(n, 5))
    cotangent = rng.normal(size=n)
    kept = cotangent.copy()
    g, backprop = risk.forward(x, risk.params())
    want_g, want_backprop = mlp_forward_oracle(risk, x, risk.params())
    assert np.array_equal(g, want_g)
    want = want_backprop(cotangent)
    for _ in range(2):  # a second call reuses the same activations
        grads = backprop(cotangent)
        assert grads.keys() == want.keys()
        for key in want:
            assert np.array_equal(grads[key], want[key]), key
    assert np.array_equal(cotangent, kept)  # the caller's cotangent is never written


@pytest.mark.parametrize("branch", ["negative", "positive"])
def test_mlp_branch_nets_stay_on_one_elu_branch(branch):
    x = np.random.default_rng(0).uniform(size=(50, 5))
    risk = mlp(5, seed=1, branch=branch)
    h = x.T
    for w, b in zip(risk.weights[:-1], risk.biases[:-1]):
        z = w @ h + b[:, None]
        assert np.all(z < 0.0) if branch == "negative" else np.all(z > 0.0)
        h = np.maximum(z, 0.0) + np.expm1(np.minimum(z, 0.0))


# ---------------------------------------------------------------------------
# Copula kernels


@pytest.mark.parametrize("want_grad", [False, True])
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize(
    "kernel, oracle",
    [(copulas._clayton_log_partial, clayton_log_partial_oracle),
     (copulas._frank_log_partial, frank_log_partial_oracle)],
    ids=["clayton", "frank"],
)
def test_log_partial_kernels_equal_their_oracles(kernel, oracle, theta, want_grad):
    u1, u2 = quantile_pairs(seed=int(theta * 10))
    # every pair at once, then one record at a time for a tie and the clamp-end pairings
    cases = [(u1, u2)] + [(u1[i:i + 1], u2[i:i + 1]) for i in range(len(u1) - 26, len(u1))]
    with np.errstate(all="ignore"):
        for a1, a2 in cases:
            assert_same_partial(kernel(theta, a1, a2, want_grad), oracle(theta, a1, a2, want_grad))


def test_frank_log_neg_dab_from_shared_terms_equals_the_oracle():
    u1, u2 = quantile_pairs(seed=3)
    for theta in THETAS:
        a, b = np.expm1(-theta * u1), np.expm1(-theta * u2)
        want = frank_log_neg_dab_oracle(theta, u1, u2)
        assert np.array_equal(copulas._frank_log_neg_dab(theta, u1, u2, a, b), want)


@pytest.mark.parametrize("kappa", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("thetas", [(THETA_MIN, THETA_MIN), (500.0, 2.0), (8.0, 500.0)])
def test_mixture_over_the_oracle_components_is_unchanged(kappa, thetas, monkeypatch):
    spec = CopulaSpec(Family.MIXTURE, theta_frank=thetas[0], theta_clayton=thetas[1], kappa=kappa)
    u1, u2 = quantile_pairs(seed=5)
    with np.errstate(all="ignore"):
        got = copulas.log_partial(spec, u1, u2, want_grad=True)
        monkeypatch.setattr(copulas, "_clayton_log_partial", clayton_log_partial_oracle)
        monkeypatch.setattr(copulas, "_frank_log_partial", frank_log_partial_oracle)
        want = copulas.log_partial(spec, u1, u2, want_grad=True)
    assert_same_partial(got, want)


# ---------------------------------------------------------------------------
# The joint objective end to end, and survival_l1


def _joint_inputs(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    event = WeibullCoxModel(0.2, 0.1, mlp(4, seed))
    censor = WeibullCoxModel(-0.1, 0.3, LinearRisk(rng.normal(size=4) * 0.3))
    data = SurvivalDataset(x, rng.uniform(0.1, 3.0, size=n), (np.arange(n) % 3 != 1).astype(int))
    return event, censor, data


@pytest.mark.parametrize("n", [1, 300])
@pytest.mark.parametrize("spec", [
    CopulaSpec(Family.CLAYTON, theta=1.7), CopulaSpec(Family.FRANK, theta=500.0),
    CopulaSpec(Family.MIXTURE, theta_frank=4.0, theta_clayton=0.8, kappa=0.0),
    CopulaSpec(Family.MIXTURE, theta_frank=4.0, theta_clayton=0.8, kappa=1.0)],
                         ids=["clayton", "frank", "mixture0", "mixture1"])
def test_loglik_and_gradient_equal_the_oracle_path(spec, n, monkeypatch):
    event, censor, data = _joint_inputs(seed=n, n=n)
    point = joint_point(event, censor, spec)
    got = likelihood.loglik_and_gradient(event, censor, spec.family, point, data, 1e-3)
    monkeypatch.setattr(MLPRisk, "forward", mlp_forward_oracle)
    monkeypatch.setattr(copulas, "_clayton_log_partial", clayton_log_partial_oracle)
    monkeypatch.setattr(copulas, "_frank_log_partial", frank_log_partial_oracle)
    monkeypatch.setattr(likelihood, "_l2_penalty", l2_penalty_oracle)
    want = likelihood.loglik_and_gradient(event, censor, spec.family, point, data, 1e-3)
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys()
    for key in want[1]:
        assert np.array_equal(got[1][key], want[1][key]), key


# a theta whose square by pow (a Python float's or a numpy scalar's) is one
# ulp below its square by x * x (a 0-d array's)
POW_SQUARE_THETA = 2.3757953130140117


@pytest.mark.parametrize("spec", [
    CopulaSpec(Family.CLAYTON, theta=POW_SQUARE_THETA),
    CopulaSpec(Family.MIXTURE, theta_frank=4.0, theta_clayton=POW_SQUARE_THETA, kappa=0.3)],
                         ids=["clayton", "mixture"])
@pytest.mark.parametrize("as_array", [False, True], ids=["float", "0-d"])
def test_one_point_clayton_theta_squares_as_a_python_float(spec, as_array, monkeypatch):
    # the one-point path hands the kernel a scalar that squares as the
    # Python float a CopulaSpec holds, whatever form the point gives theta
    assert POW_SQUARE_THETA ** 2 != np.asarray(POW_SQUARE_THETA) ** 2
    event, censor, data = _joint_inputs(seed=7, n=50)
    point = joint_point(event, censor, spec)
    if as_array:
        point = {key: np.asarray(val) for key, val in point.items()}
    got = likelihood.loglik_and_gradient(event, censor, spec.family, point, data)
    monkeypatch.setattr(copulas, "_clayton_log_partial", lambda theta, u1, u2, want_grad:
                        clayton_log_partial_oracle(float(theta), u1, u2, want_grad))
    want = likelihood.loglik_and_gradient(event, censor, spec.family, point, data)
    assert got[0] == want[0]
    copula_keys = [key for key in want[1] if key.startswith("copula.")]
    assert copula_keys
    for key in copula_keys:
        assert np.array_equal(got[1][key], want[1][key]), key


@pytest.mark.parametrize("dim", [4, 40])
def test_l2_penalty_equals_the_oracle(dim):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        models = [WeibullCoxModel(0.0, 0.0, mlp(dim, seed)),
                  WeibullCoxModel(0.0, 0.0, LinearRisk(rng.normal(size=dim)))]
        weights = [{key: model.risk.params()[key] for key in model.risk.weight_keys()}
                   for model in models]
        for lam in (0.0, 1e-3, 0.5):
            assert likelihood._l2_penalty(lam, *weights) == l2_penalty_oracle(lam, *weights)


@pytest.mark.parametrize("n, n_steps", [(1, 1), (4, 2), (1, 1000), (100, 1000), (70, 3), (3, 2**16)])
def test_survival_l1_in_place_blocks_equal_the_oracle(n, n_steps):
    # over several draws: at one record and a few steps a last-bit change
    # in S shows in the mean, at many it is lost in the sum
    cfg = SurvivalL1Config(n_steps=n_steps)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        truth = WeibullCoxModel.from_natural(2.0, 3.0, LinearRisk(rng.normal(size=3)))
        est = WeibullCoxModel.from_natural(0.7, 2.8, mlp(3, seed=seed))
        x = rng.normal(size=(n, 3))
        assert survival_l1(truth, est, x, cfg) == survival_l1_blocks_oracle(truth, est, x, cfg)


# ---------------------------------------------------------------------------
# Values at k parameter points in one pass, as validation scores a block of
# iterates: each row must be bit for bit the value at that point alone, by
# the point's own call and by the value the gradient path returns

BLOCK_SPECS = {
    "independence": [CopulaSpec(Family.INDEPENDENCE)],
    "clayton": [CopulaSpec(Family.CLAYTON, theta=theta) for theta in THETAS],
    "frank": [CopulaSpec(Family.FRANK, theta=theta) for theta in THETAS],
    "mixture": [CopulaSpec(Family.MIXTURE, theta_frank=tf, theta_clayton=tc, kappa=kappa)
                for tf, tc, kappa in ((500.0, THETA_MIN, 0.0), (THETA_MIN, 500.0, 1.0), (4.0, 0.8, 0.3),
                                      (THETA_MIN, THETA_MIN, 0.5), (500.0, 500.0, 0.9))],
}
RISK_PAIRS = [("linear", "linear"), ("mlp", "mlp"), ("mlp", "linear")]


def block_data(n, seed, dim=4):
    """Records with interior quantiles and, from three records on, times
    small and large enough that every marginal's quantile hits a clamp end."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.1, 3.0, size=n)
    if n >= 3:
        t[:3] = (1e-13, 1e-9, 60.0)
    return SurvivalDataset(rng.normal(size=(n, dim)), t, (np.arange(n) % 3 != 1).astype(int))


def perturbed(kind, seed, dim=4):
    """A model of the given risk kind with parameters drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    risk = LinearRisk(rng.normal(scale=0.4, size=dim)) if kind == "linear" else mlp(dim, seed)
    return WeibullCoxModel(rng.normal(scale=0.3), rng.normal(scale=0.3), risk)


def stacked(points):
    """One dict of (k, ...) stacks from k dicts of parameter values."""
    return {key: np.stack([np.asarray(point[key], dtype=float) for point in points])
            for key in points[0]}


def joint_point(event, censor, spec):
    names = copulas.PARAMETERS[spec.family]
    return {**likelihood.parameters(event, "event"), **likelihood.parameters(censor, "censor"),
            **{f"copula.{name}": getattr(spec, name) for name in names}}


def assert_rows_in_any_blocks(call, points, want):
    """``call`` on the whole stack, on each point alone, and on blocks of 3
    (a count the stack is not a multiple of) gives ``want``."""
    k = len(want)
    assert np.array_equal(call(points), want)
    for size in (1, 3):
        got = np.concatenate([call({key: val[start:start + size] for key, val in points.items()})
                              for start in range(0, k, size)])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 300])
@pytest.mark.parametrize("risks", RISK_PAIRS, ids="/".join)
@pytest.mark.parametrize("family", list(BLOCK_SPECS))
def test_copula_values_at_stacked_points_equal_each_point_alone(family, risks, n):
    data = block_data(n, seed=n)
    specs = BLOCK_SPECS[family]
    k = max(len(specs), 2) + 1
    models = [(perturbed(risks[0], 10 + i), perturbed(risks[1], 30 + i)) for i in range(k)]
    specs = [specs[i % len(specs)] for i in range(k)]
    with np.errstate(all="ignore"):
        want = np.array([likelihood.loglik_copula(ev, ce, spec, data)
                         for (ev, ce), spec in zip(models, specs)])
        from_gradient_path = np.array([
            likelihood.loglik_and_gradient(ev, ce, spec.family, joint_point(ev, ce, spec), data)[0]
            for (ev, ce), spec in zip(models, specs)])
        points = stacked([joint_point(ev, ce, spec) for (ev, ce), spec in zip(models, specs)])
        template = models[0]
        assert np.array_equal(want, from_gradient_path)
        assert_rows_in_any_blocks(
            lambda pts: likelihood.loglik_copula_points(*template, specs[0].family, pts, data),
            points, want)


@pytest.mark.parametrize("n", [1, 300])
@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_marginal_values_at_stacked_points_equal_each_point_alone(kind, n):
    data = block_data(n, seed=n + 1)
    models = [perturbed(kind, 50 + i) for i in range(5)]
    with np.errstate(all="ignore"):
        want = np.array([likelihood.marginal_loglik(model, data) for model in models])
        from_gradient_path = np.array([likelihood.marginal_loglik_and_gradient(
            model, likelihood.parameters(model, "model"), data)[0] for model in models])
        points = stacked([likelihood.parameters(model, "model") for model in models])
        assert np.array_equal(want, from_gradient_path)
        assert_rows_in_any_blocks(
            lambda pts: likelihood.marginal_loglik_points(models[0], pts, data), points, want)


def test_the_first_non_finite_term_names_its_point_and_record():
    # point 2 overflows at record 3 (the one time off rho, with a huge nu),
    # point 3 at every record (a NaN weight): the failure is point 2's, at
    # record 3, though point 3 fails at an earlier record
    data = SurvivalDataset(np.zeros((5, 1)), np.array([1.0, 1.0, 1.0, 2.0, 1.0]),
                           np.array([1, 0, 1, 1, 0]))
    fine = WeibullCoxModel(0.1, 0.0, LinearRisk([0.2]))
    models = [fine, fine, WeibullCoxModel(np.log(5e173), 0.0, LinearRisk([0.2])),
              WeibullCoxModel(0.1, 0.0, LinearRisk([np.nan]))]
    clayton = CopulaSpec(Family.CLAYTON, theta=2.0)
    joint = stacked([joint_point(model, fine, clayton) for model in models])
    single = stacked([likelihood.parameters(model, "model") for model in models])
    calls = [lambda: likelihood.loglik_copula_points(fine, fine, copulas.Family.CLAYTON, joint,
                                                     data),
             lambda: likelihood.marginal_loglik_points(fine, single, data)]
    for call in calls:
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure) as info:
            call()
        assert (info.value.point_index, info.value.record_index) == (2, 3)
        assert str(info.value) == "non-finite log-likelihood term at record 3"
