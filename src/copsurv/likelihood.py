"""Joint log-likelihood of (event, censor) marginals under a copula.

For a record (x, t, delta) with event-survival u1 = S_E(t|x) and
censor-survival u2 = S_C(t|x), the copula likelihood contributes

    delta = 1:  log f_E(t|x) + log dC/du1(u1, u2)
    delta = 0:  log f_C(t|x) + log dC/du2(u1, u2)

which collapses to the familiar independent-censoring likelihood

    delta = 1:  log f_E(t|x) + log S_C(t|x)
    delta = 0:  log f_C(t|x) + log S_E(t|x)

when C is the independence copula.  Independence is therefore fitted as one
more family of the same objective; there is no separate code path for it.

Both objectives are functions of a parameter point: a dict keyed as the
gradient is keyed (``event.log_nu``, ``event.risk.W0``, ``copula.theta``
and so on).  One point's copula parameters are numpy scalars, whose
``theta**2`` overflows to inf and, unlike a 0-d array's, squares by the
``pow`` of a Python float.  The models supply only their risks' structure;
their own parameters are not read, so a point can be evaluated without
writing it into a model.  One function gives a marginal's hazard pieces
from one risk pass (``forward``), and two paths share it.  The gradient
path (``loglik_and_gradient``, ``marginal_loglik_and_gradient``) evaluates
one point, subtracts an optional L2 penalty on its risk weights, and
carries the gradient back through the pass's backprop closure.  The value
path (``loglik_copula_points``, ``marginal_loglik_points``) evaluates k
points stacked on a leading axis in one pass, which is how validation
scores a block of iterates: log nu, log rho and the copula parameters
become (k, 1) columns, the risk pass gives a (k, n) stack, and the same
formulas broadcast over it.  ``loglik_copula`` and ``marginal_loglik`` are
the value at the models' own parameters.

Every supported family is exchangeable, log dC/du2(u1, u2) = log dC/du1(u2,
u1), so the joint terms orient each record with its own quantile first and
call the copula kernel once, on the one partial each record uses.

Gradients are exact, assembled by hand through the chain rule.  A
marginal enters the objective through log nu and log H = nu (log t -
log rho) + g alone, so its gradient flows through one cotangent per record
on log H, and the backprop closure of the risk's single forward pass
carries it on to the risk parameters.  The copula's log-partial
derivatives supply the dependence terms.  Survival quantiles entering the
copula are clamped into ``[U_EPS, 1 - U_EPS]``; the clamp acts as a
gradient stop where active.

Exactness rule: the evaluation path (the risk passes, the copula kernels
and this module) works in place and shares common terms where that saves
work, but it keeps every floating-point operation, its operands and its
order, so each value and gradient is bit for bit that of the plain
out-of-place formulas.  Those formulas live in ``tests/`` as oracles, and
the tests assert exact equality with them.  The same holds across points:
each row of a k-point value is bit for bit the value at that point alone,
so a point's parameters enter as a broadcast column and each product keeps
its layout (``W @ x.T`` for ``x @ w`` changes the rounding).  A rewrite
that is only equal in exact arithmetic (a fused matmul, ``expm1(x) + 1`` for ``exp(x)``, a
different reduction) moves the fits: an MLP fit stopped on validation
amplifies a rounding difference into a different returned iterate.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from . import copulas, weibull
from .copulas import CopulaSpec, U_EPS
from .data import SurvivalDataset
from .errors import NumericalFailure


def parameters(model, prefix: str) -> dict:
    """The trainable arrays of ``model``, keyed as the gradient keys them:
    ``{prefix}.log_nu``, ``{prefix}.log_rho``, ``{prefix}.risk.<key>``."""
    out = {f"{prefix}.log_nu": model.log_nu, f"{prefix}.log_rho": model.log_rho}
    for key, val in model.risk.params().items():
        out[f"{prefix}.risk.{key}"] = val
    return out


def _hazard_pieces(model, prefix, point, data):
    """The risk pass and, per record, log H, H, S = exp(-H) and log f = log
    nu + log H - log t - H of the marginal whose parameters ``point`` holds
    under ``prefix``; ``model`` gives only its risk's structure.  At one
    point the pieces keep the pass's backprop closure and the risk's L2
    weights; at k stacked points they are per point and record, (k, n), with
    log nu and log rho entering as (k, 1) columns, and have no closure."""
    risk = model.risk
    params = {key: point[f"{prefix}.risk.{key}"] for key in risk.params()}
    g, backprop = risk.forward(data.x, params)
    log_nu, log_rho = point[f"{prefix}.log_nu"], point[f"{prefix}.log_rho"]
    if g.ndim == 2:
        # k points are scored, not differentiated: dropping the closure
        # frees the pass's activations before the copula terms are built
        log_nu, log_rho, backprop = log_nu[:, None], log_rho[:, None], None
    log_t = np.log(data.t_obs)
    log_h = weibull.log_cumulative_hazard_from(log_nu, log_rho, log_t, g)
    # overflow here surfaces as a NumericalFailure from the finiteness check
    with np.errstate(over="ignore"):
        h_cum = np.exp(log_h)
    log_f = log_nu + log_h - log_t - h_cum
    weights = {key: params[key] for key in risk.weight_keys()}
    return SimpleNamespace(g=g, log_h=log_h, h_cum=h_cum, log_f=log_f, surv=np.exp(-h_cum),
                           backprop=backprop, weights=weights)


def _check_finite(terms):
    """Raises on the first non-finite term: of the first point with one, for
    a (k, n) stack of terms."""
    finite = np.isfinite(terms)
    if not finite.all():
        *point, idx = (int(i) for i in np.unravel_index(np.argmin(finite), terms.shape))
        raise NumericalFailure(
            f"non-finite log-likelihood term at record {idx}", record_index=idx,
            point_index=point[0] if point else None,
        )


def _passthrough(surv):
    """1.0 where ``clamp_quantile`` leaves ``surv`` as it is, else 0.0: the clamp's derivative."""
    return ((surv > U_EPS) & (surv < 1.0 - U_EPS)).astype(float)


def _marginal_grads(grads, prefix, point, pieces, own, dh_weight, l2_lambda):
    """Adds to ``grads`` the gradient at ``point`` of sum(own * log f +
    dh_weight * H) minus l2_lambda * ||risk weights||^2, through r = own (1 -
    H) + dh_weight H, the cotangent on log H, whose derivatives in log rho,
    log nu and g are -nu, log H - g and 1."""
    r = own * (1.0 - pieces.h_cum) + dh_weight * pieces.h_cum
    grads[f"{prefix}.log_nu"] = np.asarray((own + r * (pieces.log_h - pieces.g)).sum())
    nu = float(np.exp(point[f"{prefix}.log_nu"]))
    grads[f"{prefix}.log_rho"] = np.asarray(-nu * r.sum())
    for key, val in pieces.backprop(r).items():
        grads[f"{prefix}.risk.{key}"] = val
    if l2_lambda == 0.0:
        return
    for key, weight in pieces.weights.items():
        grads[f"{prefix}.risk.{key}"] -= 2.0 * l2_lambda * weight


def _l2_penalty(l2_lambda: float, *weights) -> float:
    """l2_lambda * sum ||w||^2 over the weight dicts ``weights``, one per marginal."""
    if l2_lambda == 0.0:
        return 0.0
    total = 0.0
    for group in weights:
        total += sum(float((weight ** 2).sum()) for weight in group.values())
    return l2_lambda * total


def _joint_terms(event_model, censor_model, family, point, data, want_grad):
    """The copula objective at ``point`` (one, or k stacked): its checked
    per-record terms (per point and record for k points), the copula
    kernel's gradient in each record's own orientation if ``want_grad``,
    and both marginals' hazard pieces."""
    ev = _hazard_pieces(event_model, "event", point, data)
    ce = _hazard_pieces(censor_model, "censor", point, data)
    # one point: numpy scalars, whose theta**2 overflows to inf and squares by Python's pow
    column = (lambda val: val[:, None]) if ev.g.ndim == 2 else np.float64
    spec = SimpleNamespace(family=family, **{
        name: column(point[f"copula.{name}"]) for name in copulas.PARAMETERS[family]})
    delta = data.delta.astype(float)
    event = data.delta == 1
    u1 = copulas.clamp_quantile(ev.surv)
    u2 = copulas.clamp_quantile(ce.surv)
    # every family is exchangeable, log dC/du2(u1, u2) = log dC/du1(u2, u1),
    # so each row is oriented to put its own quantile first
    first = np.where(event, u1, u2)
    second = np.where(event, u2, u1)
    log_p, grad = copulas.log_partial(spec, first, second, want_grad)
    terms = delta * ev.log_f + (1.0 - delta) * ce.log_f + log_p
    _check_finite(terms)
    return terms, grad, ev, ce


def _single_terms(pieces, data):
    """The single-marginal objective's checked per-record terms."""
    delta = data.delta.astype(float)
    terms = delta * pieces.log_f - (1.0 - delta) * pieces.h_cum
    _check_finite(terms)
    return terms


def loglik_copula_points(event_model, censor_model, family, points, data: SurvivalDataset):
    """The unpenalized copula log-likelihood at k parameter points, shape (k,).

    ``points`` maps every key of :func:`loglik_and_gradient`'s point to a
    stack of k values of that parameter's shape.  Row i is bit for bit the
    value at point i alone.  A non-finite term raises ``NumericalFailure``
    with the first failing point's ``point_index`` and its first failing
    ``record_index``.
    """
    return _joint_terms(event_model, censor_model, family, points, data, False)[0].sum(axis=1)


def loglik_copula(
    event_model,
    censor_model,
    spec: CopulaSpec,
    data: SurvivalDataset,
    l2_lambda: float = 0.0,
) -> float:
    """Copula log-likelihood (sum over records) minus l2_lambda * sum ||risk
    weights||^2 at the models' own parameters and ``spec``: the value of
    :func:`loglik_and_gradient` there."""
    point = {**parameters(event_model, "event"), **parameters(censor_model, "censor"),
             **{f"copula.{name}": getattr(spec, name) for name in copulas.PARAMETERS[spec.family]}}
    terms, _, ev, ce = _joint_terms(event_model, censor_model, spec.family, point, data, False)
    return float(terms.sum()) - _l2_penalty(l2_lambda, ev.weights, ce.weights)


def loglik_and_gradient(event_model, censor_model, family, point, data: SurvivalDataset,
                        l2_lambda: float = 0.0):
    """Returns (value, gradient dict) of the penalized objective at ``point``.

    Both are of [loglik - l2_lambda * sum ||risk weights||^2].  ``point``
    maps every trainable parameter to its value, keyed ``event.log_nu``,
    ``event.risk.W0``, ``copula.theta`` and so on, and the gradient is keyed
    the same way; the independence family has no ``copula.*`` keys.  The
    models give only their risks' structure.
    """
    terms, (d_first, d_second, d_par), ev, ce = _joint_terms(
        event_model, censor_model, family, point, data, want_grad=True)
    value = float(terms.sum()) - _l2_penalty(l2_lambda, ev.weights, ce.weights)

    delta = data.delta.astype(float)
    event = data.delta == 1
    c_u1 = np.where(event, d_first, d_second)
    c_u2 = np.where(event, d_second, d_first)
    grads = {}
    # d u / d z = -S * dH/dz where the clamp is inactive
    _marginal_grads(grads, "event", point, ev, delta,
                    c_u1 * (-ev.surv * _passthrough(ev.surv)), l2_lambda)
    _marginal_grads(grads, "censor", point, ce, 1.0 - delta,
                    c_u2 * (-ce.surv * _passthrough(ce.surv)), l2_lambda)
    for key, contrib in d_par.items():
        grads[f"copula.{key}"] = np.asarray(contrib.sum())
    return value, grads


def marginal_loglik_points(model, points, data: SurvivalDataset):
    """The single-marginal log-likelihood at k parameter points, shape (k,);
    ``points`` stacks them under the ``model.*`` keys of
    :func:`marginal_loglik_and_gradient`'s point, as in
    :func:`loglik_copula_points`."""
    return _single_terms(_hazard_pieces(model, "model", points, data), data).sum(axis=1)


def marginal_loglik(model, data: SurvivalDataset) -> float:
    """Right-censored single-marginal log-likelihood (sum over records) at
    the model's own parameters."""
    pieces = _hazard_pieces(model, "model", parameters(model, "model"), data)
    return float(_single_terms(pieces, data).sum())


def marginal_loglik_and_gradient(model, point, data: SurvivalDataset, l2_lambda: float = 0.0):
    """Single right-censored marginal at ``point``: sum delta log f + (1 -
    delta) log S, minus l2_lambda * ||risk weights||^2, with its gradient.
    ``point`` and the gradient are keyed ``model.log_nu``, ``model.risk.w``
    and so on; ``model`` gives only its risk's structure.

    Degenerate indicator patterns (all events, all censored) are allowed;
    this is the working objective for fitting one marginal on its own.
    """
    pieces = _hazard_pieces(model, "model", point, data)
    delta = data.delta.astype(float)
    value = float(_single_terms(pieces, data).sum()) - _l2_penalty(l2_lambda, pieces.weights)
    grads = {}
    _marginal_grads(grads, "model", point, pieces, delta, -(1.0 - delta), l2_lambda)
    return value, grads
