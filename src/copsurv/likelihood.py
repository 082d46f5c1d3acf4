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

One kernel serves the joint objective and one the single-marginal
objective; each computes the log-likelihood minus an optional L2 penalty
on the risk weights and, when asked, the gradient of that same value.
The public functions are thin calls into them.  Every supported family is
exchangeable, log dC/du2(u1, u2) = log dC/du1(u2, u1), so the joint kernel
orients each record with its own quantile first and calls the copula kernel
once, on the one partial each record uses.

Gradients are exact, assembled by hand through the chain rule: marginal
derivatives with respect to (log nu, log rho, g) feed the backprop closure
that the risk's single forward pass returns, and the copula's log-partial
derivatives supply the dependence terms.  Survival quantiles entering the
copula are clamped into ``[U_EPS, 1 - U_EPS]``; the clamp acts as a
gradient stop where active.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from . import copulas
from .copulas import CopulaSpec, U_EPS
from .data import SurvivalDataset
from .errors import NumericalFailure


def _marginal_pieces(model, t, x, want_grad):
    """Forward quantities, the risk's backprop closure and, if ``want_grad``,
    derivatives w.r.t. a=log_nu, b=log_rho, g."""
    nu = model.nu
    a = float(model.log_nu)
    b = float(model.log_rho)
    g, backprop = model.risk.forward(x)
    lt = np.log(t)
    # overflow here surfaces as a NumericalFailure from the finiteness check
    with np.errstate(over="ignore"):
        h_cum = np.exp(nu * (lt - b) + g)
    log_f = a - nu * b + (nu - 1.0) * lt + g - h_cum
    pieces = SimpleNamespace(backprop=backprop, log_f=log_f, h_cum=h_cum, surv=np.exp(-h_cum))
    if want_grad:
        vars(pieces).update(
            dh_da=h_cum * nu * (lt - b), dh_db=-h_cum * nu, dh_dg=h_cum,
            dlogf_da=1.0 + nu * (lt - b) * (1.0 - h_cum), dlogf_db=nu * (h_cum - 1.0),
            dlogf_dg=1.0 - h_cum)
    return pieces


def _check_finite(terms):
    finite = np.isfinite(terms)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise NumericalFailure(
            f"non-finite log-likelihood term at record {idx}", record_index=idx
        )


def _clamped_quantiles(pieces):
    u = np.clip(pieces.surv, U_EPS, 1.0 - U_EPS)
    passthrough = ((pieces.surv > U_EPS) & (pieces.surv < 1.0 - U_EPS)).astype(float)
    return u, passthrough


def _marginal_grads(grads, prefix, risk, pieces, own, dh_weight, l2_lambda):
    """Adds to ``grads`` the gradient of sum(own * log f + dh_weight * H)
    minus l2_lambda * ||risk weights||^2."""
    coef_a = own * pieces.dlogf_da + dh_weight * pieces.dh_da
    coef_b = own * pieces.dlogf_db + dh_weight * pieces.dh_db
    coef_g = own * pieces.dlogf_dg + dh_weight * pieces.dh_dg
    grads[f"{prefix}.log_nu"] = np.asarray(coef_a.sum())
    grads[f"{prefix}.log_rho"] = np.asarray(coef_b.sum())
    for key, val in pieces.backprop(coef_g).items():
        grads[f"{prefix}.risk.{key}"] = val
    if l2_lambda == 0.0:
        return
    params = risk.params()
    for key in risk.weight_keys():
        grads[f"{prefix}.risk.{key}"] -= 2.0 * l2_lambda * params[key]


def _l2_penalty(l2_lambda: float, *models) -> float:
    """l2_lambda * sum ||risk weights||^2 over ``models``."""
    if l2_lambda == 0.0:
        return 0.0
    total = 0.0
    for model in models:
        params = model.risk.params()
        total += sum(float(np.sum(params[key] ** 2)) for key in model.risk.weight_keys())
    return l2_lambda * total


def _joint(event_model, censor_model, spec, data, l2_lambda, want_grad):
    """The penalized copula objective; returns (value, gradient dict or None)."""
    delta = data.delta.astype(float)
    event = data.delta == 1
    ev = _marginal_pieces(event_model, data.t_obs, data.x, want_grad)
    ce = _marginal_pieces(censor_model, data.t_obs, data.x, want_grad)
    u1, pass1 = _clamped_quantiles(ev)
    u2, pass2 = _clamped_quantiles(ce)

    # every family is exchangeable, log dC/du2(u1, u2) = log dC/du1(u2, u1),
    # so each row is oriented to put its own quantile first
    first = np.where(event, u1, u2)
    second = np.where(event, u2, u1)
    log_p, grad = copulas.log_partial(spec, first, second, want_grad)
    terms = delta * ev.log_f + (1.0 - delta) * ce.log_f + log_p
    _check_finite(terms)
    value = float(terms.sum()) - _l2_penalty(l2_lambda, event_model, censor_model)
    if not want_grad:
        return value, None

    d_first, d_second, d_par = grad
    c_u1 = np.where(event, d_first, d_second)
    c_u2 = np.where(event, d_second, d_first)

    grads = {}
    # d u / d z = -S * dH/dz where the clamp is inactive
    _marginal_grads(grads, "event", event_model.risk, ev, delta,
                    c_u1 * (-ev.surv * pass1), l2_lambda)
    _marginal_grads(grads, "censor", censor_model.risk, ce, 1.0 - delta,
                    c_u2 * (-ce.surv * pass2), l2_lambda)
    for key, contrib in d_par.items():
        grads[f"copula.{key}"] = np.asarray(contrib.sum())
    return value, grads


def _single(model, data, l2_lambda, want_grad):
    """The penalized single-marginal objective; returns (value, gradient dict or None)."""
    delta = data.delta.astype(float)
    pieces = _marginal_pieces(model, data.t_obs, data.x, want_grad)
    terms = delta * pieces.log_f - (1.0 - delta) * pieces.h_cum
    _check_finite(terms)
    value = float(terms.sum()) - _l2_penalty(l2_lambda, model)
    if not want_grad:
        return value, None
    grads = {}
    _marginal_grads(grads, "model", model.risk, pieces, delta, -(1.0 - delta), l2_lambda)
    return value, grads


def loglik_copula(
    event_model,
    censor_model,
    spec: CopulaSpec,
    data: SurvivalDataset,
    l2_lambda: float = 0.0,
) -> float:
    """Copula log-likelihood (sum over records) minus
    l2_lambda * sum ||risk weights||^2, the value of :func:`loglik_and_gradient`."""
    return _joint(event_model, censor_model, spec, data, l2_lambda, want_grad=False)[0]


def loglik_and_gradient(
    event_model,
    censor_model,
    spec: CopulaSpec,
    data: SurvivalDataset,
    l2_lambda: float = 0.0,
):
    """Returns (value, gradient dict) of the penalized objective.

    Both are of [loglik - l2_lambda * sum ||risk weights||^2]; the gradient
    is with respect to every trainable parameter, keyed ``event.log_nu``,
    ``event.risk.W0``, ``copula.theta`` and so on.  The independence family simply contributes
    no ``copula.*`` keys.
    """
    return _joint(event_model, censor_model, spec, data, l2_lambda, want_grad=True)


def marginal_loglik(model, data: SurvivalDataset) -> float:
    """Right-censored single-marginal log-likelihood (sum over records)."""
    return _single(model, data, 0.0, want_grad=False)[0]


def marginal_loglik_and_gradient(model, data: SurvivalDataset, l2_lambda: float = 0.0):
    """Single right-censored marginal: sum delta log f + (1 - delta) log S,
    minus l2_lambda * ||risk weights||^2, with its gradient.

    Degenerate indicator patterns (all events, all censored) are allowed;
    this is the working objective for fitting one marginal on its own.
    """
    return _single(model, data, l2_lambda, want_grad=True)
