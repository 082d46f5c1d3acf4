"""Bivariate Archimedean copulas on survival quantiles.

Implements the Independence, Clayton, and Frank families together with a
convex Frank/Clayton mixture, restricted throughout to positive dependence
(theta > 0).  Provided operations: the log of both first partial
derivatives and its gradient (the likelihood's building block), conditional
sampling, and Kendall's tau conversions in both directions.

``PARAMETERS`` lists each family's dependence parameters and their ranges;
``CopulaSpec`` validates and serializes by it, and the optimizer's boxes
follow from it.

Numerics: every quantile drawn or evaluated is clamped into
``[U_EPS, 1 - U_EPS]`` by :func:`clamp_quantile`.  Frank evaluation is
arranged around ``expm1``/``logaddexp`` so that theta up to 500 neither
overflows nor cancels.

One kernel, :func:`log_partial`, gives log dC/du1 and its derivatives on
clamped quantiles; ``log_partial_u1``/``_u2`` and ``grad_log_partial_u1``/
``_u2`` validate and clamp their arguments, then call it.

:func:`conditional_sample` is the one route from an event quantile u1 to a
censoring quantile u2: it draws a uniform v and solves dC/du1(u1, u2) = v
for u2 in closed form, by the Clayton or Frank kernel (Independence returns
v itself).  The mixture has no closed-form inverse; each of its draws first
chooses a component, then inverts that component's conditional CDF by the
same two kernels (Nelsen, An Introduction to Copulas, 2006, §2.9).

Kendall's tau is deterministic for every family, and :func:`theta_to_tau`
gives it for all four.  Clayton's is closed-form; Frank's needs the first
Debye function, a one-dimensional integral.  The mixture's
tau = 4 E[C(U, V)] - 1 splits into the two components' taus plus a cross
expectation, a two-dimensional integral over Frank's closed-form
conditional quantile (:func:`mixture_tau_monte_carlo`, a name kept from the
Monte Carlo estimator it replaced).  Both integrals use one Gauss-Legendre
rule on [0, 1], built once at import.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import DomainError, ParameterDomainError, check_document

ArrayLike = Union[float, np.ndarray]

# Clamp applied to quantiles before logs / negative powers.
U_EPS = 1e-12

# Frank theta range supported by tau_to_theta root finding.
THETA_LO = 1e-6
THETA_HI_FRANK = 500.0

# Gauss-Legendre nodes of the one rule both tau integrals use: per axis of the
# mixture's cross term, where 128 and 1,024 agree within 2.3e-6 in tau for
# theta_frank up to 500 and theta_clayton up to 200; and on Frank's Debye
# integral, which it gives within 3e-15 of an exact D1 for theta in [1e-6, 500]
_TAU_QUAD_NODES = 128

# Upper end of the Debye integral.  Past t = 40 the integrand t / (e^t - 1)
# is below 1.7e-16, and its tail adds about 1e-16 of the integral's value
# (under half an ulp), so the rule keeps all its nodes where the integrand lives
_DEBYE_CUT = 40.0

# Below this theta, Frank's tau is taken from its Taylor series, not the
# Debye form 1 - 4 (1 - D1) / theta, which cancels as theta -> 0: it is off
# by 2.4e-11 of tau at the cut and by 6e-3 at theta 1e-6
_FRANK_TAU_SERIES_CUT = 1e-2

# Cap on the log of each partial-to-mixture ratio in the mixture's kappa
# gradient, so each ratio is at most 1e100; sums and squares of such terms
# over any sample stay finite.  Inside (0, 1) the ratios are below
# 1 / min(kappa, 1 - kappa), so the cap only binds at kappa 0 or 1 (or
# within 1e-100 of 0), where pf / pc can pass exp's range.
_LOG_KAPPA_RATIO_CAP = math.log(1e100)


class Family(str, Enum):
    INDEPENDENCE = "independence"
    CLAYTON = "clayton"
    FRANK = "frank"
    MIXTURE = "mixture"


def coerce_family(family) -> Family:
    """The ``Family`` a member or its name (any case) names."""
    if isinstance(family, Family):
        return family
    try:
        return Family(str(family).lower())
    except ValueError:
        raise ParameterDomainError(f"unknown copula family: {family!r}") from None


class ParamRange(NamedTuple):
    """A parameter's finite values in [lo, hi], or in (lo, hi] if ``lo_open``."""

    lo: float
    hi: float
    lo_open: bool = False

    def holds(self, val) -> bool:
        # finiteness is checked on its own: lo <= val <= hi admits inf at hi = inf
        return (val is not None and math.isfinite(val) and val <= self.hi
                and (self.lo < val if self.lo_open else self.lo <= val))

    def __str__(self):
        left = "(" if self.lo_open else "["
        right = "]" if self.hi < math.inf else ")"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


_THETA = ParamRange(0.0, math.inf, lo_open=True)
_THETA_FRANK = ParamRange(0.0, THETA_HI_FRANK, lo_open=True)

# Each family's dependence parameters, in checkpoint and optimizer order, and
# the range each takes: theta > 0, Frank theta also at most THETA_HI_FRANK,
# and the mixture's Frank weight kappa in [0, 1].
PARAMETERS = {
    Family.INDEPENDENCE: {},
    Family.CLAYTON: {"theta": _THETA},
    Family.FRANK: {"theta": _THETA_FRANK},
    Family.MIXTURE: {"theta_frank": _THETA_FRANK, "theta_clayton": _THETA,
                     "kappa": ParamRange(0.0, 1.0)},
}
# every CopulaSpec parameter field, each used by some family
_FIELDS = tuple(dict.fromkeys(name for domains in PARAMETERS.values() for name in domains))


@dataclass(frozen=True)
class CopulaSpec:
    """A copula family plus its dependence parameters.

    ``PARAMETERS[family]`` names the fields a family takes (``theta``; or
    ``theta_frank``, ``theta_clayton`` and the Frank weight ``kappa``) and
    their ranges.  Every other field stays ``None``.
    """

    family: Family
    theta: Optional[float] = None
    theta_frank: Optional[float] = None
    theta_clayton: Optional[float] = None
    kappa: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "family", coerce_family(self.family))
        domains = PARAMETERS[self.family]
        for name in _FIELDS:
            val, domain = getattr(self, name), domains.get(name)
            if domain is None and val is not None:
                raise ParameterDomainError(f"{self.family.value} copula takes no {name}")
            if domain is not None and not domain.holds(val):
                raise ParameterDomainError(
                    f"{self.family.value} copula requires a finite {name} in {domain}, got {val}")

    def to_dict(self) -> dict:
        return {"family": self.family.value,
                **{name: float(getattr(self, name)) for name in PARAMETERS[self.family]}}

    @classmethod
    def from_dict(cls, doc: dict) -> "CopulaSpec":
        """Reads ``to_dict``'s form, the family and exactly its parameters, by
        check_document's rule; a number out of range raises ``ParameterDomainError``."""
        fam = coerce_family(doc["family"]) if isinstance(doc, dict) and "family" in doc else None
        names = PARAMETERS.get(fam, {})
        check_document(doc, f"{fam.value} copula" if fam else "copula",
                       {"family": None, **dict.fromkeys(names, float)})
        return cls(fam, **{name: float(doc[name]) for name in names})


def _as_unit_array(u, name: str) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


def clamp_quantile(u: ArrayLike) -> np.ndarray:
    """``u`` clipped into [U_EPS, 1 - U_EPS], the quantiles every copula
    evaluation, sampler and likelihood uses."""
    return np.clip(u, U_EPS, 1.0 - U_EPS)


def _maybe_scalar(value: np.ndarray, *inputs) -> ArrayLike:
    if all(np.ndim(x) == 0 for x in inputs):
        return float(value)
    return value


# ---------------------------------------------------------------------------
# Clayton internals.  S = u1^-theta + u2^-theta - 1 is kept in log space, from
# a = -theta log u1 and b = -theta log u2, so small quantiles with large
# theta cannot overflow.

def _clayton_log_s(a, b):
    m = np.maximum(a, b)
    return m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))


def _clayton_cdf(theta, u1, u2):
    return np.exp(-_clayton_log_s(-theta * np.log(u1), -theta * np.log(u2)) / theta)


# ---------------------------------------------------------------------------
# Frank internals.  With A = expm1(-theta u1), B = expm1(-theta u2) and
# D = expm1(-theta), the CDF is -log1p(A B / D) / theta.  D + A B suffers
# catastrophic cancellation for large theta, so it is evaluated through the
# factored form
#   D + A B = exp(-theta lo) * (exp(-theta (hi-lo)) * expm1(-theta lo)
#                               + expm1(-theta (1-lo)))
# with lo = min(u1, u2), hi = max(u1, u2), whose bracket has one sign.

def _frank_log_neg_dab(theta, u1, u2, a, b):
    """log(-(D + A B)) from ``a`` = A and ``b`` = B; the lower quantile's
    expm1(-theta lo) is picked from them, not recomputed."""
    lo = np.minimum(u1, u2)
    hi = np.maximum(u1, u2)
    expm1_lo = np.where(u1 <= u2, a, b)
    bracket = np.exp(-theta * (hi - lo)) * (-expm1_lo) + (
        -np.expm1(-theta * (1.0 - lo))
    )
    return -theta * lo + np.log(bracket)


# ---------------------------------------------------------------------------
# The log-partial kernel.  Each family computes the pieces its value and its
# derivatives share once.


def _clayton_log_partial(theta, u1, u2, want_grad):
    lu1 = np.log(u1)
    lu2 = np.log(u2)
    # -theta log u1, -theta log u2 and -(theta + 1) log u1, each formed once;
    # x + (-y) is x - y exactly, so the shared terms change no value
    a = -theta * lu1
    b = -theta * lu2
    c1 = -(theta + 1.0) * lu1
    log_s = _clayton_log_s(a, b)
    value = -(1.0 + theta) / theta * log_s + c1
    if not want_grad:
        return value, None
    r1 = np.exp(c1 - log_s)  # u1^-(theta+1) / S
    r2 = np.exp(-(theta + 1.0) * lu2 - log_s)
    d_u1 = (1.0 + theta) * r1 - (theta + 1.0) / u1
    d_u2 = (1.0 + theta) * r2
    ds_dtheta_over_s = -(np.exp(a - log_s) * lu1 + np.exp(b - log_s) * lu2)
    d_theta = log_s / theta**2 - (1.0 + theta) / theta * ds_dtheta_over_s - lu1
    return value, (d_u1, d_u2, {"theta": d_theta})


def _frank_log_partial(theta, u1, u2, want_grad):
    # dC/du1 = exp(-theta u1) * B / (D + A B); both factors are negative.
    # -theta u1, -theta u2, A and B, each formed once
    neg_tu1 = -theta * u1
    neg_tu2 = -theta * u2
    expm1_a = np.expm1(neg_tu1)
    expm1_b = np.expm1(neg_tu2)
    log_neg_b = np.log(-expm1_b)
    log_neg_n = _frank_log_neg_dab(theta, u1, u2, expm1_a, expm1_b)
    value = neg_tu1 + log_neg_b - log_neg_n
    if not want_grad:
        return value, None
    log_neg_a = np.log(-expm1_a)
    p = np.exp(value)  # dC/du1
    q = np.exp(neg_tu2 + log_neg_a - log_neg_n)  # dC/du2
    inv_neg_b = np.exp(-log_neg_b)  # 1 / (1 - e^{-theta u2})
    d_u1 = theta * (p - 1.0)
    d_u2 = theta * (q - 1.0 + inv_neg_b)
    # dN/dtheta / N  with N = D + A B
    dn_over_n = np.exp(-theta - log_neg_n) - u1 * p - u2 * q
    d_theta = -u1 - u2 * (1.0 - inv_neg_b) - dn_over_n
    return value, (d_u1, d_u2, {"theta": d_theta})


def _mixture_log_partial(spec, u1, u2, want_grad):
    # blended in log space, so a partial below exp's underflow still counts;
    # at kappa 0 or 1, log(0) = -inf leaves the other component exactly
    log_pf, frank = _frank_log_partial(spec.theta_frank, u1, u2, want_grad)
    log_pc, clayton = _clayton_log_partial(spec.theta_clayton, u1, u2, want_grad)
    with np.errstate(divide="ignore"):
        log_wf = np.log(spec.kappa) + log_pf
        log_wc = np.log1p(-spec.kappa) + log_pc
    value = np.logaddexp(log_wf, log_wc)
    if not want_grad:
        return value, None
    # each component's share of the blend, and d/dkappa = (pf - pc) / mix
    share_f = np.exp(log_wf - value)
    share_c = np.exp(log_wc - value)
    ratio_f = np.exp(np.minimum(log_pf - value, _LOG_KAPPA_RATIO_CAP))
    ratio_c = np.exp(np.minimum(log_pc - value, _LOG_KAPPA_RATIO_CAP))
    f1, f2, f_par = frank
    c1, c2, c_par = clayton
    grads = {
        "theta_frank": share_f * f_par["theta"],
        "theta_clayton": share_c * c_par["theta"],
        "kappa": ratio_f - ratio_c,
    }
    return value, (share_f * f1 + share_c * c1, share_f * f2 + share_c * c2, grads)


def log_partial(spec: CopulaSpec, c1: np.ndarray, c2: np.ndarray, want_grad: bool = False):
    """(log dC/du1, (d/du1, d/du2, {param: d/dparam}) if ``want_grad`` else
    None) at quantiles the caller has clamped; they are not validated.

    ``spec`` may also be any object with a ``family`` and that family's
    parameters as (k, 1) columns: with (k, n) quantiles the value is then
    that of k parameter points, each row bit for bit its point's own."""
    fam = spec.family
    if fam is Family.INDEPENDENCE:
        return np.log(c2), ((np.zeros_like(c1), 1.0 / c2, {}) if want_grad else None)
    if fam is Family.CLAYTON:
        return _clayton_log_partial(spec.theta, c1, c2, want_grad)
    if fam is Family.FRANK:
        return _frank_log_partial(spec.theta, c1, c2, want_grad)
    return _mixture_log_partial(spec, c1, c2, want_grad)


# ---------------------------------------------------------------------------
# Public evaluators.


def _clamped_pair(u1, u2):
    a1 = clamp_quantile(_as_unit_array(u1, "u1"))
    a2 = clamp_quantile(_as_unit_array(u2, "u2"))
    return np.broadcast_arrays(a1, a2)


def log_partial_u1(spec: CopulaSpec, u1: ArrayLike, u2: ArrayLike) -> ArrayLike:
    """log dC/du1 on clamped interior quantiles (likelihood building block)."""
    value, _ = log_partial(spec, *_clamped_pair(u1, u2))
    return _maybe_scalar(value, np.asarray(u1), np.asarray(u2))


def log_partial_u2(spec: CopulaSpec, u1: ArrayLike, u2: ArrayLike) -> ArrayLike:
    return log_partial_u1(spec, u2, u1)


def grad_log_partial_u1(spec: CopulaSpec, u1, u2):
    """Returns (d/du1, d/du2, {param: d/dparam}) of log dC/du1.

    Quantiles are clamped exactly as in :func:`log_partial_u1`, so the two
    functions are consistent for finite differencing.
    """
    return log_partial(spec, *_clamped_pair(u1, u2), want_grad=True)[1]


def grad_log_partial_u2(spec: CopulaSpec, u1, u2):
    """Gradient of log dC/du2, built from the swapped first partial."""
    d_swapped_1, d_swapped_2, dparams = grad_log_partial_u1(spec, u2, u1)
    return d_swapped_2, d_swapped_1, dparams


# ---------------------------------------------------------------------------
# Conditional inversion and sampling.


def _clayton_conditional_quantile(theta, u1, v):
    # u2 = (1 + u1^-theta (v^{-theta/(1+theta)} - 1))^{-1/theta}
    with np.errstate(divide="ignore"):
        s = -theta / (1.0 + theta) * np.log(v)  # +inf at v = 0
        log_w = np.where(s > 0.0, s + np.log(-np.expm1(-np.minimum(s, 745.0))), -np.inf)
        z = -theta * np.log(u1) + log_w
    return np.exp(-np.logaddexp(0.0, z) / theta)


def _frank_conditional_quantile(theta, u1, v):
    with np.errstate(divide="ignore"):
        log_v = np.log(v)
        log_1mv = np.log1p(-v)
    upper = np.logaddexp(-theta * u1 + log_1mv, -theta + log_v)
    lower = np.logaddexp(-theta * u1 + log_1mv, log_v)
    return (lower - upper) / theta


def conditional_sample(spec: CopulaSpec, u1: ArrayLike, rng: np.random.Generator) -> ArrayLike:
    """Draws u2 from the conditional law of U2 given U1 = u1, for u1 in (0, 1).

    Each draw takes one uniform v and returns the closed-form conditional
    quantile at v.  A mixture draw then takes one more uniform per row and is a
    Frank draw when it falls below kappa, a Clayton draw otherwise: the
    mixture's conditional CDF is the same convex combination of its components'.
    """
    a1 = np.asarray(u1, dtype=float)
    if not np.all((a1 > 0.0) & (a1 < 1.0)):
        raise DomainError("u1 must lie in (0, 1) for conditional sampling")
    v = clamp_quantile(rng.uniform(size=a1.shape))
    fam = spec.family
    if fam is Family.INDEPENDENCE:
        out = v
    elif fam is Family.CLAYTON:
        out = _clayton_conditional_quantile(spec.theta, a1, v)
    elif fam is Family.FRANK:
        out = _frank_conditional_quantile(spec.theta, a1, v)
    else:
        frank = rng.uniform(size=a1.shape) < spec.kappa
        out = np.empty(a1.shape)
        out[frank] = _frank_conditional_quantile(spec.theta_frank, a1[frank], v[frank])
        out[~frank] = _clayton_conditional_quantile(spec.theta_clayton, a1[~frank], v[~frank])
    return _maybe_scalar(out, a1)


def sample_pairs(spec: CopulaSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draws n dependent quantile pairs; returns an (n, 2) array."""
    if n <= 0:
        raise DomainError(f"sample count must be positive, got {n}")
    u1 = clamp_quantile(rng.uniform(size=n))
    u2 = conditional_sample(spec, u1, rng)
    return np.column_stack([u1, np.asarray(u2)])


# ---------------------------------------------------------------------------
# Kendall's tau.


def _unit_gauss_legendre(n: int):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [0, 1]."""
    x, wt = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * wt  # from [-1, 1] to [0, 1]


_TAU_RULE = _unit_gauss_legendre(_TAU_QUAD_NODES)


def _debye1(theta: float) -> float:
    """D1(theta) = (1 / theta) * integral of t / (e^t - 1) over [0, theta]."""
    x, wt = _TAU_RULE
    span = min(theta, _DEBYE_CUT)
    t = span * x  # the nodes are interior, so t > 0
    return span * float(wt @ (t / np.expm1(t))) / theta


def _frank_tau(theta: float) -> float:
    if theta < _FRANK_TAU_SERIES_CUT:
        # the series' next term, -theta^7 / 2721600, is under 1e-16 of tau here
        return theta / 9.0 - theta**3 / 900.0 + theta**5 / 52920.0
    return 1.0 - 4.0 / theta * (1.0 - _debye1(theta))


def theta_to_tau(spec: CopulaSpec) -> float:
    """Kendall's tau implied by the copula parameters, for every family.

    Clayton uses tau = theta / (theta + 2); Frank integrates the first Debye
    function by the Gauss-Legendre rule.  The mixture has no closed form;
    :func:`mixture_tau_monte_carlo` integrates it.
    """
    fam = spec.family
    if fam is Family.INDEPENDENCE:
        return 0.0
    if fam is Family.CLAYTON:
        return spec.theta / (spec.theta + 2.0)
    if fam is Family.FRANK:
        return _frank_tau(spec.theta)
    return mixture_tau_monte_carlo(spec)


def tau_to_theta(family, tau: float) -> float:
    """Dependence parameter reproducing Kendall's tau for a single family."""
    fam = coerce_family(family)
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must lie in (0, 1), got {tau}")
    if fam is Family.CLAYTON:
        return 2.0 * tau / (1.0 - tau)
    if fam is Family.FRANK:
        if tau > _frank_tau(THETA_HI_FRANK):
            raise DomainError(f"tau {tau} exceeds the supported Frank range")
        lo, hi = THETA_LO, THETA_HI_FRANK
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            if _frank_tau(mid) < tau:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    raise DomainError(f"tau_to_theta supports clayton and frank, not {fam.value}")


def mixture_tau_monte_carlo(spec: CopulaSpec) -> float:
    """Kendall's tau of the Frank/Clayton mixture, by quadrature.

    The name is kept for its callers; no sampling is involved.  With
    C = kappa F + (1 - kappa) G, tau = 4 E_C[C(U, V)] - 1 expands to

        kappa^2 tau_F + (1 - kappa)^2 tau_G + 2 kappa (1 - kappa) (4 E_F[G] - 1),

    because the concordance function 4 E_F[G] - 1 is symmetric in F and G
    (Nelsen, An Introduction to Copulas, 2006, Theorem 5.1.1).  (U, V) ~ F
    is V = q_F(U, W) for independent uniform U and W, so E_F[G] is the
    integral of G(u, q_F(u, w)) over the unit square, taken with the
    ``_TAU_QUAD_NODES``-point Gauss-Legendre rule per axis (error about 1e-6).
    """
    if spec.family is not Family.MIXTURE:
        raise DomainError(f"mixture_tau_monte_carlo needs a mixture, not {spec.family.value}")
    kappa, tf, tc = spec.kappa, spec.theta_frank, spec.theta_clayton
    x, wt = _TAU_RULE
    u, w = np.meshgrid(x, x, indexing="ij")
    q_f = clamp_quantile(_frank_conditional_quantile(tf, u, w))
    e_f_of_g = wt @ _clayton_cdf(tc, u, q_f) @ wt
    tau_f, tau_c = _frank_tau(tf), tc / (tc + 2.0)
    return float(kappa**2 * tau_f + (1.0 - kappa) ** 2 * tau_c
                 + 2.0 * kappa * (1.0 - kappa) * (4.0 * e_f_of_g - 1.0))


def spec_from_tau(family, tau: float, kappa: float = 0.5) -> CopulaSpec:
    """Builds a spec whose Kendall's tau is (approximately) ``tau``.

    tau = 0 maps to the Independence family.  For the mixture, both
    components are placed at ``tau`` and mixed with weight ``kappa``.
    """
    fam = coerce_family(family)
    if tau == 0.0:
        return CopulaSpec(Family.INDEPENDENCE)
    if fam is Family.INDEPENDENCE:
        raise DomainError("independence family only admits tau = 0")
    if fam is Family.MIXTURE:
        return CopulaSpec(Family.MIXTURE, theta_frank=tau_to_theta(Family.FRANK, tau),
                          theta_clayton=tau_to_theta(Family.CLAYTON, tau), kappa=float(kappa))
    return CopulaSpec(fam, theta=tau_to_theta(fam, tau))
