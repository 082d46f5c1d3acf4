"""Bivariate Archimedean copulas on survival quantiles.

Implements the Independence, Clayton, and Frank families together with a
convex Frank/Clayton mixture, restricted throughout to positive dependence
(theta > 0).  Provided operations: the log of both first partial
derivatives and its gradient (the likelihood's building block), conditional
inversion and sampling, and Kendall's tau conversions in both directions.

Numerics: quantiles entering logs or negative powers are clamped into
``[U_EPS, 1 - U_EPS]``.  Frank evaluation is arranged around
``expm1``/``logaddexp`` so that theta up to 500 neither overflows nor
cancels.

One kernel, :func:`log_partial`, gives log dC/du1 and its derivatives on
clamped quantiles; ``log_partial_u1``/``_u2`` and ``grad_log_partial_u1``/
``_u2`` validate and clamp their arguments, then call it.

Sampling inverts the conditional CDF in closed form for Independence,
Clayton and Frank.  The mixture has no closed-form inverse; each of its
draws first chooses a component, then inverts that component's conditional
CDF (Nelsen, An Introduction to Copulas, 2006, §2.9).

Kendall's tau is deterministic for every family, and :func:`theta_to_tau`
gives it for all four.  Clayton and Frank have closed forms; the mixture's
tau = 4 E[C(U, V)] - 1 splits into the two components' taus plus a cross
expectation, a two-dimensional Gauss-Legendre integral over Frank's
closed-form conditional quantile (:func:`mixture_tau_monte_carlo`, a name
kept from the Monte Carlo estimator it replaced).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np
from scipy import integrate

from .errors import DomainError, ParameterDomainError

ArrayLike = Union[float, np.ndarray]

# Clamp applied to quantiles before logs / negative powers.
U_EPS = 1e-12

# Frank theta range supported by tau_to_theta root finding.
THETA_LO = 1e-6
THETA_HI_FRANK = 500.0

# Gauss-Legendre nodes per axis of the mixture tau quadrature; 128 and 1,024
# agree within 2.3e-6 in tau for theta_frank up to 500 and theta_clayton up to 200
_TAU_QUAD_NODES = 128

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


def _coerce_family(family) -> Family:
    if isinstance(family, Family):
        return family
    try:
        return Family(str(family).lower())
    except ValueError:
        raise ParameterDomainError(f"unknown copula family: {family!r}") from None


@dataclass(frozen=True)
class CopulaSpec:
    """A copula family plus its dependence parameters.

    ``theta`` is used by Clayton and Frank; the mixture instead carries
    ``theta_frank``, ``theta_clayton`` and the Frank mixing weight ``kappa``.
    Unused fields stay ``None``.
    """

    family: Family
    theta: Optional[float] = None
    theta_frank: Optional[float] = None
    theta_clayton: Optional[float] = None
    kappa: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "family", _coerce_family(self.family))
        fam = self.family
        if fam in (Family.CLAYTON, Family.FRANK):
            if self.theta is None or not math.isfinite(self.theta) or self.theta <= 0:
                raise ParameterDomainError(
                    f"{fam.value} copula requires theta > 0, got {self.theta}"
                )
            if fam is Family.FRANK and self.theta > THETA_HI_FRANK:
                raise ParameterDomainError(
                    f"frank theta capped at {THETA_HI_FRANK}, got {self.theta}"
                )
        elif fam is Family.INDEPENDENCE:
            if self.theta is not None:
                raise ParameterDomainError("independence copula takes no theta")
        else:
            for name in ("theta_frank", "theta_clayton"):
                val = getattr(self, name)
                if val is None or not math.isfinite(val) or val <= 0:
                    raise ParameterDomainError(f"mixture requires {name} > 0, got {val}")
            if self.theta_frank > THETA_HI_FRANK:
                raise ParameterDomainError(
                    f"frank theta capped at {THETA_HI_FRANK}, got {self.theta_frank}"
                )
            if self.kappa is None or not (0.0 <= self.kappa <= 1.0):
                raise ParameterDomainError(
                    f"mixture requires kappa in [0, 1], got {self.kappa}"
                )

    @classmethod
    def independence(cls) -> "CopulaSpec":
        return cls(Family.INDEPENDENCE)

    @classmethod
    def clayton(cls, theta: float) -> "CopulaSpec":
        return cls(Family.CLAYTON, theta=float(theta))

    @classmethod
    def frank(cls, theta: float) -> "CopulaSpec":
        return cls(Family.FRANK, theta=float(theta))

    @classmethod
    def mixture(cls, theta_frank: float, theta_clayton: float, kappa: float) -> "CopulaSpec":
        return cls(
            Family.MIXTURE,
            theta_frank=float(theta_frank),
            theta_clayton=float(theta_clayton),
            kappa=float(kappa),
        )

    def to_dict(self) -> dict:
        out = {"family": self.family.value}
        if self.family in (Family.CLAYTON, Family.FRANK):
            out["theta"] = float(self.theta)
        elif self.family is Family.MIXTURE:
            out["theta_frank"] = float(self.theta_frank)
            out["theta_clayton"] = float(self.theta_clayton)
            out["kappa"] = float(self.kappa)
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "CopulaSpec":
        fam = _coerce_family(doc["family"])
        if fam is Family.INDEPENDENCE:
            return cls.independence()
        if fam is Family.MIXTURE:
            return cls.mixture(doc["theta_frank"], doc["theta_clayton"], doc["kappa"])
        return cls(fam, theta=float(doc["theta"]))


def _as_unit_array(u, name: str) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


def _clamp(u: np.ndarray) -> np.ndarray:
    return np.clip(u, U_EPS, 1.0 - U_EPS)


def _maybe_scalar(value: np.ndarray, *inputs) -> ArrayLike:
    if all(np.ndim(x) == 0 for x in inputs):
        return float(value)
    return value


# ---------------------------------------------------------------------------
# Clayton internals.  S = u1^-theta + u2^-theta - 1 is kept in log space so
# small quantiles with large theta cannot overflow.

def _clayton_log_s(theta, u1, u2):
    a = -theta * np.log(u1)
    b = -theta * np.log(u2)
    m = np.maximum(a, b)
    return m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))


def _clayton_cdf(theta, u1, u2):
    return np.exp(-_clayton_log_s(theta, u1, u2) / theta)


# ---------------------------------------------------------------------------
# Frank internals.  With A = expm1(-theta u1), B = expm1(-theta u2) and
# D = expm1(-theta), the CDF is -log1p(A B / D) / theta.  D + A B suffers
# catastrophic cancellation for large theta, so it is evaluated through the
# factored form
#   D + A B = exp(-theta lo) * (exp(-theta (hi-lo)) * expm1(-theta lo)
#                               + expm1(-theta (1-lo)))
# with lo = min(u1, u2), hi = max(u1, u2), whose bracket has one sign.

def _frank_log_neg_dab(theta, u1, u2):
    lo = np.minimum(u1, u2)
    hi = np.maximum(u1, u2)
    bracket = np.exp(-theta * (hi - lo)) * (-np.expm1(-theta * lo)) + (
        -np.expm1(-theta * (1.0 - lo))
    )
    return -theta * lo + np.log(bracket)


# ---------------------------------------------------------------------------
# The log-partial kernel.  Each family computes the pieces its value and its
# derivatives share once.


def _clayton_log_partial(theta, u1, u2, want_grad):
    log_s = _clayton_log_s(theta, u1, u2)
    lu1 = np.log(u1)
    value = -(1.0 + theta) / theta * log_s - (theta + 1.0) * lu1
    if not want_grad:
        return value, None
    lu2 = np.log(u2)
    r1 = np.exp(-(theta + 1.0) * lu1 - log_s)  # u1^-(theta+1) / S
    r2 = np.exp(-(theta + 1.0) * lu2 - log_s)
    d_u1 = (1.0 + theta) * r1 - (theta + 1.0) / u1
    d_u2 = (1.0 + theta) * r2
    ds_dtheta_over_s = -(np.exp(-theta * lu1 - log_s) * lu1 + np.exp(-theta * lu2 - log_s) * lu2)
    d_theta = log_s / theta**2 - (1.0 + theta) / theta * ds_dtheta_over_s - lu1
    return value, (d_u1, d_u2, {"theta": d_theta})


def _frank_log_partial(theta, u1, u2, want_grad):
    # dC/du1 = exp(-theta u1) * B / (D + A B); both factors are negative.
    log_neg_b = np.log(-np.expm1(-theta * u2))
    log_neg_n = _frank_log_neg_dab(theta, u1, u2)
    value = -theta * u1 + log_neg_b - log_neg_n
    if not want_grad:
        return value, None
    log_neg_a = np.log(-np.expm1(-theta * u1))
    p = np.exp(value)  # dC/du1
    q = np.exp(-theta * u2 + log_neg_a - log_neg_n)  # dC/du2
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
    None) at quantiles the caller has clamped; they are not validated."""
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
    a1 = _clamp(_as_unit_array(u1, "u1"))
    a2 = _clamp(_as_unit_array(u2, "u2"))
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


def conditional_quantile(spec: CopulaSpec, u1: ArrayLike, v: ArrayLike) -> ArrayLike:
    """Solves dC/du1(u1, u2) = v for u2, in closed form.

    Independence, Clayton and Frank only: the mixture has no closed-form
    inverse, and :func:`conditional_sample` draws it by component selection.
    """
    a1 = np.asarray(u1, dtype=float)
    if np.any(a1 <= 0.0) or np.any(a1 >= 1.0):
        raise DomainError("u1 must lie in (0, 1) for conditional inversion")
    av = _as_unit_array(v, "v")
    a1, av = np.broadcast_arrays(a1, av)
    fam = spec.family
    if fam is Family.INDEPENDENCE:
        out = av.copy()
    elif fam is Family.CLAYTON:
        out = _clayton_conditional_quantile(spec.theta, a1, av)
    elif fam is Family.FRANK:
        out = _frank_conditional_quantile(spec.theta, a1, av)
    else:
        raise DomainError("the mixture has no closed-form conditional quantile")
    return _maybe_scalar(out, np.asarray(u1), np.asarray(v))


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
    """Draws u2 from the conditional law of U2 given U1 = u1.

    Each draw takes one uniform v and returns the conditional quantile at v.
    A mixture draw then takes one more uniform per row and is a Frank draw
    when it falls below kappa, a Clayton draw otherwise: the mixture's
    conditional CDF is the same convex combination of its components'.
    """
    a1 = np.asarray(u1, dtype=float)
    v = np.clip(rng.uniform(size=a1.shape), U_EPS, 1.0 - U_EPS)
    if spec.family is not Family.MIXTURE:
        return conditional_quantile(spec, u1, v)
    frank = rng.uniform(size=a1.shape) < spec.kappa
    out = np.empty(a1.shape)
    out[frank] = conditional_quantile(CopulaSpec.frank(spec.theta_frank), a1[frank], v[frank])
    out[~frank] = conditional_quantile(
        CopulaSpec.clayton(spec.theta_clayton), a1[~frank], v[~frank])
    return _maybe_scalar(out, a1)


def sample_pairs(spec: CopulaSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draws n dependent quantile pairs; returns an (n, 2) array."""
    if n <= 0:
        raise DomainError(f"sample count must be positive, got {n}")
    u1 = np.clip(rng.uniform(size=n), U_EPS, 1.0 - U_EPS)
    u2 = conditional_sample(spec, u1, rng)
    return np.column_stack([u1, np.asarray(u2)])


# ---------------------------------------------------------------------------
# Kendall's tau.


def _debye1(theta: float) -> float:
    def integrand(t):
        return t / math.expm1(t) if t > 0.0 else 1.0

    value, _ = integrate.quad(integrand, 0.0, theta, epsabs=1e-10, limit=200)
    return value / theta


def _frank_tau(theta: float) -> float:
    return 1.0 - 4.0 / theta * (1.0 - _debye1(theta))


def theta_to_tau(spec: CopulaSpec) -> float:
    """Kendall's tau implied by the copula parameters, for every family.

    Clayton uses tau = theta / (theta + 2); Frank integrates the first Debye
    function.  The mixture has no closed form; :func:`mixture_tau_monte_carlo`
    integrates it.
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
    fam = _coerce_family(family)
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
    integral of G(u, q_F(u, w)) over the unit square, taken with
    ``_TAU_QUAD_NODES``-point Gauss-Legendre rules per axis (error about 1e-6).
    """
    if spec.family is not Family.MIXTURE:
        raise DomainError(f"mixture_tau_monte_carlo needs a mixture, not {spec.family.value}")
    kappa, tf, tc = spec.kappa, spec.theta_frank, spec.theta_clayton
    x, wt = np.polynomial.legendre.leggauss(_TAU_QUAD_NODES)
    x, wt = 0.5 * (x + 1.0), 0.5 * wt  # from [-1, 1] to [0, 1]
    u, w = np.meshgrid(x, x, indexing="ij")
    e_f_of_g = wt @ _clayton_cdf(tc, u, _clamp(_frank_conditional_quantile(tf, u, w))) @ wt
    tau_f, tau_c = _frank_tau(tf), tc / (tc + 2.0)
    return float(kappa**2 * tau_f + (1.0 - kappa) ** 2 * tau_c
                 + 2.0 * kappa * (1.0 - kappa) * (4.0 * e_f_of_g - 1.0))


def spec_from_tau(family, tau: float, kappa: float = 0.5) -> CopulaSpec:
    """Builds a spec whose Kendall's tau is (approximately) ``tau``.

    tau = 0 maps to the Independence family.  For the mixture, both
    components are placed at ``tau`` and mixed with weight ``kappa``.
    """
    fam = _coerce_family(family)
    if tau == 0.0:
        return CopulaSpec.independence()
    if fam is Family.INDEPENDENCE:
        raise DomainError("independence family only admits tau = 0")
    if fam is Family.MIXTURE:
        return CopulaSpec.mixture(
            tau_to_theta(Family.FRANK, tau), tau_to_theta(Family.CLAYTON, tau), kappa
        )
    return CopulaSpec(fam, theta=tau_to_theta(fam, tau))
