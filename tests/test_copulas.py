"""Copula layer: axioms, frozen hand values, derivative oracles, sampling.

The package needs only log dC/du1 and closed-form conditional inverses.
The joint CDF, its first partials and a bisection inverse live here, as
the oracles those are checked against.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from copsurv import copulas
from copsurv.copulas import (
    CopulaSpec,
    Family,
    conditional_quantile,
    conditional_sample,
    grad_log_partial_u1,
    grad_log_partial_u2,
    log_partial_u1,
    log_partial_u2,
    mixture_tau_monte_carlo,
    sample_pairs,
    spec_from_tau,
    tau_to_theta,
    theta_to_tau,
)
from copsurv.errors import DomainError, ParameterDomainError

# Frozen oracle values, computed from the closed-form definitions typed out
# by hand (see the formulas in each assertion's comment).
CLAYTON_CDF_03_07_T2 = 0.2868649025057026
CLAYTON_DU1_03_07_T2 = 0.8743161176077271
FRANK_CDF_03_07_T2 = 0.24972133337304847
FRANK_DU1_03_07_T2 = 0.7879671882183831
FRANK_THETA_TAU_HALF = 5.736282709128691

# conditional_quantile_bisect stops at this bracket width or iteration count
_BISECT_TOL = 1e-10
_BISECT_MAX_ITER = 200


# ---------------------------------------------------------------------------
# Oracles


def _frank_cdf(theta, u1, u2):
    # -log1p(A B / D) / theta, with D + A B in the package's cancellation-free form
    log_neg_d = np.log(-np.expm1(-theta))
    return (log_neg_d - copulas._frank_log_neg_dab(theta, u1, u2)) / theta


def copula_cdf(spec, u1, u2):
    """Joint CDF C(u1, u2).

    Boundary arguments are resolved exactly: C(0, u) = C(u, 0) = 0,
    C(u, 1) = u and C(1, u) = u.
    """
    a1 = copulas._as_unit_array(u1, "u1")
    a2 = copulas._as_unit_array(u2, "u2")
    a1, a2 = np.broadcast_arrays(a1, a2)
    c1, c2 = copulas._clamp(a1), copulas._clamp(a2)

    fam = spec.family
    if fam is Family.INDEPENDENCE:
        interior = c1 * c2
    elif fam is Family.CLAYTON:
        interior = copulas._clayton_cdf(spec.theta, c1, c2)
    elif fam is Family.FRANK:
        interior = _frank_cdf(spec.theta, c1, c2)
    else:
        interior = spec.kappa * _frank_cdf(spec.theta_frank, c1, c2) + (
            1.0 - spec.kappa
        ) * copulas._clayton_cdf(spec.theta_clayton, c1, c2)

    out = np.where(a1 == 1.0, a2, np.where(a2 == 1.0, a1, interior))
    out = np.where((a1 == 0.0) | (a2 == 0.0), 0.0, out)
    return copulas._maybe_scalar(out, np.asarray(u1), np.asarray(u2))


def _partial_u1_impl(spec, u1, u2):
    a1 = copulas._as_unit_array(u1, "u1")
    a2 = copulas._as_unit_array(u2, "u2")
    if spec.family in (Family.CLAYTON, Family.MIXTURE) and np.any(a1 == 0.0):
        raise DomainError(f"{spec.family.value} partial derivative undefined at u1 = 0")
    a1, a2 = np.broadcast_arrays(a1, a2)
    interior = np.exp(copulas.log_partial(spec, copulas._clamp(a1), copulas._clamp(a2))[0])
    return np.where(a2 == 1.0, 1.0, np.where(a2 == 0.0, 0.0, interior))


def copula_partial_u1(spec, u1, u2):
    """dC/du1, i.e. the conditional CDF of U2 given U1 = u1."""
    out = _partial_u1_impl(spec, u1, u2)
    return copulas._maybe_scalar(out, np.asarray(u1), np.asarray(u2))


def copula_partial_u2(spec, u1, u2):
    """dC/du2, by exchangeability the u1-swapped first partial."""
    out = _partial_u1_impl(spec, u2, u1)
    return copulas._maybe_scalar(out, np.asarray(u1), np.asarray(u2))


def conditional_quantile_bisect(spec, u1, v):
    """Generic monotone bisection solver for dC/du1(u1, u2) = v."""
    a1 = np.asarray(u1, dtype=float)
    av = np.asarray(v, dtype=float)
    a1, av = np.broadcast_arrays(a1, av)
    lo = np.zeros(a1.shape)
    hi = np.ones(a1.shape)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        too_low = _partial_u1_impl(spec, a1, mid) < av
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
        if np.max(hi - lo) <= _BISECT_TOL:
            break
    return 0.5 * (lo + hi)


def family_grid():
    specs = [CopulaSpec.independence()]
    for th in (0.5, 2.0, 8.0):
        specs.append(CopulaSpec.clayton(th))
        specs.append(CopulaSpec.frank(th))
    for kappa in (0.0, 0.5, 1.0):
        specs.append(CopulaSpec.mixture(2.0, 2.0, kappa))
    return specs


def spec_id(spec):
    if spec.family is Family.MIXTURE:
        return f"mixture_k{spec.kappa}"
    if spec.family is Family.INDEPENDENCE:
        return "independence"
    return f"{spec.family.value}_t{spec.theta}"


# ---------------------------------------------------------------------------
# Parameter domain


def test_spec_rejects_bad_parameters():
    with pytest.raises(ParameterDomainError):
        CopulaSpec.clayton(0.0)
    with pytest.raises(ParameterDomainError):
        CopulaSpec.clayton(-1.0)
    with pytest.raises(ParameterDomainError):
        CopulaSpec.frank(501.0)
    with pytest.raises(ParameterDomainError):
        CopulaSpec.mixture(1.0, 1.0, 1.5)
    with pytest.raises(ParameterDomainError):
        CopulaSpec.mixture(1.0, -1.0, 0.5)


def test_spec_serialization_roundtrip():
    for spec in family_grid():
        back = CopulaSpec.from_dict(spec.to_dict())
        assert back == spec


# ---------------------------------------------------------------------------
# CDF values and axioms


def test_clayton_hand_values():
    # C(u1,u2) = (u1^-t + u2^-t - 1)^(-1/t); at (0.5, 0.5), t=1: 1/3 exactly
    spec = CopulaSpec.clayton(1.0)
    assert copula_cdf(spec, 0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-14)
    spec = CopulaSpec.clayton(2.0)
    assert copula_cdf(spec, 0.5, 0.5) == pytest.approx(7.0**-0.5, abs=1e-14)
    assert copula_cdf(spec, 0.3, 0.7) == pytest.approx(CLAYTON_CDF_03_07_T2, abs=1e-14)


def test_frank_hand_values():
    spec = CopulaSpec.frank(2.0)
    assert copula_cdf(spec, 0.3, 0.7) == pytest.approx(FRANK_CDF_03_07_T2, abs=1e-14)
    # theta -> 0 limit approaches u1*u2
    tiny = CopulaSpec.frank(1e-6)
    assert copula_cdf(tiny, 0.3, 0.7) == pytest.approx(0.21, abs=1e-6)


def test_mixture_is_convex_combination():
    frank = CopulaSpec.frank(4.0)
    clay = CopulaSpec.clayton(2.0)
    mix = CopulaSpec.mixture(4.0, 2.0, 0.3)
    u1, u2 = 0.3, 0.7
    expect = 0.3 * copula_cdf(frank, u1, u2) + 0.7 * copula_cdf(clay, u1, u2)
    assert copula_cdf(mix, u1, u2) == pytest.approx(expect, abs=1e-14)


@pytest.mark.parametrize("spec", family_grid(), ids=spec_id)
def test_groundedness_and_uniform_margins(spec):
    u = np.linspace(0.0, 1.0, 101)
    zeros = np.zeros_like(u)
    ones = np.ones_like(u)
    assert np.max(np.abs(copula_cdf(spec, u, zeros))) <= 1e-12
    assert np.max(np.abs(copula_cdf(spec, zeros, u))) <= 1e-12
    assert np.max(np.abs(copula_cdf(spec, u, ones) - u)) <= 1e-12
    assert np.max(np.abs(copula_cdf(spec, ones, u) - u)) <= 1e-12


@pytest.mark.parametrize("spec", family_grid(), ids=spec_id)
def test_two_increasing(spec):
    rng = np.random.default_rng(7)
    a = rng.uniform(size=(10000, 2))
    b = rng.uniform(size=(10000, 2))
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    mass = (
        copula_cdf(spec, hi[:, 0], hi[:, 1])
        - copula_cdf(spec, hi[:, 0], lo[:, 1])
        - copula_cdf(spec, lo[:, 0], hi[:, 1])
        + copula_cdf(spec, lo[:, 0], lo[:, 1])
    )
    assert mass.min() >= -1e-12


def test_frank_extreme_theta_stable():
    spec = CopulaSpec.frank(500.0)
    u = np.linspace(0.01, 0.99, 99)
    c = copula_cdf(spec, u, u[::-1])
    assert np.all(np.isfinite(c))
    # Frechet bounds sandwich every copula
    assert np.all(c <= np.minimum(u, u[::-1]) + 1e-12)
    assert np.all(c >= np.maximum(u + u[::-1] - 1.0, 0.0) - 1e-12)
    p = copula_partial_u1(spec, u, u[::-1])
    assert np.all(np.isfinite(p)) and np.all(p >= 0.0) and np.all(p <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Partial derivatives


def test_partial_hand_values():
    # Clayton: dC/du1 = u1^(-t-1) * (u1^-t + u2^-t - 1)^(-(1+t)/t)
    assert copula_partial_u1(CopulaSpec.clayton(2.0), 0.3, 0.7) == pytest.approx(
        CLAYTON_DU1_03_07_T2, abs=1e-14
    )
    # Frank: dC/du1 = e^(-t u1) (e^(-t u2) - 1) / ((e^-t - 1) + (e^(-t u1)-1)(e^(-t u2)-1))
    assert copula_partial_u1(CopulaSpec.frank(2.0), 0.3, 0.7) == pytest.approx(
        FRANK_DU1_03_07_T2, abs=1e-14
    )
    # symmetric families: dC/du2 (u1, u2) = dC/du1 (u2, u1)
    for spec in (CopulaSpec.clayton(2.0), CopulaSpec.frank(2.0)):
        assert copula_partial_u2(spec, 0.3, 0.7) == pytest.approx(
            copula_partial_u1(spec, 0.7, 0.3), abs=1e-14
        )


def test_partial_integrates_back_to_cdf():
    # C(a, v) = integral_0^a dC/du1 (s, v) ds, an oracle independent of
    # finite differencing
    for spec in (CopulaSpec.clayton(2.0), CopulaSpec.frank(3.0), CopulaSpec.mixture(3.0, 2.0, 0.4)):
        for a, v in ((0.5, 0.5), (0.8, 0.3)):
            val, err = integrate.quad(
                lambda s: float(copula_partial_u1(spec, s, v)), 0.0, a, epsabs=1e-11
            )
            assert val == pytest.approx(float(copula_cdf(spec, a, v)), abs=1e-8)


def assert_partials_match_fd(spec, rel_tol=1e-5):
    """Central-difference oracle for both partials on a 20x20 interior grid.

    Where the derivative itself is smaller than the finite-difference
    resolution of the CDF (strong Clayton dependence pushes corners of the
    grid below 1e-8) the relative comparison is meaningless, so tiny values
    are held to an absolute bound instead.
    """
    grid = np.linspace(0.05, 0.95, 20)
    u1, u2 = np.meshgrid(grid, grid)
    u1, u2 = u1.ravel(), u2.ravel()
    h = 1e-6
    for fd, an in (
        ((copula_cdf(spec, u1 + h, u2) - copula_cdf(spec, u1 - h, u2)) / (2 * h),
         copula_partial_u1(spec, u1, u2)),
        ((copula_cdf(spec, u1, u2 + h) - copula_cdf(spec, u1, u2 - h)) / (2 * h),
         copula_partial_u2(spec, u1, u2)),
    ):
        resolvable = np.abs(fd) > 1e-5
        rel = np.abs(an - fd)[resolvable] / np.abs(fd)[resolvable]
        assert np.all(rel < rel_tol)
        assert np.all(np.abs(an - fd)[~resolvable] < 1e-8)


@pytest.mark.parametrize("spec", family_grid(), ids=spec_id)
def test_partials_match_finite_differences(spec):
    assert_partials_match_fd(spec)


def test_log_partial_matches_partial():
    rng = np.random.default_rng(11)
    u1 = rng.uniform(0.01, 0.99, size=200)
    u2 = rng.uniform(0.01, 0.99, size=200)
    for spec in (CopulaSpec.clayton(2.0), CopulaSpec.frank(5.0), CopulaSpec.mixture(2.0, 3.0, 0.6)):
        assert np.allclose(
            log_partial_u1(spec, u1, u2),
            np.log(copula_partial_u1(spec, u1, u2)),
            atol=1e-12,
        )


def _fd_param_grad(build, base, key, u1, u2, h=1e-6):
    hi = dict(base)
    lo = dict(base)
    hi[key] += h
    lo[key] -= h
    return (log_partial_u1(build(**hi), u1, u2) - log_partial_u1(build(**lo), u1, u2)) / (2 * h)


def test_grad_log_partial_matches_fd():
    rng = np.random.default_rng(3)
    u1 = rng.uniform(0.05, 0.95, size=50)
    u2 = rng.uniform(0.05, 0.95, size=50)
    h = 1e-6

    cases = [
        (CopulaSpec.clayton(2.0), lambda theta: CopulaSpec.clayton(theta), {"theta": 2.0}),
        (CopulaSpec.frank(4.0), lambda theta: CopulaSpec.frank(theta), {"theta": 4.0}),
        (
            CopulaSpec.mixture(4.0, 2.0, 0.4),
            lambda theta_frank, theta_clayton, kappa: CopulaSpec.mixture(
                theta_frank, theta_clayton, kappa
            ),
            {"theta_frank": 4.0, "theta_clayton": 2.0, "kappa": 0.4},
        ),
    ]
    for spec, build, params in cases:
        d_u1, d_u2, d_par = grad_log_partial_u1(spec, u1, u2)
        fd_u1 = (log_partial_u1(spec, u1 + h, u2) - log_partial_u1(spec, u1 - h, u2)) / (2 * h)
        fd_u2 = (log_partial_u1(spec, u1, u2 + h) - log_partial_u1(spec, u1, u2 - h)) / (2 * h)
        assert np.max(np.abs(d_u1 - fd_u1) / np.maximum(np.abs(fd_u1), 1.0)) < 1e-6
        assert np.max(np.abs(d_u2 - fd_u2) / np.maximum(np.abs(fd_u2), 1.0)) < 1e-6
        assert set(d_par) == set(params)
        for key in params:
            fd = _fd_param_grad(build, params, key, u1, u2)
            assert np.max(np.abs(d_par[key] - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-6

        # the u2-conditional gradients follow by symmetry of the families
        e_u1, e_u2, e_par = grad_log_partial_u2(spec, u1, u2)
        s_u2, s_u1, s_par = grad_log_partial_u1(spec, u2, u1)
        assert np.allclose(e_u1, s_u1, atol=1e-12)
        assert np.allclose(e_u2, s_u2, atol=1e-12)
        for key in params:
            assert np.allclose(e_par[key], s_par[key], atol=1e-12)


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_mixture_endpoints_equal_the_pure_family(kappa):
    # the first pair's Clayton(40) partial dC/du2 is exp(-757), below exp's
    # underflow, so a blend outside log space would score it -inf
    rng = np.random.default_rng(5)
    u1 = np.concatenate([[8.98e-11], rng.uniform(0.01, 0.99, size=40), 10 ** rng.uniform(-12, -1, 20)])
    u2 = np.concatenate([[0.00939], rng.uniform(0.01, 0.99, size=40), 10 ** rng.uniform(-12, -1, 20)])
    mix = CopulaSpec.mixture(400.0, 40.0, kappa)
    pure, key = (CopulaSpec.frank(400.0), "theta_frank") if kappa else (CopulaSpec.clayton(40.0), "theta_clayton")
    for value, grad in ((log_partial_u1, grad_log_partial_u1), (log_partial_u2, grad_log_partial_u2)):
        assert np.array_equal(value(mix, u1, u2), value(pure, u1, u2))
        m_u1, m_u2, m_par = grad(mix, u1, u2)
        p_u1, p_u2, p_par = grad(pure, u1, u2)
        assert np.array_equal(m_u1, p_u1)
        assert np.array_equal(m_u2, p_u2)
        assert np.array_equal(m_par[key], p_par["theta"])
    # every draw picks the component of weight 1
    assert np.array_equal(conditional_sample(mix, u1, np.random.default_rng(4)),
                          conditional_sample(pure, u1, np.random.default_rng(4)))


def test_mixture_kappa_gradient_stays_finite_at_kappa_zero():
    # Frank(400)'s partial dC/du2 at this record exceeds Clayton(40)'s by
    # exp(736), so the exact d/dkappa = pf / pc - 1 at kappa 0 passes exp's
    # range; it is capped at 1e100, with no overflow warning
    u1, u2 = np.array([8.98e-11]), np.array([0.00939])
    mix = CopulaSpec.mixture(400.0, 40.0, 0.0)
    with np.errstate(over="raise", invalid="raise"):
        _, (_, _, d_par) = copulas.log_partial(mix, u2, u1, want_grad=True)
        _, (_, _, d_swapped) = copulas.log_partial(mix, u1, u2, want_grad=True)
    assert d_par["kappa"][0] == pytest.approx(1e100, rel=1e-12)
    assert np.isfinite(d_swapped["kappa"]).all() and d_swapped["kappa"][0] < 0.0


# ---------------------------------------------------------------------------
# Conditional inversion and sampling


def test_conditional_quantile_matches_bisection():
    rng = np.random.default_rng(5)
    u1 = rng.uniform(0.02, 0.98, size=300)
    v = rng.uniform(0.02, 0.98, size=300)
    for spec in (CopulaSpec.clayton(0.5), CopulaSpec.clayton(8.0), CopulaSpec.frank(2.0), CopulaSpec.frank(8.0)):
        closed = conditional_quantile(spec, u1, v)
        brute = conditional_quantile_bisect(spec, u1, v)
        assert np.max(np.abs(closed - brute)) < 1e-8


def test_conditional_quantile_inverts_partial():
    rng = np.random.default_rng(6)
    u1 = rng.uniform(0.05, 0.95, size=200)
    v = rng.uniform(0.05, 0.95, size=200)
    for spec in (CopulaSpec.clayton(2.0), CopulaSpec.frank(5.0)):
        u2 = conditional_quantile(spec, u1, v)
        assert np.max(np.abs(copula_partial_u1(spec, u1, u2) - v)) < 1e-6
    # the mixture has no closed-form inverse; conditional_sample draws it
    with pytest.raises(DomainError):
        conditional_quantile(CopulaSpec.mixture(3.0, 2.0, 0.5), u1, v)


def test_conditional_quantile_boundaries_and_monotonicity():
    spec = CopulaSpec.clayton(2.0)
    assert conditional_quantile(spec, 0.4, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert conditional_quantile(spec, 0.4, 1.0) == pytest.approx(1.0, abs=1e-9)
    v = np.linspace(0.01, 0.99, 99)
    q = conditional_quantile(spec, np.full_like(v, 0.4), v)
    assert np.all(np.diff(q) > 0)


def test_clayton_theta8_lower_tail_clustering():
    # at strong dependence the conditional median hugs the conditioning value
    spec = CopulaSpec.clayton(8.0)
    med = float(conditional_quantile(spec, 0.1, 0.5))
    assert med == pytest.approx(0.102026037138505, abs=1e-9)
    assert 0.05 <= med <= 0.2


@pytest.mark.parametrize("family", ["clayton", "frank"])
@pytest.mark.parametrize("tau", [0.2, 0.5, 0.8])
def test_sampled_pairs_recover_tau(family, tau):
    spec = spec_from_tau(family, tau)
    rng = np.random.default_rng(42)
    u1, u2 = sample_pairs(spec, 50_000, rng).T
    emp = stats.kendalltau(u1, u2).statistic
    assert abs(emp - tau) < 0.02


def test_sampled_margins_uniform():
    spec = CopulaSpec.clayton(2.0)
    rng = np.random.default_rng(9)
    u1, u2 = sample_pairs(spec, 20_000, rng).T
    assert stats.kstest(u1, "uniform").pvalue > 0.01
    assert stats.kstest(u2, "uniform").pvalue > 0.01


def test_independence_sampling_uncorrelated():
    rng = np.random.default_rng(2)
    u1, u2 = sample_pairs(CopulaSpec.independence(), 20_000, rng).T
    assert abs(stats.kendalltau(u1, u2).statistic) < 0.02


def test_conditional_sample_deterministic():
    spec = CopulaSpec.frank(4.0)
    u1 = np.random.default_rng(0).uniform(size=500)
    a = conditional_sample(spec, u1, np.random.default_rng(123))
    b = conditional_sample(spec, u1, np.random.default_rng(123))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Kendall's tau


def test_clayton_tau_closed_form():
    # tau = theta / (theta + 2)
    assert theta_to_tau(CopulaSpec.clayton(2.0)) == pytest.approx(0.5, abs=1e-14)
    assert theta_to_tau(CopulaSpec.clayton(8.0)) == pytest.approx(0.8, abs=1e-14)
    assert tau_to_theta(Family.CLAYTON, 0.5) == pytest.approx(2.0, abs=1e-12)


def test_frank_tau_frozen_value():
    assert tau_to_theta(Family.FRANK, 0.5) == pytest.approx(FRANK_THETA_TAU_HALF, abs=1e-6)
    assert theta_to_tau(CopulaSpec.frank(FRANK_THETA_TAU_HALF)) == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("family", [Family.CLAYTON, Family.FRANK])
@pytest.mark.parametrize("tau", [0.05, 0.2, 0.5, 0.8, 0.95])
def test_tau_theta_roundtrip(family, tau):
    theta = tau_to_theta(family, tau)
    spec = CopulaSpec.clayton(theta) if family is Family.CLAYTON else CopulaSpec.frank(theta)
    assert theta_to_tau(spec) == pytest.approx(tau, abs=1e-6)


def test_mixture_tau_endpoints():
    # kappa = 1 is pure Frank, kappa = 0 pure Clayton; the cross term's
    # weight kappa (1 - kappa) vanishes there, leaving the closed forms
    for tf, tc in ((5.0, 3.0), (0.01, 200.0), (500.0, 0.001)):
        assert mixture_tau_monte_carlo(CopulaSpec.mixture(tf, tc, 1.0)) == pytest.approx(
            theta_to_tau(CopulaSpec.frank(tf)), abs=1e-12)
        assert mixture_tau_monte_carlo(CopulaSpec.mixture(tf, tc, 0.0)) == pytest.approx(
            theta_to_tau(CopulaSpec.clayton(tc)), abs=1e-12)
    # theta_to_tau is the one entry point: the mixture goes to the quadrature
    mix = CopulaSpec.mixture(5.0, 3.0, 0.5)
    assert theta_to_tau(mix) == mixture_tau_monte_carlo(mix)
    with pytest.raises(DomainError):
        mixture_tau_monte_carlo(CopulaSpec.frank(5.0))


def sampled_tau_standard_error(spec, u, v):
    """Standard error of Kendall's tau of the pairs (u, v) drawn from ``spec``.

    Hoeffding's projection for the U-statistic gives
    2 sd(4 C(U, V) - 2 U - 2 V + 1) / sqrt(n).
    """
    projection = 4.0 * copula_cdf(spec, u, v) - 2.0 * u - 2.0 * v + 1.0
    return 2.0 * projection.std() / np.sqrt(len(u))


MIXTURE_TAU_GRID = [(tf, tc, kappa) for tf in (0.01, 5.0, 38.0, 500.0)
                    for tc in (0.001, 2.0, 18.0, 200.0) for kappa in (0.3, 0.5, 0.7)]


@pytest.mark.parametrize("seed, theta_frank, theta_clayton, kappa",
                         [(seed, *case) for seed, case in enumerate(MIXTURE_TAU_GRID)])
def test_mixture_tau_matches_sampled_pairs(seed, theta_frank, theta_clayton, kappa, monkeypatch):
    spec = CopulaSpec.mixture(theta_frank, theta_clayton, kappa)
    tau = mixture_tau_monte_carlo(spec)
    u, v = sample_pairs(spec, 2_000_000, np.random.default_rng(seed)).T
    sampled = stats.kendalltau(u, v).statistic
    assert abs(tau - sampled) < 4.0 * sampled_tau_standard_error(spec, u, v)
    monkeypatch.setattr(copulas, "_TAU_QUAD_NODES", 512)
    assert tau == pytest.approx(mixture_tau_monte_carlo(spec), abs=2e-5)


def test_mixture_tau_is_deterministic():
    spec = CopulaSpec.mixture(5.0, 2.0, 0.5)
    first = mixture_tau_monte_carlo(spec)
    assert isinstance(first, float)
    assert all(mixture_tau_monte_carlo(spec) == first for _ in range(3))


def test_spec_from_tau():
    assert spec_from_tau("clayton", 0.0).family is Family.INDEPENDENCE
    spec = spec_from_tau("clayton", 0.6)
    assert spec.theta == pytest.approx(3.0, abs=1e-10)
    mix = spec_from_tau("mixture", 0.5, kappa=0.25)
    assert mix.kappa == 0.25
    assert mix.theta_clayton == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(DomainError):
        spec_from_tau("independence", 0.3)


# ---------------------------------------------------------------------------
# Property-based checks


@settings(max_examples=200, deadline=None)
@given(
    u1=st.floats(0.0, 1.0, allow_nan=False),
    u2=st.floats(0.0, 1.0, allow_nan=False),
    theta=st.floats(0.01, 50.0, allow_nan=False),
)
def test_cdf_frechet_bounds_property(u1, u2, theta):
    for spec in (CopulaSpec.clayton(theta), CopulaSpec.frank(theta)):
        c = float(copula_cdf(spec, u1, u2))
        assert max(u1 + u2 - 1.0, 0.0) - 1e-9 <= c <= min(u1, u2) + 1e-9


@settings(max_examples=200, deadline=None)
@given(
    u1=st.floats(1e-6, 1.0 - 1e-6, allow_nan=False),
    u2=st.floats(1e-6, 1.0 - 1e-6, allow_nan=False),
    theta=st.floats(0.01, 50.0, allow_nan=False),
)
def test_partial_is_probability_property(u1, u2, theta):
    for spec in (CopulaSpec.clayton(theta), CopulaSpec.frank(theta)):
        p = float(copula_partial_u1(spec, u1, u2))
        assert -1e-12 <= p <= 1.0 + 1e-12
