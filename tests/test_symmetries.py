"""Metamorphic tests: linear joint fits keep the model's symmetries.

- Time scale: multiplying every time by c moves both marginals' log rho by
  log c and leaves the shapes, the risk weights and the copula as they are.
- Role swap: exchanging the event and censoring roles (delta -> 1 - delta)
  exchanges the two fitted marginals and leaves the copula as it is, because
  every family here is exchangeable, C(u, v) = C(v, u).

Each relation holds up to solver tolerance, not exactly: the stopping test
is relative to the objective, which a time scale shifts by about n log c.
The tolerances are fixed from fits of these draws (linear risks, n 2,000,
tau* 0.5, seeds 0 and 1), where tau_hat moved by at most 9e-6, log rho by
at most 8.3e-6 beyond log c, the log shapes by at most 6e-6 and the
weights by at most 2.9e-5.
"""
import numpy as np
import pytest

from copsurv.copulas import spec_from_tau, theta_to_tau
from copsurv.data import SurvivalDataset
from copsurv.datagen import generate_synthetic, preset_linear_risk
from copsurv.training import TrainConfig, fit

FAMILIES = ("clayton", "frank", "mixture")
SEEDS = (0, 1)
# each seed's time scale, so that both directions are covered
SCALES = {0: 1e-3, 1: 1e3}
TAU_TOL = 1e-4
LOG_RHO_TOL = 1e-5  # a time scale's log rho shift
LOG_TOL = 1e-4  # every other log shape and log scale
WEIGHT_TOL = 1e-3
MARGINALS = ("event_model", "censor_model")


def fit_linear(data, family, seed):
    return fit(data, "linear", "linear", family, TrainConfig(seed=seed))


@pytest.fixture(scope="module")
def base_fits():
    """(draw, fit) of each family and seed, made on first use."""
    fits = {}

    def get(family, seed):
        if (family, seed) not in fits:
            copula = spec_from_tau(family, 0.5)
            data, _, _ = generate_synthetic(preset_linear_risk(seed, n=2000, copula=copula))
            fits[family, seed] = data, fit_linear(data, family, seed)
        return fits[family, seed]

    return get


def assert_same_marginal(got, want, log_rho_shift=0.0, log_rho_tol=LOG_TOL):
    assert abs(float(got.log_rho) - float(want.log_rho) - log_rho_shift) <= log_rho_tol
    assert abs(float(got.log_nu) - float(want.log_nu)) <= LOG_TOL
    assert np.max(np.abs(got.risk.weights - want.risk.weights)) <= WEIGHT_TOL


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_time_scale_moves_log_rho_by_log_c(base_fits, family, seed):
    data, base = base_fits(family, seed)
    c = SCALES[seed]
    scaled = fit_linear(SurvivalDataset(data.x, data.t_obs * c, data.delta), family, seed)
    for name in MARGINALS:
        assert_same_marginal(getattr(scaled, name), getattr(base, name), np.log(c), LOG_RHO_TOL)
    assert abs(theta_to_tau(scaled.copula) - theta_to_tau(base.copula)) <= TAU_TOL


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_role_swap_swaps_the_marginals(base_fits, family, seed):
    data, base = base_fits(family, seed)
    swapped = fit_linear(SurvivalDataset(data.x, data.t_obs, 1 - data.delta), family, seed)
    for mine, theirs in (MARGINALS, MARGINALS[::-1]):
        assert_same_marginal(getattr(swapped, mine), getattr(base, theirs))
    assert abs(theta_to_tau(swapped.copula) - theta_to_tau(base.copula)) <= TAU_TOL
