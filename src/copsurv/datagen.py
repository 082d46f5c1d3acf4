"""Synthetic and semi-synthetic survival data generation.

Fully synthetic draws follow the inverse-transform route: covariates are
uniform on [0, 1]^d, a dependent quantile pair (u1, u2) is drawn from the
configured copula, and latent times come from inverting the two Weibull
marginal survival functions at u1 and u2.  The observed record is
(x, min(T_E, T_C), 1[T_E < T_C]).

Semi-synthetic censoring turns a regression table into a dependently
censored survival dataset in three steps.  ``regression_table`` makes the
targets survival times.  The tau-free ``fit_regression_marginal`` fits a
linear Weibull model on them (all treated as events) as the event marginal;
a sharpened copy of it (shape divided by 0.6) is the censoring marginal.
``censor_regression`` draws each censoring time from the copula
conditionally on the event quantile.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .copulas import CopulaSpec, clamp_quantile, conditional_sample, sample_pairs
from .data import SurvivalDataset, column_cells, write_csv
from .errors import ValidationError, check_document
from .training import TrainConfig, fit_marginal
from .weibull import LinearRisk, QuadraticRisk, WeibullCoxModel, risk_from_dict


@dataclass
class SyntheticGenConfig:
    n: int
    d: int
    nu_event: float
    rho_event: float
    risk_event: object
    nu_censor: float
    rho_censor: float
    risk_censor: object
    copula: CopulaSpec
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.d < 1:
            raise ValidationError(f"d must be >= 1, got {self.d}")
        for name in ("nu_event", "rho_event", "nu_censor", "rho_censor"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")

    def event_model(self) -> WeibullCoxModel:
        return WeibullCoxModel.from_natural(self.nu_event, self.rho_event, self.risk_event)

    def censor_model(self) -> WeibullCoxModel:
        return WeibullCoxModel.from_natural(self.nu_censor, self.rho_censor, self.risk_censor)


@dataclass
class GroundTruth:
    event_model: WeibullCoxModel
    censor_model: WeibullCoxModel
    copula: CopulaSpec


@dataclass
class LatentOutcomes:
    """The latent (pre-censoring) event and censoring times."""

    t_event: np.ndarray
    t_censor: np.ndarray

    def save_csv(self, path) -> None:
        write_csv(path, ["t_event", "t_censor"],
                  zip(column_cells(self.t_event), column_cells(self.t_censor)))


def generate_synthetic(config: SyntheticGenConfig):
    """Draws a dependently censored dataset.

    Returns (dataset, ground_truth, latent).  All randomness comes from
    ``config.seed``; identical configs give identical draws.
    """
    rng = np.random.default_rng(config.seed)
    x = rng.uniform(size=(config.n, config.d))
    pairs = sample_pairs(config.copula, config.n, rng)
    event_model = config.event_model()
    censor_model = config.censor_model()
    t_event = event_model.inverse_survival(pairs[:, 0], x)
    t_censor = censor_model.inverse_survival(pairs[:, 1], x)
    dataset = SurvivalDataset(
        x, np.minimum(t_event, t_censor), (t_event < t_censor).astype(np.int64)
    )
    truth = GroundTruth(event_model, censor_model, config.copula)
    return dataset, truth, LatentOutcomes(t_event, t_censor)


# ---------------------------------------------------------------------------
# Reference data-generating processes (d = 10 throughout).


def child_seed(*keys) -> int:
    """A seed derived from ``keys`` (non-negative ints) by SeedSequence."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def tau_key(tau: float) -> int:
    """``tau`` as an integer seed key, to six decimal places."""
    return int(round(tau * 1_000_000))


def _preset(seed, n, copula, data_seed, rho_event, risk_event, risk_censor) -> SyntheticGenConfig:
    """The presets' shared generator: event shape 4, censoring Weibull(3, 16),
    independence unless ``copula`` is given, and draws seeded by ``seed``
    unless ``data_seed`` is given."""
    return SyntheticGenConfig(
        n=n, d=10, nu_event=4.0, rho_event=rho_event, risk_event=risk_event,
        nu_censor=3.0, rho_censor=16.0, risk_censor=risk_censor,
        copula=copula or CopulaSpec.independence(),
        seed=seed if data_seed is None else data_seed,
    )


def preset_linear_risk(
    seed: int,
    n: int = 20000,
    copula: CopulaSpec = None,
    data_seed: Optional[int] = None,
) -> SyntheticGenConfig:
    """Linear risks on both marginals; weights drawn uniform on [0, 1]^10."""
    rng = np.random.default_rng(seed)
    beta_event = rng.uniform(size=10)
    beta_censor = rng.uniform(size=10)
    return _preset(seed, n, copula, data_seed, 14.0, LinearRisk(beta_event), LinearRisk(beta_censor))


def preset_nonlinear_risk(
    seed: int,
    n: int = 20000,
    copula: CopulaSpec = None,
    data_seed: Optional[int] = None,
) -> SyntheticGenConfig:
    """Quadratic risks: event sum(x^2)/8, censor beta . x^2 / 5."""
    beta_censor = np.random.default_rng(seed).uniform(size=10)
    return _preset(seed, n, copula, data_seed, 17.0,
                   QuadraticRisk(np.full(10, 1.0 / 8.0)), QuadraticRisk(beta_censor / 5.0))


def preset_metric_bias(
    seed: int,
    n: int = 10000,
    copula: CopulaSpec = None,
    data_seed: Optional[int] = None,
) -> SyntheticGenConfig:
    """Generator for the metric-bias study: event risk x1^2 + x2^2,
    censor risk a random quadratic in the first three covariates."""
    beta_censor = np.random.default_rng(seed).uniform(size=10)
    event_w = np.zeros(10)
    event_w[:2] = 1.0
    censor_w = np.zeros(10)
    censor_w[:3] = beta_censor[:3]
    return _preset(seed, n, copula, data_seed, 17.0, QuadraticRisk(event_w), QuadraticRisk(censor_w))


PRESETS = {
    "linear_risk": preset_linear_risk,
    "nonlinear_risk": preset_nonlinear_risk,
    "metric_bias": preset_metric_bias,
}


# ---------------------------------------------------------------------------
# Sidecar serialization of the ground truth.


def sidecar_dict(config: SyntheticGenConfig, tau: float) -> dict:
    """The ground-truth sidecar of a draw from ``config`` at Kendall's ``tau``."""
    return {
        "n": config.n,
        "d": config.d,
        "seed": config.seed,
        "nu_E": config.nu_event,
        "rho_E": config.rho_event,
        "risk_E": config.risk_event.to_dict(),
        "nu_C": config.nu_censor,
        "rho_C": config.rho_censor,
        "risk_C": config.risk_censor.to_dict(),
        "copula": config.copula.to_dict(),
        "tau": tau,
    }


def truth_from_sidecar(doc: dict) -> GroundTruth:
    # the keys sidecar_dict writes; the four not read here may be missing
    check_document(doc, "truth sidecar", {
        "n": int, "d": int, "seed": int, "tau": float, "nu_E": float, "rho_E": float, "risk_E": None,
        "nu_C": float, "rho_C": float, "risk_C": None, "copula": None}, ("n", "d", "seed", "tau"))
    event = WeibullCoxModel.from_natural(doc["nu_E"], doc["rho_E"], risk_from_dict(doc["risk_E"]))
    censor = WeibullCoxModel.from_natural(doc["nu_C"], doc["rho_C"], risk_from_dict(doc["risk_C"]))
    return GroundTruth(event, censor, CopulaSpec.from_dict(doc["copula"]))


# ---------------------------------------------------------------------------
# Semi-synthetic censoring of regression data.


ZERO_SHIFT_FACTOR = 1e-3
CENSOR_SHAPE_DIVISOR = 0.6


def zscore_fit(x: np.ndarray):
    """Per-column standardization parameters; zero-spread columns get std 1."""
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def regression_table(x: np.ndarray, y: np.ndarray, name: str, shift: bool = False, hint: str = ""):
    """``(x, y, shift)``: the table with its targets ``y`` made survival times,
    and the amount added to each.  Covariates and targets must be finite.  A
    negative target is refused by ``name``, record and ``hint``, unless ``shift``
    translates every target by minus the smallest.  A zero target then lifts
    every one by ``ZERO_SHIFT_FACTOR`` of the largest; all zeros are refused."""
    finite = np.isfinite(x).all(axis=1) & np.isfinite(y)
    if not finite.all():
        raise ValidationError(f"{name} and the covariates must be finite "
                              f"(record {int(np.argmin(finite))})")
    total_shift = 0.0
    if np.any(y < 0.0):
        if not shift:
            raise ValidationError(f"{name} must be non-negative "
                                  f"(record {int(np.argmax(y < 0.0))}){hint}")
        total_shift += -float(y.min())
        y = y - y.min()
    if np.any(y == 0.0):
        lift = ZERO_SHIFT_FACTOR * float(y.max())
        if lift <= 0.0:
            raise ValidationError(f"{name} is zero on every record")
        y, total_shift = y + lift, total_shift + lift
    return x, y, total_shift


@dataclass
class RegressionMarginal:
    """An all-event marginal fit: the standardized covariates ``x``, the
    targets ``y``, both marginals, and the standardization."""

    x: np.ndarray
    y: np.ndarray
    event_model: WeibullCoxModel
    censor_model: WeibullCoxModel
    mean: np.ndarray
    std: np.ndarray

    def standardize(self, x: np.ndarray) -> np.ndarray:
        """Held-out covariates ``x`` under this fit's standardization."""
        return (x - self.mean) / self.std


def fit_regression_marginal(x: np.ndarray, y: np.ndarray, fit_config: TrainConfig):
    """The tau-free step of semi-synthetic censoring.

    Z-scores ``x`` and fits a linear Weibull event model on the targets
    ``y`` (``regression_table``'s) with every record an event; the censoring
    marginal divides its shape by 0.6."""
    if len(y) == 0:
        raise ValidationError("need at least one record to fit the event marginal")
    mean, std = zscore_fit(x)
    xs = (x - mean) / std

    event_model, _ = fit_marginal(
        SurvivalDataset(xs, y, np.ones(len(y), dtype=np.int64)), "linear", fit_config
    )
    censor_model = WeibullCoxModel(
        float(event_model.log_nu) - np.log(CENSOR_SHAPE_DIVISOR),
        float(event_model.log_rho),
        LinearRisk(event_model.risk.weights.copy()),
    )
    return RegressionMarginal(xs, y, event_model, censor_model, mean, std)


def censor_regression(marginal: RegressionMarginal, spec: CopulaSpec, seed: int):
    """Draws ``marginal``'s censoring times conditionally on its event
    quantiles under ``spec``; a record is an event when its target is at or
    below its censoring time.  Returns (dataset, latent targets and times)."""
    rng = np.random.default_rng(seed)
    u1 = clamp_quantile(marginal.event_model.survival(marginal.y, marginal.x))
    u2 = clamp_quantile(conditional_sample(spec, u1, rng))
    t_censor = marginal.censor_model.inverse_survival(u2, marginal.x)
    delta = (marginal.y <= t_censor).astype(np.int64)
    return (SurvivalDataset(marginal.x, np.minimum(marginal.y, t_censor), delta),
            LatentOutcomes(marginal.y, t_censor))


def synthetic_regression(n: int, d: int, seed: int):
    """A positive-target regression stand-in: Weibull noise around a linear
    risk, so a proportional-hazards fit is well specified."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    beta = rng.uniform(size=d)
    model = WeibullCoxModel.from_natural(4.0, 10.0, LinearRisk(beta))
    u = clamp_quantile(rng.uniform(size=n))
    y = model.inverse_survival(u, x)
    return x, y
