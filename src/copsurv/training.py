"""Full-batch maximum-likelihood training.

Every fit runs one solver: L-BFGS-B on the penalized negative
log-likelihood and its exact gradient.  A family's dependence parameters
are the non-``family`` keys of its ``CopulaSpec.to_dict()``, held by the
optimizer as ``copula.<key>``; each evaluation rebuilds the spec with
``CopulaSpec.from_dict``.  Each lives in a box, which the solver takes as
its bounds: theta in ``[theta_min, inf)``, ``theta_frank`` and Frank theta
in ``[theta_min, THETA_HI_FRANK]`` and kappa in [0, 1].  ``fit`` runs one
loop over starts that share the initial marginals; of several starts, the
one with the best penalized training log-likelihood wins.  The starts and
the stopping rule follow from the risk kinds (there is no option).

* A joint fit with two linear risks is a smooth low-dimensional MLE.  It
  starts three times, at Kendall's tau 0.2, 0.5 and 0.8 (once for the
  independence family), and each start runs to convergence (at most
  ``max_epochs`` iterations).  The validation loss is recorded for every
  iteration but does not stop the fit, and the final iterate is returned;
  ``patience`` does not apply.
* A joint fit with an MLP risk starts once, at theta 1 and kappa 0.5, and
  is stopped on validation: it ends after ``patience`` iterations without a
  validation improvement, or at convergence, and returns its
  best-validation iterate.
* A single-marginal fit (``fit_marginal``) is stopped on validation the
  same way, whatever the risk kind.

A fit stopped on validation with ``validation_fraction = 0`` has no split:
it runs to convergence and returns the final iterate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from scipy.optimize import minimize

from . import copulas, likelihood
from .copulas import CopulaSpec, Family, spec_from_tau
from .data import Config, SurvivalDataset, column_cells, read_json, write_csv, write_json
from .errors import NumericalFailure, ValidationError, check_numbers
from .weibull import WeibullCoxModel, default_mlp_widths, make_risk

# Kendall's tau at the dependence-parameter starts of an L-BFGS-B fit; from
# theta = 1 alone a strongly dependent Clayton fit can stop near theta = 0
START_TAUS = (0.2, 0.5, 0.8)
# L-BFGS-B stops when an iteration lowers the objective by less than this
# fraction; scipy's default of 2.2e-9 leaves gradients up to 0.3 on 400 records
FTOL = 1e-12


@dataclass
class TrainConfig(Config):
    """Optimization settings.

    ``l2_lambda = None`` resolves at fit time to 0 for linear risks and
    0.001 when either risk is an MLP.  ``max_epochs`` caps the L-BFGS-B
    iterations of each start.  ``patience`` counts iterations without a
    validation improvement, must not exceed ``max_epochs``, and stops every
    fit except a joint fit with two linear risks, which ignores it.
    """

    max_epochs: int = 10000
    theta_min: float = 1e-3
    l2_lambda: Optional[float] = None
    patience: int = 3000
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        reals = ("theta_min", "validation_fraction")
        if self.l2_lambda is not None:
            reals += ("l2_lambda",)
        check_numbers(self, ("max_epochs", "patience", "seed"), reals)
        if self.max_epochs < 1:
            raise ValidationError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.theta_min <= 0:
            raise ValidationError(f"theta_min must be positive, got {self.theta_min}")
        if self.l2_lambda is not None and self.l2_lambda < 0:
            raise ValidationError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if not 1 <= self.patience <= self.max_epochs:
            raise ValidationError(
                f"patience must lie in [1, max_epochs], got {self.patience}"
            )
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValidationError(
                f"validation_fraction must lie in [0, 1), got {self.validation_fraction}"
            )


# Adam's moment decay rates and the denominator's guard.  No fit runs Adam:
# it stays only as the span perfbench/spans.py times as training.adam_step,
# and goes with the benchmark's re-baseline, as tau_hat does
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Plain Adam ascending the objective (maximization convention)."""

    def __init__(self, params: Dict[str, np.ndarray], alpha: float):
        self.params = params
        self.alpha = alpha
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        for key, p in self.params.items():
            g = np.asarray(grads[key], dtype=float)
            v = BETA2 * self.v[key] + (1.0 - BETA2) * g * g
            # a gradient beyond about 1e154 squares to inf, and an infinite
            # second moment would freeze the parameter; while v is finite
            # (v >= 0, so its sum is) the step is bounded and p stays finite
            if not math.isfinite(v.sum()):
                raise NumericalFailure(f"non-finite Adam second moment of {key}")
            self.m[key] = BETA1 * self.m[key] + (1.0 - BETA1) * g
            self.v[key] = v
            m_hat = self.m[key] / b1c
            v_hat = self.v[key] / b2c
            p[...] = p + self.alpha * m_hat / (np.sqrt(v_hat) + EPS)


@dataclass
class TrainTrace:
    """Per-epoch optimization trace; an epoch is one accepted L-BFGS-B
    iterate.

    ``train_negloglik`` is the negated training log-likelihood plus the L2
    penalty, the value the solver minimizes (the penalty is 0 for linear
    risks by default), evaluated at the parameters entering the epoch.
    ``val_negloglik`` is unpenalized.  It and the dependence-parameter
    columns are taken at the parameters leaving the epoch.
    """

    epoch: np.ndarray
    train_negloglik: np.ndarray
    val_negloglik: np.ndarray
    copula_path: Dict[str, np.ndarray] = field(default_factory=dict)

    def to_csv(self, path) -> None:
        columns = [self.epoch, self.train_negloglik, self.val_negloglik, *self.copula_path.values()]
        write_csv(path, ["epoch", "train_negloglik", "val_negloglik", *self.copula_path],
                  zip(*map(column_cells, columns)))


@dataclass
class FittedJointModel:
    event_model: WeibullCoxModel
    censor_model: WeibullCoxModel
    copula: CopulaSpec
    trace: Optional[TrainTrace]
    best_epoch: int
    best_val_negloglik: float

    def to_dict(self) -> dict:
        return {
            "event": self.event_model.to_dict(),
            "censor": self.censor_model.to_dict(),
            "copula": self.copula.to_dict(),
        }

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "FittedJointModel":
        return cls(
            event_model=WeibullCoxModel.from_dict(doc["event"]),
            censor_model=WeibullCoxModel.from_dict(doc["censor"]),
            copula=CopulaSpec.from_dict(doc["copula"]),
            trace=None,
            best_epoch=-1,
            best_val_negloglik=float("nan"),
        )

    @classmethod
    def load(cls, path) -> "FittedJointModel":
        return cls.from_dict(read_json(path))


# the name perfbench/spans.py times Kendall's tau under; callers use
# copulas.theta_to_tau, and the alias goes with the benchmark's re-baseline
tau_hat = copulas.theta_to_tau


def _snapshot(params):
    return {k: v.copy() for k, v in params.items()}


def _restore(params, snap):
    for k, v in params.items():
        v[...] = snap[k]


def _failure_at(epoch, failure, params):
    return NumericalFailure(
        f"epoch {epoch}: {failure}",
        record_index=failure.record_index,
        epoch=epoch,
        last_state=_snapshot(params),
    )


class _TrialFailed(Exception):
    """An L-BFGS-B trial point has a non-finite objective or gradient."""

    def __init__(self, failure: NumericalFailure):
        super().__init__(str(failure))
        self.failure = failure


def _optimize(params, copula_bounds, loss_and_grad, val_negloglik, cfg: TrainConfig,
              early_stop: bool = False):
    """L-BFGS-B from the current ``params``; returns (trace, best_epoch, best_val).

    ``copula_bounds`` maps each dependence-parameter key to its (lo, hi) box.
    ``loss_and_grad`` returns the penalized log-likelihood and its gradient,
    and the solver minimizes its negation.  Each accepted iterate is one
    trace row.  The run goes to convergence and keeps its final iterate as
    the best epoch, unless ``early_stop`` is set and there is a validation
    split: then it stops after ``patience`` iterations without a validation
    improvement and restores the best-validation iterate.  A trial point
    that overflows ends the run, and the solver restarts from the last
    accepted iterate; a run that fails before it accepts an iterate raises
    ``NumericalFailure``.
    """
    keys = list(params)
    bounds = [copula_bounds.get(k, (None, None)) for k in keys for _ in range(params[k].size)]
    # each parameter's slice of the flat vector, fixed for the run
    ends = np.cumsum([params[k].size for k in keys])
    layout = [(params[k], slice(end - params[k].size, end), params[k].shape)
              for k, end in zip(keys, ends)]
    use_val = val_negloglik is not None

    def unpack(x):
        for param, span, shape in layout:
            param[...] = x[span].reshape(shape)

    train_hist: List[float] = []
    val_hist: List[float] = []
    copula_hist: Dict[str, List[float]] = {k: [] for k in copula_bounds}
    last = {}  # the most recently evaluated point and its penalized log-likelihood
    accepted = {"x": np.concatenate([np.ravel(params[k]) for k in keys]).astype(float),
                "loglik": None}
    stop_on_val = early_stop and use_val
    best = {"epoch": -1, "val": np.inf, "x": None}  # the best-validation iterate

    def objective(x):
        unpack(x)
        try:
            # an overflowing trial point is expected and handled: no warning
            with np.errstate(over="ignore", invalid="ignore"):
                loglik, grads = loss_and_grad()
            grad = np.concatenate([np.ravel(grads[k]) for k in keys])
            if not np.isfinite(grad).all():
                raise NumericalFailure("non-finite gradient")
        except NumericalFailure as failure:
            raise _TrialFailed(failure) from failure
        last["x"], last["loglik"] = x.copy(), loglik
        if accepted["loglik"] is None:
            accepted["loglik"] = loglik
        return -loglik, -grad

    def validate():
        if not use_val:
            return float("nan")
        try:
            return float(val_negloglik())
        except NumericalFailure as failure:
            raise _failure_at(len(train_hist), failure, params) from failure

    def on_iterate(intermediate_result):
        x = intermediate_result.x
        if not np.array_equal(x, last["x"]):
            objective(x)  # otherwise params still hold the last evaluated point
        val = validate()
        train_hist.append(-accepted["loglik"])
        val_hist.append(val)
        for key in copula_bounds:
            copula_hist[key].append(float(params[key]))
        accepted["x"], accepted["loglik"] = last["x"], last["loglik"]
        if stop_on_val:
            epoch = len(val_hist) - 1
            if val < best["val"]:
                best.update(epoch=epoch, val=val, x=last["x"])
            elif epoch - best["epoch"] >= cfg.patience:
                raise StopIteration  # scipy ends the run and returns normally

    while True:
        progress = len(train_hist)
        try:
            result = minimize(
                objective, accepted["x"], jac=True, method="L-BFGS-B",
                bounds=bounds, callback=on_iterate,
                options={"maxiter": cfg.max_epochs - len(train_hist), "ftol": FTOL},
            )
            break
        except _TrialFailed as trial:
            unpack(accepted["x"])
            if len(train_hist) == progress:
                raise _failure_at(len(train_hist), trial.failure, params) from trial.failure

    trace = TrainTrace(
        epoch=np.arange(len(train_hist)),
        train_negloglik=np.array(train_hist),
        val_negloglik=np.array(val_hist),
        copula_path={k: np.array(v) for k, v in copula_hist.items()},
    )
    if best["x"] is not None:
        unpack(best["x"])
        return trace, best["epoch"], float(best["val"])
    unpack(result.x)
    best_val = val_hist[-1] if val_hist else validate()
    return trace, len(train_hist) - 1, float(best_val)


def _model_params(model: WeibullCoxModel, prefix: str) -> Dict[str, np.ndarray]:
    out = {f"{prefix}.log_nu": model.log_nu, f"{prefix}.log_rho": model.log_rho}
    for key, val in model.risk.params().items():
        out[f"{prefix}.risk.{key}"] = val
    return out


def _resolve_l2(cfg: TrainConfig, *risk_kinds) -> float:
    if cfg.l2_lambda is not None:
        return cfg.l2_lambda
    return 0.001 if "mlp" in risk_kinds else 0.0


def _setup(data: SurvivalDataset, cfg: TrainConfig, mlp_widths, *risk_kinds):
    """Splits off the validation records and initializes one model per risk.

    Returns (train_ds, val_ds, models); ``val_ds`` is None without a
    validation split.  The RNG draws the split, then each risk in order.
    """
    if len(data) == 0:
        raise ValidationError("cannot fit on an empty dataset")
    rng = np.random.default_rng(cfg.seed)
    n_val = int(round(cfg.validation_fraction * len(data)))
    perm = rng.permutation(len(data))
    if len(data) - n_val < 1:
        raise ValidationError("validation split leaves no training records")
    train_ds = data.subset(perm[n_val:])
    val_ds = data.subset(perm[:n_val]) if n_val else None
    widths = mlp_widths or default_mlp_widths(data.dim)
    models = [
        WeibullCoxModel(0.0, np.log(train_ds.t_obs.mean()), make_risk(kind, data.dim, rng, widths))
        for kind in risk_kinds
    ]
    return train_ds, val_ds, models


def fit(
    data: SurvivalDataset,
    event_risk: str = "linear",
    censor_risk: str = "linear",
    family="clayton",
    config: Optional[TrainConfig] = None,
    mlp_widths=None,
) -> FittedJointModel:
    """Jointly fits both marginals and the copula dependence parameters.

    The dataset must contain at least one event and one censoring record.
    RNG use is fully determined by ``config.seed``: first the validation
    split, then event-risk and censor-risk initialization.  Two linear risks
    are fitted from three dependence starts, each run to convergence; with
    an MLP risk the fit starts once and stops on validation.  See the module
    docstring.
    """
    cfg = config or TrainConfig()
    family = copulas._coerce_family(family)
    if len(data) and data.n_events in (0, len(data)):
        raise ValidationError("joint fit requires at least one event and one censoring record")
    train_ds, val_ds, (event_model, censor_model) = _setup(
        data, cfg, mlp_widths, event_risk, censor_risk
    )

    theta_hi = copulas.THETA_HI_FRANK if family is Family.FRANK else np.inf
    # single start and (lo, hi) box of every dependence parameter, by CopulaSpec key
    table = {"theta": (1.0, (cfg.theta_min, theta_hi)),
             "theta_frank": (1.0, (cfg.theta_min, copulas.THETA_HI_FRANK)),
             "theta_clayton": (1.0, (cfg.theta_min, np.inf)),
             "kappa": (0.5, (0.0, 1.0))}
    # from_dict reads only the keys of the family's own parameters
    default = CopulaSpec.from_dict({"family": family, **{n: s for n, (s, _) in table.items()}})
    names = [name for name in default.to_dict() if name != "family"]
    linear = all(str(k).lower() == "linear" for k in (event_risk, censor_risk))
    starts = [default]
    if linear and names:
        starts = [spec_from_tau(family, tau) for tau in START_TAUS]

    params = {**_model_params(event_model, "event"), **_model_params(censor_model, "censor")}
    params.update({f"copula.{name}": np.array(0.0) for name in names})  # set by each start
    copula_bounds = {f"copula.{name}": table[name][1] for name in names}
    l2 = _resolve_l2(cfg, event_risk, censor_risk)

    def spec():
        return CopulaSpec.from_dict(
            {"family": family, **{name: params[f"copula.{name}"] for name in names}}
        )

    def loss_and_grad():
        return likelihood.loglik_and_gradient(event_model, censor_model, spec(), train_ds, l2)

    val_fn = None
    if val_ds is not None:
        def val_fn():
            return -likelihood.loglik_copula(event_model, censor_model, spec(), val_ds)

    # every start shares the initial marginals; of several starts the best
    # penalized training log-likelihood wins
    initial = _snapshot(params)
    best = None
    for start in starts:
        _restore(params, initial)
        values = start.to_dict()
        for name in names:
            params[f"copula.{name}"][...] = values[name]
        run = _optimize(params, copula_bounds, loss_and_grad, val_fn, cfg, early_stop=not linear)
        score = 0.0
        if len(starts) > 1:
            score = likelihood.loglik_copula(event_model, censor_model, spec(), train_ds, l2)
        if best is None or score > best[0]:
            best = (score, run, _snapshot(params))
    _, (trace, best_epoch, best_val), state = best
    _restore(params, state)
    trace.copula_path = {
        "theta_hat" if name == "theta" else name: trace.copula_path[f"copula.{name}"]
        for name in names
    }
    return FittedJointModel(
        event_model=event_model,
        censor_model=censor_model,
        copula=spec(),
        trace=trace,
        best_epoch=best_epoch,
        best_val_negloglik=best_val,
    )


def fit_marginal(
    data: SurvivalDataset,
    risk_kind: str = "linear",
    config: Optional[TrainConfig] = None,
    mlp_widths=None,
):
    """Fits a single Weibull marginal on right-censored (or all-event) data.

    Uses the same split and initialization as a joint fit, and is stopped
    on validation whatever the risk kind (see the module docstring).  It is
    also the semi-synthetic no-censoring baseline, whose R-squared falls
    below the copula fit's when the final iterate is returned instead of
    the best-validation one.  Returns (model, trace).
    """
    cfg = config or TrainConfig()
    train_ds, val_ds, (model,) = _setup(data, cfg, mlp_widths, risk_kind)
    l2 = _resolve_l2(cfg, risk_kind)

    def loss_and_grad():
        return likelihood.marginal_loglik_and_gradient(model, train_ds, l2)

    val_fn = None
    if val_ds is not None:
        def val_fn():
            return -likelihood.marginal_loglik(model, val_ds)

    trace, _, _ = _optimize(_model_params(model, "model"), {}, loss_and_grad, val_fn, cfg,
                            early_stop=True)
    return model, trace
