"""Full-batch maximum-likelihood training.

Every fit runs one solver: L-BFGS-B on the penalized negative
log-likelihood and its exact gradient.  The L2 penalty on the risk weights
follows from the risk kinds: ``MLP_L2_LAMBDA`` when either risk is an MLP,
0 otherwise.  A family's dependence parameters and their ranges are
``copulas.PARAMETERS[family]``; the optimizer holds each as
``copula.<name>``.  Each range is the solver's box for its parameter,
with the open lower end of every theta floored at ``THETA_MIN``: theta in
``[THETA_MIN, inf)``, or ``[THETA_MIN, 500]`` for Frank theta, and kappa in
[0, 1].  The solver moves every theta as log theta, in [log ``THETA_MIN``,
log hi], and kappa on its own scale; traces and checkpoints hold natural
theta.  Each evaluation passes the likelihood the parameter point of the
solver's vector, so no model is written while the solver runs: the models
take the returned iterate when a start ends, and one ``CopulaSpec`` is
built from it.  A failing record is named by its row of the dataset the
fit was given, as a training or a validation term.  ``fit`` runs each
start as a fit of its own, from the same initial marginals.  The starts
and the stopping rule follow from the risk kinds (there is no option).

* A joint fit with two linear risks is a smooth low-dimensional MLE.  It
  starts three times, at Kendall's tau 0.2, 0.5 and 0.8 (once for the
  independence family), and each start runs to convergence (at most
  ``max_epochs`` iterations).  The validation loss is recorded for every
  iteration but does not stop the fit; ``patience`` does not apply.  Each
  start ends at its final iterate, and the start whose trace records the
  highest penalized training log-likelihood there is returned: the earlier
  of a tie, and a start with no accepted iterate ranks last.
* A joint fit with an MLP risk starts once, at theta 1 and kappa 0.5, and
  is stopped on validation: it ends after ``patience`` iterations without a
  validation improvement, or at convergence, and returns its
  best-validation iterate.
* A single-marginal fit (``fit_marginal``) is stopped on validation the
  same way, whatever the risk kind.

A fit stopped on validation with ``validation_fraction = 0`` has no split:
it runs to convergence and returns the final iterate.

The validation loss never steers the solver, so it is scored in blocks of
queued iterates, one likelihood pass per block (``VALIDATION_BLOCK``),
flushed whenever the patience rule could fire; the stop, the returned
iterate and the trace are those of scoring every iterate as it comes.  A
fit without a split queues its iterates the same way, each scoring NaN.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from scipy.optimize import minimize

from . import copulas, likelihood
from .copulas import CopulaSpec, spec_from_tau
from .data import Config, SurvivalDataset, column_cells, read_json, write_csv, write_json
from .errors import NumericalFailure, ValidationError, check_document
from .weibull import WeibullCoxModel, make_risk

# Kendall's tau at the dependence-parameter starts of an L-BFGS-B fit; from
# theta = 1 alone a strongly dependent Clayton fit can stop near theta = 0
START_TAUS = (0.2, 0.5, 0.8)
# L-BFGS-B stops when an iteration lowers the objective by less than this
# fraction; scipy's default of 2.2e-9 leaves gradients up to 0.3 on 400 records
FTOL = 1e-12
# lower end of every theta box, the independence end of Clayton and Frank
THETA_MIN = 1e-3
# L2 weight on the risk weights of a fit with an MLP risk; linear fits have none
MLP_L2_LAMBDA = 1e-3
# values per validation call, iterates x validation records (see _optimize).
# On the benchmark's MLP mixture arm (600 validation records, three seeds)
# 2**12, 6 iterates a call, left peak RSS as it was; 2**13 (13 iterates)
# added 1.1 MB and 2**14 3.8 MB, for a few percent more speed: a block's
# stacked temporaries come from the heap, which grows with the block.
VALIDATION_BLOCK = 2**12


@dataclass
class TrainConfig(Config):
    """Optimization settings.

    ``max_epochs`` caps the L-BFGS-B iterations of each start.  ``patience``
    counts iterations without a validation improvement, must not exceed
    ``max_epochs``, and stops every fit except a joint fit with two linear
    risks, which ignores it.  Its default of 100 is measured: on 24 MLP
    joint fits patience 100 returned the same fits as 300 in under half the
    time, while 50 moved a strongly dependent Clayton fit.
    ``validation_fraction`` of the records is held out for validation, and
    ``seed`` draws that split and the MLP initialization.  An MLP fit with
    ``validation_fraction`` 0 has only ``max_epochs`` to stop it: on 200-500
    rows of ``synthetic_regression`` its gradients stayed at 7-28 after
    2,000-5,000 iterations.
    """

    max_epochs: int = 10000
    patience: int = 100
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.max_epochs < 1:
            raise ValidationError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 1 <= self.patience <= self.max_epochs:
            raise ValidationError(
                f"patience must lie in [1, max_epochs], got {self.patience}"
            )
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValidationError(
                f"validation_fraction must lie in [0, 1), got {self.validation_fraction}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


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

    Every column is taken at the iterate the epoch accepts.
    ``train_negloglik`` is the negated training log-likelihood plus the L2
    penalty, the value the solver minimizes (the penalty is 0 for linear
    risks).  ``val_negloglik`` is unpenalized.
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
        check_document(doc, "checkpoint", dict.fromkeys(("event", "censor", "copula")))
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


def _failure_at(epoch, failure):
    return NumericalFailure(f"epoch {epoch}: {failure}", record_index=failure.record_index,
                            epoch=epoch)


class _TrialFailed(Exception):
    """An L-BFGS-B trial point has a non-finite objective or gradient."""

    def __init__(self, failure: NumericalFailure):
        super().__init__(str(failure))
        self.failure = failure


_FLOAT_MAX = float(np.finfo(float).max)


def _exp_in_box(z, lo, hi, log_lo, log_hi):
    """exp(z) for z in [log_lo, log_hi] = [log lo, log hi]: exactly lo or hi
    at the ends, where exp(log 500) is 499.99999999999983, and finite
    however large z is."""
    if z <= log_lo:
        return lo
    if z >= log_hi:
        return hi
    with np.errstate(over="ignore"):
        return min(max(float(np.exp(z)), lo), _FLOAT_MAX)


def _optimize(params, copula_bounds, loss_and_grad, val_negloglik, cfg: TrainConfig,
              early_stop: bool = False, val_rows: int = 1):
    """L-BFGS-B from the current ``params``; returns (trace, best_epoch, best_val).

    ``copula_bounds`` maps each dependence-parameter key to its (lo, hi) box.
    A box with a positive lower end (every theta) is searched as log theta
    in [log lo, log hi], with the gradient multiplied by theta, because the
    likelihood is nearly flat in theta itself; ``params`` and the trace keep
    natural theta.
    ``loss_and_grad(point)`` returns the penalized log-likelihood and its
    gradient at ``point``, which maps each key of ``params`` to its value at
    a solver vector (natural theta), and the solver minimizes its negation.
    ``params`` are read for the start and written only when the run returns
    or raises.  Each accepted iterate is one trace row.  ``params`` end at
    the returned iterate, one record (epoch, solver vector) from the start
    (epoch -1, scored only then) on: each scored iterate moves it, unless
    ``early_stop`` is set and there is a validation split, where only a
    strict validation improvement does and the run stops after ``patience``
    iterations without one.  An overflowing trial point ends the run and the
    solver restarts from the last accepted iterate; a run that fails before
    it accepts one raises ``NumericalFailure``, leaving ``params`` there.

    ``val_negloglik(points)`` scores k iterates at once: ``points`` maps each
    key of ``params`` to a stack of k values, and it returns their k
    validation losses (None: no split, every loss NaN).  A validation loss
    never steers the solver, so the accepted iterates wait in a queue and
    are scored together when the queue is full, when the patience rule can
    fire (``patience`` epochs after the best one scored so far), when the
    run ends and before a failure is raised.  A full queue holds
    ``VALIDATION_BLOCK`` values, an iterate counting as its ``val_rows``
    validation records or, if there are more, its solver parameters.  The
    block is then applied to the record in epoch order, so the stop, the
    best epoch and the trace are those of scoring every iterate as it is
    accepted.  A validation loss that fails raises ``NumericalFailure`` with
    that iterate's epoch and leaves the parameters at it.
    """
    keys = list(params)
    # the thetas the solver moves as log theta (single values): (lo, hi, log lo, log hi)
    log_boxes = {k: (lo, hi, np.log(lo), np.log(hi))
                 for k, (lo, hi) in copula_bounds.items() if lo > 0}
    solver_boxes = {**copula_bounds, **{k: box[2:] for k, box in log_boxes.items()}}
    bounds = [solver_boxes.get(k, (None, None)) for k in keys for _ in range(params[k].size)]
    # each parameter's slice of the flat vector, fixed for the run, and the
    # shapes of the arrays the solver moves on their own scale
    ends = np.cumsum([params[k].size for k in keys])
    spans = {k: slice(end - params[k].size, end) for k, end in zip(keys, ends)}
    layout = [(k, spans[k], params[k].shape) for k in keys if k not in log_boxes]
    # the gradient is written into views of one vector, each in its parameter's shape
    grad = np.empty(ends[-1])
    grad_views = [(k, grad[spans[k]].reshape(params[k].shape)) for k in keys]
    # iterates per validation call; a run without a split counts its solver parameters
    block = max(1, VALIDATION_BLOCK // max(val_rows, grad.size))

    def point_of(flat):
        """The parameter point of the solver vector ``flat``, each theta a
        Python float, or for a (k, size) stack of vectors their k points,
        stacked per key."""
        lead = flat.shape[:-1]
        point = {k: flat[..., span].reshape(lead + shape) for k, span, shape in layout}
        for k, box in log_boxes.items():
            z = flat[..., spans[k].start]
            point[k] = np.array([_exp_in_box(v, *box) for v in z]) if lead else _exp_in_box(z, *box)
        return point

    def write(x):
        """Leaves ``params`` at the solver vector ``x``; only a return or a raise calls it."""
        for k, val in point_of(x).items():
            params[k][...] = val

    def score(xs, first):
        """The validation losses of the solver vectors ``xs``, the first of
        them epoch ``first`` (NaN without a split), and their points."""
        points = point_of(np.array(xs))
        try:
            vals = np.full(len(xs), np.nan) if val_negloglik is None else val_negloglik(points)
        except NumericalFailure as failure:
            # a failure not tied to one point is charged to the first
            point = failure.point_index or 0
            write(xs[point])
            raise _failure_at(first + point, failure) from failure
        return vals, points

    train_hist: List[float] = []
    val_hist: List[float] = []
    copula_hist: Dict[str, List[float]] = {k: [] for k in copula_bounds}
    # the last accepted iterate, where a run restarts after a failed trial point
    x_accepted = np.concatenate(
        [np.ravel(np.log(params[k]) if k in log_boxes else params[k]) for k in keys]
    ).astype(float)
    # accepted iterates not yet scored, from epoch len(val_hist) on
    queue: List[np.ndarray] = []
    stop_on_val = early_stop and val_negloglik is not None
    # the iterate the run returns, (epoch, solver vector); epoch -1 is the start
    best = (-1, x_accepted)

    def objective(x):
        point = point_of(x)
        try:
            # an overflowing trial point is expected and handled: no warning
            with np.errstate(over="ignore", invalid="ignore"):
                loglik, grads = loss_and_grad(point)
            for key, view in grad_views:
                view[...] = grads[key]
            for k in log_boxes:
                grad[spans[k].start] *= point[k]  # d/d log theta = theta d/d theta
            if not np.isfinite(grad).all():
                raise NumericalFailure("non-finite gradient")
        except NumericalFailure as failure:
            raise _TrialFailed(failure) from failure
        return -loglik, -grad

    def flush():
        """Scores the queue and applies it to the returned-iterate record in
        epoch order; True when the patience rule stops the run."""
        nonlocal best
        if not queue:
            return False
        vals, points = score(queue, len(val_hist))
        for key in copula_bounds:
            copula_hist[key].extend(map(float, points[key]))
        for x, val in zip(queue, map(float, vals)):
            if not stop_on_val or val < (val_hist[best[0]] if best[0] >= 0 else np.inf):
                best = (len(val_hist), x)
            val_hist.append(val)
        queue.clear()
        # the queue is scored as soon as the rule could fire, so only its
        # newest iterate can stop the run
        return stop_on_val and len(val_hist) - 1 - best[0] >= cfg.patience

    def on_iterate(intermediate_result):
        nonlocal x_accepted
        x_accepted = intermediate_result.x.copy()
        train_hist.append(float(intermediate_result.fun))
        queue.append(x_accepted)
        epoch = len(train_hist) - 1
        if len(queue) >= block or (stop_on_val and epoch - best[0] >= cfg.patience):
            if flush():
                raise StopIteration  # scipy ends the run and returns normally

    while True:
        progress = len(train_hist)
        try:
            minimize(
                objective, x_accepted, jac=True, method="L-BFGS-B",
                bounds=bounds, callback=on_iterate,
                options={"maxiter": cfg.max_epochs - len(train_hist), "ftol": FTOL},
            )
            break
        except _TrialFailed as trial:
            if len(train_hist) == progress:
                flush()  # a failed validation of an earlier iterate comes first
                write(x_accepted)
                raise _failure_at(len(train_hist), trial.failure) from trial.failure
    flush()

    best_epoch, x = best
    write(x)
    best_val = val_hist[best_epoch] if best_epoch >= 0 else score([x], 0)[0][0]
    return TrainTrace(
        epoch=np.arange(len(train_hist)),
        train_negloglik=np.array(train_hist),
        val_negloglik=np.array(val_hist),
        copula_path={k: np.array(v) for k, v in copula_hist.items()},
    ), best_epoch, float(best_val)


def _l2_lambda(*risk_kinds) -> float:
    return MLP_L2_LAMBDA if "mlp" in risk_kinds else 0.0


def _setup(data: SurvivalDataset, cfg: TrainConfig, *risk_kinds):
    """Splits off the validation records and initializes one model per risk.

    Returns (train_ds, val_ds, models, rows); ``val_ds`` is None without a
    validation split, and ``rows`` holds the rows of ``data`` that the
    training and the validation records are.  The RNG draws the split, then
    each risk in order.
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
    models = [
        WeibullCoxModel(0.0, np.log(train_ds.t_obs.mean()), make_risk(kind, data.dim, rng))
        for kind in risk_kinds
    ]
    return train_ds, val_ds, models, (perm[n_val:], perm[:n_val])


def _on_rows(evaluate, rows, term):
    """``evaluate`` on the records at ``rows`` of the dataset a fit was
    given: a failing record it names is renamed to its row of that dataset,
    as a ``term`` ("training" or "validation") log-likelihood term."""
    def call(arg):
        try:
            return evaluate(arg)
        except NumericalFailure as failure:
            if failure.record_index is None:
                raise
            row = int(rows[failure.record_index])
            raise NumericalFailure(f"non-finite {term} log-likelihood term at record {row}",
                                   record_index=row, point_index=failure.point_index) from failure
    return call


def fit(
    data: SurvivalDataset,
    event_risk: str = "linear",
    censor_risk: str = "linear",
    family="clayton",
    config: Optional[TrainConfig] = None,
) -> FittedJointModel:
    """Jointly fits both marginals and the copula dependence parameters.

    The dataset must contain at least one event and one censoring record.
    An MLP risk has the reference architecture
    (``weibull.default_mlp_widths``), and with one the risk weights carry
    the ``MLP_L2_LAMBDA`` penalty.  RNG use is fully determined by
    ``config.seed``: first the validation split, then event-risk and
    censor-risk initialization.  Two linear risks are fitted from three
    dependence starts, each run to convergence, and the start with the
    highest penalized training log-likelihood its trace records is returned
    (the earlier of a tie; one with no accepted iterate ranks last).  An MLP
    risk starts once and stops on validation (see the module docstring).
    """
    cfg = config or TrainConfig()
    event_risk, censor_risk = str(event_risk).lower(), str(censor_risk).lower()
    family = copulas.coerce_family(family)
    if len(data) and data.n_events in (0, len(data)):
        raise ValidationError("joint fit requires at least one event and one censoring record")
    train_ds, val_ds, models, (train_rows, val_rows) = _setup(data, cfg, event_risk, censor_risk)

    domains = copulas.PARAMETERS[family]
    linear = event_risk == censor_risk == "linear"
    # the single start: every theta at 1, kappa at 0.5
    starts = [{name: 1.0 if domain.lo_open else 0.5 for name, domain in domains.items()}]
    if linear and domains:
        starts = [spec_from_tau(family, tau).to_dict() for tau in START_TAUS]
    copula_bounds = {f"copula.{name}": (THETA_MIN if domain.lo_open else domain.lo, domain.hi)
                     for name, domain in domains.items()}
    l2 = _l2_lambda(event_risk, censor_risk)

    def fit_from(start):
        """One start, fitted from its own copy of the initial marginals."""
        event_model, censor_model = copy.deepcopy(models)
        params = {**likelihood.parameters(event_model, "event"),
                  **likelihood.parameters(censor_model, "censor"),
                  **{f"copula.{name}": np.array(float(start[name])) for name in domains}}

        def loss_and_grad(point):
            return likelihood.loglik_and_gradient(event_model, censor_model, family, point,
                                                  train_ds, l2)

        def val_fn(points):
            return -likelihood.loglik_copula_points(event_model, censor_model, family, points,
                                                    val_ds)

        trace, best_epoch, best_val = _optimize(
            params, copula_bounds, _on_rows(loss_and_grad, train_rows, "training"),
            _on_rows(val_fn, val_rows, "validation") if val_ds else None, cfg,
            early_stop=not linear, val_rows=len(val_rows))
        trace.copula_path = {
            "theta_hat" if name == "theta" else name: trace.copula_path[f"copula.{name}"]
            for name in domains
        }
        copula = CopulaSpec(family, **{name: float(params[f"copula.{name}"]) for name in domains})
        return FittedJointModel(event_model, censor_model, copula, trace, best_epoch, best_val)

    # a start with no accepted iterate (best epoch -1) ranks last; max keeps
    # the first of tied starts
    return max(map(fit_from, starts), key=lambda fitted: -np.inf if fitted.best_epoch < 0
               else -fitted.trace.train_negloglik[fitted.best_epoch])


def fit_marginal(
    data: SurvivalDataset,
    risk_kind: str = "linear",
    config: Optional[TrainConfig] = None,
):
    """Fits a single Weibull marginal on right-censored (or all-event) data.

    Uses the same split and initialization as a joint fit, and is stopped
    on validation whatever the risk kind (see the module docstring).  It is
    also the semi-synthetic no-censoring baseline, whose R-squared falls
    below the copula fit's when the final iterate is returned instead of
    the best-validation one.  Returns (model, trace).
    """
    cfg = config or TrainConfig()
    risk_kind = str(risk_kind).lower()
    train_ds, val_ds, (model,), (train_rows, val_rows) = _setup(data, cfg, risk_kind)
    l2 = _l2_lambda(risk_kind)

    def loss_and_grad(point):
        return likelihood.marginal_loglik_and_gradient(model, point, train_ds, l2)

    def val_fn(points):
        return -likelihood.marginal_loglik_points(model, points, val_ds)

    trace, _, _ = _optimize(likelihood.parameters(model, "model"), {},
                            _on_rows(loss_and_grad, train_rows, "training"),
                            _on_rows(val_fn, val_rows, "validation") if val_ds else None, cfg,
                            early_stop=True, val_rows=len(val_rows))
    return model, trace
