"""Weibull proportional-hazards marginal models.

A model couples a Weibull baseline with shape ``nu`` and scale ``rho`` to a
covariate risk function g(x), giving

    log H(t | x) = nu (log t - log rho) + g(x),   S = exp(-H),
    log f(t | x) = log nu + log H - log t - H.

Shape and scale are stored as logs so unconstrained gradient updates keep
them positive.

Risk functions:

* ``LinearRisk``  - g(x) = w . x, no intercept.
* ``MLPRisk``     - fully connected net with ELU hidden activations and a
  linear output; weights initialized U[-1/sqrt(fan_in), 1/sqrt(fan_in)],
  biases zero.  Its activations are feature-major, (width, n) from the view
  ``x.T``, so each op runs along the n records in one contiguous pass instead
  of broadcasting a short width vector across n rows.  The bias add, the
  ELU and backprop's slope product update each layer's fresh array in
  place, with the same operations in the same order as the out-of-place
  formulas (kept in the tests as oracles), so the values are bit for bit
  the same.
* ``QuadraticRisk`` - g(x) = w . x^2, used by data-generating processes only
  (it has no training support).

Trainable risks have one pass, ``forward(x, params)``, at the parameter
point ``params`` (a dict keyed as ``params()``).  At one point it returns
``(g, backprop)``, where ``backprop(cotangent)`` reuses the pass's
activations.  At k points stacked on a leading axis of every array it
returns g as a (k, n) array, each row bit for bit the pass at that point
alone: a linear risk multiplies x by its weights as a (d, 1) column, or a
stack of k of them, and the MLP runs one layer code over either.  One
pass therefore serves training (one point, with its gradient) and
validation (a block of iterates).  ``evaluate(x)`` is g at the risk's own
parameters.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from .errors import DomainError, ParameterDomainError, ValidationError, check_document

ArrayLike = Union[float, np.ndarray]

SURVIVAL_FLOOR = 1e-300


def floored_survival(cum_hazard: ArrayLike) -> ArrayLike:
    """S = exp(-H), floored at ``SURVIVAL_FLOOR`` so that log S stays finite."""
    return np.maximum(np.exp(-cum_hazard), SURVIVAL_FLOOR)


def _check_matrix(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValidationError(
            f"covariate matrix must have shape (n, {dim}), got {x.shape}"
        )
    return x


@dataclass
class LinearRisk:
    """g(x) = weights . x (no intercept)."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def forward(self, x: np.ndarray, params: dict):
        """(g(x), backprop) at ``params``, as in :meth:`MLPRisk.forward`."""
        x = _check_matrix(x, self.dim)
        g = np.matmul(x, params["w"][..., None])[..., 0]
        return g, lambda cot: {"w": x.T @ np.asarray(cot, dtype=float)}

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, self.params())[0]

    def params(self) -> dict:
        return {"w": self.weights}

    def weight_keys(self) -> tuple:
        return ("w",)

    def to_dict(self) -> dict:
        return {"kind": "linear", "weights": [float(v) for v in self.weights]}


@dataclass
class QuadraticRisk:
    """g(x) = weights . x^2; a ground-truth generator risk, not trainable."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return _check_matrix(x, self.dim) ** 2 @ self.weights

    def to_dict(self) -> dict:
        return {"kind": "quadratic", "weights": [float(v) for v in self.weights]}


@dataclass
class MLPRisk:
    """Fully connected risk net, ELU hidden layers, identity output.

    ``widths`` runs from the input dimension to the final width 1, e.g.
    (10, 4, 4, 4, 2, 1).  Layer i maps widths[i] -> widths[i+1] with weight
    matrix of shape (widths[i+1], widths[i]).
    """

    widths: tuple
    weights: List[np.ndarray]
    biases: List[np.ndarray]

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if len(self.widths) < 2 or self.widths[-1] != 1:
            raise ValidationError(f"MLP widths must end at 1, got {self.widths}")
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        shapes = list(zip(self.widths[1:], self.widths[:-1]))
        if ([w.shape for w in self.weights] != shapes
                or [b.shape for b in self.biases] != [shape[:1] for shape in shapes]):
            raise ValidationError(f"MLP weights and biases do not fit widths {self.widths}")

    @classmethod
    def init(cls, widths: Sequence[int], rng: np.random.Generator) -> "MLPRisk":
        widths = tuple(int(w) for w in widths)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(widths=widths, weights=weights, biases=biases)

    @property
    def dim(self) -> int:
        return self.widths[0]

    def forward(self, x: np.ndarray, params: dict):
        """(g(x), backprop) at ``params``: ``backprop(cotangent)`` is the
        gradient of sum_i cotangent_i * g(x_i) with respect to every
        parameter.  With k points stacked in ``params`` g is (k, n)."""
        n_layers = len(self.weights)
        weights = [params[f"W{i}"] for i in range(n_layers)]
        # activations, feature-major from the view x.T on, and each hidden
        # layer's ELU negative part; with stacked points they carry the k axis.
        # ELU(z) = max(z, 0) + expm1(neg) with neg = min(z, 0); its slope is
        # exp(neg).  Each layer's fresh z is updated in place, with the
        # operations of max(z, 0) + expm1(neg) in their order, so the values
        # do not change.
        post, negs = [_check_matrix(x, self.dim).T], []
        for i, w in enumerate(weights):
            z = w @ post[-1]
            z += params[f"b{i}"][..., None]
            if i < n_layers - 1:
                neg = np.minimum(z, 0.0)
                negs.append(neg)
                np.maximum(z, 0.0, out=z)
                z += np.expm1(neg)
            post.append(z)

        def backprop(cotangent):
            grads = {}
            # output layer is linear; this first delta is a view of the
            # caller's cotangent, so it is never written: each later delta
            # is a fresh product, scaled in place
            delta = np.asarray(cotangent, dtype=float)[None, :]
            for i in range(n_layers - 1, -1, -1):
                grads[f"W{i}"] = delta @ post[i].T
                grads[f"b{i}"] = delta.sum(axis=1)
                if i > 0:
                    delta = weights[i].T @ delta
                    delta *= np.exp(negs[i - 1])
            return grads

        return post[-1][..., 0, :], backprop

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, self.params())[0]

    def params(self) -> dict:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"W{i}"] = w
            out[f"b{i}"] = b
        return out

    def weight_keys(self) -> tuple:
        return tuple(f"W{i}" for i in range(len(self.weights)))

    def to_dict(self) -> dict:
        return {
            "kind": "mlp",
            "widths": list(self.widths),
            "weights": [[float(v) for v in w.reshape(-1)] for w in self.weights],
            "biases": [[float(v) for v in b] for b in self.biases],
        }


# each risk kind's JSON form: its keys besides ``kind`` and their shapes
_RISK_SHAPES = {"linear": {"weights": [float]}, "quadratic": {"weights": [float]},
               "mlp": {"widths": [int], "weights": [[float]], "biases": [[float]]}}


def risk_from_dict(doc: dict):
    """Reads ``to_dict``'s form by check_document's rule; MLP lists must fit ``widths``."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if isinstance(doc, dict) and kind not in tuple(_RISK_SHAPES):  # a dict lookup raises on a list
        raise ValidationError(f"unknown risk kind: {kind!r}")
    check_document(doc, f"{kind} risk" if kind else "risk", {"kind": str, **_RISK_SHAPES.get(kind, {})})
    if kind == "linear":
        return LinearRisk(np.asarray(doc["weights"], dtype=float))
    if kind == "quadratic":
        return QuadraticRisk(np.asarray(doc["weights"], dtype=float))
    widths = doc["widths"]
    shapes = list(zip(widths[1:], widths[:-1]))
    if min(widths, default=0) < 1 or [len(w) for w in doc["weights"]] != [a * b for a, b in shapes]:
        raise ValidationError(f"mlp risk weights do not fit widths {widths}")
    weights = [np.reshape(flat, shape) for flat, shape in zip(doc["weights"], shapes)]
    return MLPRisk(widths, weights, doc["biases"])


def default_mlp_widths(dim: int) -> tuple:
    """Risk net architecture used by the reference experiments."""
    return (dim, 4, 4, 4, 2, 1)


# the risk kinds a fit can train, which make_risk builds
RISK_KINDS = ("linear", "mlp")


def make_risk(kind: str, dim: int, rng: np.random.Generator):
    if kind == "linear":
        return LinearRisk(np.zeros(dim))
    if kind == "mlp":
        return MLPRisk.init(default_mlp_widths(dim), rng)
    raise ValidationError(f"unknown trainable risk kind: {kind!r}")


# ---------------------------------------------------------------------------


def log_cumulative_hazard_from(log_nu, log_rho, log_t, g):
    """log H = nu (log t - log rho) + g with nu = exp(log nu).  It broadcasts:
    (k, 1) columns of log nu and log rho with a (k, n) g give k points' rows."""
    return np.exp(log_nu) * (log_t - log_rho) + g


@dataclass
class WeibullCoxModel:
    """Weibull proportional-hazards model with log-stored shape and scale."""

    log_nu: np.ndarray
    log_rho: np.ndarray
    risk: object

    def __post_init__(self):
        self.log_nu = np.asarray(self.log_nu, dtype=float).reshape(())
        self.log_rho = np.asarray(self.log_rho, dtype=float).reshape(())
        if not (np.isfinite(self.log_nu) and np.isfinite(self.log_rho)):
            raise ParameterDomainError("log_nu and log_rho must be finite")

    @classmethod
    def from_natural(cls, nu: float, rho: float, risk) -> "WeibullCoxModel":
        if nu <= 0 or rho <= 0:
            raise ParameterDomainError(f"nu and rho must be positive, got {nu}, {rho}")
        return cls(np.log(nu), np.log(rho), risk)

    @property
    def nu(self) -> float:
        return float(np.exp(self.log_nu))

    def _time(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise DomainError("t must be finite")
        if np.any(t < 0.0):
            raise DomainError("t must be non-negative")
        return t

    def log_cumulative_hazard(self, t: ArrayLike, x: np.ndarray) -> ArrayLike:
        """log H(t | x); -inf at t = 0.  Every other quantity of the model follows from it."""
        t = self._time(t)
        with np.errstate(divide="ignore"):
            return log_cumulative_hazard_from(self.log_nu, self.log_rho, np.log(t),
                                              self.risk.evaluate(x))

    def cumulative_hazard(self, t: ArrayLike, x: np.ndarray) -> ArrayLike:
        return np.exp(self.log_cumulative_hazard(t, x))

    def survival(self, t: ArrayLike, x: np.ndarray) -> ArrayLike:
        return floored_survival(self.cumulative_hazard(t, x))

    def inverse_survival(self, q: ArrayLike, x: np.ndarray) -> ArrayLike:
        """t such that S(t | x) = q, for q in (0, 1]."""
        q = np.asarray(q, dtype=float)
        if np.any(q <= 0.0) or np.any(q > 1.0):
            raise DomainError("q must lie in (0, 1]")
        with np.errstate(divide="ignore"):
            log_neg_log_q = np.log(-np.log(q))  # -inf at q = 1
        return np.exp(float(self.log_rho) + (log_neg_log_q - self.risk.evaluate(x)) / self.nu)

    def to_dict(self) -> dict:
        return {
            "kind": "weibull_cox",
            "log_nu": float(self.log_nu),
            "log_rho": float(self.log_rho),
            "risk": self.risk.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "WeibullCoxModel":
        check_document(doc, "weibull_cox model",
                       {"kind": str, "log_nu": float, "log_rho": float, "risk": None})
        if doc["kind"] != "weibull_cox":
            raise ValidationError(f"not a weibull_cox checkpoint: {doc['kind']!r}")
        return cls(doc["log_nu"], doc["log_rho"], risk_from_dict(doc["risk"]))

