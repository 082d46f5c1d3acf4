"""Evaluation metrics for survival models.

The headline metric is an L1 distance between per-record survival curves,
integrated on a per-record time grid that ends where the ground-truth curve
drops to a small quantile.  Also provided: Harrell's concordance index,
counted exactly by merging score ranks in O(n log^2 n) time, a single-time
Brier score, coefficient of determination against true regression targets,
and the metric-bias row of a given draw, which shows how censoring skews the
standard metrics even for the true model.  Every metric takes the model it
scores and the data, and none draws data.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .data import Config, SurvivalDataset, write_json
from .errors import DomainError, UndefinedMetricError, ValidationError
from .weibull import SURVIVAL_FLOOR, floored_survival

# grid points per block of survival_l1's per-record estimate curves
SURVIVAL_L1_CHUNK = 2**15


@dataclass
class SurvivalL1Config(Config):
    """``quantile_floor`` is the truth-survival level defining the upper
    integration endpoint; ``n_steps`` the Riemann resolution."""

    quantile_floor: float = 0.01
    n_steps: int = 1000

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.quantile_floor < 1.0:
            raise ValidationError(
                f"quantile_floor must lie in (0, 1), got {self.quantile_floor}"
            )
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")


def survival_l1(truth_model, estimate_model, x: np.ndarray, config: Optional[SurvivalL1Config] = None) -> float:
    """Mean per-record normalized L1 distance between survival curves.

    For record i the distance is the right-endpoint Riemann sum of
    |S_truth - S_est| over (0, T_max_i] divided by T_max_i, where
    T_max_i = S_truth^{-1}(quantile_floor | x_i).  Time-unit free.

    A Weibull PH model has H(s t | x) = s^nu H(t | x), so on the grid
    t = T_max_i k / n_steps each model's log cumulative hazard is its value
    at T_max_i plus nu log(k / n_steps).  The truth's value at T_max_i is
    log(-log quantile_floor) for every record, so its curve is one row of
    ``n_steps`` values shared by all records; only the estimate is
    evaluated per grid point.  Each model's risk is evaluated once (the
    truth's inside ``inverse_survival``).  Records are walked in blocks of
    about ``SURVIVAL_L1_CHUNK`` grid points, so memory does not grow with
    n * n_steps.  A model against itself scores of order 1e-17, not exactly 0:
    the shared row is exact where the per-record estimate is rounded.  Zero
    records raise ``ValidationError``.
    """
    cfg = config or SurvivalL1Config()
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # overflow is caught by the check below
        t_max = np.asarray(truth_model.inverse_survival(cfg.quantile_floor, x), dtype=float)
    n = len(t_max)
    if n == 0:
        raise ValidationError("survival_l1 needs at least one record")
    if not np.all(np.isfinite(t_max)) or np.any(t_max <= 0.0):
        bad = int(np.argmax(~(np.isfinite(t_max) & (t_max > 0.0))))
        raise DomainError(
            f"truth curve not invertible at the quantile floor (record {bad})"
        )
    log_steps = np.log(np.arange(1, cfg.n_steps + 1) / cfg.n_steps)
    # log H of the estimate at T_max per record, and nu log(k / n_steps) per step
    at_horizon = estimate_model.log_cumulative_hazard(t_max, x)[:, None]
    per_step = estimate_model.nu * log_steps
    rows = max(1, SURVIVAL_L1_CHUNK // cfg.n_steps)
    # each block's estimate curve is written into this: weibull.floored_survival
    # of exp(log H), one operation at a time in place
    buffer = np.empty((min(rows, n), cfg.n_steps))
    total = 0.0
    with np.errstate(over="ignore"):  # H = inf is S = 0, which the floor lifts
        s_truth = floored_survival(
            np.exp(np.log(-np.log(cfg.quantile_floor)) + truth_model.nu * log_steps)
        )
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            s = buffer[: stop - start]
            np.add(at_horizon[start:stop], per_step, out=s)
            np.exp(s, out=s)
            np.negative(s, out=s)
            np.exp(s, out=s)
            np.maximum(s, SURVIVAL_FLOOR, out=s)
            np.subtract(s_truth, s, out=s)
            np.abs(s, out=s)
            total += float(s.sum())
    return total / (n * cfg.n_steps)


def _count_later_lower_and_equal(v: np.ndarray, span: int) -> tuple:
    """Over the events of ``v``, whose entries are 2 * rank + event flag and
    lie below ``span``: the number of later entries of lower rank and the
    number of equal rank, as two ints.

    Bottom-up merge counting: at width w, every event in the left block of a
    pair of w-blocks counts the right block's lower and equal ranks, with one
    ``searchsorted`` over keys pair * span + entry that covers every pair at
    once; then each pair is sorted into one block of width 2w.  Any two
    positions meet in exactly one pair, at one level.
    """
    n = len(v)
    pos = np.arange(n)
    lower = equal = 0
    width = 1
    while width < n:
        pair = pos // (2 * width)
        offset = pair * span
        right = (pos & width) != 0
        keys = offset[right] + v[right]  # sorted: v is sorted within each w-block
        asks = ~right & (v % 2 == 1)
        below_rank = offset[asks] + v[asks] - 1  # pair * span + 2 * rank
        lo = np.searchsorted(keys, below_rank)
        hi = np.searchsorted(keys, below_rank + 2)
        # every earlier pair has a full right block: pair * width keys precede
        lower += int((lo - pair[asks] * width).sum())
        equal += int((hi - lo).sum())
        v = np.sort(offset + v, kind="stable") - offset
        width *= 2
    return lower, equal


def concordance_index(model, data: SurvivalDataset) -> float:
    """Harrell's c-index of ``model``'s risk scores: higher risk should mean
    earlier events.

    Pair (i, j) is comparable when t_i < t_j and record i is an event; it is
    concordant when score_i > score_j, and tied scores count one half.  A NaN
    score is never concordant or tied, but its pairs stay comparable.  Raises
    when no pair is comparable.

    The pair counts are exact integers, found by merge counting (Knight,
    JASA 1966) in O(n log^2 n) time and O(n) memory: records ordered by
    time, then score, then event flag are merged bottom-up by score rank,
    and each event counts the later records of lower and of equal score.
    """
    scores = np.asarray(model.risk.evaluate(data.x), dtype=float)
    t = data.t_obs
    event = data.delta == 1
    later = len(t) - np.searchsorted(np.sort(t), t[event], side="right")
    comparable = int(later.sum())
    if comparable == 0:
        raise UndefinedMetricError("no comparable pairs for the concordance index")
    scored = ~np.isnan(scores)
    t_rank = np.unique(t[scored], return_inverse=True)[1]
    s_values, s_rank = np.unique(scores[scored], return_inverse=True)
    span = 2 * len(s_values)
    # scored records in (time, score, event) order, each as 2 * score rank + event
    key = np.sort(t_rank * span + 2 * s_rank + event[scored])
    lower, equal = _count_later_lower_and_equal(key % span, span)
    # a group of e events sharing time and score also met e(e-1)/2 same-time pairs
    shared = np.unique(key[key % 2 == 1], return_counts=True)[1]
    equal -= int((shared * (shared - 1) // 2).sum())
    return (2 * lower + equal) / (2 * comparable)


def brier_score(model, data: SurvivalDataset, eval_time: Optional[float] = None) -> float:
    """Single-time unweighted Brier score of ``model``'s survival probabilities.

    ``eval_time`` defaults to the median observed time.  Records whose
    status at ``eval_time`` is unknown (censored at or before it) are
    excluded.
    """
    if eval_time is None:
        eval_time = float(np.median(data.t_obs))
    if eval_time <= 0.0:
        raise DomainError(f"eval_time must be positive, got {eval_time}")
    probs = np.asarray(model.survival(eval_time, data.x), dtype=float)
    known = (data.t_obs > eval_time) | (data.delta == 1)
    if not known.any():
        raise UndefinedMetricError("no records with known status at eval_time")
    outcome = (data.t_obs > eval_time).astype(float)
    return float(np.mean((outcome[known] - probs[known]) ** 2))


def r_squared(event_model, x: np.ndarray, y: np.ndarray) -> float:
    """R^2 of predicted median survival times against true targets."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != (x.shape[0],):
        raise ValidationError(f"y must have shape ({x.shape[0]},), got {y.shape}")
    pred = np.asarray(event_model.inverse_survival(0.5, x), dtype=float)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise UndefinedMetricError("target variance is zero")
    ss_res = float(((y - pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# Metric bias under censoring.


@dataclass
class MetricBiasRow:
    c_index_uncensored: float
    c_index_censored: float
    c_index_abs_diff: float
    brier_uncensored: float
    brier_censored: float
    brier_abs_diff: float
    censoring_fraction: float


def metric_bias_experiment(dataset: SurvivalDataset, truth, latent) -> MetricBiasRow:
    """Scores the ground-truth event model on censored vs uncensored data.

    The arguments are a draw as ``datagen.generate_synthetic`` returns it.
    The c-index and Brier score of ``truth.event_model`` are computed twice:
    against the latent event times (all events) and against the censored
    observations.  Both use the same evaluation time, the median observed
    time, so any gap is attributable to censoring.
    """
    model = truth.event_model
    uncensored = SurvivalDataset(dataset.x, latent.t_event, np.ones(len(dataset), dtype=np.int64))
    eval_time = float(np.median(dataset.t_obs))
    c_unc = concordance_index(model, uncensored)
    c_cen = concordance_index(model, dataset)
    b_unc = brier_score(model, uncensored, eval_time)
    b_cen = brier_score(model, dataset, eval_time)
    return MetricBiasRow(
        c_index_uncensored=c_unc,
        c_index_censored=c_cen,
        c_index_abs_diff=abs(c_unc - c_cen),
        brier_uncensored=b_unc,
        brier_censored=b_cen,
        brier_abs_diff=abs(b_unc - b_cen),
        censoring_fraction=float(1.0 - dataset.delta.mean()),
    )


# ---------------------------------------------------------------------------


@dataclass
class EvaluationReport:
    c_index: float
    brier: float
    survival_l1_event: Optional[float] = None
    survival_l1_censor: Optional[float] = None
    tau_hat: Optional[float] = None
    r_squared: Optional[float] = None

    def to_dict(self) -> dict:
        """Every field that is set, as a float."""
        return {key: float(val) for key, val in asdict(self).items() if val is not None}

    def save(self, path) -> str:
        """Writes the report as JSON; returns the text written."""
        return write_json(path, self.to_dict())
