"""Experiment presets: dependence sweeps, metric-bias study, semi-synthetic
regression censoring.

An experiment expands into independent arms, one per ``arms.csv`` row: a
sweep or semi-synthetic arm fits one model, ``copula`` or ``independence``,
on its (tau, seed) draw, a metric-bias arm has ``metrics`` score its draw,
and each semi-synthetic seed has one ``no_censoring`` arm, which scores the
all-event marginal fit that every semi-synthetic arm of the seed makes
before its censoring draw.  Every arm draws or censors its own data, on
random streams keyed here by its seed and ``datagen.tau_key(tau)``, so both
model arms of a (tau, seed) fit the same draw.  Arms run serially unless
the caller asks for more than one worker, in which case they run in a
process pool; rows are written in arm order, so results are identical
either way.  An exception raised inside an arm costs
its row alone and is recorded in ``failures.json``, with the arm's ``model``
when it has one and a ``NumericalFailure``'s ``epoch`` and ``record_index``.
The run only errors out if every arm fails.
Faults of the pool itself (an arm function or payload that cannot be pickled,
a broken pool) are raised, never recorded as arm failures.

Output tree::

    out/
      config.json     resolved configuration echo
      arms.csv        one row per (tau, seed, model); wall_time_s is the one
                      column that varies between reruns
      summary.csv     aggregates over seeds, one row per group
      failures.json   present only if some arm failed
      arms/<arm>/<model>/{checkpoint.json, trace.csv, report.json}

A run into an ``out`` that an earlier run wrote replaces that run's files:
``arms/`` is cleared before the arms run, and a ``failures.json`` the run
does not write is removed.

``SUMMARIES`` gives each kind's ``summary.csv``: the ``arms.csv`` rows are
grouped by its group columns, in the order of each group's first row, and
each summarized column gets ``mean_<column>``, ``std_<column>`` (population)
where flagged, and the group size ``n_seeds``.  Sweeps group per (tau, model,
outcome), each arm row counting once for the event and once for the censor
survival-L1; ``semi_synthetic`` groups per (tau, model) and ``metric_bias``
per tau, with means only.

``wall_time_s`` is the seconds spent fitting the row's model, evaluation
excluded.  For the semi-synthetic ``no_censoring`` row that is the all-event
marginal fit alone (``datagen.fit_regression_marginal``), which makes no
censoring draw; a ``metric_bias`` row fits nothing and times its whole
computation.
"""
from __future__ import annotations

import pickle
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import metrics as met
from .copulas import Family, spec_from_tau, theta_to_tau
from .data import Config, SurvivalDataset, csv_cell, load_regression_csv, write_csv, write_json
from .datagen import (PRESETS, censor_regression, child_seed, fit_regression_marginal,
                      generate_synthetic, preset_metric_bias, regression_table, sidecar_dict,
                      synthetic_regression, tau_key)
from .errors import DomainError, NumericalFailure, ValidationError
from .metrics import SurvivalL1Config
from .training import FittedJointModel, TrainConfig, fit
from .weibull import RISK_KINDS

KINDS = ("synthetic_sweep", "mixture_sweep", "metric_bias", "semi_synthetic")
MODELS = ("copula", "independence")

SWEEP_COLUMNS = (
    "experiment_id",
    "tau_star",
    "seed",
    "model",
    "family",
    "survival_l1_event",
    "survival_l1_censor",
    "tau_hat",
    "c_index",
    "brier",
    "r_squared",
    "wall_time_s",
)

# a MetricBiasRow after the arm's experiment id, tau and seed, and before the wall time
BIAS_COLUMNS = ("experiment_id", "tau_star", "seed",
                *[f.name for f in fields(met.MetricBiasRow)], "wall_time_s")

_SWEEP_SUMMARY = (("tau_star", "model", "outcome"), (("survival_l1", True), ("tau_hat", True)))

# kind -> (group columns, ((summarized column, std reported), ...))
SUMMARIES = {
    "synthetic_sweep": _SWEEP_SUMMARY,
    "mixture_sweep": _SWEEP_SUMMARY,
    # the six c-index and Brier columns, means only
    "metric_bias": (("tau_star",), tuple((col, False) for col in BIAS_COLUMNS[3:-2])),
    "semi_synthetic": (("tau_star", "model"), (("r_squared", True), ("tau_hat", True))),
}


@dataclass
class ExperimentConfig(Config):
    experiment_id: str
    kind: str
    family: str = "clayton"
    tau_grid: Tuple[float, ...] = (0.01, 0.2, 0.4, 0.6, 0.8)
    preset: str = "linear_risk"
    data_csv: Optional[str] = None
    target_column: Optional[str] = None
    n_train: int = 5000
    n_val: int = 2000
    n_test: int = 2000
    seeds: Tuple[int, ...] = tuple(range(10))
    event_risk: str = "linear"
    censor_risk: str = "linear"
    kappa: float = 0.5
    train: TrainConfig = field(default_factory=TrainConfig)
    survival_l1: SurvivalL1Config = field(default_factory=SurvivalL1Config)

    def __post_init__(self):
        super().__post_init__()
        # the id is the first cell of every arms.csv and summary.csv row, written unquoted
        if any(c in self.experiment_id for c in ',"\r\n'):
            raise ValidationError(f"experiment_id must hold no comma, quote, CR or LF, "
                                  f"got {self.experiment_id!r}")
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        self.family = self.family.lower()
        families = [f.value for f in Family]
        if self.family not in families:
            raise ValidationError(f"family must be one of {families}, got {self.family!r}")
        if not self.tau_grid:
            raise ValidationError("tau_grid must not be empty")
        if any(not 0.0 <= t < 1.0 for t in self.tau_grid):
            raise ValidationError(f"tau_grid values must lie in [0, 1): {self.tau_grid}")
        if not self.seeds:
            raise ValidationError("seeds must not be empty")
        if any(s < 0 for s in self.seeds):
            raise ValidationError(f"seeds must be non-negative integers: {self.seeds}")
        # arms are named tau{tau:g}_seed{seed} and key their random streams by tau_key(tau)
        if len({f"{t:g}" for t in self.tau_grid}) != len(self.tau_grid):
            raise ValidationError(f"tau_grid entries must differ in 6 significant digits: {self.tau_grid}")
        if len(set(map(tau_key, self.tau_grid))) != len(self.tau_grid):
            raise ValidationError(f"tau_grid entries with one tau_key would share every random stream: "
                                  f"{self.tau_grid}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError(f"seeds has duplicate entries: {self.seeds}")
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ValidationError(f"n_train, n_val and n_test must be >= 1, got "
                                  f"{self.n_train}, {self.n_val} and {self.n_test}")
        if self.kind == "mixture_sweep":
            self.family = "mixture"
        elif self.family == "mixture" and self.kind in ("synthetic_sweep", "metric_bias"):
            raise ValidationError(f"{self.kind} requires a single-parameter family")
        if self.family == "independence":
            raise ValidationError("the fitted dependence family cannot be independence")
        if self.kind in ("synthetic_sweep", "mixture_sweep") and self.preset not in (
            "linear_risk",
            "nonlinear_risk",
        ):
            raise ValidationError(
                f"{self.kind} preset must be linear_risk or nonlinear_risk, got {self.preset!r}"
            )
        for name in ("data_csv", "target_column"):
            if getattr(self, name) is not None and self.kind != "semi_synthetic":
                raise ValidationError(f"{name} is read by semi_synthetic only, not by {self.kind}")
        if self.kind == "semi_synthetic":
            if self.data_csv is None and self.preset != "standin":
                raise ValidationError(
                    "semi_synthetic needs data_csv (+ target_column) or preset='standin'"
                )
            if self.data_csv is not None and self.target_column is None:
                raise ValidationError("data_csv requires target_column")
            if any(t == 0.0 for t in self.tau_grid):
                raise ValidationError("semi_synthetic tau_grid must be positive")
        if self.event_risk not in RISK_KINDS or self.censor_risk not in RISK_KINDS:
            raise ValidationError("event_risk and censor_risk must be 'linear' or 'mlp'")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValidationError(f"kappa must lie in [0, 1], got {self.kappa}")
        # a tau beyond the family's range (Frank's ends at theta 500) fails here, not per arm
        for tau in self.tau_grid:
            try:
                spec_from_tau(self.family, tau, self.kappa)
            except DomainError as exc:
                raise ValidationError(f"tau_grid entry {tau}: {exc}") from exc
        for name in ("seed", "validation_fraction"):
            if getattr(self.train, name) != getattr(TrainConfig, name):
                raise ValidationError(f"train.{name} cannot be set: each arm derives it")


def _write_csv(path, columns, rows) -> None:
    """Writes the dict ``rows`` under ``columns``; a missing key is an empty cell."""
    write_csv(path, columns, ([csv_cell(row.get(col)) for col in columns] for row in rows))


def evaluate_fitted(fitted: FittedJointModel, truth, test_ds, l1_cfg, target=None,
                    eval_time=None):
    """Score ``fitted`` on ``test_ds``; survival-L1 needs ``truth``, R-squared
    needs the regression ``target`` of the test rows, and the Brier score is
    taken at ``eval_time`` (default: the median observed time)."""
    report = met.EvaluationReport(
        c_index=met.concordance_index(fitted.event_model, test_ds),
        brier=met.brier_score(fitted.event_model, test_ds, eval_time),
        tau_hat=theta_to_tau(fitted.copula),
    )
    if truth is not None:
        report.survival_l1_event = met.survival_l1(
            truth.event_model, fitted.event_model, test_ds.x, l1_cfg
        )
        report.survival_l1_censor = met.survival_l1(
            truth.censor_model, fitted.censor_model, test_ds.x, l1_cfg
        )
    if target is not None:
        report.r_squared = met.r_squared(fitted.event_model, test_ds.x, target)
    return report


def _save_model_artifacts(arm_dir: Path, model_name: str, fitted: FittedJointModel, report):
    mdir = arm_dir / model_name
    mdir.mkdir(parents=True, exist_ok=True)
    fitted.save(mdir / "checkpoint.json")
    fitted.trace.to_csv(mdir / "trace.csv")
    report.save(mdir / "report.json")


def _row(cfg: ExperimentConfig, tau, seed: int, wall: float, **values) -> dict:
    """One ``arms.csv`` row: the arm's tau and seed, ``values`` and the wall time."""
    return {"experiment_id": cfg.experiment_id, "tau_star": tau, "seed": seed, **values,
            "wall_time_s": wall}


def _fit_model(cfg, tau, seed, model, train_seed, fit_ds, test_ds, truth, arm_dir, target=None):
    """Fit and time ``model`` (the copula model on ``cfg.family`` or the
    independence baseline) on ``fit_ds``, evaluate and save it; returns its row."""
    train_cfg = replace(
        cfg.train, seed=train_seed, validation_fraction=cfg.n_val / (cfg.n_train + cfg.n_val)
    )
    family = cfg.family if model == "copula" else "independence"
    start = time.perf_counter()
    fitted = fit(fit_ds, cfg.event_risk, cfg.censor_risk, family, train_cfg)
    wall = time.perf_counter() - start
    report = evaluate_fitted(fitted, truth, test_ds, cfg.survival_l1, target)
    _save_model_artifacts(arm_dir, model, fitted, report)
    return _row(cfg, tau, seed, wall, model=model, family=family, **asdict(report))


def _sweep_arm(payload):
    cfg, tau, seed, model, out_root = payload
    arm_dir = Path(out_root) / "arms" / f"tau{tau:g}_seed{seed}"
    n_fit = cfg.n_train + cfg.n_val
    gen_cfg = PRESETS[cfg.preset](
        seed, n=n_fit + cfg.n_test, copula=spec_from_tau(cfg.family, tau, cfg.kappa),
        data_seed=child_seed(seed, tau_key(tau), 1),
    )
    dataset, truth, _ = generate_synthetic(gen_cfg)
    arm_dir.mkdir(parents=True, exist_ok=True)
    write_json(arm_dir / "truth.json", sidecar_dict(gen_cfg, tau=tau))
    return _fit_model(
        cfg, tau, seed, model, child_seed(seed, tau_key(tau), 2),
        dataset.subset(np.arange(n_fit)),
        dataset.subset(np.arange(n_fit, n_fit + cfg.n_test)),
        truth, arm_dir,
    )


def _metric_bias_arm(payload):
    cfg, tau, seed, _, _ = payload
    start = time.perf_counter()
    gen_cfg = preset_metric_bias(seed, n=cfg.n_train, copula=spec_from_tau(cfg.family, tau),
                                 data_seed=child_seed(seed, tau_key(tau), 101))
    row = met.metric_bias_experiment(*generate_synthetic(gen_cfg))
    wall = time.perf_counter() - start
    return _row(cfg, tau, seed, wall, **asdict(row))


def _semi_table(cfg: ExperimentConfig):
    """``cfg.data_csv`` under ``datagen.regression_table``, before any split."""
    x, y = load_regression_csv(cfg.data_csv, cfg.target_column)
    return regression_table(x, y, f"{cfg.data_csv}: {cfg.target_column!r}")[:2]


def _semi_arm(payload):
    cfg, tau, seed, model, out_root = payload
    total = cfg.n_train + cfg.n_val + cfg.n_test
    x, y = (_semi_table(cfg) if cfg.data_csv is not None
            else synthetic_regression(total, 10, child_seed(seed, 0, 8)))
    n = len(y)
    n_test = max(1, int(round(n * cfg.n_test / total)))
    perm = np.random.default_rng(child_seed(seed, 0, 7)).permutation(n)
    test_idx, tv_idx = perm[:n_test], perm[n_test:]

    # the all-event marginal fit is the no-censoring baseline and, for the
    # model arms, the source of the censoring draw at the arm's tau
    start = time.perf_counter()
    marginal = fit_regression_marginal(x[tv_idx], y[tv_idx], TrainConfig(seed=child_seed(seed, 0, 10)))
    wall = time.perf_counter() - start
    x_test, target = marginal.standardize(x[test_idx]), y[test_idx]
    test_ds = SurvivalDataset(x_test, target, np.ones(len(test_idx), dtype=np.int64))

    if model == "no_censoring":
        report = met.EvaluationReport(
            c_index=met.concordance_index(marginal.event_model, test_ds),
            brier=met.brier_score(marginal.event_model, test_ds),
            r_squared=met.r_squared(marginal.event_model, x_test, target),
        )
        return _row(cfg, tau, seed, wall, model=model, family="", **asdict(report))
    cens_ds, _ = censor_regression(marginal, spec_from_tau(cfg.family, tau, cfg.kappa),
                                   child_seed(seed, tau_key(tau), 9))
    return _fit_model(
        cfg, tau, seed, model, child_seed(seed, tau_key(tau), 11), cens_ds, test_ds, None,
        Path(out_root) / "arms" / f"seed{seed}" / f"tau{tau:g}", target,
    )


def _arm_payloads(cfg: ExperimentConfig, out_dir: str):
    """The kind's arm function and one ``(cfg, tau, seed, model, out_dir)``
    payload per ``arms.csv`` row, in that file's order: by tau, seed and model,
    after the semi-synthetic ``no_censoring`` arms (tau ``""``, one per seed).
    ``model`` is None for metric-bias arms."""
    arm_fn = {"synthetic_sweep": _sweep_arm, "mixture_sweep": _sweep_arm,
              "metric_bias": _metric_bias_arm, "semi_synthetic": _semi_arm}[cfg.kind]
    seeds = sorted(cfg.seeds)
    models = (None,) if cfg.kind == "metric_bias" else MODELS
    baselines = [(cfg, "", seed, "no_censoring", out_dir)
                 for seed in seeds if cfg.kind == "semi_synthetic"]
    return arm_fn, baselines + [(cfg, tau, seed, model, out_dir)
                                for tau in sorted(cfg.tau_grid) for seed in seeds for model in models]


def _mean_std(values):
    arr = np.array([v for v in values if v is not None], dtype=float)
    if arr.size == 0:
        return None, None
    return float(arr.mean()), float(arr.std())


def _summarize(cfg: ExperimentConfig, rows):
    """``summary.csv`` columns and rows of the sorted arm ``rows``."""
    group_cols, stats = SUMMARIES[cfg.kind]
    if "outcome" in group_cols:
        rows = [
            {**row, "outcome": outcome, "survival_l1": row[f"survival_l1_{outcome}"]}
            for row in rows
            for outcome in ("event", "censor")
        ]
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[col] for col in group_cols), []).append(row)
    cols = ["experiment_id", *group_cols]
    for name, with_std in stats:
        cols += [f"mean_{name}", f"std_{name}"] if with_std else [f"mean_{name}"]
    cols.append("n_seeds")
    out = []
    for key, sub in groups.items():
        rec = {"experiment_id": cfg.experiment_id, **dict(zip(group_cols, key)), "n_seeds": len(sub)}
        for name, _ in stats:
            rec[f"mean_{name}"], rec[f"std_{name}"] = _mean_std([row[name] for row in sub])
        out.append(rec)
    return cols, out


@dataclass
class ExperimentResult:
    out_dir: str
    rows: list
    failures: list

    @property
    def arms_csv(self) -> str:
        return str(Path(self.out_dir) / "arms.csv")


def _check_picklable(arm_fn, payloads) -> None:
    """Raise ``pickle.PicklingError`` unless every arm can be sent to a worker.

    A pickling failure inside the pool's queue feeder reaches
    ``future.result()`` looking exactly like an exception raised by the arm, so
    it is caught here, in the parent, before anything is submitted.
    """
    for payload in payloads:
        try:
            pickle.dumps((arm_fn, payload))
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise pickle.PicklingError(
                f"experiment arm cannot be sent to a worker process: {exc}"
            ) from exc


def run_experiment(cfg: ExperimentConfig, out_dir, workers: Optional[int] = None) -> ExperimentResult:
    """Run every arm of ``cfg`` and write the output tree under ``out_dir``.

    Arms run serially when ``workers`` is None or 1, and in a process pool of
    at most ``workers`` processes when it is larger; the rows are the same
    either way.  ``workers < 1`` raises ``ValidationError``.  An exception
    raised by an arm is recorded in ``failures.json``; ``NumericalFailure`` is
    raised only if every arm fails.  A semi-synthetic ``data_csv`` is read
    first, as each arm reads it: ``OSError`` if it cannot be,
    ``ValidationError`` for a table ``_semi_table`` refuses.  On the pool
    path an arm function or payload that cannot be pickled raises
    ``pickle.PicklingError`` and a dead worker raises ``BrokenProcessPool``;
    neither is recorded as an arm failure.
    """
    workers = 1 if workers is None else workers
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if cfg.kind == "semi_synthetic" and cfg.data_csv is not None:
        _semi_table(cfg)  # every arm's first step; a table it refuses fails the run here
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", cfg.to_dict())
    if (out / "arms").exists():  # an earlier run's arms, which config.json no longer describes
        shutil.rmtree(out / "arms")

    arm_fn, payloads = _arm_payloads(cfg, str(out))
    rows, failures = [], []
    with ExitStack() as stack:
        if workers > 1 and len(payloads) > 1:
            _check_picklable(arm_fn, payloads)
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=min(workers, len(payloads))))
            calls = [pool.submit(arm_fn, payload).result for payload in payloads]
        else:
            calls = [partial(arm_fn, payload) for payload in payloads]
        for payload, call in zip(payloads, calls):
            try:
                rows.append(call())
            except BrokenProcessPool:
                raise
            except Exception as exc:  # noqa: BLE001 - isolate arm failures
                _, tau, seed, model, _ = payload
                failure = {"arm": f"{tau}/{seed}", "error": type(exc).__name__, "message": str(exc)}
                if model is not None:
                    failure["model"] = model
                if isinstance(exc, NumericalFailure):
                    failure.update(epoch=exc.epoch, record_index=exc.record_index)
                failures.append(failure)

    columns = BIAS_COLUMNS if cfg.kind == "metric_bias" else SWEEP_COLUMNS
    _write_csv(out / "arms.csv", columns, rows)
    _write_csv(out / "summary.csv", *_summarize(cfg, rows))
    if failures:
        write_json(out / "failures.json", failures)
    else:  # a failures.json left by an earlier run into ``out`` describes that run
        (out / "failures.json").unlink(missing_ok=True)
    if rows == [] and failures:
        raise NumericalFailure(
            f"all {len(failures)} experiment arms failed; see {out / 'failures.json'}"
        )
    return ExperimentResult(out_dir=str(out), rows=rows, failures=failures)
