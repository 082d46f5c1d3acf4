"""Experiment presets: dependence sweeps, metric-bias study, semi-synthetic
regression censoring.

An experiment expands into independent arms (one per dependence level and
seed for sweeps, one per seed otherwise), each of which generates data, fits
the copula model and the independence baseline on the same draw, and
evaluates against the ground truth.  Arms run serially unless the caller asks
for more than one worker, in which case they run in a process pool; rows are
re-sorted before writing, so results are identical either way.  An exception
raised inside an arm is recorded in ``failures.json`` and the arm skipped; the
run only errors out if every arm fails.  Faults of the pool itself (an arm
function or payload that cannot be pickled, a broken pool) are raised, never
recorded as arm failures.

Output tree::

    out/
      config.json     resolved configuration echo
      arms.csv        one row per (tau, seed, model); wall_time_s is the one
                      column that varies between reruns
      summary.csv     mean/std aggregates over seeds
      failures.json   present only if some arm failed
      arms/<arm>/<model>/{checkpoint.json, trace.csv, report.json}

``wall_time_s`` is the seconds spent fitting the row's model, evaluation
excluded.  For the semi-synthetic ``no_censoring`` row that is the
``censor_regression`` call, whose all-event marginal fit is that model; a
``metric_bias`` row fits nothing and times its whole computation.
"""
from __future__ import annotations

import json
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import metrics as met
from .copulas import spec_from_tau
from .data import SurvivalDataset, load_regression_csv
from .datagen import PRESETS, censor_regression, generate_synthetic, sidecar_dict, synthetic_regression, zscore_fit
from .errors import NumericalFailure, ValidationError
from .metrics import SurvivalL1Config
from .training import FittedJointModel, TrainConfig, fit, tau_hat

KINDS = ("synthetic_sweep", "mixture_sweep", "metric_bias", "semi_synthetic")

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

BIAS_COLUMNS = (
    "experiment_id",
    "tau_star",
    "seed",
    "c_index_uncensored",
    "c_index_censored",
    "c_index_abs_diff",
    "brier_uncensored",
    "brier_censored",
    "brier_abs_diff",
    "censoring_fraction",
    "wall_time_s",
)


@dataclass
class ExperimentConfig:
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
    train: TrainConfig = field(default_factory=lambda: TrainConfig(patience=300))
    survival_l1: SurvivalL1Config = field(default_factory=SurvivalL1Config)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        self.family = str(self.family).lower()
        self.tau_grid = tuple(float(t) for t in self.tau_grid)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.tau_grid:
            raise ValidationError("tau_grid must not be empty")
        if any(not 0.0 <= t < 1.0 for t in self.tau_grid):
            raise ValidationError(f"tau_grid values must lie in [0, 1): {self.tau_grid}")
        if not self.seeds:
            raise ValidationError("seeds must not be empty")
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ValidationError("n_train, n_val, n_test must all be >= 1")
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
        if self.kind == "semi_synthetic":
            if self.data_csv is None and self.preset != "standin":
                raise ValidationError(
                    "semi_synthetic needs data_csv (+ target_column) or preset='standin'"
                )
            if self.data_csv is not None and self.target_column is None:
                raise ValidationError("data_csv requires target_column")
            if any(t == 0.0 for t in self.tau_grid):
                raise ValidationError("semi_synthetic tau_grid must be positive")
        if self.event_risk not in ("linear", "mlp") or self.censor_risk not in ("linear", "mlp"):
            raise ValidationError("event_risk and censor_risk must be 'linear' or 'mlp'")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValidationError(f"kappa must lie in [0, 1], got {self.kappa}")
        if isinstance(self.train, dict):
            self.train = TrainConfig.from_dict(self.train)
        if isinstance(self.survival_l1, dict):
            self.survival_l1 = SurvivalL1Config.from_dict(self.survival_l1)

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "kind": self.kind,
            "family": self.family,
            "tau_grid": list(self.tau_grid),
            "preset": self.preset,
            "data_csv": self.data_csv,
            "target_column": self.target_column,
            "n_train": self.n_train,
            "n_val": self.n_val,
            "n_test": self.n_test,
            "seeds": list(self.seeds),
            "event_risk": self.event_risk,
            "censor_risk": self.censor_risk,
            "kappa": self.kappa,
            "train": self.train.to_dict(),
            "survival_l1": self.survival_l1.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        extra = set(doc) - known
        if extra:
            raise ValidationError(f"unknown ExperimentConfig fields: {sorted(extra)}")
        return cls(**doc)


def _child_seed(*keys) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _tau_key(tau: float) -> int:
    return int(round(tau * 1_000_000))


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(col)) for col in columns) + "\n")


def _fit_spec_family(cfg: ExperimentConfig) -> str:
    return "mixture" if cfg.kind == "mixture_sweep" else cfg.family


def _evaluate_fitted(fitted: FittedJointModel, truth, test_ds, l1_cfg):
    report = met.EvaluationReport(
        c_index=met.concordance_index(fitted.event_model, test_ds),
        brier=met.brier_score(fitted.event_model, test_ds),
        tau_hat=tau_hat(fitted.copula),
    )
    if truth is not None:
        report.survival_l1_event = met.survival_l1(
            truth.event_model, fitted.event_model, test_ds.x, l1_cfg
        )
        report.survival_l1_censor = met.survival_l1(
            truth.censor_model, fitted.censor_model, test_ds.x, l1_cfg
        )
    return report


def _save_model_artifacts(arm_dir: Path, model_name: str, fitted: FittedJointModel, report):
    mdir = arm_dir / model_name
    mdir.mkdir(parents=True, exist_ok=True)
    fitted.save(mdir / "checkpoint.json")
    if fitted.trace is not None:
        fitted.trace.to_csv(mdir / "trace.csv")
    report.save(mdir / "report.json")


def _sweep_arm(payload):
    cfg, tau, seed, out_root = payload
    arm_id = f"tau{tau:g}_seed{seed}"
    arm_dir = Path(out_root) / "arms" / arm_id
    total = cfg.n_train + cfg.n_val + cfg.n_test
    data_spec = spec_from_tau(_fit_spec_family(cfg), tau, cfg.kappa)
    gen_cfg = PRESETS[cfg.preset](
        seed, n=total, copula=data_spec, data_seed=_child_seed(seed, _tau_key(tau), 1)
    )
    dataset, truth, _ = generate_synthetic(gen_cfg)
    fit_ds = dataset.subset(np.arange(cfg.n_train + cfg.n_val))
    test_ds = dataset.subset(np.arange(cfg.n_train + cfg.n_val, total))

    arm_dir.mkdir(parents=True, exist_ok=True)
    with open(arm_dir / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar_dict(gen_cfg, tau=tau), fh, indent=2, sort_keys=True)
        fh.write("\n")

    base_train = replace(
        cfg.train,
        seed=_child_seed(seed, _tau_key(tau), 2),
        validation_fraction=cfg.n_val / (cfg.n_train + cfg.n_val),
    )
    rows = []
    for model_name, family in (("copula", _fit_spec_family(cfg)), ("independence", "independence")):
        start = time.perf_counter()
        fitted = fit(fit_ds, cfg.event_risk, cfg.censor_risk, family, base_train)
        wall = time.perf_counter() - start
        report = _evaluate_fitted(fitted, truth, test_ds, cfg.survival_l1)
        _save_model_artifacts(arm_dir, model_name, fitted, report)
        rows.append(
            {
                "experiment_id": cfg.experiment_id,
                "tau_star": tau,
                "seed": seed,
                "model": model_name,
                "family": family,
                "survival_l1_event": report.survival_l1_event,
                "survival_l1_censor": report.survival_l1_censor,
                "tau_hat": report.tau_hat,
                "c_index": report.c_index,
                "brier": report.brier,
                "r_squared": None,
                "wall_time_s": wall,
            }
        )
    return arm_id, rows


def _metric_bias_arm(payload):
    cfg, seed, out_root = payload
    rows = []
    for tau in cfg.tau_grid:
        start = time.perf_counter()
        (bias_row,) = met.metric_bias_experiment(
            [tau], seed=seed, n=cfg.n_train, family=cfg.family
        )
        wall = time.perf_counter() - start
        rows.append(
            {
                "experiment_id": cfg.experiment_id,
                "tau_star": bias_row.tau,
                "seed": seed,
                "c_index_uncensored": bias_row.c_index_uncensored,
                "c_index_censored": bias_row.c_index_censored,
                "c_index_abs_diff": bias_row.c_index_abs_diff,
                "brier_uncensored": bias_row.brier_uncensored,
                "brier_censored": bias_row.brier_censored,
                "brier_abs_diff": bias_row.brier_abs_diff,
                "censoring_fraction": bias_row.censoring_fraction,
                "wall_time_s": wall,
            }
        )
    return f"seed{seed}", rows


def _semi_synthetic_data(cfg: ExperimentConfig, seed: int):
    if cfg.data_csv is not None:
        x, y, _ = load_regression_csv(cfg.data_csv, cfg.target_column)
    else:
        total = cfg.n_train + cfg.n_val + cfg.n_test
        x, y = synthetic_regression(total, 10, _child_seed(seed, 0, 8))
    return x, y


def _semi_arm(payload):
    cfg, seed, out_root = payload
    arm_dir = Path(out_root) / "arms" / f"seed{seed}"
    x, y = _semi_synthetic_data(cfg, seed)
    n = len(y)
    sizes = np.array([cfg.n_train, cfg.n_val, cfg.n_test], dtype=float)
    n_test = max(1, int(round(n * sizes[2] / sizes.sum())))
    n_val = max(1, int(round(n * sizes[1] / sizes.sum())))
    perm = np.random.default_rng(_child_seed(seed, 0, 7)).permutation(n)
    test_idx = perm[:n_test]
    tv_idx = perm[n_test:]
    x_tv, y_tv = x[tv_idx], y[tv_idx]

    marginal_cfg = TrainConfig(max_epochs=5000, patience=500, seed=_child_seed(seed, 0, 10))
    mean, std = zscore_fit(x_tv)
    x_test = (x[test_idx] - mean) / std
    y_test = y[test_idx]

    def test_event_ds(shift):
        return SurvivalDataset(
            x_test, y_test + shift, np.ones(len(test_idx), dtype=np.int64)
        )

    rows = []
    baseline_done = False
    for tau in cfg.tau_grid:
        spec = spec_from_tau(_fit_spec_family(cfg), tau, cfg.kappa)
        start = time.perf_counter()
        cens_ds, info = censor_regression(
            x_tv, y_tv, spec, seed=_child_seed(seed, _tau_key(tau), 9),
            fit_config=marginal_cfg,
        )
        prep_wall = time.perf_counter() - start
        eval_ds = test_event_ds(info.shift)

        if not baseline_done:
            # the all-event marginal fit inside censor_regression is exactly
            # the no-censoring baseline; it does not depend on tau
            rows.append(
                {
                    "experiment_id": cfg.experiment_id,
                    "tau_star": "",
                    "seed": seed,
                    "model": "no_censoring",
                    "family": "",
                    "survival_l1_event": None,
                    "survival_l1_censor": None,
                    "tau_hat": None,
                    "c_index": met.concordance_index(info.event_model, eval_ds),
                    "brier": met.brier_score(info.event_model, eval_ds),
                    "r_squared": met.r_squared(info.event_model, x_test, y_test + info.shift),
                    "wall_time_s": prep_wall,
                }
            )
            baseline_done = True

        vf = cfg.n_val / (cfg.n_train + cfg.n_val)
        tr_cfg = replace(
            cfg.train, seed=_child_seed(seed, _tau_key(tau), 11), validation_fraction=vf
        )
        for model_name, family in (
            ("copula", _fit_spec_family(cfg)),
            ("independence", "independence"),
        ):
            start = time.perf_counter()
            fitted = fit(cens_ds, cfg.event_risk, cfg.censor_risk, family, tr_cfg)
            wall = time.perf_counter() - start
            report = met.EvaluationReport(
                c_index=met.concordance_index(fitted.event_model, eval_ds),
                brier=met.brier_score(fitted.event_model, eval_ds),
                tau_hat=tau_hat(fitted.copula),
                r_squared=met.r_squared(fitted.event_model, x_test, y_test + info.shift),
            )
            _save_model_artifacts(arm_dir / f"tau{tau:g}", model_name, fitted, report)
            rows.append(
                {
                    "experiment_id": cfg.experiment_id,
                    "tau_star": tau,
                    "seed": seed,
                    "model": model_name,
                    "family": family,
                    "survival_l1_event": None,
                    "survival_l1_censor": None,
                    "tau_hat": report.tau_hat,
                    "c_index": report.c_index,
                    "brier": report.brier,
                    "r_squared": report.r_squared,
                    "wall_time_s": wall,
                }
            )
    return f"seed{seed}", rows


def _arm_payloads(cfg: ExperimentConfig, out_dir: str):
    if cfg.kind in ("synthetic_sweep", "mixture_sweep"):
        return _sweep_arm, [
            (cfg, tau, seed, out_dir) for tau in cfg.tau_grid for seed in cfg.seeds
        ]
    if cfg.kind == "metric_bias":
        return _metric_bias_arm, [(cfg, seed, out_dir) for seed in cfg.seeds]
    return _semi_arm, [(cfg, seed, out_dir) for seed in cfg.seeds]


def _sort_key(row):
    tau = row.get("tau_star")
    tau_sort = -1.0 if tau in (None, "") else float(tau)
    return (tau_sort, int(row["seed"]), str(row.get("model", "")))


def _mean_std(values):
    arr = np.array([v for v in values if v is not None], dtype=float)
    if arr.size == 0:
        return None, None
    return float(arr.mean()), float(arr.std())


def _summarize(cfg: ExperimentConfig, rows):
    if cfg.kind == "metric_bias":
        cols = (
            "experiment_id",
            "tau_star",
            "mean_c_index_uncensored",
            "mean_c_index_censored",
            "mean_c_index_abs_diff",
            "mean_brier_uncensored",
            "mean_brier_censored",
            "mean_brier_abs_diff",
            "n_seeds",
        )
        out = []
        for tau in sorted({row["tau_star"] for row in rows}):
            sub = [r for r in rows if r["tau_star"] == tau]
            rec = {"experiment_id": cfg.experiment_id, "tau_star": tau, "n_seeds": len(sub)}
            for key in (
                "c_index_uncensored",
                "c_index_censored",
                "c_index_abs_diff",
                "brier_uncensored",
                "brier_censored",
                "brier_abs_diff",
            ):
                rec[f"mean_{key}"], _ = _mean_std([r[key] for r in sub])
            out.append(rec)
        return cols, out

    if cfg.kind == "semi_synthetic":
        cols = (
            "experiment_id",
            "tau_star",
            "model",
            "mean_r_squared",
            "std_r_squared",
            "mean_tau_hat",
            "std_tau_hat",
            "n_seeds",
        )
        out = []
        groups = sorted({(_sort_key(r)[0], r["model"]) for r in rows})
        for tau_sort, model in groups:
            sub = [r for r in rows if r["model"] == model and _sort_key(r)[0] == tau_sort]
            m_r, s_r = _mean_std([r["r_squared"] for r in sub])
            m_t, s_t = _mean_std([r["tau_hat"] for r in sub])
            out.append(
                {
                    "experiment_id": cfg.experiment_id,
                    "tau_star": "" if tau_sort < 0 else tau_sort,
                    "model": model,
                    "mean_r_squared": m_r,
                    "std_r_squared": s_r,
                    "mean_tau_hat": m_t,
                    "std_tau_hat": s_t,
                    "n_seeds": len(sub),
                }
            )
        return cols, out

    cols = (
        "experiment_id",
        "tau_star",
        "model",
        "outcome",
        "mean_survival_l1",
        "std_survival_l1",
        "mean_tau_hat",
        "std_tau_hat",
        "n_seeds",
    )
    out = []
    for tau in sorted({r["tau_star"] for r in rows}):
        for model in ("copula", "independence"):
            sub = [r for r in rows if r["tau_star"] == tau and r["model"] == model]
            if not sub:
                continue
            m_t, s_t = _mean_std([r["tau_hat"] for r in sub])
            for outcome in ("event", "censor"):
                m_l, s_l = _mean_std([r[f"survival_l1_{outcome}"] for r in sub])
                out.append(
                    {
                        "experiment_id": cfg.experiment_id,
                        "tau_star": tau,
                        "model": model,
                        "outcome": outcome,
                        "mean_survival_l1": m_l,
                        "std_survival_l1": s_l,
                        "mean_tau_hat": m_t,
                        "std_tau_hat": s_t,
                        "n_seeds": len(sub),
                    }
                )
    return cols, out


@dataclass
class ExperimentResult:
    out_dir: str
    rows: list
    failures: list

    @property
    def arms_csv(self) -> str:
        return str(Path(self.out_dir) / "arms.csv")

    @property
    def summary_csv(self) -> str:
        return str(Path(self.out_dir) / "summary.csv")


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
    raised only if every arm fails.  On the pool path an arm function or
    payload that cannot be pickled raises ``pickle.PicklingError`` and a dead
    worker raises ``BrokenProcessPool``; neither is recorded as an arm failure.
    """
    workers = 1 if workers is None else workers
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    arm_fn, payloads = _arm_payloads(cfg, str(out))
    rows: List[dict] = []
    failures: List[dict] = []

    def consume(payload, outcome, error):
        if error is not None:
            arm_desc = "/".join(str(p) for p in payload[1:-1])
            failures.append(
                {"arm": arm_desc, "error": type(error).__name__, "message": str(error)}
            )
        else:
            rows.extend(outcome[1])

    if workers <= 1 or len(payloads) <= 1:
        for payload in payloads:
            try:
                consume(payload, arm_fn(payload), None)
            except Exception as exc:  # noqa: BLE001 - isolate arm failures
                consume(payload, None, exc)
    else:
        _check_picklable(arm_fn, payloads)
        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            futures = [pool.submit(arm_fn, p) for p in payloads]
            for payload, future in zip(payloads, futures):
                try:
                    consume(payload, future.result(), None)
                except BrokenProcessPool:
                    raise
                except Exception as exc:  # noqa: BLE001
                    consume(payload, None, exc)

    rows.sort(key=_sort_key)
    columns = BIAS_COLUMNS if cfg.kind == "metric_bias" else SWEEP_COLUMNS
    _write_csv(out / "arms.csv", columns, rows)
    sum_cols, sum_rows = _summarize(cfg, rows)
    _write_csv(out / "summary.csv", sum_cols, sum_rows)
    if failures:
        with open(out / "failures.json", "w", encoding="utf-8") as fh:
            json.dump(failures, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if rows == [] and failures:
        raise NumericalFailure(
            f"all {len(failures)} experiment arms failed; see {out / 'failures.json'}"
        )
    return ExperimentResult(out_dir=str(out), rows=rows, failures=failures)
