"""Command line interface.

Subcommands:

* ``generate``   draw a synthetic censored-survival dataset from a preset
* ``censor``     impose copula-dependent censoring on a regression CSV
* ``train``      fit event and censoring marginals coupled by a copula
* ``evaluate``   score a checkpoint on a dataset, optionally against truth
* ``experiment`` run a multi-arm study from a JSON config

Exit codes: 0 on success, 1 for invalid input or arguments, 2 for a
numerical failure during optimization, 3 for I/O errors.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .copulas import Family, spec_from_tau, theta_to_tau
from .data import SurvivalDataset, load_regression_csv, read_json, write_json
from .datagen import (PRESETS, censor_regression, fit_regression_marginal, generate_synthetic,
                      regression_table, sidecar_dict, truth_from_sidecar)
from .errors import DomainError, NumericalFailure, UndefinedMetricError, ValidationError
from .experiments import ExperimentConfig, evaluate_fitted, run_experiment
from .metrics import SurvivalL1Config, survival_l1  # noqa: F401 (perfbench's tracer test binds it here)
from .training import FittedJointModel, TrainConfig, fit
from .weibull import RISK_KINDS

FAMILIES = tuple(family.value for family in Family)


def non_negative_int(text) -> int:
    """The value of every ``--seed`` flag, an integer >= 0 as numpy's generators take."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def unit_interval(text) -> float:
    """The value of ``--kappa``, a number in [0, 1] whatever the family."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _write_draw(out, dataset, sidecar_name: str, sidecar: dict, latent=None) -> int:
    """Writes ``dataset`` as ``out``/data.csv, ``latent`` (if given) as
    latent.csv and ``sidecar`` as ``sidecar_name``, then reports the draw."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    dataset.save_csv(out / "data.csv")
    if latent is not None:
        latent.save_csv(out / "latent.csv")
    write_json(out / sidecar_name, sidecar)
    frac = 1.0 - dataset.delta.mean()
    print(f"wrote {out / 'data.csv'}: {len(dataset)} records, censoring fraction {frac:.3f}")
    return 0


def cmd_generate(args) -> int:
    spec = spec_from_tau(args.family, args.tau, args.kappa)
    cfg = PRESETS[args.preset](args.seed, n=args.n, copula=spec)
    dataset, _, latent = generate_synthetic(cfg)
    return _write_draw(args.out, dataset, "truth.json", sidecar_dict(cfg, tau=args.tau), latent)


def cmd_censor(args) -> int:
    x, y, shift = regression_table(*load_regression_csv(args.data, args.target),
                                   f"{args.data}: {args.target!r}", shift=args.shift,
                                   hint="; pass --shift to translate the targets")
    spec = spec_from_tau(args.family, args.tau, args.kappa)
    marginal = fit_regression_marginal(x, y, TrainConfig(seed=args.seed))
    dataset, _ = censor_regression(marginal, spec, args.seed)
    return _write_draw(args.out, dataset, "censoring.json", {
        "source": str(args.data),
        "target_column": args.target,
        "copula": spec.to_dict(),
        "tau": args.tau,
        "seed": args.seed,
        "shift": shift,
        "censoring_fraction": float(1.0 - dataset.delta.mean()),
        "standardize_mean": [float(v) for v in marginal.mean],
        "standardize_std": [float(v) for v in marginal.std],
        "event_model": marginal.event_model.to_dict(),
        "censor_model": marginal.censor_model.to_dict(),
    })


def cmd_train(args) -> int:
    data = SurvivalDataset.load_csv(args.data)
    cfg = TrainConfig.from_dict(read_json(args.config)) if args.config else TrainConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    fitted = fit(data, args.event_risk, args.censor_risk, args.family, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fitted.save(out / "checkpoint.json")
    fitted.trace.to_csv(out / "trace.csv")
    print(
        f"best_epoch={fitted.best_epoch} "
        f"val_negloglik={fitted.best_val_negloglik!r} "
        f"tau_hat={theta_to_tau(fitted.copula)!r}"
    )
    return 0


def cmd_evaluate(args) -> int:
    fitted = FittedJointModel.load(args.checkpoint)
    data = SurvivalDataset.load_csv(args.data)
    truth = truth_from_sidecar(read_json(args.truth)) if args.truth else None
    report = evaluate_fitted(fitted, truth, data, SurvivalL1Config(), eval_time=args.eval_time)
    print(report.save(args.out), end="")
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_dict(read_json(args.config))
    result = run_experiment(cfg, args.out, workers=args.workers)
    print(f"wrote {len(result.rows)} rows to {result.arms_csv}")
    if result.failures:
        print(f"{len(result.failures)} arms failed; see failures.json", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copsurv",
        description="Weibull survival models under copula-dependent censoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the copula flags of the two commands that draw censoring times
    draw = argparse.ArgumentParser(add_help=False)
    draw.add_argument("--family", choices=FAMILIES[1:], default="clayton")
    draw.add_argument("--tau", type=float, required=True, help="Kendall's tau; 0 = independence")
    draw.add_argument("--kappa", type=unit_interval, default=0.5,
                      help="mixture weight on the Frank part, in [0, 1]")
    draw.add_argument("--seed", type=non_negative_int, default=0)

    p = sub.add_parser("generate", parents=[draw], help="draw a synthetic dataset from a preset")
    p.add_argument("--preset", choices=sorted(PRESETS), default="linear_risk")
    p.add_argument("--n", type=int, default=9000)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("censor", parents=[draw],
                       help="impose dependent censoring on a regression CSV")
    p.add_argument("--data", required=True, help="input CSV with covariates and a target column")
    p.add_argument("--target", required=True, help="name of the target column")
    p.add_argument("--shift", action="store_true",
                   help="shift nonpositive targets instead of rejecting them")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_censor)

    p = sub.add_parser("train", help="fit a joint event/censoring model")
    p.add_argument("--data", required=True, help="survival CSV (x0..xk,time,event)")
    p.add_argument("--family", choices=FAMILIES, default="clayton")
    p.add_argument("--event-risk", choices=RISK_KINDS, default="linear")
    p.add_argument("--censor-risk", choices=RISK_KINDS, default="linear")
    p.add_argument("--config", help="JSON file of training settings")
    p.add_argument("--seed", type=non_negative_int, help="overrides the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--truth", help="truth sidecar JSON enabling survival-L1 columns")
    p.add_argument("--eval-time", type=float, help="Brier evaluation time (default: median)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run a multi-arm study")
    p.add_argument("--config", required=True, help="experiment JSON config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValidationError, DomainError, UndefinedMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
